"""Asset book loading and the shipped default roster."""

import numpy as np
import pytest

from crisp.universe import (
    DEFAULT_TICKERS,
    DEFENSIVE_TICKERS,
    load_asset_book,
)


def test_default_book_shape():
    book = load_asset_book()
    assert book.tickers() == DEFAULT_TICKERS
    assert len(book.tickers()) == 13
    assert book.defensive == DEFENSIVE_TICKERS
    assert len(book.defensive) == 8
    assert set(book.defensive) <= set(book.tickers())
    for t in book.tickers():
        assert book.sector_map[t]
        assert book.region_map[t]


def test_defensive_mask_order():
    book = load_asset_book()
    mask = book.defensive_mask(["CL", "ORCL", "WMT"])
    assert mask.dtype == np.float64
    assert mask.tolist() == [1.0, 0.0, 1.0]


def test_custom_csv_round_trip(tmp_path):
    path = tmp_path / "book.csv"
    path.write_text("ticker,sector,region\nWMT,staples,US\nZZ,tech,EU\n\n")
    book = load_asset_book(str(path))
    assert book.tickers() == ["WMT", "ZZ"]
    assert book.region_map["ZZ"] == "EU"
    # defensive list is the shipped default intersected with the file
    assert book.defensive == ["WMT"]


def test_missing_column_rejected(tmp_path):
    path = tmp_path / "book.csv"
    path.write_text("ticker,sector\nWMT,staples\n")
    with pytest.raises(ValueError, match="region"):
        load_asset_book(str(path))


def test_duplicate_ticker_rejected(tmp_path):
    path = tmp_path / "book.csv"
    path.write_text("ticker,sector,region\nWMT,staples,US\nWMT,tech,US\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_asset_book(str(path))


def test_empty_book_rejected(tmp_path):
    path = tmp_path / "book.csv"
    path.write_text("ticker,sector,region\n")
    with pytest.raises(ValueError, match="empty"):
        load_asset_book(str(path))


@pytest.mark.parametrize("rows, line, ticker", [
    ("WMT,staples,US\nZZ,tech\n", 3, "ZZ"),            # no region field at all
    ("WMT,,US\nZZ,tech,EU\n", 2, "WMT"),               # blank sector
    ("WMT,staples,US\nZZ,tech, \n", 3, "ZZ"),           # blank region
], ids=["short_row", "blank_sector", "blank_region"])
def test_row_missing_sector_or_region_rejected(tmp_path, rows, line, ticker):
    path = tmp_path / "book.csv"
    path.write_text("ticker,sector,region\n" + rows)
    with pytest.raises(ValueError, match=f"line {line}: ticker '{ticker}' has a blank "
                                         f"sector or region"):
        load_asset_book(str(path))
