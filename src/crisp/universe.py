"""Default 13-asset roster with sector/region metadata and the defensive set.

The shipped classification is a public, editable default (CSV
``ticker,sector,region``); users can point the pipeline at their own file.
"""

from __future__ import annotations

import csv
import importlib.resources

import numpy as np

__all__ = [
    "DEFAULT_TICKERS",
    "DEFENSIVE_TICKERS",
    "AssetBook",
    "load_asset_book",
]

DEFAULT_TICKERS = [
    "WMT", "CL", "JNJ", "KR", "GILD", "AWK", "ABT",
    "ORCL", "MCD", "NU", "XEL", "VZ", "HCN",
]

# Protective subset tracked in attention telemetry.
DEFENSIVE_TICKERS = ["WMT", "CL", "JNJ", "KR", "AWK", "ABT", "NU", "XEL"]


class AssetBook:
    """Sector/region maps plus the defensive membership list."""

    def __init__(self, sector_map: dict[str, str], region_map: dict[str, str],
                 defensive: list[str]):
        self.sector_map = dict(sector_map)
        self.region_map = dict(region_map)
        self.defensive = list(defensive)

    def tickers(self) -> list[str]:
        return list(self.sector_map.keys())

    def defensive_mask(self, tickers: list[str]) -> np.ndarray:
        """(N,) float64 array, 1.0 where the ticker is in the defensive set."""
        dset = set(self.defensive)
        return np.array([t in dset for t in tickers], dtype=np.float64)


def load_asset_book(path: str | None = None) -> AssetBook:
    """Read a ticker,sector,region CSV; None loads the packaged default.

    Rows with a blank ticker are skipped; a row missing its sector or region,
    or leaving either blank, is rejected with its line number.
    """
    if path is None:
        ref = importlib.resources.files("crisp").joinpath("assets/universe_default.csv")
        text = ref.read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    sector: dict[str, str] = {}
    region: dict[str, str] = {}
    reader = csv.DictReader(text.splitlines(), restval="")
    required = {"ticker", "sector", "region"}
    if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
        raise ValueError(
            f"asset book needs columns ticker,sector,region; got {reader.fieldnames}")
    for row in reader:
        t = row["ticker"].strip()
        if not t:
            continue
        if t in sector:
            raise ValueError(f"duplicate ticker {t!r} in asset book")
        sector[t] = row["sector"].strip()
        region[t] = row["region"].strip()
        if not (sector[t] and region[t]):
            raise ValueError(f"asset book {path or 'default'} line {reader.line_num}: "
                             f"ticker {t!r} has a blank sector or region")
    if not sector:
        raise ValueError("asset book is empty")
    defensive = [t for t in DEFENSIVE_TICKERS if t in sector]
    return AssetBook(sector, region, defensive)
