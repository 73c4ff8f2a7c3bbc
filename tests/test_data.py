"""Market data: CSV ingestion, the regime-switching generator, windowing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisp.data import (
    RegimeConfig,
    Universe,
    generate_synthetic,
    load_csv,
    make_windows,
    save_csv,
)

TICKERS3 = ["AAA", "BBB"]


def write_csv(tmp_path, rows):
    path = tmp_path / "prices.csv"
    path.write_text("date,ticker,close,volume\n" + "\n".join(rows) + "\n")
    return str(path)


def test_load_csv_two_tickers_three_days(tmp_path):
    rows = [f"2020-01-0{d},{t},{100 + d},{1000}"
            for t in TICKERS3 for d in (1, 2, 3)]
    u = load_csv(write_csv(tmp_path, rows), TICKERS3)
    assert u.n_assets == 2
    assert len(u.dates) == 3
    assert u.returns.shape == (2, 2)
    assert np.allclose(u.returns[0], [1 / 101, 1 / 102])


def test_load_csv_constant_prices_zero_returns(tmp_path):
    rows = [f"2020-01-0{d},{t},50,10" for t in TICKERS3 for d in (1, 2, 3)]
    u = load_csv(write_csv(tmp_path, rows), TICKERS3)
    assert np.array_equal(u.returns, np.zeros((2, 2)))


def test_load_csv_intersects_calendar(tmp_path):
    rows = [f"2020-01-0{d},AAA,10,1" for d in (1, 2, 3)]
    rows += [f"2020-01-0{d},BBB,20,1" for d in (1, 3)]  # missing the 2nd
    u = load_csv(write_csv(tmp_path, rows), TICKERS3)
    assert u.dates == ["2020-01-01", "2020-01-03"]


def test_load_csv_missing_ticker_listed(tmp_path):
    rows = [f"2020-01-0{d},AAA,10,1" for d in (1, 2)]
    with pytest.raises(ValueError, match="BBB"):
        load_csv(write_csv(tmp_path, rows), TICKERS3)


def test_load_csv_rejects_nonpositive_prices(tmp_path):
    rows = ["2020-01-01,AAA,10,1", "2020-01-02,AAA,-5,1", "2020-01-03,AAA,11,1",
            "2020-01-01,BBB,1,1", "2020-01-02,BBB,1,1", "2020-01-03,BBB,1,1"]
    u = load_csv(write_csv(tmp_path, rows), TICKERS3)
    # the bad AAA row drops that date for everyone via intersection
    assert u.dates == ["2020-01-01", "2020-01-03"]


@pytest.mark.parametrize("close,volume", [("nan", "1"), ("inf", "1"), ("10", "nan")])
def test_load_csv_rejects_nonfinite_values(tmp_path, close, volume):
    rows = ["2020-01-01,AAA,10,1", f"2020-01-02,AAA,{close},{volume}",
            "2020-01-03,AAA,11,1"]
    with pytest.raises(ValueError, match=r"line 3 \(AAA on 2020-01-02\).*non-finite"):
        load_csv(write_csv(tmp_path, rows), ["AAA"])


@pytest.mark.parametrize("bad_row", ["2020-01-02,AAA,abc,1", "2020-01-02,AAA,10,1e",
                                     "2020-01-02,AAA,10"])
def test_load_csv_rejects_unparseable_numbers(tmp_path, bad_row):
    rows = ["2020-01-01,AAA,10,1", bad_row, "2020-01-03,AAA,11,1"]
    with pytest.raises(ValueError, match=r"line 3 \(AAA on 2020-01-02\).*unparseable"):
        load_csv(write_csv(tmp_path, rows), ["AAA"])


def test_load_csv_rejects_negative_volume(tmp_path):
    rows = [f"2020-01-0{d},AAA,10,1" for d in (1, 2)] + ["2020-01-03,AAA,11,-4"]
    with pytest.raises(ValueError, match=r"line 4 \(AAA on 2020-01-03\).*negative volume"):
        load_csv(write_csv(tmp_path, rows), ["AAA"])


@pytest.mark.parametrize("first_close", ["11", "-5"])   # kept or dropped first row
def test_load_csv_rejects_duplicate_rows(tmp_path, first_close):
    rows = ["2020-01-01,AAA,10,1", f"2020-01-02,AAA,{first_close},1",
            "2020-01-02,AAA,50,1", "2020-01-03,AAA,12,1"]
    with pytest.raises(ValueError, match=r"line 4 \(AAA on 2020-01-02\).*duplicate"):
        load_csv(write_csv(tmp_path, rows), ["AAA"])


def test_load_csv_rejects_a_ticker_requested_twice(tmp_path):
    rows = [f"2020-01-0{d},{t},{100 + d},1000" for t in TICKERS3 for d in (1, 2, 3)]
    with pytest.raises(ValueError, match=r"duplicate tickers \['AAA'\]"):
        load_csv(write_csv(tmp_path, rows), ["AAA", "BBB", "AAA"])


def test_load_csv_ignores_rows_of_unrequested_tickers(tmp_path):
    rows = [f"2020-01-0{d},AAA,10,1" for d in (1, 2)]
    rows += ["2020-01-01,ZZZ,nan,-1", "2020-01-01,ZZZ,nan,-1"]
    u = load_csv(write_csv(tmp_path, rows), ["AAA"])
    assert u.tickers == ["AAA"] and len(u.dates) == 2


def test_load_csv_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("day,symbol,price\n2020-01-01,AAA,3\n")
    with pytest.raises(ValueError, match="date,ticker,close,volume"):
        load_csv(str(path), ["AAA"])


@st.composite
def csv_market(draw):
    """A valid long-format market: every ticker on every day, rows shuffled."""
    tickers = ["AAA", "BBB", "CCC"][:draw(st.integers(1, 3))]
    days = [f"2020-01-{d:02d}" for d in range(1, draw(st.integers(2, 6)) + 1)]
    closes = st.floats(0.01, 1e6, allow_nan=False, allow_infinity=False)
    volumes = st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False)
    cells = [(d, t, draw(closes), draw(volumes)) for t in tickers for d in days]
    return tickers, days, draw(st.permutations(cells))


def _csv_line(date, ticker, close, volume):
    return f"{date},{ticker},{close!r},{volume!r}"


@settings(max_examples=60, deadline=None)
@given(csv_market())
def test_load_csv_property_valid_market_loads(tmp_path_factory, market):
    tickers, days, cells = market
    path = tmp_path_factory.mktemp("csv") / "prices.csv"
    path.write_text("date,ticker,close,volume\n"
                    + "\n".join(_csv_line(*c) for c in cells) + "\n")
    u = load_csv(str(path), tickers)
    assert u.dates == days
    want = {(d, t): (c, v) for d, t, c, v in cells}
    for i, t in enumerate(tickers):
        assert [(u.closes[i, j], u.volumes[i, j]) for j in range(len(days))] == \
            [want[(d, t)] for d in days]


@settings(max_examples=60, deadline=None)
@given(csv_market(), st.sampled_from(["nan", "inf", "-inf", "abc", "neg_volume",
                                      "duplicate"]),
       st.data())
def test_load_csv_property_bad_row_names_its_line(tmp_path_factory, market, kind, data):
    tickers, _, cells = market
    lines = [_csv_line(*c) for c in cells]
    k = data.draw(st.integers(0, len(lines) - 1), label="bad row")
    date, ticker, close, volume = cells[k]
    if kind == "duplicate":
        # a second row for cell k, placed after it; the later copy is the bad one
        at = data.draw(st.integers(k + 1, len(lines)), label="copy position")
        lines.insert(at, _csv_line(date, ticker, close + 1.0, volume))
        bad, problem = at, "duplicate"
    elif kind == "neg_volume":
        lines[k] = _csv_line(date, ticker, close, -1.0 - volume)
        bad, problem = k, "negative volume"
    else:
        lines[k] = f"{date},{ticker},{kind},{volume!r}"
        bad, problem = k, "unparseable" if kind == "abc" else "non-finite"
    path = tmp_path_factory.mktemp("csv") / "prices.csv"
    path.write_text("date,ticker,close,volume\n" + "\n".join(lines) + "\n")
    # file line numbers count the header as line 1
    with pytest.raises(ValueError, match=rf"line {bad + 2} \({ticker} on {date}\).*{problem}"):
        load_csv(str(path), tickers)


def _panel(n=2, r=3, **changes):
    """Universe arguments in the one layout (R+1 closes for R returns), then ``changes``."""
    args = dict(tickers=[f"T{i}" for i in range(n)], dates=[f"d{i}" for i in range(r + 1)],
                closes=np.ones((n, r + 1)), volumes=np.ones((n, r + 1)),
                returns=np.zeros((n, r)), regimes=np.zeros(r, dtype=np.int64))
    return {**args, **changes}


def test_universe_validation():
    u = Universe(**_panel())
    assert u.return_dates == ["d1", "d2", "d3"] and u.n_return_days == 3
    assert Universe(**_panel(regimes=None)).regimes is None
    for changes, message in [
        (dict(tickers=["A"]), r"returns has shape \(2, 3\); 1 tickers over 3 return days "
                              r"need \(1, 3\)"),
        (dict(closes=np.ones((2, 3))), r"closes has shape \(2, 3\);.* need \(2, 4\)"),
        (dict(closes=np.ones((3, 4))), r"closes has shape \(3, 4\);.* need \(2, 4\)"),
        (dict(volumes=np.ones((2, 5))), r"volumes has shape \(2, 5\);.* need \(2, 4\)"),
        (dict(dates=["d0", "d1", "d2"]), r"dates has shape \(3,\);.* need \(4,\)"),
        (dict(dates=[f"d{i}" for i in range(5)]), r"dates has shape \(5,\);.* need \(4,\)"),
        (dict(regimes=np.zeros(4, dtype=np.int64)), r"regimes has shape \(4,\);.* need \(3,\)"),
        (dict(regimes=np.zeros((1, 3))), r"regimes has shape \(1, 3\);.* need \(3,\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            Universe(**_panel(**changes))
    with pytest.raises(TypeError):      # derived from dates, never given
        Universe(**_panel(), return_dates=["d1", "d2", "d3"])


def test_market_returns_equal_weight_mean(rng):
    r = rng.standard_normal((3, 5)) * 0.01
    u = Universe(tickers=list("ABC"), dates=[f"d{i}" for i in range(6)],
                 closes=np.ones((3, 6)), volumes=np.ones((3, 6)), returns=r)
    assert np.allclose(u.market_returns(), r.mean(axis=0), atol=1e-15)


def test_save_csv_round_trips_a_synthetic_market(tmp_path):
    u = generate_synthetic([f"S{i}" for i in range(5)], 120, seed=7, defensive_indices=[1])
    path = str(tmp_path / "market.csv")
    save_csv(u, path)
    back = load_csv(path, u.tickers)
    assert back.tickers == u.tickers
    assert back.dates == u.dates and back.return_dates == u.return_dates
    assert back.closes.tobytes() == np.ascontiguousarray(u.closes).tobytes()
    assert back.volumes.tobytes() == np.ascontiguousarray(u.volumes).tobytes()
    assert back.returns.shape == u.returns.shape == (5, 120)
    assert np.abs(back.returns - u.returns).max() <= 1e-15


def test_regime_config_validates_rows():
    with pytest.raises(ValueError):
        RegimeConfig(p_calm_to_crisis=1.5)
    with pytest.raises(ValueError):
        RegimeConfig(calm_vol=-0.1)
    with pytest.raises(ValueError):
        RegimeConfig(crisis_corr=1.0)


def test_synthetic_rejects_duplicate_tickers():
    with pytest.raises(ValueError, match=r"duplicate tickers \['A', 'C'\]"):
        generate_synthetic(["C", "A", "B", "A", "C", "C"], 30, seed=0)


def test_synthetic_deterministic():
    a = generate_synthetic(TICKERS3, 100, seed=9)
    b = generate_synthetic(TICKERS3, 100, seed=9)
    assert np.array_equal(a.returns, b.returns)
    assert np.array_equal(a.regimes, b.regimes)
    c = generate_synthetic(TICKERS3, 100, seed=10)
    assert not np.array_equal(a.returns, c.returns)


def reference_regimes(days, seed, config):
    """The regime chain drawn with one ``rng.random()`` call per day, and the
    generator it leaves behind."""
    rng = np.random.default_rng(seed)
    leave = (config.p_calm_to_crisis, config.p_crisis_to_calm)
    regimes = np.empty(days, dtype=np.int64)
    state = 0
    for t in range(days):
        regimes[t] = state
        state = 1 - state if rng.random() < leave[state] else state
    return regimes, rng


@pytest.mark.parametrize("p_in, p_out", [(0.02, 0.10), (0.0, 0.0), (1.0, 1.0), (0.3, 0.0)])
def test_synthetic_market_matches_the_per_day_draws(p_in, p_out):
    cfg = RegimeConfig(p_calm_to_crisis=p_in, p_crisis_to_calm=p_out)
    for seed in range(20):
        days = 50 + 13 * seed
        regimes, rng = reference_regimes(days, seed, cfg)
        u = generate_synthetic(TICKERS3, days, seed, cfg)
        assert np.array_equal(u.regimes, regimes)
        # the factor and idiosyncratic shocks come next in the stream
        factor, idio = rng.standard_normal(days), rng.standard_normal((2, days))
        calm = regimes == 0
        mean = np.where(calm, cfg.calm_mean, cfg.crisis_mean)
        vol = np.where(calm, cfg.calm_vol, cfg.crisis_vol)
        corr = np.where(calm, cfg.calm_corr, cfg.crisis_corr)
        want = mean + vol * (np.sqrt(corr) * factor + np.sqrt(1.0 - corr) * idio)
        assert u.returns.tobytes() == want.tobytes()


def test_synthetic_crisis_correlation_exceeds_calm():
    u = generate_synthetic([f"S{i}" for i in range(8)], 5000, seed=2)
    r = u.returns

    def avg_pairwise(mask):
        c = np.corrcoef(r[:, mask])
        off = c[~np.eye(c.shape[0], dtype=bool)]
        return off.mean()

    calm = u.regimes == 0
    crisis = u.regimes == 1
    assert crisis.sum() > 50 and calm.sum() > 50
    assert avg_pairwise(crisis) > avg_pairwise(calm) + 0.2


def test_synthetic_defensive_damping():
    cfg = RegimeConfig()
    u = generate_synthetic([f"S{i}" for i in range(6)], 8000, seed=3,
                           config=cfg, defensive_indices=[0, 1])
    crisis = u.regimes == 1
    assert crisis.sum() > 200
    vol_def = u.returns[:2, crisis].std(ddof=1)
    vol_other = u.returns[2:, crisis].std(ddof=1)
    # damping factor 0.4 with a non-negative mean floor
    assert vol_def < 0.6 * vol_other
    assert u.returns[:2, crisis].mean() > u.returns[2:, crisis].mean()


def test_synthetic_occupancy_near_stationary():
    cfg = RegimeConfig()
    u = generate_synthetic(TICKERS3, 50_000, seed=4, config=cfg)
    # stationary crisis share of the 2-state chain: p12 / (p12 + p21)
    target = cfg.p_calm_to_crisis / (cfg.p_calm_to_crisis + cfg.p_crisis_to_calm)
    assert abs((u.regimes == 1).mean() - target) < 0.05


def test_synthetic_prices_compound_from_returns():
    u = generate_synthetic(TICKERS3, 50, seed=5)
    assert u.closes.shape == u.volumes.shape == (2, 51) and len(u.dates) == 51
    assert (u.closes[:, 0] == 100.0).all()        # the base day
    assert np.allclose(u.closes[:, 1:], 100.0 * np.cumprod(1.0 + u.returns, axis=1),
                       atol=1e-9)
    assert (u.volumes > 0).all()
    assert u.dates[0] == "d00000" and u.return_dates[0] == "d00001"


def test_make_windows_counts():
    u = generate_synthetic(TICKERS3, 30, seed=6)
    assert len(make_windows(u, 20, 5, 5)) == 2
    u = generate_synthetic(TICKERS3, 25, seed=6)
    assert len(make_windows(u, 20, 5, 5)) == 1
    with pytest.raises(ValueError, match="cannot fit"):
        make_windows(generate_synthetic(TICKERS3, 24, seed=6), 20, 5, 5)


@pytest.mark.parametrize("window, horizon, stride, name", [
    (0, 5, 5, "window"), (20, 0, 5, "horizon"), (20, -1, 5, "horizon"), (20, 5, 0, "stride"),
])
def test_make_windows_rejects_lengths_below_one(window, horizon, stride, name):
    u = generate_synthetic(TICKERS3, 60, seed=6)
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        make_windows(u, window, horizon, stride)


def test_make_windows_five_day_rebalance_arithmetic():
    # 710 trading days at a 5-day cadence is 142 holding periods
    assert 710 // 5 == 142


def test_make_windows_count_formula_matches_brute_force(rng):
    for _ in range(100):
        days = int(rng.integers(26, 400))
        stride = int(rng.integers(1, 11))
        u = generate_synthetic(TICKERS3, days, seed=7)
        got = len(make_windows(u, 20, 5, stride))
        brute = sum(1 for s in range(0, days, stride)
                    if s % stride == 0 and s + 20 + 5 <= days)
        assert got == brute


def test_window_targets_follow_features():
    u = generate_synthetic(TICKERS3, 60, seed=8)
    for w in make_windows(u, 20, 5, 5):
        assert w.end == w.start + 19
        assert np.array_equal(w.target, u.returns[:, w.end + 1:w.end + 6])
        assert w.end_date == u.return_dates[w.end]
        assert w.regime in (0, 1)


def test_padded_inputs_shapes_and_flat_lead():
    u = generate_synthetic(TICKERS3, 40, seed=11)
    p, v, m = u.padded_inputs(20)
    assert p.shape == (2, 60) and v.shape == (2, 60) and m.shape == (60,)
    assert (p[:, :21] == p[:, :1]).all()  # pad replicates the first column
    assert (m[:20] == 0.0).all()
