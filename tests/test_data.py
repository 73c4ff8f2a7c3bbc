"""Market data: CSV ingestion, the regime-switching generator, windowing."""

import numpy as np
import pytest

from crisp.data import (
    RegimeConfig,
    Universe,
    generate_synthetic,
    load_csv,
    make_windows,
    split_windows,
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


def test_universe_validation():
    with pytest.raises(ValueError, match="ticker count"):
        Universe(tickers=["A"], dates=["d0"], closes=np.ones((2, 1)),
                 volumes=np.ones((2, 1)), returns=np.ones((2, 1)),
                 return_dates=["d0"])


def test_market_returns_equal_weight_mean(rng):
    r = rng.standard_normal((3, 5)) * 0.01
    u = Universe(tickers=list("ABC"), dates=[f"d{i}" for i in range(5)],
                 closes=np.ones((3, 5)), volumes=np.ones((3, 5)),
                 returns=r, return_dates=[f"d{i}" for i in range(5)])
    assert np.allclose(u.market_returns(), r.mean(axis=0), atol=1e-15)


def test_regime_config_validates_rows():
    cfg = RegimeConfig()
    trans = cfg.transition_matrix()
    assert np.abs(trans.sum(axis=1) - 1.0).max() < 1e-12
    with pytest.raises(ValueError):
        RegimeConfig(p_calm_to_crisis=1.5)
    with pytest.raises(ValueError):
        RegimeConfig(calm_vol=-0.1)
    with pytest.raises(ValueError):
        RegimeConfig(crisis_corr=1.0)


def test_synthetic_deterministic():
    a = generate_synthetic(TICKERS3, 100, seed=9)
    b = generate_synthetic(TICKERS3, 100, seed=9)
    assert np.array_equal(a.returns, b.returns)
    assert np.array_equal(a.regimes, b.regimes)
    c = generate_synthetic(TICKERS3, 100, seed=10)
    assert not np.array_equal(a.returns, c.returns)


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
    assert np.allclose(u.closes, 100.0 * np.cumprod(1.0 + u.returns, axis=1),
                       atol=1e-9)
    assert (u.volumes > 0).all()


def test_make_windows_counts():
    u = generate_synthetic(TICKERS3, 30, seed=6)
    assert len(make_windows(u, 20, 5, 5)) == 2
    u = generate_synthetic(TICKERS3, 25, seed=6)
    assert len(make_windows(u, 20, 5, 5)) == 1
    with pytest.raises(ValueError, match="cannot fit"):
        make_windows(generate_synthetic(TICKERS3, 24, seed=6), 20, 5, 5)


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


def test_split_windows_membership_oracle():
    u = generate_synthetic(TICKERS3, 1000, seed=9)
    windows = make_windows(u, 20, 5, 5)
    train, test, dropped = split_windows(windows, horizon=5, train_frac=0.8)
    assert len(train) + len(test) + dropped == len(windows)
    assert dropped >= 0
    ids = {id(w) for w in windows}
    assert all(id(w) in ids for w in train + test)
    assert not ({id(w) for w in train} & {id(w) for w in test})
    boundary = max(w.end + 5 for w in train)
    assert all(w.start > boundary for w in test)


def test_split_windows_all_before_boundary():
    u = generate_synthetic(TICKERS3, 100, seed=10)
    windows = make_windows(u, 20, 5, 5)
    train, test, dropped = split_windows(windows, horizon=5, train_frac=1.0)
    assert test == [] and len(train) + dropped == len(windows)


def test_padded_inputs_shapes_and_flat_lead():
    u = generate_synthetic(TICKERS3, 40, seed=11)
    p, v, m = u.padded_inputs(20)
    assert p.shape == (2, 60) and v.shape == (2, 60) and m.shape == (60,)
    assert (p[:, :21] == p[:, :1]).all()  # pad replicates the first column
    assert (m[:20] == 0.0).all()
