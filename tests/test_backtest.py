"""Backtester walk, classical baselines, and the model-backed strategy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisp import backtest
from crisp.allocation import PortfolioWeights, project_constraints
from crisp.backtest import (
    ABLATION_NAMES,
    BacktestReport,
    Strategy,
    ablation_csv,
    attach_features,
    crisp_strategy,
    equal_weight,
    mean_variance,
    random_selection,
    risk_parity,
    risk_parity_weights,
    run_backtest,
    static_adjacency_at,
    train_on_universe,
)
from crisp.data import generate_synthetic, make_windows
from crisp.features import PAD, compute_features
from crisp.model import ModelConfig
from crisp.objectives import MetricSet
from crisp.spatial import build_prior, correlation_adjacency, normalize_adjacency
from crisp.training import TrainConfig

from conftest import DEFENSIVE_IDX
from test_allocation import reference_projection


@pytest.fixture(scope="module")
def five_universe():
    return generate_synthetic(["A", "B", "C", "D", "E"], 80, seed=7)


@pytest.fixture(scope="module")
def five_windows(five_universe):
    return make_windows(five_universe, 20, 5, 5)


@pytest.fixture(scope="module")
def trained_checkpoint(book, small_universe, prior):
    windows = make_windows(small_universe, 20, 5, 5)
    cfg = TrainConfig(learning_rate=5e-4, lr_min=5e-4, batch_size=6, max_epochs=2,
                      patience=5, val_fraction=0.2, seed=0)
    model, result = train_on_universe(small_universe, book, prior, windows[:12],
                                      ModelConfig(), cfg)
    return result.checkpoint


@pytest.fixture(scope="module")
def year_universe(book):
    """13 assets with more than a 252-day lookback of history."""
    return generate_synthetic(book.tickers(), 300, seed=11,
                              defensive_indices=DEFENSIVE_IDX)


def reference_mean_variance_weights(universe, end, risk_aversion, lookback):
    """The plain mean-variance loop, nothing hoisted: ``mean_variance``'s bitwise oracle."""
    n = universe.n_assets
    hist = universe.returns[:, end + 1 - lookback:end + 1]
    mu = hist.mean(axis=1)
    sigma = np.cov(hist) + 1e-6 * np.eye(n)
    w = np.full(n, 1.0 / n)
    for _ in range(500):
        grad = mu - 2.0 * risk_aversion * (sigma @ w)
        w = reference_projection(w + 0.01 * grad)
    return w


def reference_risk_parity_weights(cov):
    """Risk parity on numpy scalars, nothing hoisted: ``risk_parity_weights``' bitwise oracle."""
    c = np.asarray(cov, dtype=np.float64)
    n = c.shape[0]
    diag = np.diag(c)
    if (diag <= 0.0).any():
        raise ValueError("risk parity needs strictly positive variances")
    y = 1.0 / np.sqrt(diag * n)
    for _ in range(10000):
        y_prev = y.copy()
        for i in range(n):
            resid = c[i] @ y - c[i, i] * y[i]
            y[i] = (-resid + np.sqrt(resid * resid + 4.0 * c[i, i] / n)) / (2.0 * c[i, i])
        w = y / y.sum()
        contrib = w * (c @ w)
        if contrib.max() - contrib.min() <= 1e-8 * contrib.max():
            return w
        if np.abs(y - y_prev).max() < 1e-15:
            break
    return y / y.sum()


def constant_strategy(weights):
    def fn(universe, end, prev):
        return PortfolioWeights(np.asarray(weights, dtype=np.float64))
    return Strategy("Constant", fn)


def test_backtest_hand_oracle(five_universe, five_windows):
    tail = five_windows[-3:]
    w0 = np.array([0.25, 0.25, 0.2, 0.15, 0.15])
    report = run_backtest(constant_strategy(w0), five_universe, tail)

    manual_daily = np.concatenate([w0 @ w.target for w in tail])
    assert np.allclose(report.daily_returns, manual_daily, atol=1e-15)
    assert np.allclose(report.equity, np.cumprod(1.0 + manual_daily), atol=1e-15)
    assert len(report.daily_returns) == 15
    assert report.dates == [f"d{j + 1:05d}" for w in tail
                            for j in range(w.end + 1, w.end + 6)]

    uniform = np.full(5, 0.2)
    t0 = np.abs(w0 - uniform).sum()
    assert report.turnovers == pytest.approx([t0, 0.0, 0.0], abs=1e-15)
    assert report.metric_set.avg_turnover == pytest.approx(t0 / 3, abs=1e-15)
    assert report.infeasible_periods == 0
    assert report.rebalance_dates == [w.end_date for w in tail]


def test_backtest_rejects_gapped_windows(five_universe, five_windows):
    gapped = [five_windows[0], five_windows[2]]
    with pytest.raises(ValueError, match="tile"):
        run_backtest(equal_weight(), five_universe, gapped)
    with pytest.raises(ValueError, match="at least one"):
        run_backtest(equal_weight(), five_universe, [])


def test_infeasible_weights_fall_back_to_equal(five_universe, five_windows):
    bad = constant_strategy([1.0, 0.0, 0.0, 0.0, 0.0])
    report = run_backtest(bad, five_universe, five_windows[-2:])
    assert report.infeasible_periods == 2
    assert len(bad.fallback_events) == 2
    for pw in report.weights:
        assert np.array_equal(pw.weights, np.full(5, 0.2))
    # first period has zero turnover: fallback equals the starting book
    assert report.turnovers == pytest.approx([0.0, 0.0], abs=0)


def test_nan_weights_fall_back_to_equal(five_universe, five_windows):
    # NaN weights returned as they are, and NaN projected: neither may
    # reach the metrics
    unprojected = constant_strategy([np.nan] * 5)
    projected = Strategy("Projected NaN", lambda universe, end, prev: PortfolioWeights(
        project_constraints(np.full(5, np.nan))))
    for strat in (unprojected, projected):
        report = run_backtest(strat, five_universe, five_windows[-2:])
        assert report.infeasible_periods == 2
        assert len(strat.fallback_events) == 2
        for pw in report.weights:
            assert np.array_equal(pw.weights, np.full(5, 0.2))
        assert np.isfinite(report.daily_returns).all()
    assert "projection failed to converge" in projected.fallback_events[0]


def test_equal_weight_is_exactly_one_thirteenth(small_universe):
    windows = make_windows(small_universe, 20, 5, 5)
    report = run_backtest(equal_weight(), small_universe, windows[-4:])
    for pw in report.weights:
        assert (pw.weights == 1.0 / 13).all()
    assert report.metric_set.avg_turnover == 0.0


def test_mean_variance_improves_utility(five_universe, five_windows):
    strat = mean_variance(risk_aversion=1.0, lookback=60)
    end = five_windows[-1].end
    pw = strat.weight_fn(five_universe, end, np.full(5, 0.2))
    pw.validate()

    hist = five_universe.returns[:, end + 1 - 60:end + 1]
    mu = hist.mean(axis=1)
    sigma = np.cov(hist) + 1e-6 * np.eye(5)

    def utility(w):
        return mu @ w - 1.0 * w @ sigma @ w

    assert utility(pw.weights) >= utility(np.full(5, 0.2)) - 1e-12


def test_mean_variance_short_history_falls_back(five_universe, five_windows):
    strat = mean_variance(lookback=252)
    pw = strat.weight_fn(five_universe, five_windows[0].end, np.full(5, 0.2))
    assert np.array_equal(pw.weights, np.full(5, 0.2))
    assert len(strat.fallback_events) == 1
    assert "lookback" in strat.fallback_events[0]


@pytest.mark.parametrize("lookback, market", [(60, "five"), (252, "year")])
def test_mean_variance_matches_the_reference_bitwise(lookback, market, five_universe,
                                                     year_universe):
    universe = five_universe if market == "five" else year_universe
    n = universe.n_assets
    ends = np.linspace(lookback - 1, universe.n_return_days - 6, 4).astype(int)
    for risk_aversion in (1.0, 3.5):
        strat = mean_variance(risk_aversion=risk_aversion, lookback=lookback)
        for end in ends:
            got = strat.weight_fn(universe, int(end), np.full(n, 1.0 / n)).weights
            want = reference_mean_variance_weights(universe, int(end), risk_aversion,
                                                   lookback)
            assert np.array_equal(got, want)
    assert strat.fallback_events == []


def test_baselines_project_a_fixed_number_of_times(monkeypatch, year_universe):
    # the bench's allocation.project span counts these calls: (0 + 500 + 1) / 3
    # rules = 167 per baselines rebalance
    calls = []

    def counting(w):
        calls.append(1)
        return project_constraints(w)

    monkeypatch.setattr(backtest, "project_constraints", counting)
    end, n = 280, year_universe.n_assets
    counts = []
    for strat in (equal_weight(), mean_variance(), risk_parity()):
        calls.clear()
        strat.weight_fn(year_universe, end, np.full(n, 1.0 / n))
        counts.append(len(calls))
    assert counts == [0, 500, 1]
    assert sum(counts) / 3 == 167


@pytest.mark.parametrize("build, message", [
    (lambda: mean_variance(lookback=-5), "lookback must be >= 2 days, got -5"),
    (lambda: mean_variance(lookback=1), "lookback must be >= 2 days, got 1"),
    (lambda: mean_variance(risk_aversion=-1.0), "risk_aversion must be finite and >= 0"),
    (lambda: mean_variance(risk_aversion=float("nan")), "got nan"),
    (lambda: mean_variance(risk_aversion=float("inf")), "got inf"),
    (lambda: risk_parity(lookback=1), "lookback must be >= 2 days, got 1"),
    (lambda: risk_parity(lookback=0), "lookback must be >= 2 days, got 0"),
], ids=["mv_lookback_negative", "mv_lookback_one", "mv_aversion_negative",
        "mv_aversion_nan", "mv_aversion_inf", "rp_lookback_one", "rp_lookback_zero"])
def test_baselines_reject_bad_parameters(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_baselines_accept_the_smallest_parameters(five_universe, five_windows):
    # two days of history and a zero risk aversion are valid, if odd, rules
    end = five_windows[-1].end
    for strat in (mean_variance(risk_aversion=0.0, lookback=2), risk_parity(lookback=2)):
        strat.weight_fn(five_universe, end, np.full(5, 0.2)).validate()


def test_risk_parity_two_asset_closed_form():
    # independent assets with vol 0.1 and 0.2: weights 2/3, 1/3
    cov = np.diag([0.01, 0.04])
    w = risk_parity_weights(cov)
    assert np.allclose(w, [2.0 / 3.0, 1.0 / 3.0], atol=1e-6)
    assert np.array_equal(w, reference_risk_parity_weights(cov))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([1e-6, 1e-3, 1.0]))
def test_risk_parity_matches_the_reference_bitwise(n, seed, scale):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((n, n))
    cov = scale * (a @ a.T / n + 0.05 * np.eye(n))
    assert np.array_equal(risk_parity_weights(cov), reference_risk_parity_weights(cov))


def test_risk_parity_matches_the_reference_on_market_covariances(year_universe):
    for end in range(251, year_universe.n_return_days - 5, 5):
        cov = np.cov(year_universe.returns[:, end - 251:end + 1])
        assert np.array_equal(risk_parity_weights(cov), reference_risk_parity_weights(cov))


def test_risk_parity_equalizes_contributions(rng):
    a = rng.standard_normal((6, 6))
    cov = a @ a.T / 6 + 0.05 * np.eye(6)
    w = risk_parity_weights(cov)
    contrib = w * (cov @ w)
    assert contrib.min() > 0.0
    assert (contrib.max() - contrib.min()) / contrib.max() < 1e-6
    assert np.isclose(w.sum(), 1.0, atol=1e-12, rtol=0)
    with pytest.raises(ValueError, match="positive"):
        risk_parity_weights(np.diag([0.01, -0.02]))


def test_risk_parity_strategy_projects_and_falls_back(five_universe, five_windows):
    strat = risk_parity(lookback=60)
    end = five_windows[-1].end
    pw = strat.weight_fn(five_universe, end, np.full(5, 0.2))
    pw.validate()
    hist = five_universe.returns[:, end + 1 - 60:end + 1]
    want = project_constraints(risk_parity_weights(np.cov(hist)))
    assert np.allclose(pw.weights, want, atol=1e-12)

    short = strat.weight_fn(five_universe, 0, np.full(5, 0.2))
    assert np.array_equal(short.weights, np.full(5, 0.2))
    assert any("history" in e for e in strat.fallback_events)


def test_random_selection_is_per_date_deterministic(five_universe):
    a = random_selection(seed=5)
    b = random_selection(seed=5)
    w1 = a.weight_fn(five_universe, 40, np.full(5, 0.2))
    _ = a.weight_fn(five_universe, 45, np.full(5, 0.2))
    w2 = a.weight_fn(five_universe, 40, np.full(5, 0.2))
    w3 = b.weight_fn(five_universe, 40, np.full(5, 0.2))
    assert np.array_equal(w1.weights, w2.weights)
    assert np.array_equal(w1.weights, w3.weights)
    other_seed = random_selection(seed=6).weight_fn(five_universe, 40, np.full(5, 0.2))
    assert not np.array_equal(w1.weights, other_seed.weights)
    w1.validate()


def test_static_adjacency_brute_force(five_universe):
    end = 70
    adj, empty = static_adjacency_at(five_universe, end, lookback=50, threshold=0.3)
    hist = five_universe.returns[:, end + 1 - 50:end + 1]
    corr = np.corrcoef(hist)
    raw = (corr > 0.3).astype(np.float64)
    np.fill_diagonal(raw, 0.0)
    assert np.allclose(adj, normalize_adjacency(raw), atol=1e-15)
    assert empty == (not raw.any())

    short, flag = static_adjacency_at(five_universe, 0, lookback=50)
    assert flag and np.allclose(short, np.eye(5), atol=0)


def test_attach_features_matches_direct_compute(small_universe, five_windows, book):
    windows = make_windows(small_universe, 20, 5, 5)[:2]
    defensive = np.array(book.defensive_mask(small_universe.tickers), dtype=np.float64)
    attach_features(small_universe, windows, defensive)
    w = windows[0]
    p_pad, v_pad, m_pad = small_universe.padded_inputs(PAD)
    lo, hi = w.start, w.start + PAD + 20
    want = compute_features(p_pad[:, lo:hi], v_pad[:, lo:hi], m_pad[lo:hi],
                            defensive=defensive)
    assert np.array_equal(w.features, want)

    cached = w.features
    attach_features(small_universe, windows, defensive)
    assert w.features is cached


def test_crisp_strategy_emits_feasible_weights_and_attention(
        trained_checkpoint, small_universe, book, prior):
    defensive = np.array(book.defensive_mask(small_universe.tickers), dtype=np.float64)
    strat = crisp_strategy(trained_checkpoint, prior, defensive)
    windows = make_windows(small_universe, 20, 5, 5)
    report = run_backtest(strat, small_universe, windows[-3:])
    assert report.infeasible_periods == 0
    for pw in report.weights:
        pw.validate()
        assert pw.as_of_date
    assert report.attention is not None and len(report.attention) == 3
    for rec in report.attention:
        assert rec.per_head.shape == (4, 13, 13)
        assert np.allclose(rec.per_head.sum(axis=-1), 1.0, atol=1e-9)
    assert [rec.window_end_date for rec in report.attention] == report.rebalance_dates


def test_crisp_strategy_rejects_early_window(trained_checkpoint, small_universe,
                                             book, prior):
    defensive = np.array(book.defensive_mask(small_universe.tickers), dtype=np.float64)
    strat = crisp_strategy(trained_checkpoint, prior, defensive)
    with pytest.raises(ValueError, match="no room"):
        strat.weight_fn(small_universe, 5, np.full(13, 1.0 / 13))


def test_crisp_strategy_rejects_universe_with_other_asset_count(trained_checkpoint, book):
    tickers = book.tickers()[:12]
    universe = generate_synthetic(tickers, 60, seed=3)
    prior12 = build_prior(book.sector_map, book.region_map, tickers)
    strat = crisp_strategy(trained_checkpoint, prior12,
                           np.array(book.defensive_mask(tickers), dtype=np.float64))
    with pytest.raises(ValueError, match="model built for 13 assets, got 12"):
        strat.weight_fn(universe, 30, np.full(12, 1.0 / 12))


def test_report_csv_shapes(five_universe, five_windows):
    report = run_backtest(equal_weight(), five_universe, five_windows[-3:])
    equity_lines = report.equity_csv().strip().split("\n")
    assert equity_lines[0] == "date,strategy,equity"
    assert len(equity_lines) == 1 + 1 + 15       # header, stake row, 15 days
    assert equity_lines[1].endswith(",1")
    weights_lines = report.weights_csv(five_universe.tickers).strip().split("\n")
    assert weights_lines[0] == "date,ticker,weight"
    assert len(weights_lines) == 1 + 3 * 5


def test_ablation_names_and_csv():
    assert ABLATION_NAMES == [
        "Full CRISP",
        "w/o Learnable Graph",
        "w/o Multi-Head Attn",
        "w/o LSTM",
        "w/o Crisis Features",
        "Random Selection",
    ]
    ms = MetricSet(sharpe=1.0, sortino=2.0, ann_return=0.1, ann_vol=0.2,
                   max_drawdown=-0.15, calmar=0.66, avg_turnover=0.05)
    text = ablation_csv([("Full CRISP", ms)])
    lines = text.strip().split("\n")
    assert lines[0].startswith("configuration,sharpe")
    assert lines[1].startswith('"Full CRISP",1,2,0.1,')


@pytest.mark.parametrize("base, rows", [
    ({"n_features": 27}, "'Full CRISP' and 'w/o Crisis Features'"),
    ({"gat_heads": 1}, "'Full CRISP' and 'w/o Multi-Head Attn'"),
], ids=["crisisless", "single_head"])
def test_ablation_suite_rejects_a_base_that_repeats_a_row(
        monkeypatch, small_universe, book, prior, base, rows):
    def no_training(*args):
        raise AssertionError("ablation_suite trained before checking its rows")

    monkeypatch.setattr(backtest, "train_on_universe", no_training)
    config = ModelConfig(n_assets=small_universe.n_assets, **base)
    with pytest.raises(ValueError, match=rows):
        backtest.ablation_suite(small_universe, book, prior, [], [], TrainConfig(), config)
