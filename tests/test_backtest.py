"""Backtester walk, classical baselines, and the model-backed strategy."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisp import backtest
from crisp.allocation import WEIGHT_CAP, WEIGHT_FLOOR, PortfolioWeights, project_constraints
from crisp.backtest import (
    ABLATION_NAMES,
    CORR_LOOKBACK,
    CORR_THRESHOLD,
    BacktestReport,
    Strategy,
    ablation_csv,
    attach_features,
    crisp_strategy,
    equal_weight,
    mean_variance,
    mean_variance_weights,
    random_selection,
    risk_parity,
    risk_parity_weights,
    run_backtest,
    static_adjacency_at,
    train_on_universe,
)
from crisp.data import RegimeConfig, Universe, generate_synthetic, make_windows
from crisp.features import PAD, compute_features
from crisp.model import CrispModel, ModelConfig
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
    return train_on_universe(small_universe, book, prior, windows[:12],
                             ModelConfig(), cfg).checkpoint


@pytest.fixture(scope="module")
def year_universe(book):
    """13 assets with more than a 252-day lookback of history."""
    return generate_synthetic(book.tickers(), 300, seed=11,
                              defensive_indices=DEFENSIVE_IDX)


def utility(w, mu, sigma, risk_aversion):
    return mu @ w - risk_aversion * w @ sigma @ w


def market_moments(universe, end, lookback):
    """The trailing mean and ridged covariance, as ``mean_variance`` builds them."""
    hist = universe.returns[:, end + 1 - lookback:end + 1]
    return hist.mean(axis=1), np.cov(hist) + 1e-6 * np.eye(universe.n_assets)


def projected_gradient_mean_variance(universe, end, risk_aversion, lookback):
    """The 500 projected-gradient steps of 0.01 ``mean_variance`` took before its exact solve."""
    mu, sigma = market_moments(universe, end, lookback)
    w = np.full(universe.n_assets, 1.0 / universe.n_assets)
    for _ in range(500):
        grad = mu - 2.0 * risk_aversion * (sigma @ w)
        w = reference_projection(w + 0.01 * grad)
    return w


def bisection_projection(v):
    """Euclidean projection onto the feasible set: clip(v - tau) summing to 1, tau by bisection."""
    lo, hi = v.min() - WEIGHT_CAP, v.max() - WEIGHT_FLOOR
    for _ in range(100):
        tau = 0.5 * (lo + hi)
        if np.clip(v - tau, WEIGHT_FLOOR, WEIGHT_CAP).sum() > 1.0:
            lo = tau
        else:
            hi = tau
    return np.clip(v - 0.5 * (lo + hi), WEIGHT_FLOOR, WEIGHT_CAP)


def reference_mean_variance_weights(mu, sigma, risk_aversion):
    """Slow oracle for ``mean_variance_weights``: accelerated projected gradient.

    FISTA with step 1/L and a gradient restart, run until an iterate stops
    moving beyond the rounding of its projection, a few ulps of the largest
    projected entry.  A zero risk aversion takes one step of 1e6 / max|mu|,
    whose projection is the linear program's vertex when the means are
    distinct.
    """
    n = mu.size
    hess = 2.0 * risk_aversion * sigma
    top = np.linalg.eigvalsh(hess).max()
    step = 1.0 / top if top > 0.0 else 1e6 / np.abs(mu).max()
    w = y = np.full(n, 1.0 / n)
    t = 1.0
    for _ in range(20000):
        v = y + step * (mu - hess @ y)
        w_next = bisection_projection(v)
        if (y - w_next) @ (w_next - w) > 0.0:
            t, y = 1.0, w_next
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = w_next + (t - 1.0) / t_next * (w_next - w)
            t = t_next
        if np.abs(w_next - w).max() <= 4.0 * np.spacing(np.abs(v).max()):
            return w_next
        w = w_next
    raise AssertionError("reference did not settle")


def assert_kkt(w, mu, sigma, risk_aversion, rtol=1e-10):
    """Feasible, and optimal by the KKT conditions of max mu'w - ra w'Sw.

    The free coordinates share one gradient value c; floor coordinates sit
    at or below it and cap coordinates at or above it, each within ``rtol``
    of the gradient's scale max|mu| + max|2 ra S|.
    """
    assert abs(w.sum() - 1.0) <= 1e-12
    assert (w >= WEIGHT_FLOOR - 1e-15).all() and (w <= WEIGHT_CAP + 1e-15).all()
    grad = mu - 2.0 * risk_aversion * sigma @ w
    tol = rtol * (np.abs(mu).max() + np.abs(2.0 * risk_aversion * sigma).max())
    floor = w <= WEIGHT_FLOOR + 1e-12
    cap = w >= WEIGHT_CAP - 1e-12
    free = ~(floor | cap)
    if free.any():
        c = grad[free].mean()
        assert np.abs(grad[free] - c).max() <= tol
    else:       # every coordinate at a bound: c lies anywhere between the two sides
        c = grad[floor].max() if floor.any() else grad[cap].min()
    assert (grad[floor] <= c + tol).all()
    assert (grad[cap] >= c - tol).all()


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


def test_a_second_run_starts_its_fallback_events_afresh(five_universe, five_windows):
    bad = constant_strategy([1.0, 0.0, 0.0, 0.0, 0.0])
    run_backtest(bad, five_universe, five_windows[-2:])
    first_run = bad.fallback_events
    run_backtest(bad, five_universe, five_windows[-2:])
    assert len(bad.fallback_events) == 2
    assert len(first_run) == 2


def test_a_rules_note_precedes_the_engines_event(five_universe, five_windows):
    noted = Strategy("Noted NaN", lambda universe, end, prev: PortfolioWeights(
        np.full(5, np.nan), fallback="note"))
    tail = five_windows[-1:]
    report = run_backtest(noted, five_universe, tail)
    assert noted.fallback_events == [
        "note", f"{tail[0].end_date}: infeasible weights replaced by equal weight"]
    assert report.infeasible_periods == 1
    assert report.attention is None


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
    mu, sigma = market_moments(five_universe, end, 60)
    assert (utility(pw.weights, mu, sigma, 1.0)
            >= utility(np.full(5, 0.2), mu, sigma, 1.0) - 1e-12)


def test_mean_variance_short_history_falls_back(five_universe, five_windows):
    strat = mean_variance(lookback=252)
    pw = strat.weight_fn(five_universe, five_windows[0].end, np.full(5, 0.2))
    assert np.array_equal(pw.weights, np.full(5, 0.2))
    assert "lookback" in pw.fallback


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=4, max_value=40), st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([1e-6, 1e-3, 1.0]), st.sampled_from([0.0, 0.5, 1.0, 3.5]))
def test_mean_variance_weights_meet_kkt_and_match_the_reference(n, seed, scale,
                                                                risk_aversion):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((n, n))
    sigma = scale * (a @ a.T / n + 0.05 * np.eye(n))
    mu = np.sqrt(scale) * 0.1 * gen.standard_normal(n)
    w = mean_variance_weights(mu, sigma, risk_aversion)
    assert_kkt(w, mu, sigma, risk_aversion)
    want = reference_mean_variance_weights(mu, sigma, risk_aversion)
    assert np.abs(w - want).max() <= 1e-8


@pytest.mark.parametrize("risk_aversion", [0.0, 0.5, 1.0, 3.5])
def test_mean_variance_matches_the_reference_on_market_covariances(year_universe,
                                                                   risk_aversion):
    strat = mean_variance(risk_aversion=risk_aversion, lookback=252)
    n = year_universe.n_assets
    for end in range(251, year_universe.n_return_days - 5, 5):
        got = strat.weight_fn(year_universe, end, np.full(n, 1.0 / n))
        assert got.fallback is None
        mu, sigma = market_moments(year_universe, end, 252)
        assert_kkt(got.weights, mu, sigma, risk_aversion)
        want = reference_mean_variance_weights(mu, sigma, risk_aversion)
        assert np.abs(got.weights - want).max() <= 1e-8


@pytest.mark.parametrize("lookback, market", [(60, "five"), (252, "year")])
def test_mean_variance_beats_the_projected_gradient_loop(lookback, market, five_universe,
                                                         year_universe):
    universe = five_universe if market == "five" else year_universe
    n = universe.n_assets
    for risk_aversion in (1.0, 3.5):
        strat = mean_variance(risk_aversion=risk_aversion, lookback=lookback)
        for end in range(lookback - 1, universe.n_return_days - 5, 5):
            got = strat.weight_fn(universe, end, np.full(n, 1.0 / n)).weights
            old = projected_gradient_mean_variance(universe, end, risk_aversion, lookback)
            mu, sigma = market_moments(universe, end, lookback)
            assert (utility(got, mu, sigma, risk_aversion)
                    >= utility(old, mu, sigma, risk_aversion) - 1e-15)


def test_mean_variance_zero_aversion_fills_the_highest_means_first():
    # 13 assets: three at the cap, the fourth takes the 0.05 left, the rest
    # stay at the floor; tied means fill in index order
    mu = np.array([0.1, 0.3, 0.2, 0.3, 0.0, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3])
    w = mean_variance_weights(mu, np.eye(13), 0.0)
    want = np.full(13, WEIGHT_FLOOR)
    want[[1, 3, 12]] = WEIGHT_CAP
    want[2] = WEIGHT_FLOOR + 0.05
    assert np.allclose(w, want, atol=1e-15, rtol=0)


@pytest.mark.parametrize("n", [4, 50])
def test_mean_variance_on_a_single_point_set_is_equal_weight(n):
    mu = np.linspace(-1.0, 1.0, n)
    for risk_aversion in (0.0, 1.0):
        assert np.array_equal(mean_variance_weights(mu, np.eye(n), risk_aversion),
                              np.full(n, 1.0 / n))


def test_mean_variance_non_termination_falls_back_to_equal(five_universe, five_windows):
    with pytest.raises(FloatingPointError, match="did not terminate in 25 iterations"):
        mean_variance_weights(np.full(5, np.nan), np.eye(5), 1.0)
    nan_means = Strategy("NaN Mean-Variance", lambda universe, end, prev: PortfolioWeights(
        mean_variance_weights(np.full(5, np.nan), np.eye(5), 1.0)))
    tail = five_windows[-1:]
    report = run_backtest(nan_means, five_universe, tail)
    assert report.infeasible_periods == 1
    assert np.array_equal(report.weights[0].weights, np.full(5, 0.2))
    assert nan_means.fallback_events == [
        f"{tail[0].end_date}: infeasible weights (mean-variance active set did not "
        f"terminate in 25 iterations) replaced by equal weight"]


def test_baselines_project_a_fixed_number_of_times(monkeypatch, year_universe):
    # the bench's allocation.project span counts these calls: (0 + 0 + 1) / 3
    # rules = 1/3 per baselines rebalance; mean-variance solves, not projects
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
    assert counts == [0, 0, 1]


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
    assert "history" in short.fallback


@pytest.mark.parametrize("lookback", [2, 3, 5])
def test_risk_parity_falls_back_when_days_do_not_exceed_assets(five_universe, lookback):
    # 5 assets over <= 5 days: a singular covariance, equal weight at once
    pw = risk_parity(lookback=lookback).weight_fn(five_universe, 74, np.full(5, 0.2))
    assert np.array_equal(pw.weights, np.full(5, 0.2))
    assert pw.fallback == "index 74: too little history, equal weight"


def test_risk_parity_with_more_days_than_assets_is_unchanged(five_universe):
    pw = risk_parity(lookback=10).weight_fn(five_universe, 74, np.full(5, 0.2))
    cov = np.cov(five_universe.returns[:, 65:75])
    assert np.array_equal(pw.weights,
                          reference_projection(reference_risk_parity_weights(cov)))
    assert pw.fallback is None


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


def test_static_adjacency_brute_force(book):
    # crisis-heavy, so the 0.5 threshold keeps some edges and drops others
    market = generate_synthetic(book.tickers(), 300, seed=11,
                                config=RegimeConfig(p_calm_to_crisis=0.05),
                                defensive_indices=DEFENSIVE_IDX)
    # 70 has less history than the lookback; 290 uses the full 252 days
    for end in (70, 290):
        adj, empty = static_adjacency_at(market, end)
        take = min(CORR_LOOKBACK, end + 1)
        hist = market.returns[:, end + 1 - take:end + 1]
        corr = np.corrcoef(hist)
        raw = (corr > CORR_THRESHOLD).astype(np.float64)
        np.fill_diagonal(raw, 0.0)
        assert 0 < raw.sum() < 13 * 12          # neither empty nor complete
        assert np.allclose(adj, normalize_adjacency(raw), atol=1e-15)
        assert not empty

    short, flag = static_adjacency_at(market, 0)
    assert flag and np.allclose(short, np.eye(13), atol=0)


def test_attach_features_matches_direct_compute(small_universe, five_windows, book):
    windows = make_windows(small_universe, 20, 5, 5)[:2]
    defensive = book.defensive_mask(small_universe.tickers)
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


def _own_compute(universe, w, defensive):
    """The window's features from its own padded slice, as walk-forward builds them."""
    p_pad, v_pad, m_pad = universe.padded_inputs(PAD)
    lo, hi = w.start, w.end + 1 + PAD
    return compute_features(p_pad[:, lo:hi], v_pad[:, lo:hi], m_pad[lo:hi],
                            defensive=defensive)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1), window=st.integers(1, 90),
       horizon=st.integers(1, 10), stride=st.integers(1, 12), extra=st.integers(0, 120))
def test_attach_features_is_bitwise_the_per_window_compute(data, seed, window, horizon,
                                                            stride, extra):
    # windows longer than 60 days hit vol_pctile_60's cap; the first ones
    # start inside the edge-replicated pad
    u = generate_synthetic(["A", "B", "C", "D", "E"], window + horizon + extra, seed=seed)
    inventory = make_windows(u, window, horizon, stride)
    picked = data.draw(st.lists(st.sampled_from(range(len(inventory))), min_size=1,
                                max_size=8, unique=True))
    subset = [inventory[k] for k in picked]              # drawn order, gaps allowed
    defensive = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
    attach_features(u, subset, defensive)
    for w in subset:
        want = _own_compute(u, w, defensive)
        assert w.features.shape == want.shape and w.features.dtype == want.dtype
        assert w.features.tobytes() == want.tobytes()
        assert w.features.flags.owndata and w.features.flags.c_contiguous
    assert all(inventory[k].features is None
               for k in range(len(inventory)) if k not in picked)


def _gap_universe():
    """3 assets over 120 return days with zero volume on return days 50-69."""
    rng = np.random.default_rng(5)
    closes = 40.0 * np.cumprod(1.0 + 0.01 * rng.standard_normal((3, 121)), axis=1)
    volumes = np.exp(rng.normal(12.0, 0.3, size=(3, 121)))
    volumes[:, 51:71] = 0.0                 # column t + 1 holds return day t's volume
    volumes[1, 61] = np.nan                 # return day 60
    return Universe(tickers=["A", "B", "C"], dates=[f"d{k:03d}" for k in range(121)],
                    closes=closes, volumes=volumes,
                    returns=closes[:, 1:] / closes[:, :-1] - 1.0)


def test_attach_features_reads_only_the_windows_days():
    u = _gap_universe()
    defensive = np.zeros(3)
    by_start = {w.start: w for w in make_windows(u, 20, 5, 5)}
    outer = [by_start[90], by_start[20]]    # days 90-109 and 20-39 around the gap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        attach_features(u, outer, defensive)
    for w in outer:
        assert w.features.tobytes() == _own_compute(u, w, defensive).tobytes()

    # a zero close on return day 65 gives inf and nan on days no outer window reads
    closes = u.closes.copy()
    closes[2, 66] = 0.0
    zero = replace(u, closes=closes)
    fresh = [replace(w, features=None) for w in outer]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        attach_features(zero, fresh, defensive)
    assert [w.features.tobytes() for w in fresh] == [w.features.tobytes() for w in outer]

    # day 69's trailing 20 days are all in the gap; this window also reads
    # day 60's nan volume, and the zero-volume check comes first
    inside = by_start[60]
    for attach in (lambda: attach_features(u, [by_start[20], inside], defensive),
                   lambda: _own_compute(u, inside, defensive)):
        with pytest.raises(ValueError, match=r"^amihud undefined: a window has zero "
                                             r"dollar volume on every day$"):
            attach()
    assert inside.features is None

    # days 60-64 see the nan volume of day 60 and still some live days
    nan_window = by_start[45]
    for attach in (lambda: attach_features(u, [nan_window], defensive),
                   lambda: _own_compute(u, nan_window, defensive)):
        with pytest.raises(FloatingPointError, match=r"^non-finite feature values in "
                                                     r"\['volume_std_20', "
                                                     r"'volume_stability_20'\]$"):
            attach()


def test_crisp_strategy_emits_feasible_weights_and_attention(
        trained_checkpoint, small_universe, book, prior):
    defensive = book.defensive_mask(small_universe.tickers)
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


def test_crisp_strategy_run_twice_gives_each_report_its_own_attention(
        trained_checkpoint, small_universe, book, prior):
    defensive = book.defensive_mask(small_universe.tickers)
    strat = crisp_strategy(trained_checkpoint, prior, defensive)
    windows = make_windows(small_universe, 20, 5, 5)[-3:]
    first = run_backtest(strat, small_universe, windows)
    second = run_backtest(strat, small_universe, windows)
    assert len(first.attention) == 3 and len(second.attention) == 3
    for a, b in zip(first.attention, second.attention):
        assert np.array_equal(a.per_head, b.per_head)


def test_static_graph_strategy_notes_an_empty_graph_without_attention(
        trained_checkpoint, small_universe, book, prior, monkeypatch):
    monkeypatch.setattr(backtest, "static_adjacency_at",
                        lambda universe, end: (np.eye(universe.n_assets), True))
    config = replace(trained_checkpoint.model_config, variant="static")
    static = replace(trained_checkpoint, model_config=config,
                     best_params=CrispModel(config).state())
    defensive = book.defensive_mask(small_universe.tickers)
    strat = crisp_strategy(static, prior, defensive)
    windows = make_windows(small_universe, 20, 5, 5)[-2:]
    report = run_backtest(strat, small_universe, windows)
    assert report.attention is None
    assert strat.fallback_events == [
        f"index {w.end}: empty correlation graph, identity adjacency used" for w in windows]


def test_crisp_strategy_rejects_early_window(trained_checkpoint, small_universe,
                                             book, prior):
    defensive = book.defensive_mask(small_universe.tickers)
    strat = crisp_strategy(trained_checkpoint, prior, defensive)
    with pytest.raises(ValueError, match="no room"):
        strat.weight_fn(small_universe, 5, np.full(13, 1.0 / 13))


def test_crisp_strategy_rejects_an_end_past_the_last_return_day(
        trained_checkpoint, small_universe, book, prior, monkeypatch):
    defensive = book.defensive_mask(small_universe.tickers)
    strat = crisp_strategy(trained_checkpoint, prior, defensive)
    prev = np.full(13, 1.0 / 13)
    last = small_universe.n_return_days - 1
    pw = strat.weight_fn(small_universe, last, prev.copy())
    assert pw.as_of_date == small_universe.return_dates[last]

    def no_feature_work(*args, **kwargs):
        raise AssertionError("features computed for a rejected window")

    monkeypatch.setattr(backtest, "compute_features", no_feature_work)
    for end in (last + 1, last + 5):
        with pytest.raises(ValueError, match=rf"^window ending at {end} is past the last "
                                             rf"return day \(valid ends 19\.\.{last}\)$"):
            strat.weight_fn(small_universe, end, prev.copy())


def test_crisp_strategy_rejects_universe_with_other_asset_count(trained_checkpoint, book):
    tickers = book.tickers()[:12]
    universe = generate_synthetic(tickers, 60, seed=3)
    prior12 = build_prior(book.sector_map, book.region_map, tickers)
    strat = crisp_strategy(trained_checkpoint, prior12, book.defensive_mask(tickers))
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


@pytest.mark.parametrize("variant", ["no_crisis", "single_head"],
                         ids=["crisisless", "single_head"])
def test_ablation_suite_rejects_a_base_that_repeats_a_row(
        monkeypatch, small_universe, book, prior, variant):
    def no_training(*args):
        raise AssertionError("ablation_suite trained before checking its rows")

    monkeypatch.setattr(backtest, "train_on_universe", no_training)
    config = ModelConfig(n_assets=small_universe.n_assets, variant=variant)
    with pytest.raises(ValueError, match=f"must be the 'full' variant, got '{variant}'"):
        backtest.ablation_suite(small_universe, book, prior, [], [], TrainConfig(), config)
