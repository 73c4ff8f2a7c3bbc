"""Feature lab: the 31-feature roster against hand-rolled brute-force oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from crisp.features import (
    CRISIS_FEATURES,
    FEATURE_ROSTER,
    N_FEATURES,
    PAD,
    FeatureNormalizer,
    _corr,
    _safe_div,
    compute_features,
    day_features,
    feature_columns,
    roster_csv,
)

from _reference import amihud, cvar, rsi

IDX = {name: i for i, (name, _, _) in enumerate(FEATURE_ROSTER)}


def build_inputs(rng, n=4, t=6):
    """Padded price/volume/market arrays plus the per-day returns they imply."""
    width = PAD + t
    rets = 0.02 * rng.standard_normal((n, width + 1))
    prices = 50.0 * np.cumprod(1.0 + rets, axis=1)[:, 1:]
    volumes = np.exp(rng.normal(12.0, 0.3, size=(n, width)))
    market = 0.01 * rng.standard_normal(width)
    return prices, volumes, market


def trailing_returns(prices_row, col, length=20):
    r = prices_row[col - length + 1:col + 1] / prices_row[col - length:col] - 1.0
    return r


def test_roster_is_31_features_with_expected_categories():
    assert N_FEATURES == 31
    counts = {}
    for _, cat, _ in FEATURE_ROSTER:
        counts[cat] = counts.get(cat, 0) + 1
    assert counts == {"returns": 4, "risk": 5, "momentum": 3, "liquidity": 4,
                      "technical": 4, "crisis": 4, "extremes": 5,
                      "interaction": 2}
    assert [IDX[n] for n in ("defensive_flag", "market_corr_20",
                             "market_breadth", "market_beta_20")] == CRISIS_FEATURES
    text = roster_csv()
    assert text.count("\n") == N_FEATURES + 1  # header + rows


def test_feature_columns_follow_the_model_width():
    assert feature_columns(N_FEATURES) is None
    kept = feature_columns(N_FEATURES - len(CRISIS_FEATURES))
    assert kept == sorted(set(range(N_FEATURES)) - set(CRISIS_FEATURES))
    with pytest.raises(ValueError, match="30 features"):
        feature_columns(30)


def test_cvar_brute_force(rng):
    for _ in range(50):
        n = int(rng.integers(1, 60))
        x = rng.standard_normal(n)
        k = int(np.ceil(0.05 * n))
        expected = np.sort(x)[:k].mean()
        assert np.isclose(cvar(x, 0.05), expected, atol=1e-12)
    with pytest.raises(ValueError):
        cvar(np.array([]), 0.05)


def test_rsi_wilder_hand_case():
    # constructed so gains and losses are easy to track by hand
    prices = np.array([10.0, 11.0, 10.5, 10.5, 11.5, 12.0, 11.0,
                       11.5, 12.5, 12.0, 12.5, 13.0, 12.5, 13.5, 14.0])
    deltas = np.diff(prices)
    gains = np.maximum(deltas, 0.0)
    losses = np.maximum(-deltas, 0.0)
    avg_gain = gains.mean()
    avg_loss = losses.mean()
    expected = 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)
    assert np.isclose(rsi(prices, period=14), expected, atol=1e-12)


def test_rsi_conventions():
    up = np.linspace(10.0, 20.0, 15)
    assert rsi(up, 14) == 100.0
    down = np.linspace(20.0, 10.0, 15)
    assert rsi(down, 14) == 0.0
    flat = np.full(15, 7.0)
    assert rsi(flat, 14) == 50.0
    with pytest.raises(ValueError):
        rsi(np.ones(14), 14)


def test_amihud_excludes_zero_volume_days():
    rets = np.array([0.01, -0.02, 0.03])
    dollars = np.array([100.0, 0.0, 200.0])
    expected = np.mean([0.01 / 100.0, 0.03 / 200.0])
    assert np.isclose(amihud(rets, dollars), expected, atol=1e-15)
    with pytest.raises(ValueError, match="volume"):
        amihud(rets, np.zeros(3))
    with pytest.raises(ValueError):
        amihud(rets, dollars[:2])


def test_compute_features_shape_and_finiteness(rng):
    prices, volumes, market = build_inputs(rng, n=5, t=7)
    feats = compute_features(prices, volumes, market)
    assert feats.shape == (5, 7, N_FEATURES)
    assert np.isfinite(feats).all()


def test_compute_features_requires_pad(rng):
    prices, volumes, market = build_inputs(rng, n=3, t=4)
    with pytest.raises(ValueError, match="20"):
        compute_features(prices[:, :PAD], volumes[:, :PAD], market[:PAD])


def test_a_nan_close_names_every_column_it_reaches(rng):
    # the 5 % VaR and CVaR are the window minimum, which carries the NaN
    prices, volumes, market = build_inputs(rng)
    prices[1, PAD + 2] = np.nan
    with pytest.raises(FloatingPointError) as err:
        compute_features(prices, volumes, market)
    assert str(err.value) == (
        "non-finite feature values in ['ret_mean_20', 'ret_std_20', 'ret_skew_20', "
        "'ret_kurt_20', 'var_5pct_20', 'cvar_5pct_20', 'downside_dev_20', "
        "'max_drawdown_20', 'cum_return_20', 'momentum_20', 'momentum_accel_10', "
        "'rsi_14', 'amihud_20', 'ma5_ma20_ratio', 'price_ma20_ratio', 'vol_ratio_5_20', "
        "'market_corr_20', 'market_beta_20', 'max_return_20', 'min_return_20', "
        "'autocorr_lag1_20', 'price_zscore_20', 'momentum_x_vol', 'rsi_x_drawdown']")


def test_return_block_oracles(rng):
    prices, volumes, market = build_inputs(rng)
    feats = compute_features(prices, volumes, market)
    n, t = 4, 6
    for i in range(n):
        for s in range(t):
            col = PAD + s
            r = trailing_returns(prices[i], col)
            assert np.isclose(feats[i, s, IDX["ret_mean_20"]], r.mean(), atol=1e-12)
            assert np.isclose(feats[i, s, IDX["ret_std_20"]], r.std(ddof=1), atol=1e-12)
            m2 = ((r - r.mean()) ** 2).mean()
            m3 = ((r - r.mean()) ** 3).mean()
            m4 = ((r - r.mean()) ** 4).mean()
            assert np.isclose(feats[i, s, IDX["ret_skew_20"]], m3 / m2 ** 1.5,
                              atol=1e-10)
            assert np.isclose(feats[i, s, IDX["ret_kurt_20"]], m4 / m2 ** 2 - 3.0,
                              atol=1e-10)


def test_risk_block_oracles(rng):
    prices, volumes, market = build_inputs(rng)
    feats = compute_features(prices, volumes, market)
    for i in range(4):
        for s in range(6):
            col = PAD + s
            r = trailing_returns(prices[i], col)
            k = int(np.ceil(0.05 * 20))
            worst = np.sort(r)[:k]
            assert np.isclose(feats[i, s, IDX["var_5pct_20"]], np.sort(r)[k - 1],
                              atol=1e-12)
            assert np.isclose(feats[i, s, IDX["cvar_5pct_20"]], worst.mean(),
                              atol=1e-12)
            downside = r[r < 0.0]
            dd = np.sqrt((downside ** 2).sum() / len(r)) if downside.size else 0.0
            assert np.isclose(feats[i, s, IDX["downside_dev_20"]], dd, atol=1e-12)
            p = prices[i, col - 19:col + 1]
            mdd = (p / np.maximum.accumulate(p) - 1.0).min()
            assert np.isclose(feats[i, s, IDX["max_drawdown_20"]], mdd, atol=1e-12)
            assert np.isclose(feats[i, s, IDX["cum_return_20"]],
                              p[-1] / prices[i, col - 20] - 1.0, atol=1e-12)


def test_momentum_and_technical_oracles(rng):
    prices, volumes, market = build_inputs(rng)
    feats = compute_features(prices, volumes, market)
    for i in range(4):
        for s in range(6):
            col = PAD + s
            p = prices[i]
            mom20 = p[col] / p[col - 20] - 1.0
            assert np.isclose(feats[i, s, IDX["momentum_20"]], mom20, atol=1e-12)
            mom10_now = p[col] / p[col - 10] - 1.0
            mom10_then = p[col - 10] / p[col - 20] - 1.0
            assert np.isclose(feats[i, s, IDX["momentum_accel_10"]],
                              mom10_now - mom10_then, atol=1e-12)
            assert np.isclose(feats[i, s, IDX["rsi_14"]],
                              rsi(p[col - 14:col + 1], 14), atol=1e-12)
            ma5 = p[col - 4:col + 1].mean()
            ma20 = p[col - 19:col + 1].mean()
            assert np.isclose(feats[i, s, IDX["ma5_ma20_ratio"]], ma5 / ma20,
                              atol=1e-12)
            assert np.isclose(feats[i, s, IDX["price_ma20_ratio"]], p[col] / ma20,
                              atol=1e-12)
            r = trailing_returns(p, col)
            v5 = r[-5:].std(ddof=1)
            v20 = r.std(ddof=1)
            assert np.isclose(feats[i, s, IDX["vol_ratio_5_20"]],
                              v5 / v20 if v20 > 0 else 1.0, atol=1e-12)


def test_crisis_block_oracles(rng):
    prices, volumes, market = build_inputs(rng)
    defensive = np.array([1.0, 0.0, 0.0, 1.0])
    feats = compute_features(prices, volumes, market, defensive=defensive)
    rets = prices[:, 1:] / prices[:, :-1] - 1.0  # day j column j-1
    for i in range(4):
        for s in range(6):
            col = PAD + s
            assert feats[i, s, IDX["defensive_flag"]] == defensive[i]
            r = trailing_returns(prices[i], col)
            m = market[col - 19:col + 1]
            cm = np.corrcoef(r, m)[0, 1]
            assert np.isclose(feats[i, s, IDX["market_corr_20"]], cm, atol=1e-10)
            breadth = (rets[:, col - 1] > 0.0).mean()
            assert np.isclose(feats[i, s, IDX["market_breadth"]], breadth,
                              atol=1e-12)
            beta = np.cov(r, m, ddof=0)[0, 1] / np.var(m)
            assert np.isclose(feats[i, s, IDX["market_beta_20"]], beta, atol=1e-10)


def test_extremes_block_oracles(rng):
    prices, volumes, market = build_inputs(rng)
    feats = compute_features(prices, volumes, market)
    for i in range(4):
        for s in range(6):
            col = PAD + s
            r = trailing_returns(prices[i], col)
            assert np.isclose(feats[i, s, IDX["max_return_20"]], r.max(), atol=1e-12)
            assert np.isclose(feats[i, s, IDX["min_return_20"]], r.min(), atol=1e-12)
            a, b = r[:-1], r[1:]
            ac = np.corrcoef(a, b)[0, 1]
            assert np.isclose(feats[i, s, IDX["autocorr_lag1_20"]], ac, atol=1e-10)
            assert np.isclose(feats[i, s, IDX["up_day_ratio_20"]], (r > 0).mean(),
                              atol=1e-12)
            p = prices[i, col - 19:col + 1]
            z = (p[-1] - p.mean()) / p.std(ddof=1)
            assert np.isclose(feats[i, s, IDX["price_zscore_20"]], z, atol=1e-10)


def test_interaction_features_are_products(rng):
    prices, volumes, market = build_inputs(rng)
    feats = compute_features(prices, volumes, market)
    assert np.allclose(feats[..., IDX["momentum_x_vol"]],
                       feats[..., IDX["momentum_20"]] * feats[..., IDX["ret_std_20"]],
                       atol=1e-12)
    assert np.allclose(feats[..., IDX["rsi_x_drawdown"]],
                       feats[..., IDX["rsi_14"]] * feats[..., IDX["max_drawdown_20"]],
                       atol=1e-12)


def test_liquidity_block_oracles(rng):
    prices, volumes, market = build_inputs(rng)
    feats = compute_features(prices, volumes, market)
    n = 4
    for i in range(n):
        for s in range(6):
            col = PAD + s
            v = volumes[i, col - 19:col + 1]
            assert np.isclose(feats[i, s, IDX["volume_std_20"]], v.std(ddof=1),
                              atol=1e-9)
            assert np.isclose(feats[i, s, IDX["volume_stability_20"]],
                              v.mean() / (v.std(ddof=1) + 1e-8), atol=1e-9)
            r = trailing_returns(prices[i], col)
            dollars = prices[i, col - 19:col + 1] * v
            assert np.isclose(feats[i, s, IDX["amihud_20"]],
                              np.mean(np.abs(r) / dollars), atol=1e-15)
            # cross-sectional volume rank averaged over the window
            ranks = []
            for j in range(col - 19, col + 1):
                others = volumes[:, j]
                mine = volumes[i, j]
                less = (others < mine).sum()
                equal = (others == mine).sum() - 1
                ranks.append((less + 0.5 * equal) / (n - 1))
            assert np.isclose(feats[i, s, IDX["volume_rank_20"]],
                              np.mean(ranks), atol=1e-12)


def test_vol_percentile_against_trailing_history(rng):
    prices, volumes, market = build_inputs(rng, n=2, t=10)
    feats = compute_features(prices, volumes, market)
    for i in range(2):
        for s in range(10):
            col = PAD + s
            vols = []
            for j in range(max(20, col - 59), col + 1):
                vols.append(trailing_returns(prices[i], j).std(ddof=1))
            current = vols[-1]
            pct = np.mean([v <= current for v in vols])
            assert np.isclose(feats[i, s, IDX["vol_pctile_60"]], pct, atol=1e-12)


def vol_pctile_reference(window_prices):
    """``vol_pctile_60`` by the per-day loop the band comparison replaced.

    Each day ranks its 20-day vol against the vols ending at the window's
    days, up to 60 of them; vol index 0 spans the undefined day-0 return.
    """
    p = window_prices
    r = np.zeros_like(p)
    r[:, 1:] = p[:, 1:] / p[:, :-1] - 1.0
    vol_series = sliding_window_view(r, 20, axis=1).std(axis=-1, ddof=1)
    out = np.empty((p.shape[0], p.shape[1] - PAD))
    for t in range(out.shape[1]):
        idx = PAD - 20 + 1 + t                         # vol_series index for this day
        lo = max(1, idx - 59)
        hist = vol_series[:, lo:idx + 1]
        out[:, t] = (hist <= vol_series[:, idx:idx + 1]).mean(axis=-1)
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4), t=st.integers(1, 150),
       flat=st.integers(0, 60))
def test_vol_percentile_is_bitwise_the_per_day_loop(seed, n, t, flat):
    # a flat stretch makes runs of zero vol, so ties are compared too
    rng = np.random.default_rng(seed)
    rets = 0.02 * rng.standard_normal((n, PAD + t + 1))
    rets[:, rng.integers(0, PAD + t + 1):][:, :flat] = 0.0
    prices = 50.0 * np.cumprod(1.0 + rets, axis=1)[:, 1:]
    volumes = np.exp(rng.normal(12.0, 0.3, size=prices.shape))
    market = 0.01 * rng.standard_normal(PAD + t)
    got = compute_features(prices, volumes, market)[:, :, IDX["vol_pctile_60"]]
    assert np.ascontiguousarray(got).tobytes() == vol_pctile_reference(prices).tobytes()


def rewritten_columns_reference(p, v, m, got):
    """The columns whose window sums ``day_features`` shares, by the formulas it
    replaced: numpy's ddof=1 std, ``_corr`` against the market broadcast to
    every asset, one minus one before the drawdown's min, and ``**`` moments.
    The columns it left alone are read from ``got``."""
    width = p.shape[1]
    r = np.zeros_like(p)
    r[:, 1:] = p[:, 1:] / p[:, :-1] - 1.0

    def roll(x, k):
        return sliding_window_view(x, k, axis=1)[:, PAD - k + 1:, :]

    rw, pw, vw = roll(r, 20), roll(p, 20), roll(v, 20)
    mean = rw.mean(axis=-1)
    std = rw.std(axis=-1, ddof=1)
    centered = rw - mean[..., None]
    m2 = (centered ** 2).mean(axis=-1)
    m3 = (centered ** 3).mean(axis=-1)
    m4 = (centered ** 4).mean(axis=-1)
    drawdown = (pw / np.maximum.accumulate(pw, axis=-1) - 1.0).min(axis=-1)
    mkt = np.broadcast_to(roll(np.broadcast_to(m, (1, width)), 20), rw.shape)
    mc = mkt - mkt.mean(axis=-1, keepdims=True)
    vstd = vw.std(axis=-1, ddof=1)
    ma20 = pw.mean(axis=-1)
    close = p[:, PAD:]
    return {
        "ret_mean_20": mean,
        "ret_std_20": std,
        "ret_skew_20": _safe_div(m3, m2 ** 1.5),
        "ret_kurt_20": _safe_div(m4, m2 ** 2) - np.where(m2 > 0.0, 3.0, 0.0),
        "max_drawdown_20": drawdown,
        "volume_std_20": vstd,
        "volume_stability_20": vw.mean(axis=-1) / (vstd + 1e-8),
        "ma5_ma20_ratio": roll(p, 5).mean(axis=-1) / ma20,
        "price_ma20_ratio": close / ma20,
        "vol_ratio_5_20": _safe_div(roll(r, 5).std(axis=-1, ddof=1), std, fallback=1.0),
        "market_corr_20": _corr(rw, mkt),
        "market_beta_20": _safe_div((centered * mc).mean(axis=-1), (mc * mc).mean(axis=-1)),
        "price_zscore_20": _safe_div(close - ma20, pw.std(axis=-1, ddof=1)),
        "momentum_x_vol": got[:, :, IDX["momentum_20"]] * std,
        "rsi_x_drawdown": got[:, :, IDX["rsi_14"]] * drawdown,
    }


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 13),
       t=st.one_of(st.integers(1, 80), st.integers(80, 1100)),
       flat=st.tuples(st.integers(0, 60), st.integers(0, 60), st.integers(0, 60)),
       at=st.floats(0.0, 1.0))
@example(seed=0, n=13, t=1066, flat=(0, 0, 0), at=0.0)
@example(seed=1, n=13, t=1066, flat=(60, 60, 60), at=0.5)
@example(seed=2, n=1, t=1, flat=(21, 21, 21), at=0.0)
def test_shared_window_sums_match_the_formulas_they_replaced(seed, n, t, flat, at):
    # flat price, volume and market stretches of 21+ days zero each window's
    # spread, so every _safe_div fallback runs; spans past 1,066 days push the
    # (n, t, 20) temporaries beyond numpy's 256 KiB temporary-reuse size
    rng = np.random.default_rng(seed)
    p, v, m = build_inputs(rng, n=n, t=t)
    lo = int(at * (PAD + t))
    p[:, lo:lo + flat[0]] = 64.0
    v[:, lo:lo + flat[1]] = 4096.0
    m[lo:lo + flat[2]] = 0.0
    got, _ = day_features(p, v, m)
    for name, want in rewritten_columns_reference(p, v, m, got).items():
        col = np.ascontiguousarray(got[:, :, IDX[name]])
        if name in ("ret_skew_20", "ret_kurt_20"):      # products, not pow: 1 ulp apart
            assert np.allclose(col, want, rtol=1e-12, atol=1e-12), name
        else:
            assert col.tobytes() == want.tobytes(), name


def test_normalizer_fit_transform_roundtrip(rng):
    feats = [rng.standard_normal((3, 5, N_FEATURES)) for _ in range(4)]
    norm = FeatureNormalizer()
    norm.fit(feats)
    stacked = np.concatenate([norm.transform(f).reshape(-1, N_FEATURES)
                              for f in feats])
    assert np.abs(stacked.mean(axis=0)).max() < 1e-10
    assert np.abs(stacked.std(axis=0) - 1.0).max() < 1e-10

    state = norm.state()
    again = FeatureNormalizer.from_state(state)
    assert np.allclose(again.transform(feats[0]), norm.transform(feats[0]),
                       atol=1e-15)


def test_normalizer_zero_variance_warns_unit_std(rng):
    feats = rng.standard_normal((2, 4, N_FEATURES))
    feats[..., 3] = 7.0  # constant column
    norm = FeatureNormalizer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        norm.fit([feats])
    assert any("variance" in str(w.message) for w in caught)
    out = norm.transform(feats)
    assert np.allclose(out[..., 3], 0.0, atol=1e-15)  # centered, divided by 1


def test_normalizer_names_zero_variance_feature_of_crisisless_array(rng):
    keep = feature_columns(N_FEATURES - len(CRISIS_FEATURES))
    feats = rng.standard_normal((2, 4, len(keep)))
    feats[..., keep.index(IDX["price_zscore_20"])] = 7.0
    with pytest.warns(UserWarning, match=r"zero-variance features \['price_zscore_20'\]"):
        FeatureNormalizer().fit([feats])


def test_features_depend_only_on_past_data(rng):
    prices, volumes, market = build_inputs(rng, n=3, t=8)
    base = compute_features(prices, volumes, market)
    mutated = prices.copy()
    mutated[:, PAD + 4:] *= 1.5  # corrupt strictly after step 3's window
    after = compute_features(mutated, volumes, market)
    assert np.allclose(base[:, :4, :], after[:, :4, :], atol=1e-15)
