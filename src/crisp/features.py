"""The 31-feature roster computed per asset-day over padded windows.

Input arrays are aligned to return days: column k of the price matrix is
the close at the end of return day k, volumes are the same day's volume
and the market series is the equal-weight universe return.  A window of T
days arrives with a 20-day leading pad so every rolling quantity has full
lookback; features for day t use only columns <= t (causality).  Windows
share one :func:`day_features` pass over the days they cover, which fills
every column but ``vol_pctile_60``; :func:`finish_window` ranks that column
over one window's own days and checks them.

Roster (31 entries, order fixed):

    returns      ret_mean_20, ret_std_20, ret_skew_20, ret_kurt_20
    risk         var_5pct_20, cvar_5pct_20, downside_dev_20,
                 max_drawdown_20, cum_return_20
    momentum     momentum_20, momentum_accel_10, rsi_14
    liquidity    volume_rank_20, volume_std_20, amihud_20, volume_stability_20
    technical    ma5_ma20_ratio, price_ma20_ratio, vol_pctile_60,
                 vol_ratio_5_20
    crisis       defensive_flag, market_corr_20, market_breadth,
                 market_beta_20
    extremes     max_return_20, min_return_20, autocorr_lag1_20,
                 up_day_ratio_20, price_zscore_20
    interaction  momentum_x_vol, rsi_x_drawdown

Conventions: std uses ddof=1; VaR/CVaR are loss-side (negative in losses)
with the tail of size ceil(alpha*n); RSI is Wilder-initialized over 14
diffs with 50 at zero movement; drawdown is negative.  Each 20-day return,
price and volume window is centered once, and its mean and centered square
sum serve every column that reads them: std, skew, kurtosis, market
correlation and beta for returns, the moving average and z-score for
prices, std and stability for volume.  The third and fourth moments are
products of the centered values, not powers, and the market window is
centered once for all assets.
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "FEATURE_ROSTER",
    "N_FEATURES",
    "PAD",
    "CRISIS_FEATURES",
    "FeatureNormalizer",
    "compute_features",
    "day_features",
    "feature_columns",
    "finish_window",
]

PAD = 20            # lookback days prepended to every window
_WIN = 20           # rolling window for most features
_EPS = 1e-12

# (name, category, formula id) in roster order
FEATURE_ROSTER: list[tuple[str, str, str]] = [
    ("ret_mean_20", "returns", "mean(r,20)"),
    ("ret_std_20", "returns", "std(r,20,ddof1)"),
    ("ret_skew_20", "returns", "m3/m2^1.5(r,20)"),
    ("ret_kurt_20", "returns", "m4/m2^2-3(r,20)"),
    ("var_5pct_20", "risk", "kth_worst(r,20,k=ceil(.05n))"),
    ("cvar_5pct_20", "risk", "mean_worst(r,20,k=ceil(.05n))"),
    ("downside_dev_20", "risk", "rms(min(r,0),20)"),
    ("max_drawdown_20", "risk", "min(p/cummax(p)-1,20)"),
    ("cum_return_20", "risk", "prod(1+r,20)-1"),
    ("momentum_20", "momentum", "p[t]/p[t-20]-1"),
    ("momentum_accel_10", "momentum", "mom10(t)-mom10(t-10)"),
    ("rsi_14", "momentum", "wilder_rsi(p,14)"),
    ("volume_rank_20", "liquidity", "mean(xsect_rank(v),20)"),
    ("volume_std_20", "liquidity", "std(v,20,ddof1)"),
    ("amihud_20", "liquidity", "mean(|r|/(p*v),20)"),
    ("volume_stability_20", "liquidity", "mean(v,20)/std(v,20)"),
    ("ma5_ma20_ratio", "technical", "mean(p,5)/mean(p,20)"),
    ("price_ma20_ratio", "technical", "p[t]/mean(p,20)"),
    ("vol_pctile_60", "technical", "pctile(std20(r),hist<=60d)"),
    ("vol_ratio_5_20", "technical", "std(r,5)/std(r,20)"),
    ("defensive_flag", "crisis", "static01"),
    ("market_corr_20", "crisis", "corr(r,mkt,20)"),
    ("market_breadth", "crisis", "frac(r_xsect>0)"),
    ("market_beta_20", "crisis", "cov(r,mkt,20)/var(mkt,20)"),
    ("max_return_20", "extremes", "max(r,20)"),
    ("min_return_20", "extremes", "min(r,20)"),
    ("autocorr_lag1_20", "extremes", "corr(r[:-1],r[1:],20)"),
    ("up_day_ratio_20", "extremes", "mean(r>0,20)"),
    ("price_zscore_20", "extremes", "(p-mean(p,20))/std(p,20)"),
    ("momentum_x_vol", "interaction", "momentum_20*ret_std_20"),
    ("rsi_x_drawdown", "interaction", "rsi_14*max_drawdown_20"),
]

N_FEATURES = len(FEATURE_ROSTER)
CRISIS_FEATURES = [i for i, (_, cat, _) in enumerate(FEATURE_ROSTER) if cat == "crisis"]


def feature_columns(n_features: int) -> list[int] | None:
    """Roster columns a model with ``n_features`` inputs reads.

    None for the full roster, the roster minus the crisis block for the
    crisis-less ablation; any other width raises ``ValueError``.
    """
    if n_features == N_FEATURES:
        return None
    kept = [i for i in range(N_FEATURES) if i not in CRISIS_FEATURES]
    if n_features != len(kept):
        raise ValueError(
            f"model expects {n_features} features; the roster has {N_FEATURES}, "
            f"or {len(kept)} without the crisis block")
    return kept


# -- vectorized rolling kernels ----------------------------------------------

def _roll(x: np.ndarray, width: int) -> np.ndarray:
    """(N, W) -> (N, D, width) trailing windows for each day column."""
    return sliding_window_view(x, width, axis=1)


def _safe_div(num: np.ndarray, den: np.ndarray, fallback: float = 0.0) -> np.ndarray:
    out = np.full_like(num, fallback)
    ok = den != 0.0
    np.divide(num, den, out=out, where=ok)
    return out


def _mean_std(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and ddof=1 std along the last axis from one centered pass."""
    mean = w.mean(axis=-1)
    c = w - mean[..., None]
    return mean, np.sqrt((c * c).sum(axis=-1) / (w.shape[-1] - 1))


def _corr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pearson correlation along the last axis; zero variance on either side -> 0."""
    am = a - a.mean(axis=-1, keepdims=True)
    bm = b - b.mean(axis=-1, keepdims=True)
    num = (am * bm).sum(axis=-1)
    den = np.sqrt((am * am).sum(axis=-1) * (bm * bm).sum(axis=-1))
    return _safe_div(num, den)


def compute_features(window_prices: np.ndarray, window_volumes: np.ndarray,
                     market_returns: np.ndarray,
                     defensive: np.ndarray | None = None) -> np.ndarray:
    """Compute the 31-feature tensor for one padded window.

    ``window_prices``/``window_volumes`` are (N, PAD+T) aligned to return
    days (close at end of each day); ``market_returns`` is (PAD+T,).  Output
    is (N, T, 31).  Raises when fewer than PAD+1 columns are supplied.
    """
    return finish_window(*day_features(window_prices, window_volumes, market_returns, defensive))


def day_features(window_prices: np.ndarray, window_volumes: np.ndarray,
                 market_returns: np.ndarray,
                 defensive: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`compute_features` over a padded span of D days, ``vol_pctile_60`` unset, and
    each day's count of live dollar-volume days (N, D); it checks shapes, not values."""
    p = np.asarray(window_prices, dtype=np.float64)
    v = np.asarray(window_volumes, dtype=np.float64)
    m = np.asarray(market_returns, dtype=np.float64).ravel()
    if p.ndim != 2:
        raise ValueError(f"window_prices must be 2-D (assets, days), got shape {p.shape}")
    n, width = p.shape
    if v.shape != p.shape or m.size != width:
        raise ValueError(
            f"shape mismatch: prices {p.shape}, volumes {v.shape}, market ({m.size},)")
    if width < PAD + 1:
        raise ValueError(
            f"insufficient lookback: got {width} days, need a {PAD}-day pad "
            f"before the first window day (>= {PAD + 1} columns)")
    t_len = width - PAD

    defensive = np.zeros(n) if defensive is None else np.asarray(defensive, dtype=np.float64)
    if defensive.shape != (n,):
        raise ValueError(f"defensive flags must have shape ({n},), got {defensive.shape}")

    # returns per day; column 0 has no prior close and is never consumed
    r = np.zeros_like(p)
    r[:, 1:] = p[:, 1:] / p[:, :-1] - 1.0

    day = slice(PAD, width)                       # window-day columns
    # trailing windows ending at each window day
    rw = _roll(r, _WIN)[:, PAD - _WIN + 1:, :]    # (N, T, 20) returns
    pw = _roll(p, _WIN)[:, PAD - _WIN + 1:, :]    # (N, T, 20) prices
    vw = _roll(v, _WIN)[:, PAD - _WIN + 1:, :]    # (N, T, 20) volumes

    f = np.empty((n, t_len, N_FEATURES))

    # returns block: one mean, centered window and square sum per window; the
    # moments are products, as ``**`` 3 and 4 go through the slower libm pow
    mean = rw.mean(axis=-1)
    c = rw - mean[..., None]
    sq = c * c
    s2 = sq.sum(axis=-1)
    std = np.sqrt(s2 / (_WIN - 1))
    m2 = s2 / _WIN
    m3 = (sq * c).mean(axis=-1)
    m4 = (sq * sq).mean(axis=-1)
    f[:, :, 0] = mean
    f[:, :, 1] = std
    f[:, :, 2] = _safe_div(m3, m2 ** 1.5)
    f[:, :, 3] = _safe_div(m4, m2 ** 2) - np.where(m2 > 0.0, 3.0, 0.0)

    # risk block: over 20 days the 5 % tail is ceil(0.05 * 20) = 1 return, so
    # the VaR and the CVaR are both the window's worst return
    worst = rw.min(axis=-1)
    f[:, :, 4] = worst
    f[:, :, 5] = worst
    f[:, :, 6] = np.sqrt((np.minimum(rw, 0.0) ** 2).mean(axis=-1))
    f[:, :, 7] = (pw / np.maximum.accumulate(pw, axis=-1)).min(axis=-1) - 1.0
    f[:, :, 8] = np.prod(1.0 + rw, axis=-1) - 1.0

    # momentum block
    f[:, :, 9] = p[:, day] / p[:, :width - _WIN] - 1.0
    mom10_now = p[:, day] / p[:, PAD - 10:width - 10] - 1.0
    mom10_prev = p[:, PAD - 10:width - 10] / p[:, :width - _WIN] - 1.0
    f[:, :, 10] = mom10_now - mom10_prev
    diffs = np.diff(p, axis=1)                    # (N, W-1)
    dw = _roll(diffs, 14)[:, PAD - 14:, :]        # (N, T, 14) diffs ending at each day
    gain = np.maximum(dw, 0.0).mean(axis=-1)
    loss = np.maximum(-dw, 0.0).mean(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rsi_vals = 100.0 - 100.0 / (1.0 + gain / loss)
    rsi_vals = np.where(loss == 0.0, 100.0, rsi_vals)
    rsi_vals = np.where((gain == 0.0) & (loss == 0.0), 50.0, rsi_vals)
    f[:, :, 11] = rsi_vals

    # liquidity block
    less = (v[None, :, :] < v[:, None, :]).sum(axis=1)       # (N, W) strictly-below counts
    equal = (v[None, :, :] == v[:, None, :]).sum(axis=1) - 1
    xrank = (less + 0.5 * equal) / max(n - 1, 1)             # average rank in [0, 1]
    f[:, :, 12] = _roll(xrank, _WIN)[:, PAD - _WIN + 1:, :].mean(axis=-1)
    vmean, vstd = _mean_std(vw)
    f[:, :, 13] = vstd
    dollar = p * v
    live = dollar > 0.0
    livew = _roll(live, _WIN)[:, PAD - _WIN + 1:, :]
    ratio = np.where(live, np.abs(r) / np.where(live, dollar, 1.0), 0.0)
    ratw = _roll(ratio, _WIN)[:, PAD - _WIN + 1:, :]
    live_counts = livew.sum(axis=-1)
    f[:, :, 14] = _safe_div(ratw.sum(axis=-1), live_counts)
    f[:, :, 15] = vmean / (vstd + 1e-8)           # guard keeps constant volume finite

    # technical block
    ma5 = _roll(p, 5)[:, PAD - 4:, :].mean(axis=-1)
    ma20, pstd = _mean_std(pw)
    f[:, :, 16] = ma5 / ma20
    f[:, :, 17] = p[:, day] / ma20
    vol5 = _roll(r, 5)[:, PAD - 4:, :].std(axis=-1, ddof=1)
    f[:, :, 19] = _safe_div(vol5, std, fallback=1.0)

    # crisis block: the market window is centered once, at (1, T, 20), and its
    # product with the centered returns feeds both correlation and beta
    f[:, :, 20] = defensive[:, None]
    mw = _roll(m[None, :], _WIN)[:, PAD - _WIN + 1:, :]     # (1, T, 20)
    mc = mw - mw.mean(axis=-1, keepdims=True)
    smm = (mc * mc).sum(axis=-1)                             # (1, T)
    scm = (c * mc).sum(axis=-1)                              # (N, T)
    f[:, :, 21] = _safe_div(scm, np.sqrt(s2 * smm))
    f[:, :, 22] = (r[:, day] > 0.0).mean(axis=0)[None, :]
    f[:, :, 23] = _safe_div(scm / _WIN, smm / _WIN)

    # extremes block
    f[:, :, 24] = rw.max(axis=-1)
    f[:, :, 25] = worst
    f[:, :, 26] = _corr(rw[:, :, :-1], rw[:, :, 1:])
    f[:, :, 27] = (rw > 0.0).mean(axis=-1)
    f[:, :, 28] = _safe_div(p[:, day] - ma20, pstd)

    # interactions
    f[:, :, 29] = f[:, :, 9] * f[:, :, 1]
    f[:, :, 30] = f[:, :, 11] * f[:, :, 7]
    return f, live_counts


def finish_window(f: np.ndarray, live_counts: np.ndarray) -> np.ndarray:
    """Fill ``vol_pctile_60`` into one window's (N, T, 31) slice, in place: a day ranks
    its ``ret_std_20`` against up to 60 window days ending at itself.  Zero dollar
    volume raises ``ValueError``, a non-finite value ``FloatingPointError``."""
    if (live_counts == 0).any():
        raise ValueError("amihud undefined: a window has zero dollar volume on every day")
    vol = f[:, :, 1]
    # +inf before day 0 is never <= a finite vol; an infinite vol fails the check below
    band = _roll(np.concatenate([np.full((len(vol), 59), np.inf), vol], axis=1), 60)
    hits = (band <= vol[:, :, None]).sum(axis=-1)
    f[:, :, 18] = hits / np.minimum(np.arange(1, vol.shape[1] + 1), 60)
    if not np.isfinite(f).all():
        bad = [FEATURE_ROSTER[i][0] for i in
               sorted(set(np.argwhere(~np.isfinite(f))[:, 2].tolist()))]
        raise FloatingPointError(f"non-finite feature values in {bad}")
    return f


class FeatureNormalizer:
    """Per-feature z-normalization with statistics frozen on the training split."""

    def __init__(self):
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None

    def fit(self, feature_arrays: list[np.ndarray]) -> "FeatureNormalizer":
        """Fit over a list of (N, T, F) arrays pooled across samples, assets, days.

        A zero-variance feature is named from the roster columns that
        ``feature_columns(F)`` selects.
        """
        if not feature_arrays:
            raise ValueError("cannot fit normalizer on an empty list")
        flat = np.concatenate([a.reshape(-1, a.shape[-1]) for a in feature_arrays], axis=0)
        self.mean = flat.mean(axis=0)
        std = flat.std(axis=0)
        dead = std < _EPS
        if dead.any():
            columns = feature_columns(flat.shape[1]) or range(N_FEATURES)
            names = [FEATURE_ROSTER[columns[i]][0] for i in np.flatnonzero(dead)]
            warnings.warn(f"zero-variance features {names}: unit-variance fallback applied")
            std = np.where(dead, 1.0, std)
        self.std = std
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        if self.mean is None:
            raise RuntimeError("normalizer used before fit")
        return (features - self.mean) / self.std

    def state(self) -> dict[str, np.ndarray]:
        if self.mean is None:
            raise RuntimeError("normalizer has no fitted state")
        return {"mean": self.mean.copy(), "std": self.std.copy()}

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> "FeatureNormalizer":
        nz = cls()
        nz.mean = np.asarray(state["mean"], dtype=np.float64)
        nz.std = np.asarray(state["std"], dtype=np.float64)
        return nz


def roster_csv() -> str:
    """The feature roster as CSV text (name, category, formula id)."""
    lines = ["name,category,formula"]
    for name, cat, formula in FEATURE_ROSTER:
        lines.append(f'{name},{cat},"{formula}"')
    return "\n".join(lines) + "\n"
