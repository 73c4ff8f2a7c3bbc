"""Market data containers, synthetic regime-switching generation, windowing.

A :class:`Universe` holds aligned close prices, volumes and simple returns
for a fixed ticker roster.  Data enters either from a long-format CSV or
from :func:`generate_synthetic`, which simulates a two-state (calm/crisis)
Markov market with a single-factor correlation structure and defensive
assets that damp their crisis volatility.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RegimeConfig",
    "Universe",
    "Window",
    "generate_synthetic",
    "load_csv",
    "make_windows",
    "split_windows",
]


@dataclass
class Universe:
    """Aligned price/volume/return panel for one ticker roster.

    ``returns[:, t]`` is the simple return earned over the day ending at
    ``return_dates[t]``.  For CSV data that is one day fewer than the price
    history; synthetic data generates returns directly so both spans match.
    """

    tickers: list[str]
    dates: list[str]              # price dates, length L
    closes: np.ndarray            # (N, L)
    volumes: np.ndarray           # (N, L)
    returns: np.ndarray           # (N, R)
    return_dates: list[str]       # length R
    regimes: np.ndarray | None = None   # (R,) int, 0 calm / 1 crisis; synthetic only

    def __post_init__(self):
        n = len(self.tickers)
        if self.closes.shape[0] != n or self.volumes.shape[0] != n or self.returns.shape[0] != n:
            raise ValueError("ticker count does not match data row count")
        if self.closes.shape != self.volumes.shape:
            raise ValueError("closes and volumes must have the same shape")
        if len(self.return_dates) != self.returns.shape[1]:
            raise ValueError("return_dates length does not match returns columns")

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    @property
    def n_return_days(self) -> int:
        return self.returns.shape[1]

    def market_returns(self) -> np.ndarray:
        """Equal-weighted cross-sectional mean return per day, shape (R,)."""
        return self.returns.mean(axis=0)

    def prices_on_return_days(self) -> np.ndarray:
        """(N, R) closes aligned so column t is the close ending return day t."""
        if self.closes.shape[1] == self.returns.shape[1] + 1:
            return self.closes[:, 1:]
        return self.closes

    def volumes_on_return_days(self) -> np.ndarray:
        if self.volumes.shape[1] == self.returns.shape[1] + 1:
            return self.volumes[:, 1:]
        return self.volumes

    def padded_inputs(self, pad: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Price/volume/market arrays with `pad` edge-replicated leading columns.

        Early windows lack real lookback; replicating the first column makes
        the pad a stretch of flat, zero-return days, which keeps every
        window's feature slice the same width.
        """
        p = self.prices_on_return_days()
        v = self.volumes_on_return_days()
        p_pad = np.concatenate([np.repeat(p[:, :1], pad, axis=1), p], axis=1)
        v_pad = np.concatenate([np.repeat(v[:, :1], pad, axis=1), v], axis=1)
        m_pad = np.concatenate([np.zeros(pad), self.market_returns()])
        return p_pad, v_pad, m_pad


def _row_error(path: str, line: int, ticker: str, date: str, problem: str) -> ValueError:
    return ValueError(f"{path} line {line} ({ticker} on {date}): {problem}")


def load_csv(path: str, tickers: list[str]) -> Universe:
    """Read a long-format CSV (date,ticker,close,volume) into a Universe.

    Dates are restricted to the calendar intersection: only days where every
    requested ticker has a row survive.  Rows with non-positive prices are
    dropped before alignment and counted in the error message if they
    eliminate a ticker entirely.  A requested ticker's row with a non-finite
    close or volume, a negative volume, or a second row for the same date
    raises ``ValueError`` naming the file line, ticker and date.
    """
    per_ticker: dict[str, dict[str, tuple[float, float]]] = {t: {} for t in tickers}
    dropped: set[tuple[str, str]] = set()      # rows with non-positive prices
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"date", "ticker", "close", "volume"}
        if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
            raise ValueError(
                f"CSV must have columns date,ticker,close,volume; got {reader.fieldnames}")
        for row in reader:
            t, date = row["ticker"], row["date"]
            series = per_ticker.get(t)
            if series is None:
                continue
            if date in series or (t, date) in dropped:
                raise _row_error(path, reader.line_num, t, date,
                                 "duplicate row for this ticker and date")
            close, volume = float(row["close"]), float(row["volume"])
            if not (math.isfinite(close) and math.isfinite(volume)):
                raise _row_error(path, reader.line_num, t, date,
                                 f"non-finite close {close} or volume {volume}")
            if volume < 0.0:
                raise _row_error(path, reader.line_num, t, date, f"negative volume {volume}")
            if close <= 0.0:
                dropped.add((t, date))
                continue
            series[date] = (close, volume)

    missing = [t for t in tickers if not per_ticker[t]]
    if missing:
        raise ValueError(
            f"no usable rows for tickers {missing} in {path}"
            + (f" ({len(dropped)} rows dropped for non-positive prices)" if dropped else ""))

    common = set.intersection(*(set(d.keys()) for d in per_ticker.values()))
    if len(common) < 2:
        raise ValueError(f"need at least 2 common dates across tickers, found {len(common)}")
    dates = sorted(common)

    n, length = len(tickers), len(dates)
    closes = np.empty((n, length))
    volumes = np.empty((n, length))
    for i, t in enumerate(tickers):
        series = per_ticker[t]
        for j, d in enumerate(dates):
            closes[i, j], volumes[i, j] = series[d]

    returns = closes[:, 1:] / closes[:, :-1] - 1.0
    return Universe(
        tickers=list(tickers), dates=dates, closes=closes, volumes=volumes,
        returns=returns, return_dates=dates[1:])


@dataclass
class RegimeConfig:
    """Two-state Markov market parameters.

    Transition matrix rows are (stay, leave) probabilities and must each sum
    to one.  Correlations are single-factor loadings squared, so they must
    sit in [0, 1).
    """

    p_calm_to_crisis: float = 0.02
    p_crisis_to_calm: float = 0.10
    calm_vol: float = 0.01
    crisis_vol: float = 0.03
    calm_corr: float = 0.2
    crisis_corr: float = 0.8
    calm_mean: float = 0.0004
    crisis_mean: float = -0.002
    defensive_vol_factor: float = 0.4

    def __post_init__(self):
        for name in ("p_calm_to_crisis", "p_crisis_to_calm"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        for name in ("calm_vol", "crisis_vol"):
            v = getattr(self, name)
            if v <= 0.0:
                raise ValueError(f"{name} must be positive, got {v}")
        for name in ("calm_corr", "crisis_corr"):
            c = getattr(self, name)
            if not 0.0 <= c < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {c}")

    def transition_matrix(self) -> np.ndarray:
        m = np.array([
            [1.0 - self.p_calm_to_crisis, self.p_calm_to_crisis],
            [self.p_crisis_to_calm, 1.0 - self.p_crisis_to_calm],
        ])
        if not np.allclose(m.sum(axis=1), 1.0, atol=1e-12):
            raise ValueError("transition matrix rows must sum to 1")
        return m


def generate_synthetic(tickers: list[str], days: int, seed: int,
                       config: RegimeConfig | None = None,
                       defensive_indices: list[int] | None = None) -> Universe:
    """Simulate a regime-switching market and package it as a Universe.

    Each day the regime evolves by the Markov chain; daily returns follow a
    single-factor model r_i = mu_i + vol_i * (sqrt(rho) * f + sqrt(1-rho) * e_i)
    with the factor and idiosyncratic draws standard normal.  Defensive
    assets have their crisis volatility scaled by ``defensive_vol_factor``
    and their crisis mean floored at zero.  Prices compound from 100 and a
    synthetic volume series is drawn lognormally.  Fully reproducible from
    the seed.
    """
    if days < 2:
        raise ValueError(f"need at least 2 days, got {days}")
    cfg = config or RegimeConfig()
    n = len(tickers)
    defensive = np.zeros(n, dtype=bool)
    for i in defensive_indices or []:
        if not 0 <= i < n:
            raise ValueError(f"defensive index {i} out of range for {n} tickers")
        defensive[i] = True

    rng = np.random.default_rng(seed)
    trans = cfg.transition_matrix()

    regimes = np.empty(days, dtype=np.int64)
    state = 0   # start calm
    for t in range(days):
        regimes[t] = state
        state = 1 - state if rng.random() < trans[state, 1 - state] else state

    mean = np.where(regimes == 0, cfg.calm_mean, cfg.crisis_mean)          # (D,)
    vol = np.where(regimes == 0, cfg.calm_vol, cfg.crisis_vol)             # (D,)
    corr = np.where(regimes == 0, cfg.calm_corr, cfg.crisis_corr)          # (D,)

    mu = np.tile(mean, (n, 1))                                             # (N, D)
    sigma = np.tile(vol, (n, 1))
    crisis = regimes == 1
    sigma[np.ix_(defensive, crisis)] *= cfg.defensive_vol_factor
    mu[np.ix_(defensive, crisis)] = np.maximum(mu[np.ix_(defensive, crisis)], 0.0)

    factor = rng.standard_normal(days)
    idio = rng.standard_normal((n, days))
    loading = np.sqrt(corr)
    resid = np.sqrt(1.0 - corr)
    returns = mu + sigma * (loading * factor + resid * idio)

    closes = 100.0 * np.cumprod(1.0 + returns, axis=1)
    volumes = np.exp(rng.normal(loc=13.0, scale=0.5, size=(n, days)))

    dates = [f"d{t:05d}" for t in range(days)]
    return Universe(
        tickers=list(tickers), dates=dates, closes=closes, volumes=volumes,
        returns=returns, return_dates=dates, regimes=regimes)


@dataclass
class Window:
    """One training sample: a T-day feature window and its H-day target block.

    ``start``/``end`` index the universe's return axis; ``end`` is the last
    return day inside the window and the target block covers
    ``end+1 .. end+horizon`` inclusive.  Feature construction may only read
    data up to ``end``.
    """

    start: int
    end: int
    end_date: str
    target: np.ndarray            # (N, H) forward returns
    regime: int | None = None
    features: np.ndarray | None = field(default=None, repr=False)   # (N, T, F)


def make_windows(universe: Universe, window: int = 20, horizon: int = 5,
                 stride: int = 5) -> list[Window]:
    """Slice the return history into overlapping windows with forward targets.

    With R usable return days the count is floor((R - window - horizon) / stride) + 1;
    a history too short for even one window raises.
    """
    r = universe.n_return_days
    if r < window + horizon:
        raise ValueError(
            f"history of {r} return days cannot fit window={window} plus horizon={horizon}")
    count = (r - window - horizon) // stride + 1
    out = []
    for k in range(count):
        start = k * stride
        end = start + window - 1
        target = universe.returns[:, end + 1:end + 1 + horizon].copy()
        regime = int(universe.regimes[end]) if universe.regimes is not None else None
        out.append(Window(
            start=start, end=end, end_date=universe.return_dates[end],
            target=target, regime=regime))
    return out


def split_windows(windows: list[Window], horizon: int,
                  train_frac: float = 0.7) -> tuple[list[Window], list[Window], int]:
    """Chronological train/test split with a purge gap.

    The boundary index is placed at ``train_frac`` of the windows.  A window
    lands in train only if its entire target block ends at or before the
    boundary window's end; it lands in test only if its feature window starts
    after the boundary target block ends.  Straddlers are dropped and counted
    so no information can leak across the split.
    """
    if not windows:
        return [], [], 0
    cut = max(1, int(len(windows) * train_frac))
    boundary_end = windows[cut - 1].end + horizon

    train = [w for w in windows if w.end + horizon <= boundary_end]
    test = [w for w in windows if w.start > boundary_end]
    dropped = len(windows) - len(train) - len(test)
    return train, test, dropped
