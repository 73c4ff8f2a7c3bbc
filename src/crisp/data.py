"""Market data containers, synthetic regime-switching generation, windowing.

A :class:`Universe` holds aligned close prices, volumes and simple returns
for a fixed ticker roster, in one layout: R+1 closes, the first on a base
day, give R returns.  Data enters from a long-format CSV (:func:`load_csv`
reads it, :func:`save_csv` writes it) or from :func:`generate_synthetic`,
which simulates a two-state (calm/crisis) Markov market with a single-factor
correlation structure and defensive assets that damp their crisis volatility.
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
    "save_csv",
]


@dataclass
class Universe:
    """Aligned price/volume/return panel for one ticker roster.

    ``closes``, ``volumes`` and ``dates`` span R+1 days, the first a base day
    that only anchors the first return: ``returns[:, t]`` is the simple
    return from close t to close t+1, earned on ``return_dates[t]``, which is
    ``dates[t + 1]``.  Any other shape, or a ticker listed twice, raises
    ``ValueError``.
    """

    tickers: list[str]
    dates: list[str]              # close dates, length R+1
    closes: np.ndarray            # (N, R+1)
    volumes: np.ndarray           # (N, R+1)
    returns: np.ndarray           # (N, R)
    regimes: np.ndarray | None = None   # (R,) int, 0 calm / 1 crisis; synthetic only
    return_dates: list[str] = field(init=False)   # dates[1:], length R

    def __post_init__(self):
        n, r = len(self.tickers), self.returns.shape[-1]
        regimes = (r,) if self.regimes is None else self.regimes.shape
        for name, got, need in (("returns", self.returns.shape, (n, r)),
                                ("closes", self.closes.shape, (n, r + 1)),
                                ("volumes", self.volumes.shape, (n, r + 1)),
                                ("dates", (len(self.dates),), (r + 1,)),
                                ("regimes", regimes, (r,))):
            if got != need:
                raise ValueError(f"{name} has shape {got}; {n} tickers over {r} "
                                 f"return days need {need}")
        repeated = sorted({t for t in self.tickers if self.tickers.count(t) > 1})
        if repeated:
            raise ValueError(f"duplicate tickers {repeated}: each ticker may appear once")
        self.return_dates = self.dates[1:]

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    @property
    def n_return_days(self) -> int:
        return self.returns.shape[1]

    def market_returns(self) -> np.ndarray:
        """Equal-weighted cross-sectional mean return per day, shape (R,)."""
        return self.returns.mean(axis=0)

    def padded_inputs(self, pad: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Price/volume/market arrays with `pad` edge-replicated leading columns.

        Column t of the unpadded part is the close and volume ending return
        day t.  Early windows lack real lookback; replicating the first
        column makes the pad a stretch of flat, zero-return days, which keeps
        every window's feature slice the same width.
        """
        p, v = self.closes[:, 1:], self.volumes[:, 1:]
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
    eliminate a ticker entirely.  A requested ticker's row with an
    unparseable or non-finite close or volume, a negative volume, or a
    second row for the same date raises ``ValueError`` naming the file
    line, ticker and date.
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
            try:
                close, volume = float(row["close"]), float(row["volume"])
            except (TypeError, ValueError):      # TypeError: a short row
                raise _row_error(path, reader.line_num, t, date,
                                 f"unparseable close {row['close']!r} or "
                                 f"volume {row['volume']!r}") from None
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

    panel = np.array([[per_ticker[t][d] for d in dates] for t in tickers])   # (N, L, 2)
    closes, volumes = panel[:, :, 0], panel[:, :, 1]
    return Universe(tickers=list(tickers), dates=dates, closes=closes, volumes=volumes,
                    returns=closes[:, 1:] / closes[:, :-1] - 1.0)


def save_csv(universe: Universe, path: str) -> None:
    """Write ``universe`` in the long format :func:`load_csv` reads.

    Floats are written by ``repr``, so closes and volumes reload bitwise.
    """
    with open(path, "w") as fh:
        fh.write("date,ticker,close,volume\n")
        for ticker, closes, volumes in zip(universe.tickers, universe.closes.tolist(),
                                           universe.volumes.tolist()):
            for date, close, volume in zip(universe.dates, closes, volumes):
                fh.write(f"{date},{ticker},{close!r},{volume!r}\n")


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


def generate_synthetic(tickers: list[str], days: int, seed: int,
                       config: RegimeConfig | None = None,
                       defensive_indices: list[int] | None = None) -> Universe:
    """Simulate a regime-switching market and package it as a Universe.

    Each day the regime evolves by the Markov chain; daily returns follow a
    single-factor model r_i = mu_i + vol_i * (sqrt(rho) * f + sqrt(1-rho) * e_i)
    with the factor and idiosyncratic draws standard normal.  Defensive
    assets have their crisis volatility scaled by ``defensive_vol_factor``
    and their crisis mean floored at zero.  Prices compound from a base-day
    close of 100 and a synthetic volume series is drawn lognormally, the
    base day repeating day 0's volume.  Fully reproducible from the seed.
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
    leave = (cfg.p_calm_to_crisis, cfg.p_crisis_to_calm)   # by current state

    chain = []
    state = 0   # start calm
    for u in rng.random(days).tolist():     # one uniform per day, in order
        chain.append(state)
        if u < leave[state]:
            state = 1 - state
    regimes = np.array(chain, dtype=np.int64)

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

    closes = 100.0 * np.cumprod(np.hstack([np.ones((n, 1)), 1.0 + returns]), axis=1)
    volumes = np.exp(rng.normal(loc=13.0, scale=0.5, size=(n, days)))
    volumes = np.hstack([volumes[:, :1], volumes])

    return Universe(
        tickers=list(tickers), dates=[f"d{t:05d}" for t in range(days + 1)],
        closes=closes, volumes=volumes, returns=returns, regimes=regimes)


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
    a history too short for even one window raises, as does a window,
    horizon or stride below 1.
    """
    for name, value in (("window", window), ("horizon", horizon), ("stride", stride)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
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
