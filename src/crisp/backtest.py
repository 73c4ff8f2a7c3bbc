"""Weekly-rebalanced out-of-sample evaluation, baselines and ablations.

A strategy maps (universe, rebalance index, previous weights) to feasible
portfolio weights using only data up to the rebalance index; the weights
carry the text of any fallback the rule took and the attention alphas
behind them.  The backtester walks the non-overlapping 5-day test windows
sequentially, holds each weight vector fixed for its period, concatenates
the daily returns and computes metrics once over the whole series.  It
records each run's fallback events and attention afresh.  Strategies that
emit infeasible weights fall back to equal weight for that period; the
event is counted and flagged.

Reporting conventions: intra-period weight drift is ignored (weights act
as if rebalanced to target daily at zero cost) and returns carry no
transaction costs; turnover is reported separately.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .allocation import (
    WEIGHT_CAP,
    WEIGHT_FLOOR,
    PortfolioWeights,
    project_constraints,
    score_to_weights,
)
from .autodiff import no_grad
from .data import Universe, Window
from .features import PAD, compute_features, day_features, feature_columns, finish_window
from .graphattn import AttentionRecord
from .model import VARIANTS, CrispModel, ModelConfig
from .objectives import LossWeights, MetricSet, metrics
from .spatial import PriorGraph, correlation_adjacency, normalize_adjacency
from .training import Checkpoint, TrainConfig, TrainResult, train
from .universe import AssetBook

__all__ = [
    "ABLATION_NAMES",
    "BacktestReport",
    "Strategy",
    "ablation_suite",
    "attach_features",
    "crisp_strategy",
    "equal_weight",
    "mean_variance",
    "mean_variance_weights",
    "random_selection",
    "risk_parity",
    "risk_parity_weights",
    "run_backtest",
    "static_adjacency_at",
    "train_on_universe",
]

CORR_LOOKBACK = 252
CORR_THRESHOLD = 0.5
_RP_TOL, _RP_MAX_SWEEPS = 1e-8, 10000


@dataclass
class Strategy:
    """Named weight rule; the function sees history only up to the given index."""

    name: str
    weight_fn: Callable[[Universe, int, np.ndarray], PortfolioWeights]
    fallback_events: list[str] = field(default_factory=list)


@dataclass
class BacktestReport:
    strategy: str
    weights: list[PortfolioWeights]
    turnovers: list[float]
    daily_returns: np.ndarray
    equity: np.ndarray
    dates: list[str]                 # one date per test day
    rebalance_dates: list[str]
    metric_set: MetricSet
    infeasible_periods: int
    attention: list[AttentionRecord] | None = None

    def equity_csv(self) -> str:
        """date,strategy,equity rows; the lead row is the starting stake of 1."""
        start = self.rebalance_dates[0] if self.rebalance_dates else ""
        lines = ["date,strategy,equity", f"{start},{self.strategy},1"]
        for d, e in zip(self.dates, self.equity):
            lines.append(f"{d},{self.strategy},{e:.12g}")
        return "\n".join(lines) + "\n"

    def weights_csv(self, tickers: list[str]) -> str:
        lines = ["date,ticker,weight"]
        for pw in self.weights:
            for t, w in zip(tickers, pw.weights):
                lines.append(f"{pw.as_of_date},{t},{w:.12g}")
        return "\n".join(lines) + "\n"


def run_backtest(strategy: Strategy, universe: Universe,
                 test_windows: list[Window]) -> BacktestReport:
    """Sequential evaluation over non-overlapping 5-day holding periods."""
    if not test_windows:
        raise ValueError("backtest needs at least one test window")
    horizon = test_windows[0].target.shape[1]
    for a, b in zip(test_windows, test_windows[1:]):
        if b.end - a.end != horizon:
            raise ValueError(
                f"test windows must tile contiguously with stride {horizon}: "
                f"window ends {a.end} -> {b.end}")

    n = universe.n_assets
    prev = np.full(n, 1.0 / n)
    weights_log: list[PortfolioWeights] = []
    turnovers: list[float] = []
    daily: list[np.ndarray] = []
    dates: list[str] = []
    records: list[AttentionRecord] = []
    strategy.fallback_events = events = []      # this run's events only
    infeasible = 0

    for w in test_windows:
        try:
            pw = strategy.weight_fn(universe, w.end, prev.copy())
        except FloatingPointError as exc:      # e.g. NaN scores met the projection
            problem = f"infeasible weights ({exc})"
        else:
            if pw.fallback is not None:
                events.append(pw.fallback)
            if pw.attention is not None:
                records.append(AttentionRecord.from_alphas(w.end_date, pw.attention))
            problem = None if pw.is_feasible() else "infeasible weights"
        if problem is not None:
            infeasible += 1
            events.append(f"{w.end_date}: {problem} replaced by equal weight")
            pw = PortfolioWeights(np.full(n, 1.0 / n), as_of_date=w.end_date)
        if not pw.as_of_date:
            pw.as_of_date = w.end_date
        turnovers.append(float(np.abs(pw.weights - prev).sum()))
        daily.append(pw.weights @ w.target)
        dates.extend(universe.return_dates[w.end + 1:w.end + 1 + horizon])
        weights_log.append(pw)
        prev = pw.weights

    series = np.concatenate(daily)
    return BacktestReport(
        strategy=strategy.name,
        weights=weights_log,
        turnovers=turnovers,
        daily_returns=series,
        equity=np.cumprod(1.0 + series),
        dates=dates,
        rebalance_dates=[w.end_date for w in test_windows],
        metric_set=metrics(series, avg_turnover=float(np.mean(turnovers))),
        infeasible_periods=infeasible,
        attention=records or None,
    )


# -- classical baselines ------------------------------------------------------

def equal_weight() -> Strategy:
    def fn(universe: Universe, end: int, prev: np.ndarray) -> PortfolioWeights:
        n = universe.n_assets
        return PortfolioWeights(np.full(n, 1.0 / n))
    return Strategy("Equal Weight", fn)


def _check_lookback(lookback: int) -> None:
    # one day of returns has no covariance; below that the slice is empty
    if lookback < 2:
        raise ValueError(f"lookback must be >= 2 days, got {lookback}")


def mean_variance(risk_aversion: float = 1.0, lookback: int = 252) -> Strategy:
    """Markowitz weights: the exact maximizer from ``mean_variance_weights``.

    The trailing ``lookback`` days give the mean and the sample covariance,
    plus 1e-6 on its diagonal; fewer days fall back to equal weight.
    Raises ``ValueError`` for a lookback below 2 days or a risk aversion that
    is negative or not finite.
    """
    _check_lookback(lookback)
    if not (math.isfinite(risk_aversion) and risk_aversion >= 0.0):
        raise ValueError(f"risk_aversion must be finite and >= 0, got {risk_aversion}")

    def fn(universe: Universe, end: int, prev: np.ndarray) -> PortfolioWeights:
        n = universe.n_assets
        if end + 1 < lookback:
            return PortfolioWeights(np.full(n, 1.0 / n), fallback=(
                f"index {end}: {end + 1} days < {lookback}-day lookback, equal weight used"))
        hist = universe.returns[:, end + 1 - lookback:end + 1]
        sigma = np.cov(hist) + 1e-6 * np.eye(n)
        return PortfolioWeights(mean_variance_weights(hist.mean(axis=1), sigma,
                                                      risk_aversion))

    return Strategy("Mean-Variance", fn)


def mean_variance_weights(mu: np.ndarray, sigma: np.ndarray,
                          risk_aversion: float) -> np.ndarray:
    """Exact maximizer of mu'w - risk_aversion w'Sw on the feasible set.

    The set is { sum w = 1, 0.02 <= w_i <= 0.25 }, and ``sigma`` must be
    symmetric positive definite.  A primal active-set method (Nocedal &
    Wright, *Numerical Optimization*, ch. 16) starts from equal weight.
    Each iteration solves the KKT system of the free coordinates for the
    best step that keeps the pinned ones fixed, and a ratio test pins the
    first bound that step would cross.  At the best point of a working set
    the free coordinates share one gradient value c, the budget multiplier.
    A floor coordinate whose gradient lies above c, or a cap coordinate
    whose gradient lies below it, has a wrong-signed multiplier, and the
    worst such coordinate is released; when none is left the point is
    optimal.  No end within 5 n iterations raises ``FloatingPointError``.

    A zero risk aversion leaves a linear program.  Its optimum puts every
    asset at the floor, then raises assets to the cap in stable descending
    ``mu`` order until the budget is spent.
    """
    mu = np.asarray(mu, dtype=np.float64)
    n = mu.size
    lo, hi = WEIGHT_FLOOR, WEIGHT_CAP
    if n * lo >= 1.0 or n * hi <= 1.0:      # the set is the point 1/n, or empty
        return np.full(n, 1.0 / n)
    if risk_aversion == 0.0:
        w = np.full(n, lo)
        budget = 1.0 - n * lo
        for i in np.argsort(-mu, kind="stable"):
            if budget <= 0.0:
                break
            w[i] += min(hi - lo, budget)
            budget -= hi - lo
        return w

    hess = 2.0 * risk_aversion * np.asarray(sigma, dtype=np.float64)
    # a multiplier counts as wrong-signed only beyond the gradient's rounding
    tol = 1e-12 * (np.abs(mu).max() + np.abs(hess).max())
    w = np.full(n, 1.0 / n)
    side = np.zeros(n, dtype=np.int64)     # -1 pinned at the floor, +1 at the cap
    for _ in range(5 * n):
        # never empty: one free coordinate cannot move, so nothing pins it
        free = np.flatnonzero(side == 0)
        k = free.size
        # maximize d'p - p'Hp/2 over steps p with p_F summing to 0 and the
        # pinned coordinates fixed: H_FF p_F + c 1 = d_F, 1'p_F = 0
        grad = mu - hess @ w
        kkt = np.ones((k + 1, k + 1))
        kkt[:k, :k] = hess[np.ix_(free, free)]
        kkt[k, k] = 0.0
        rhs = np.append(grad[free], 0.0)
        solution = np.linalg.solve(kkt, rhs)
        step, c = solution[:k], solution[k]

        wf = w[free]
        ratios = np.full(k, np.inf)
        up, down = step > 0.0, step < 0.0
        ratios[up] = (hi - wf[up]) / step[up]
        ratios[down] = (lo - wf[down]) / step[down]
        j = int(ratios.argmin())
        if ratios[j] < 1.0:
            # a coordinate a rounding past its bound has a negative ratio
            w[free] = wf + max(ratios[j], 0.0) * step
            w[free[j]] = hi if step[j] > 0.0 else lo
            side[free[j]] = 1 if step[j] > 0.0 else -1
            continue

        w[free] = wf + step
        # how far each pinned gradient lies on the wrong side of c (free: 0)
        wrong = side * (c - (mu - hess @ w))
        i = int(wrong.argmax())
        if wrong[i] <= tol:
            return w
        side[i] = 0
    raise FloatingPointError(
        f"mean-variance active set did not terminate in {5 * n} iterations")


def risk_parity_weights(cov: np.ndarray) -> np.ndarray:
    """Equal-risk-contribution weights by cyclical coordinate iteration.

    Minimizes (1/2) y' C y - (1/N) sum ln y_i coordinate-wise; the
    normalized y equalizes w_i (C w)_i.  Unconstrained solution, before
    any box projection.
    """
    c = np.asarray(cov, dtype=np.float64)
    n = c.shape[0]
    diag = np.diag(c)
    if (diag <= 0.0).any():
        raise ValueError("risk parity needs strictly positive variances")
    y = 1.0 / np.sqrt(diag * n)
    # each coordinate's row and constants, read once as Python floats; the
    # arithmetic is the same IEEE double arithmetic as on numpy scalars
    coords = [(i, c[i], c_ii, 4.0 * c_ii / n, 2.0 * c_ii)
              for i, c_ii in enumerate(diag.tolist())]
    for _ in range(_RP_MAX_SWEEPS):
        y_prev = y.copy()
        for i, row, c_ii, four_c_ii_n, two_c_ii in coords:
            resid = float(row @ y) - c_ii * float(y[i])
            y[i] = (-resid + math.sqrt(resid * resid + four_c_ii_n)) / two_c_ii
        w = y / y.sum()
        contrib = w * (c @ w)
        if contrib.max() - contrib.min() <= _RP_TOL * contrib.max():
            return w
        if np.abs(y - y_prev).max() < 1e-15:
            break
    return y / y.sum()


def risk_parity(lookback: int = 252) -> Strategy:
    """Projected equal-risk-contribution weights; a lookback below 2 raises.

    ``take`` days give a covariance of rank at most ``take - 1``, so a
    history of no more days than assets falls back to equal weight.
    """
    _check_lookback(lookback)

    def fn(universe: Universe, end: int, prev: np.ndarray) -> PortfolioWeights:
        n = universe.n_assets
        take = min(lookback, end + 1)
        if take <= n:
            return PortfolioWeights(np.full(n, 1.0 / n),
                                    fallback=f"index {end}: too little history, equal weight")
        hist = universe.returns[:, end + 1 - take:end + 1]
        cov = np.cov(hist)
        if (np.diag(cov) <= 0.0).any():
            return PortfolioWeights(np.full(n, 1.0 / n),
                                    fallback=f"index {end}: degenerate variance, equal weight")
        w = risk_parity_weights(cov)
        return PortfolioWeights(project_constraints(w))

    return Strategy("Risk Parity", fn)


def random_selection(seed: int = 0) -> Strategy:
    """Feasible random weights per period, seeded per rebalance index.

    Seeding by (seed, index) keeps each date's draw independent of how many
    times or in what order the rule is queried.
    """
    def fn(universe: Universe, end: int, prev: np.ndarray) -> PortfolioWeights:
        rng = np.random.default_rng([seed, end])
        scores = rng.standard_normal(universe.n_assets)
        return score_to_weights(scores)

    return Strategy("Random Selection", fn)


# -- model-backed strategies --------------------------------------------------

def attach_features(universe: Universe, windows: list[Window],
                    defensive_mask: np.ndarray) -> None:
    """Compute (and cache on each window) the raw full-roster feature tensor: one
    pass over the days the windows without features cover, a copy per window."""
    pending = [w for w in windows if w.features is None]
    if not pending:
        return
    lo, hi = min(w.start for w in pending), max(w.end for w in pending) + 1 + PAD
    with np.errstate(all="ignore"):     # days no window reads may hold any value
        f, live = day_features(*(a[..., lo:hi] for a in universe.padded_inputs(PAD)),
                               defensive=defensive_mask)
    for w in pending:
        days = slice(w.start - lo, w.end - lo + 1)
        w.features = finish_window(f[:, days].copy(), live[:, days])


def static_adjacency_at(universe: Universe, end: int) -> tuple[np.ndarray, bool]:
    """Normalized trailing-correlation adjacency as of a return-day index:
    correlations over up to ``CORR_LOOKBACK`` days, edges at ``CORR_THRESHOLD``."""
    take = min(CORR_LOOKBACK, end + 1)
    hist = universe.returns[:, end + 1 - take:end + 1]
    adj, empty = correlation_adjacency(hist, CORR_THRESHOLD)
    return normalize_adjacency(adj), empty


def train_on_universe(universe: Universe, book: AssetBook, prior: PriorGraph,
                      train_windows: list[Window], model_config: ModelConfig,
                      train_config: TrainConfig,
                      loss_weights: LossWeights | None = None,
                      on_epoch_end: Callable[[int, CrispModel], None] | None = None,
                      ) -> TrainResult:
    """Feature-attach, optionally build static graphs, and run the trainer."""
    defensive = book.defensive_mask(universe.tickers)
    attach_features(universe, train_windows, defensive)

    static = None
    if model_config.static_graph:
        static = np.stack([static_adjacency_at(universe, w.end)[0]
                           for w in train_windows])

    return train(CrispModel(model_config), train_windows, prior.normalized,
                 train_config, loss_weights, static_adjacencies=static,
                 on_epoch_end=on_epoch_end)


def crisp_strategy(checkpoint: Checkpoint, prior: PriorGraph,
                   defensive_mask: np.ndarray, name: str = "CRISP") -> Strategy:
    """Strategy wrapping a trained model's best parameters.

    The model is private and never trained, so its encoder weights are cast
    once here and serve every rebalance.
    """
    model = CrispModel(checkpoint.model_config)
    model.load_state(checkpoint.best_params)
    with no_grad():
        prepared = model.temporal.prepare()
    normalizer = checkpoint.feature_normalizer()
    columns = feature_columns(checkpoint.model_config.n_features)
    window = checkpoint.model_config.window

    def fn(universe: Universe, end: int, prev: np.ndarray) -> PortfolioWeights:
        start = end - window + 1
        if start < 0:
            raise ValueError(f"window ending at {end} has no room for {window} days")
        if end >= universe.n_return_days:
            raise ValueError(f"window ending at {end} is past the last return day "
                             f"(valid ends {window - 1}..{universe.n_return_days - 1})")
        hi = start + PAD + window
        feats = compute_features(*(a[..., start:hi] for a in universe.padded_inputs(PAD)),
                                 defensive=defensive_mask)
        if columns is not None:
            feats = feats[:, :, columns]
        feats = normalizer.transform(feats)
        static, note = None, None
        if checkpoint.model_config.static_graph:
            static, empty = static_adjacency_at(universe, end)
            if empty:
                note = f"index {end}: empty correlation graph, identity adjacency used"
        weights, attention = model.allocate(feats, prior.normalized, static, prepared=prepared)
        return PortfolioWeights(weights, as_of_date=universe.return_dates[end],
                                attention=attention, fallback=note)

    return Strategy(name, fn)


# -- ablation harness ---------------------------------------------------------

_RANDOM_ROW = "Random Selection"
ABLATION_NAMES = [*VARIANTS.values(), _RANDOM_ROW]


def ablation_suite(universe: Universe, book: AssetBook, prior: PriorGraph,
                   train_windows: list[Window], test_windows: list[Window],
                   train_config: TrainConfig,
                   base_config: ModelConfig | None = None,
                   loss_weights: LossWeights | None = None,
                   only: list[str] | None = None,
                   ) -> list[tuple[str, MetricSet]]:
    """Train and evaluate each model variant, then the random-selection row.

    Each variant's row is ``base_config`` with that variant.  A base that is
    not the full model raises ``ValueError`` before any training, since its
    row would repeat under the full model's label.
    """
    base = base_config or ModelConfig(n_assets=universe.n_assets)
    if base.variant != "full":
        raise ValueError(f"ablation base config must be the 'full' variant, "
                         f"got {base.variant!r}")
    configs = {row: replace(base, variant=name) for name, row in VARIANTS.items()}
    defensive = book.defensive_mask(universe.tickers)
    rows: list[tuple[str, MetricSet]] = []
    for name in [*configs, _RANDOM_ROW]:
        if only is not None and name not in only:
            continue
        if name == _RANDOM_ROW:
            strat = random_selection(seed=train_config.seed)
        else:
            result = train_on_universe(universe, book, prior, train_windows,
                                       configs[name], train_config, loss_weights)
            strat = crisp_strategy(result.checkpoint, prior, defensive, name=name)
        report = run_backtest(strat, universe, test_windows)
        rows.append((name, report.metric_set))
    return rows


def ablation_csv(rows: list[tuple[str, MetricSet]]) -> str:
    lines = ["configuration," + ",".join(f.name for f in fields(MetricSet))]
    for name, ms in rows:
        lines.append(f'"{name}",' + ",".join(f"{v:.6g}" for v in asdict(ms).values()))
    return "\n".join(lines) + "\n"
