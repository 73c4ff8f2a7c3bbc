"""Weekly-rebalanced out-of-sample evaluation, baselines and ablations.

A strategy maps (universe, rebalance index, previous weights) to feasible
portfolio weights using only data up to the rebalance index.  The
backtester walks the non-overlapping 5-day test windows sequentially,
holds each weight vector fixed for its period, concatenates the daily
returns and computes metrics once over the whole series.  Strategies that
emit infeasible weights fall back to equal weight for that period; the
event is counted and flagged.

Reporting conventions: intra-period weight drift is ignored (weights act
as if rebalanced to target daily at zero cost) and returns carry no
transaction costs; turnover is reported separately.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import combinations
from typing import Callable

import numpy as np

from .allocation import PortfolioWeights, project_constraints, score_to_weights
from .data import Universe, Window
from .features import CRISIS_FEATURES, N_FEATURES, PAD, compute_features, feature_columns
from .graphattn import AttentionRecord
from .model import CrispModel, ModelConfig
from .objectives import LossWeights, MetricSet, metrics
from .spatial import PriorGraph, correlation_adjacency, normalize_adjacency
from .training import Checkpoint, TrainConfig, train
from .universe import AssetBook

__all__ = [
    "ABLATION_NAMES",
    "VARIANTS",
    "BacktestReport",
    "Strategy",
    "ablation_suite",
    "attach_features",
    "crisp_strategy",
    "equal_weight",
    "mean_variance",
    "random_selection",
    "risk_parity",
    "risk_parity_weights",
    "run_backtest",
    "static_adjacency_at",
    "train_on_universe",
]

CORR_LOOKBACK = 252
CORR_THRESHOLD = 0.5
_MV_STEPS, _MV_STEP_SIZE = 500, 0.01
_RP_TOL, _RP_MAX_SWEEPS = 1e-8, 10000


@dataclass
class Strategy:
    """Named weight rule; the function sees history only up to the given index."""

    name: str
    weight_fn: Callable[[Universe, int, np.ndarray], PortfolioWeights]
    attention_log: list[AttentionRecord] | None = None
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
    infeasible = 0

    for w in test_windows:
        try:
            pw = strategy.weight_fn(universe, w.end, prev.copy())
            problem = None if pw.is_feasible() else "infeasible weights"
        except FloatingPointError as exc:      # e.g. NaN scores met the projection
            problem = f"infeasible weights ({exc})"
        if problem is not None:
            infeasible += 1
            strategy.fallback_events.append(
                f"{w.end_date}: {problem} replaced by equal weight")
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
        attention=strategy.attention_log,
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
    """Markowitz utility maximized by projected gradient ascent (500 steps of 0.01).

    Raises ``ValueError`` for a lookback below 2 days or a risk aversion that
    is negative or not finite.
    """
    _check_lookback(lookback)
    if not (math.isfinite(risk_aversion) and risk_aversion >= 0.0):
        raise ValueError(f"risk_aversion must be finite and >= 0, got {risk_aversion}")
    strat = Strategy("Mean-Variance", None)
    variance_weight = 2.0 * risk_aversion

    def fn(universe: Universe, end: int, prev: np.ndarray) -> PortfolioWeights:
        n = universe.n_assets
        if end + 1 < lookback:
            strat.fallback_events.append(
                f"index {end}: {end + 1} days < {lookback}-day lookback, equal weight used")
            return PortfolioWeights(np.full(n, 1.0 / n))
        hist = universe.returns[:, end + 1 - lookback:end + 1]
        mu = hist.mean(axis=1)
        sigma = np.cov(hist) + 1e-6 * np.eye(n)
        w = np.full(n, 1.0 / n)
        for _ in range(_MV_STEPS):
            grad = mu - variance_weight * (sigma @ w)
            w = project_constraints(w + _MV_STEP_SIZE * grad)
        return PortfolioWeights(w)

    strat.weight_fn = fn
    return strat


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
    """Projected equal-risk-contribution weights; a lookback below 2 raises."""
    _check_lookback(lookback)
    strat = Strategy("Risk Parity", None)

    def fn(universe: Universe, end: int, prev: np.ndarray) -> PortfolioWeights:
        n = universe.n_assets
        take = min(lookback, end + 1)
        if take < 2:
            strat.fallback_events.append(f"index {end}: too little history, equal weight")
            return PortfolioWeights(np.full(n, 1.0 / n))
        hist = universe.returns[:, end + 1 - take:end + 1]
        cov = np.cov(hist)
        if (np.diag(cov) <= 0.0).any():
            strat.fallback_events.append(f"index {end}: degenerate variance, equal weight")
            return PortfolioWeights(np.full(n, 1.0 / n))
        w = risk_parity_weights(cov)
        return PortfolioWeights(project_constraints(w))

    strat.weight_fn = fn
    return strat


def random_selection(seed: int = 0) -> Strategy:
    """Feasible random weights per period, seeded per rebalance index.

    Seeding by (seed, index) keeps each date's draw independent of how many
    times or in what order the rule is queried.
    """
    strat = Strategy("Random Selection", None)

    def fn(universe: Universe, end: int, prev: np.ndarray) -> PortfolioWeights:
        rng = np.random.default_rng([seed, end])
        scores = rng.standard_normal(universe.n_assets)
        return score_to_weights(scores)

    strat.weight_fn = fn
    return strat


# -- model-backed strategies --------------------------------------------------

def _window_features(padded: tuple[np.ndarray, np.ndarray, np.ndarray],
                     start: int, days: int, defensive_mask: np.ndarray) -> np.ndarray:
    """Raw full-roster features of the ``days``-day window from ``start``."""
    p_pad, v_pad, m_pad = padded
    lo, hi = start, start + PAD + days
    return compute_features(p_pad[:, lo:hi], v_pad[:, lo:hi], m_pad[lo:hi],
                            defensive=defensive_mask)


def attach_features(universe: Universe, windows: list[Window],
                    defensive_mask: np.ndarray) -> None:
    """Compute (and cache on each window) the raw full-roster feature tensor."""
    padded = universe.padded_inputs(PAD)
    for w in windows:
        if w.features is None:
            w.features = _window_features(padded, w.start, w.end - w.start + 1,
                                          defensive_mask)


def static_adjacency_at(universe: Universe, end: int,
                        lookback: int = CORR_LOOKBACK,
                        threshold: float = CORR_THRESHOLD) -> tuple[np.ndarray, bool]:
    """Normalized trailing-correlation adjacency as of a return-day index."""
    take = min(lookback, end + 1)
    hist = universe.returns[:, end + 1 - take:end + 1]
    adj, empty = correlation_adjacency(hist, threshold)
    return normalize_adjacency(adj), empty


def train_on_universe(universe: Universe, book: AssetBook, prior: PriorGraph,
                      train_windows: list[Window], model_config: ModelConfig,
                      train_config: TrainConfig,
                      loss_weights: LossWeights | None = None):
    """Feature-attach, optionally build static graphs, and run the trainer."""
    defensive = np.array(book.defensive_mask(universe.tickers), dtype=np.float64)
    attach_features(universe, train_windows, defensive)

    static = None
    if model_config.static_graph:
        static = np.stack([static_adjacency_at(universe, w.end)[0]
                           for w in train_windows])

    model = CrispModel(model_config)
    result = train(model, train_windows, prior.normalized, train_config,
                   loss_weights, static_adjacencies=static)
    return model, result


def crisp_strategy(checkpoint: Checkpoint, prior: PriorGraph,
                   defensive_mask: np.ndarray, name: str = "CRISP") -> Strategy:
    """Strategy wrapping a trained model's best parameters."""
    model = CrispModel(checkpoint.model_config)
    model.load_state(checkpoint.best_params)
    normalizer = checkpoint.feature_normalizer()
    columns = feature_columns(checkpoint.model_config.n_features)
    window = checkpoint.model_config.window
    strat = Strategy(name, None, attention_log=[] if not checkpoint.model_config.static_graph else None)

    def fn(universe: Universe, end: int, prev: np.ndarray) -> PortfolioWeights:
        start = end - window + 1
        if start < 0:
            raise ValueError(f"window ending at {end} has no room for {window} days")
        feats = _window_features(universe.padded_inputs(PAD), start, window,
                                 defensive_mask)
        if columns is not None:
            feats = feats[:, :, columns]
        feats = normalizer.transform(feats)
        static = None
        if checkpoint.model_config.static_graph:
            static, empty = static_adjacency_at(universe, end)
            if empty:
                strat.fallback_events.append(
                    f"index {end}: empty correlation graph, identity adjacency used")
        weights, attention = model.allocate(feats, prior.normalized, static)
        if attention is not None and strat.attention_log is not None:
            strat.attention_log.append(AttentionRecord.from_alphas(
                universe.return_dates[end], attention))
        return PortfolioWeights(weights, as_of_date=universe.return_dates[end])

    strat.weight_fn = fn
    return strat


# -- ablation harness ---------------------------------------------------------

# CLI variant name -> (ablation row name, ModelConfig overrides)
VARIANTS: dict[str, tuple[str, dict[str, object]]] = {
    "full": ("Full CRISP", {}),
    "static": ("w/o Learnable Graph", {"static_graph": True}),
    "single_head": ("w/o Multi-Head Attn", {"gat_heads": 1}),
    "no_lstm": ("w/o LSTM", {"use_alloc_lstm": False}),
    "no_crisis": ("w/o Crisis Features",
                  {"n_features": N_FEATURES - len(CRISIS_FEATURES)}),
}
_RANDOM_ROW = "Random Selection"
ABLATION_NAMES = [row for row, _ in VARIANTS.values()] + [_RANDOM_ROW]


def ablation_suite(universe: Universe, book: AssetBook, prior: PriorGraph,
                   train_windows: list[Window], test_windows: list[Window],
                   train_config: TrainConfig,
                   base_config: ModelConfig | None = None,
                   loss_weights: LossWeights | None = None,
                   only: list[str] | None = None,
                   ) -> list[tuple[str, MetricSet]]:
    """Train and evaluate each model variant, then the random-selection row.

    Raises ``ValueError``, before any training, if two variants build the
    same model under ``base_config`` (one that already drops the crisis
    features, say), since their rows would repeat under two labels.
    """
    base = base_config or ModelConfig(n_assets=universe.n_assets)
    configs = {name: replace(base, **overrides) for name, overrides in VARIANTS.values()}
    for first, second in combinations(configs, 2):
        if configs[first] == configs[second]:
            raise ValueError(f"ablation rows {first!r} and {second!r} build the same "
                             f"model under this base config")
    defensive = np.array(book.defensive_mask(universe.tickers), dtype=np.float64)
    rows: list[tuple[str, MetricSet]] = []
    for name in [*configs, _RANDOM_ROW]:
        if only is not None and name not in only:
            continue
        if name == _RANDOM_ROW:
            strat = random_selection(seed=train_config.seed)
        else:
            _, result = train_on_universe(
                universe, book, prior, train_windows, configs[name],
                train_config, loss_weights)
            strat = crisp_strategy(result.checkpoint, prior, defensive, name=name)
        report = run_backtest(strat, universe, test_windows)
        rows.append((name, report.metric_set))
    return rows


def ablation_csv(rows: list[tuple[str, MetricSet]]) -> str:
    lines = ["configuration," + ",".join(f.name for f in fields(MetricSet))]
    for name, ms in rows:
        lines.append(f'"{name}",' + ",".join(f"{v:.6g}" for v in asdict(ms).values()))
    return "\n".join(lines) + "\n"
