"""Multi-objective portfolio loss and evaluation metrics.

The training loss combines five terms

    0.4 * L_Sharpe + 0.2 * L_Sortino + 0.3 * L_Risk
        + 0.05 * L_Div + 0.05 * L_Turn

over a batch of holding periods.  Daily portfolio returns are pooled
across the batch for the Sharpe, Sortino and CVaR pieces; max drawdown is
computed per 5-day sample and averaged (a single curve over shuffled
samples would be meaningless).  Every ratio carries an epsilon guard of
1e-8 against zero-variance batches.

The diversification term follows the stated intent of encouraging
diversification: L_Div = sum_i w_i ln w_i (negative entropy), minimized at
uniform weights with value -ln N.  The turnover term rewards sum |dw| near
the 2% target through a Gaussian kernel of width 0.01:
L_Turn = -exp(-(turnover - 0.02)^2/0.01).  The CVaR piece averages the
worst 5% of the pooled daily returns.  ``LossWeights`` holds the five blend
weights; the 5% tail, the 2% target and the 0.01 width are the module
constants ``CVAR_ALPHA``, ``TURNOVER_TARGET`` and ``TURNOVER_WIDTH``.  Like
the metrics, the loss subtracts no risk-free rate.

Evaluation metrics are plain numpy: annualization by sqrt(252), sample
std (ddof=1), drawdown measured on the compounded equity curve starting
from 1, max_drawdown reported as a negative number, Calmar as annualized
return over |max drawdown|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, maximum

__all__ = [
    "CVAR_ALPHA",
    "EPS",
    "LossWeights",
    "MetricSet",
    "TURNOVER_TARGET",
    "TURNOVER_WIDTH",
    "loss_from_batch",
    "l_sharpe",
    "l_sortino",
    "l_risk",
    "l_div",
    "l_turn",
    "metrics",
]

EPS = 1e-8
ANNUAL_DAYS = 252
CVAR_ALPHA = 0.05
TURNOVER_TARGET = 0.02
TURNOVER_WIDTH = 0.01


@dataclass
class LossWeights:
    sharpe: float = 0.4
    sortino: float = 0.2
    risk: float = 0.3
    diversification: float = 0.05
    turnover: float = 0.05

    def __post_init__(self):
        for name in ("sharpe", "sortino", "risk", "diversification", "turnover"):
            if getattr(self, name) < 0:
                raise ValueError(f"loss weight {name} must be non-negative")


# -- differentiable loss terms ------------------------------------------------

def _safe_sqrt(x: Tensor) -> Tensor:
    # sqrt has an infinite derivative at 0; a zero-variance batch takes the
    # zero subgradient instead of poisoning the backward pass
    if x.data == 0.0:
        return Tensor(0.0)
    return x.sqrt()


def _std0(r: Tensor) -> Tensor:
    centered = r - r.mean()
    return _safe_sqrt((centered * centered).mean())


def l_sharpe(daily_returns: Tensor) -> Tensor:
    r = daily_returns
    return -r.mean() / (_std0(r) + EPS)


def l_sortino(daily_returns: Tensor) -> Tensor:
    r = daily_returns
    clipped = r.clip(-np.inf, 0.0)
    downside = _safe_sqrt((clipped * clipped).mean())
    return -r.mean() / (downside + EPS)


def _cvar_term(pooled: Tensor) -> Tensor:
    k = math.ceil(CVAR_ALPHA * pooled.size)
    worst = np.argsort(pooled.data, kind="stable")[:k]
    return -pooled[worst].mean()


def _per_sample_maxdd(period_returns: Tensor) -> Tensor:
    """(B, H) daily returns -> (B,) max drawdown as a positive fraction.

    The equity path starts at 1, so a first-day loss already counts as
    drawdown.
    """
    b, h = period_returns.shape
    equity = Tensor(np.ones((b, 1)))
    peak = Tensor(np.ones((b, 1)))
    maxdd = Tensor(np.zeros((b, 1)))
    for t in range(h):
        step = period_returns[:, t].reshape(b, 1)
        equity = equity * (1.0 + step)
        peak = maximum(peak, equity)
        maxdd = maximum(maxdd, (peak - equity) / peak)
    return maxdd.reshape(b)


def l_risk(period_returns: Tensor) -> Tensor:
    """CVaR of the pooled daily returns plus half the mean per-sample drawdown."""
    b, h = period_returns.shape
    pooled = period_returns.reshape(b * h)
    return _cvar_term(pooled) + 0.5 * _per_sample_maxdd(period_returns).mean()


def l_div(weights: Tensor) -> Tensor:
    """Negative entropy sum w ln w, batch-averaged; minimal at uniform weights."""
    ent = (weights * weights.log()).sum(axis=-1)
    return ent.mean() if ent.ndim > 0 else ent


def l_turn(w_new: Tensor, w_old: Tensor) -> Tensor:
    """Gaussian reward peaking at the turnover target, batch-averaged."""
    turnover = (w_new - w_old).abs().sum(axis=-1)
    dev = turnover - TURNOVER_TARGET
    kernel = (-(dev * dev) * (1.0 / TURNOVER_WIDTH)).exp()
    value = kernel.mean() if kernel.ndim > 0 else kernel
    return -value


def loss_from_batch(weights: Tensor, previous_weights: np.ndarray,
                    asset_returns: np.ndarray,
                    lw: LossWeights | None = None) -> Tensor:
    """Differentiable total loss for a batch.

    ``weights`` is (B, N) and carries the graph; ``previous_weights`` (B, N)
    and ``asset_returns`` (B, N, H) are data.  Portfolio daily returns are
    w_i * r_{i,d} summed over assets, weights held fixed within the period.
    """
    lw = lw or LossWeights()
    b, n = weights.shape
    targets = np.asarray(asset_returns, dtype=np.float64)
    if targets.shape[:2] != (b, n):
        raise ValueError(f"asset returns {targets.shape} do not match weights ({b}, {n})")
    h = targets.shape[2]

    period = (weights.reshape(b, n, 1) * Tensor(targets)).sum(axis=1)   # (B, H)
    pooled = period.reshape(b * h)

    total = (lw.sharpe * l_sharpe(pooled)
             + lw.sortino * l_sortino(pooled)
             + lw.risk * l_risk(period)
             + lw.diversification * l_div(weights)
             + lw.turnover * l_turn(weights, Tensor(np.asarray(previous_weights))))
    return total


# -- evaluation metrics -------------------------------------------------------

@dataclass
class MetricSet:
    sharpe: float
    sortino: float
    ann_return: float
    ann_vol: float
    max_drawdown: float            # negative or zero
    calmar: float
    avg_turnover: float


def max_drawdown_curve(daily_returns: np.ndarray) -> float:
    """Largest peak-to-trough decline of the compounded curve, as a negative number."""
    equity = np.cumprod(1.0 + np.asarray(daily_returns, dtype=np.float64))
    peaks = np.maximum.accumulate(np.concatenate(([1.0], equity)))[1:]
    return float((equity / peaks - 1.0).min()) if equity.size else 0.0


def metrics(daily_returns: np.ndarray, avg_turnover: float = 0.0) -> MetricSet:
    r = np.asarray(daily_returns, dtype=np.float64).ravel()
    if r.size == 0:
        raise ValueError("metrics require at least one daily return")
    d = r.size
    mean = r.mean()
    std = r.std(ddof=1) if d > 1 else 0.0
    downside = math.sqrt(float(np.mean(np.minimum(r, 0.0) ** 2)))
    growth = float(np.prod(1.0 + r))
    ann_return = growth ** (ANNUAL_DAYS / d) - 1.0 if growth > 0.0 else -1.0
    mdd = max_drawdown_curve(r)
    root = math.sqrt(ANNUAL_DAYS)
    return MetricSet(
        sharpe=root * mean / (std + EPS),
        sortino=root * mean / (downside + EPS),
        ann_return=ann_return,
        ann_vol=root * std,
        max_drawdown=mdd,
        calmar=ann_return / (abs(mdd) + EPS),
        avg_turnover=float(avg_turnover),
    )
