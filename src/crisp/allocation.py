"""Allocation head: sequence aggregation, scoring, and constrained weights.

Per-asset refined embeddings over the window's T steps are aggregated by a
shared compact LSTM (hidden 32), scored by a dropout MLP (32 -> 64 -> 1),
sharpened by a temperature-0.8 softmax and projected onto the feasible set

    { w : sum w = 1,  0.02 <= w_i <= 0.25 }.

The projection alternates clipping with renormalization of the free
coordinates (those not pinned at a bound in the needed direction) until
the maximum violation drops below 1e-9.  Unlike a single clip+renormalize
pass, the iteration cannot emit out-of-bound weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParameterBag, Tensor, dropout, softmax
from .nn import LSTM, Linear

__all__ = [
    "WEIGHT_FLOOR",
    "WEIGHT_CAP",
    "AllocationHead",
    "PortfolioWeights",
    "check_feasible_universe",
    "project_constraints",
    "project_constraints_tensor",
    "score_to_weights",
]

WEIGHT_FLOOR = 0.02
WEIGHT_CAP = 0.25
TEMPERATURE = 0.8
_TOL = 1e-9
_MAX_ITER = 100


@dataclass
class PortfolioWeights:
    """Feasible long-only weights for one rebalance date."""

    weights: np.ndarray
    as_of_date: str = ""

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)

    def validate(self, tol: float = _TOL) -> None:
        w = self.weights
        if abs(w.sum() - 1.0) > tol:
            raise ValueError(f"weights sum to {w.sum():.12f}, not 1")
        if (w < WEIGHT_FLOOR - tol).any() or (w > WEIGHT_CAP + tol).any():
            raise ValueError(
                f"weights outside [{WEIGHT_FLOOR}, {WEIGHT_CAP}]: min {w.min():.6f}, "
                f"max {w.max():.6f}")

    def is_feasible(self, tol: float = _TOL) -> bool:
        try:
            self.validate(tol)
            return True
        except ValueError:
            return False


def check_feasible_universe(n_assets: int) -> None:
    """The bounds admit a simplex point only when N*floor <= 1 <= N*cap."""
    if n_assets * WEIGHT_FLOOR > 1.0 or n_assets * WEIGHT_CAP < 1.0:
        raise ValueError(
            f"infeasible universe size {n_assets}: need "
            f"{WEIGHT_FLOOR} * N <= 1 <= {WEIGHT_CAP} * N")


def project_constraints(w: np.ndarray, tol: float = _TOL,
                        max_iter: int = _MAX_ITER) -> np.ndarray:
    """Project a non-negative vector onto the bounded simplex.

    Clips into the box, then rescales the coordinates free to move in the
    needed direction so the total returns to 1; repeats until the largest
    violation is below ``tol``.  Raises if the budget is infeasible.
    """
    w = np.asarray(w, dtype=np.float64).copy()
    check_feasible_universe(w.size)
    for _ in range(max_iter):
        w = np.clip(w, WEIGHT_FLOOR, WEIGHT_CAP)
        s = w.sum()
        if abs(s - 1.0) <= tol:
            return w
        if s > 1.0:
            free = w > WEIGHT_FLOOR
        else:
            free = w < WEIGHT_CAP
        fixed_sum = w[~free].sum()
        w[free] *= (1.0 - fixed_sum) / w[free].sum()
    w = np.clip(w, WEIGHT_FLOOR, WEIGHT_CAP)
    if abs(w.sum() - 1.0) > tol:
        raise RuntimeError(f"projection failed to converge: sum {w.sum():.12f}")
    return w


def project_constraints_tensor(w: Tensor, tol: float = _TOL,
                               max_iter: int = _MAX_ITER) -> Tensor:
    """Differentiable batched projection of (B, N) rows onto the bounded simplex.

    The free/fixed partition per iteration is treated as constant (the
    projection is piecewise smooth); gradients flow through the clip
    pass-through and the renormalization arithmetic.
    """
    check_feasible_universe(w.shape[-1])
    for _ in range(max_iter):
        w = w.clip(WEIGHT_FLOOR, WEIGHT_CAP)
        sums = w.data.sum(axis=-1, keepdims=True)
        if np.abs(sums - 1.0).max() <= tol:
            return w
        over = sums > 1.0
        free = np.where(over, w.data > WEIGHT_FLOOR, w.data < WEIGHT_CAP)
        free &= np.abs(sums - 1.0) > tol          # converged rows stay untouched
        free_t = Tensor(free.astype(np.float64))
        fixed_t = Tensor(1.0 - free_t.data)
        fixed_sum = (w * fixed_t).sum(axis=-1, keepdims=True)
        free_sum = (w * free_t).sum(axis=-1, keepdims=True)
        # guard only fully-fixed rows; their free part is zero anyway
        safe_free_sum = free_sum + Tensor((free_sum.data == 0.0).astype(np.float64))
        scale = (1.0 - fixed_sum) / safe_free_sum
        w = w * fixed_t + w * free_t * scale
    w = w.clip(WEIGHT_FLOOR, WEIGHT_CAP)
    if np.abs(w.data.sum(axis=-1) - 1.0).max() > tol:
        raise RuntimeError("batched projection failed to converge")
    return w


def score_to_weights(scores: np.ndarray, as_of_date: str = "",
                     temperature: float = TEMPERATURE) -> PortfolioWeights:
    """Temperature softmax over raw scores, then constraint projection."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    z = scores / temperature
    z = z - z.max()
    e = np.exp(z)
    w = project_constraints(e / e.sum())
    return PortfolioWeights(weights=w, as_of_date=as_of_date)


class AllocationHead:
    """Shared per-asset LSTM aggregation, dropout MLP scoring, weight mapping."""

    def __init__(self, bag: ParameterBag, rng: np.random.Generator,
                 in_dim: int = 256, hidden: int = 32, use_lstm: bool = True,
                 dropout_rate: float = 0.3):
        self.hidden = hidden
        self.use_lstm = use_lstm
        self.dropout_rate = dropout_rate
        if use_lstm:
            self.lstm = LSTM(bag, "alloc.lstm", in_dim, hidden, rng)
        else:
            # mean-pool ablation: project the time-averaged embedding instead
            self.pool_proj = Linear(bag, "alloc.pool_proj", in_dim, hidden, rng)
        self.mlp_hidden = Linear(bag, "alloc.mlp_hidden", hidden, 64, rng)
        self.mlp_out = Linear(bag, "alloc.mlp_out", 64, 1, rng)

    def aggregate(self, z_seq: Tensor) -> Tensor:
        """(B, T, N, 256) per-step embeddings -> (B, N, 32) per-asset states."""
        b, steps, n, dim = z_seq.shape
        per_asset = z_seq.transpose((0, 2, 1, 3)).reshape(b * n, steps, dim)
        if self.use_lstm:
            h_all = self.lstm.run(per_asset)
            final = h_all[:, steps - 1, :]
        else:
            final = self.pool_proj(per_asset.mean(axis=1))
        return final.reshape(b, n, self.hidden)

    def scores(self, agg: Tensor, rng: np.random.Generator,
               training: bool) -> Tensor:
        """(B, N, 32) -> (B, N) raw scores; dropout active only in training."""
        h = self.mlp_hidden(agg).relu()
        h = dropout(h, self.dropout_rate, rng, training)
        return self.mlp_out(h).reshape(agg.shape[0], agg.shape[1])

    def __call__(self, z_seq: Tensor, rng: np.random.Generator,
                 training: bool) -> Tensor:
        """(B, T, N, 256) -> feasible weights (B, N), differentiable."""
        raw = self.scores(self.aggregate(z_seq), rng, training)
        w = softmax(raw, axis=-1, temperature=TEMPERATURE)
        return project_constraints_tensor(w)
