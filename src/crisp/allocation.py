"""Allocation head: sequence aggregation, scoring, and constrained weights.

Per-asset refined embeddings over the window's T steps, each the step's
temporal half joined with the window's spatial half, are aggregated by a
shared compact LSTM (hidden 32), scored by a dropout MLP (32 -> 64 -> 1),
sharpened by a temperature-0.8 softmax and projected onto the feasible set

    { w : sum w = 1,  0.02 <= w_i <= 0.25 }.

The projection alternates clipping with renormalization of the free
coordinates (those not pinned at a bound in the needed direction) until
the maximum violation drops below 1e-9; it cannot emit out-of-bound
weights, and a NaN input raises.  It clips in place, and when every
coordinate is free (the all-free fast path) it rescales the whole vector by
1 / s, the very factor the masked renormalization computes then.  The
arithmetic is that of the plain clip-and-mask loop, so every result is
bitwise the same; the tests keep that loop as the reference.
``project_constraints`` is its one copy:
the model runs it per row as one autodiff node, ``project``, whose backward
is the closed-form Jacobian on the free support (arXiv:1602.02068).  A row
the first clip made feasible passes g where lo <= x_j <= hi.  In a
renormalised row the free outputs F = {lo < w_j < hi} are S * clip(x)_j:

    dL/dx_j = [lo <= x_j <= hi] [j in F] (S g_j - sum_F w_i g_i / sum_F clip(x))
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParameterBag, Tensor, concat, dropout, softmax
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
DROPOUT_RATE = 0.3
_TOL = 1e-9
_MAX_ITER = 100


@dataclass
class PortfolioWeights:
    """Feasible long-only weights for one rebalance date."""

    weights: np.ndarray
    as_of_date: str = ""
    attention: np.ndarray | None = None     # (heads, N, N) alphas behind the weights
    fallback: str | None = None             # what the rule substituted, and why

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)

    def validate(self) -> None:
        w = self.weights
        if not abs(w.sum() - 1.0) <= _TOL:        # a NaN sum fails this too
            raise ValueError(f"weights sum to {w.sum():.12f}, not 1")
        if (w < WEIGHT_FLOOR - _TOL).any() or (w > WEIGHT_CAP + _TOL).any():
            raise ValueError(
                f"weights outside [{WEIGHT_FLOOR}, {WEIGHT_CAP}]: min {w.min():.6f}, "
                f"max {w.max():.6f}")

    def is_feasible(self) -> bool:
        try:
            self.validate()
            return True
        except ValueError:
            return False


def check_feasible_universe(n_assets: int) -> None:
    """The bounds admit a simplex point only when N*floor <= 1 <= N*cap."""
    if n_assets * WEIGHT_FLOOR > 1.0 or n_assets * WEIGHT_CAP < 1.0:
        raise ValueError(
            f"infeasible universe size {n_assets}: need "
            f"{WEIGHT_FLOOR} * N <= 1 <= {WEIGHT_CAP} * N")


def project_constraints(w: np.ndarray) -> np.ndarray:
    """Project a non-negative vector onto the bounded simplex.

    Clips into the box, then rescales the coordinates free to move in the
    needed direction so the total returns to 1; repeats until the largest
    violation is below 1e-9.  Raises if the budget is infeasible or w has a NaN.
    """
    w = np.asarray(w, dtype=np.float64).copy()
    check_feasible_universe(w.size)
    for _ in range(_MAX_ITER):              # a finite w needs at most N + 1 passes
        np.maximum(w, WEIGHT_FLOOR, out=w)
        np.minimum(w, WEIGHT_CAP, out=w)
        s = np.add.reduce(w)
        if abs(s - 1.0) <= _TOL:              # never true of a NaN sum
            return w
        if s > 1.0:
            free = w > WEIGHT_FLOOR
        else:
            free = w < WEIGHT_CAP
        if free.all():
            # the masked branch's factor, (1 - 0) / (sum of a copy of w), is 1 / s
            w *= 1.0 / s
        else:
            fixed_sum = w[~free].sum()
            w[free] *= (1.0 - fixed_sum) / w[free].sum()
    raise FloatingPointError(f"projection failed to converge: sum {s:.12f}")


def project_constraints_tensor(w: Tensor) -> Tensor:
    """(B, N) rows through ``project_constraints`` as one ``project`` node."""
    x = w.data
    out = np.stack([project_constraints(row) for row in x])

    def bwd(g):
        inside = (x >= WEIGHT_FLOOR) & (x <= WEIGHT_CAP)
        b = np.clip(x, WEIGHT_FLOOR, WEIGHT_CAP)
        free = (out > WEIGHT_FLOOR) & (out < WEIGHT_CAP)
        free_b = (b * free).sum(axis=-1, keepdims=True)
        free_b[free_b == 0.0] = 1.0         # a fully pinned row has no gradient
        scale = (out * free).sum(axis=-1, keepdims=True) / free_b
        mix = (out * free * g).sum(axis=-1, keepdims=True) / free_b
        clip_only = (out == b).all(axis=-1, keepdims=True)
        return (inside * np.where(clip_only, g, free * (scale * g - mix)),)

    return Tensor._from_op(out, (w,), "project", bwd)


def score_to_weights(scores: np.ndarray, as_of_date: str = "",
                     temperature: float = TEMPERATURE) -> PortfolioWeights:
    """Temperature softmax over raw scores, then constraint projection."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    w = project_constraints(softmax(Tensor(scores), temperature=temperature).data)
    return PortfolioWeights(weights=w, as_of_date=as_of_date)


class AllocationHead:
    """Shared per-asset LSTM aggregation, dropout MLP scoring, weight mapping."""

    def __init__(self, bag: ParameterBag, rng: np.random.Generator,
                 in_dim: int = 256, hidden: int = 32, use_lstm: bool = True):
        self.hidden = hidden
        self.use_lstm = use_lstm
        if use_lstm:
            self.lstm = LSTM(bag, "alloc.lstm", in_dim, hidden, rng)
        else:
            # mean-pool ablation: project the time-averaged embedding instead
            self.pool_proj = Linear(bag, "alloc.pool_proj", in_dim, hidden, rng)
        self.mlp_hidden = Linear(bag, "alloc.mlp_hidden", hidden, 64, rng)
        # no bias: the softmax over assets cancels a shift shared by all scores
        self.mlp_out = Linear(bag, "alloc.mlp_out", 64, 1, rng, bias=False)

    def aggregate(self, temp: Tensor, spat: Tensor) -> Tensor:
        """temp (B, T, N, d_t), spat (B, N, d_s) -> (B, N, 32) per-asset states.

        Step t of asset i reads [temp[b, t, i] || spat[b, i]], d_t + d_s =
        in_dim; the spatial half is never copied across time.
        """
        b, steps, n, dim = temp.shape
        per_asset = temp.transpose((0, 2, 1, 3)).reshape(b * n, steps, dim)
        flat_spat = spat.reshape(b * n, spat.shape[-1])
        if self.use_lstm:
            final = self.lstm.run_joined(per_asset, flat_spat)[:, steps - 1, :]
        else:
            final = self.pool_proj(concat([per_asset.mean(axis=1), flat_spat], axis=1))
        return final.reshape(b, n, self.hidden)

    def scores(self, agg: Tensor, rng: np.random.Generator,
               training: bool) -> Tensor:
        """(B, N, 32) -> (B, N) raw scores; dropout active only in training."""
        h = self.mlp_hidden(agg).relu()
        h = dropout(h, DROPOUT_RATE, rng, training)
        return self.mlp_out(h).reshape(agg.shape[0], agg.shape[1])

    def __call__(self, temp: Tensor, spat: Tensor, rng: np.random.Generator,
                 training: bool) -> Tensor:
        """temp (B, T, N, d_t), spat (B, N, d_s) -> feasible weights (B, N)."""
        raw = self.scores(self.aggregate(temp, spat), rng, training)
        w = softmax(raw, axis=-1, temperature=TEMPERATURE)
        return project_constraints_tensor(w)
