"""Learnable sparse graph: multi-head attention over all asset pairs.

Every ordered pair of the N assets is a candidate edge (N(N-1) = 156
directed off-diagonal edges at N=13).  Each asset's input at a time step
is z = [temporal || spatial], the step's 128-wide temporal embedding joined
with the window's spatial one.  Per head k, edge scores are

    e_ij = LeakyReLU(a_k^T [W_k z_i || W_k z_j])      (slope 0.2)

softmax-normalized over j (self-edge included for stability; excluded
from all telemetry), and refined embeddings concatenate the per-head
attention-weighted sums.  Two parameters hold every head: ``gat.w`` is
(in_dim, 128) with the W_k side by side, so one product W z projects all
heads at once, and ``gat.a`` is (heads, 2 * head_dim) with a_k as row k.
The spatial half is the same at every step, so W z is computed as
temporal @ W_top + spatial @ W_bottom with the second term broadcast over
time; the joined input is never built.  No hard threshold is applied
anywhere; sparsity is an emergent, reported property.

Telemetry bins the head-mean off-diagonal weights as low < 0.1,
mid 0.1..0.3 (inclusive), high > 0.3; per-head bins are also emitted but
the head-mean is the primary view.  A node's effective degree counts
neighbors with mean weight >= 0.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParameterBag, Tensor, leaky_relu, matmul, softmax, uniform_init
from .nn import joined_matmul

__all__ = [
    "AttentionRecord",
    "GatLayer",
    "SparsityReport",
    "sparsity_report",
]

EDGE_THRESHOLD_LOW = 0.1
EDGE_THRESHOLD_HIGH = 0.3
LEAKY_SLOPE = 0.2
REFINED = 128


class GatLayer:
    """Multi-head graph attention over the fully connected candidate graph."""

    def __init__(self, bag: ParameterBag, rng: np.random.Generator,
                 n_heads: int = 4, in_dim: int = 256):
        self.n_heads = n_heads
        self.head_dim = hd = REFINED // n_heads
        # drawn head by head, every W_k before every a_k: the draw order
        # fixes each seed's initial values
        ws = [uniform_init(rng, in_dim, (in_dim, hd)) for _ in range(n_heads)]
        avs = [uniform_init(rng, 2 * hd, (2 * hd,)) for _ in range(n_heads)]
        self.w = bag.register("gat.w", np.concatenate(ws, axis=1))
        self.a = bag.register("gat.a", np.stack(avs))

    def __call__(self, temp: Tensor, spat: Tensor) -> tuple[Tensor, Tensor]:
        """temp (B, T, N, d_t), spat (B, N, d_s) -> refined (B, T, N, 128), alphas.

        The input of asset i at step t is [temp[b, t, i] || spat[b, i]], with
        d_t + d_s = in_dim.  Alphas come back as (B, T, heads, N, N);
        attention is computed within each (b, t) slice independently.
        """
        b, steps, n, _ = temp.shape
        if n < 2:
            raise ValueError(f"graph attention needs at least 2 assets, got {n}")
        heads, hd = self.n_heads, self.head_dim
        wz = joined_matmul(temp, spat, self.w)                     # (B, T, N, 128)
        wz = wz.reshape(b, steps, n, heads, hd).transpose((0, 1, 3, 2, 4))
        a = self.a.reshape(heads, 1, 2 * hd)
        src = (wz * a[:, :, :hd]).sum(axis=-1)                     # (B, T, heads, N)
        dst = (wz * a[:, :, hd:]).sum(axis=-1)
        # src_i + dst_j over all ordered pairs
        e = src.reshape(b, steps, heads, n, 1) + dst.reshape(b, steps, heads, 1, n)
        alpha = softmax(leaky_relu(e, LEAKY_SLOPE), axis=-1)       # (B, T, heads, N, N)
        refined = matmul(alpha, wz).transpose((0, 1, 3, 2, 4))
        return refined.reshape(b, steps, n, REFINED), alpha


@dataclass
class AttentionRecord:
    """Per-window attention snapshot with off-diagonal binning."""

    window_end_date: str
    per_head: np.ndarray          # (heads, N, N)
    mean: np.ndarray              # (N, N)
    bins: dict[str, int]          # low/mid/high counts over off-diagonal edges
    per_head_bins: list[dict[str, int]]
    effective_degree: np.ndarray  # (N,) neighbors with mean alpha >= 0.1

    @classmethod
    def from_alphas(cls, window_end_date: str, per_head: np.ndarray) -> "AttentionRecord":
        per_head = np.asarray(per_head, dtype=np.float64)
        if per_head.ndim != 3 or per_head.shape[1] != per_head.shape[2]:
            raise ValueError(f"expected (heads, N, N) alphas, got {per_head.shape}")
        mean = per_head.mean(axis=0)
        off = ~np.eye(mean.shape[0], dtype=bool)
        return cls(
            window_end_date=window_end_date,
            per_head=per_head,
            mean=mean,
            bins=_bin_counts(mean[off]),
            per_head_bins=[_bin_counts(h[off]) for h in per_head],
            effective_degree=((mean >= EDGE_THRESHOLD_LOW) & off).sum(axis=1),
        )

    @property
    def n_assets(self) -> int:
        return self.mean.shape[0]

    def off_diagonal_count(self) -> int:
        n = self.n_assets
        return n * (n - 1)

    def cluster_share(self, mask: np.ndarray) -> float:
        """Share of off-diagonal mean attention mass on within-cluster edges."""
        mask = np.asarray(mask, dtype=bool)
        off = ~np.eye(self.n_assets, dtype=bool)
        within = np.outer(mask, mask) & off
        total = self.mean[off].sum()
        return float(self.mean[within].sum() / total) if total > 0 else 0.0


def _bin_counts(values: np.ndarray) -> dict[str, int]:
    low = int((values < EDGE_THRESHOLD_LOW).sum())
    high = int((values > EDGE_THRESHOLD_HIGH).sum())
    mid = int(values.size - low - high)
    return {"low": low, "mid": mid, "high": high}


@dataclass
class SparsityReport:
    """Time-averaged attention statistics over a run."""

    n_records: int
    n_assets: int
    bin_fractions: dict[str, float]
    per_head_bin_fractions: list[dict[str, float]]
    mean_effective_degree: float
    effective_degree_per_node: list[float]
    defensive_share: float
    binning: str


def sparsity_report(records: list[AttentionRecord],
                    defensive_mask: np.ndarray) -> SparsityReport:
    """Aggregate bin fractions, degrees and the defensive-cluster share."""
    if not records:
        raise ValueError("sparsity report needs at least one attention record")
    n = records[0].n_assets
    edges = records[0].off_diagonal_count()
    n_heads = records[0].per_head.shape[0]

    frac = {key: float(np.mean([r.bins[key] / edges for r in records]))
            for key in ("low", "mid", "high")}
    head_frac = [
        {key: float(np.mean([r.per_head_bins[k][key] / edges for r in records]))
         for key in ("low", "mid", "high")}
        for k in range(n_heads)
    ]
    degrees = np.stack([r.effective_degree for r in records]).mean(axis=0)
    share = float(np.mean([r.cluster_share(defensive_mask) for r in records]))
    return SparsityReport(
        n_records=len(records),
        n_assets=n,
        bin_fractions=frac,
        per_head_bin_fractions=head_frac,
        mean_effective_degree=float(degrees.mean()),
        effective_degree_per_node=[float(d) for d in degrees],
        defensive_share=share,
        binning="bins computed on the head-mean attention matrix; "
                "per-head bins reported alongside",
    )


def telemetry_csv(records: list[AttentionRecord]) -> str:
    """Flatten records to CSV rows date,head,i,j,alpha (off-diagonal included)."""
    lines = ["date,head,i,j,alpha"]
    for rec in records:
        heads, n, _ = rec.per_head.shape
        for k in range(heads):
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    lines.append(
                        f"{rec.window_end_date},{k},{i},{j},{rec.per_head[k, i, j]:.10g}")
    return "\n".join(lines) + "\n"
