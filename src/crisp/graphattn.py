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
time; the joined input is never built.  Everything after that product
(scores, LeakyReLU, softmax, the attention-weighted mix) is one autodiff
node tagged ``gat``: it keeps only the alphas and the LeakyReLU mask for
its hand-written backward, which repeats the composed ops' arithmetic in
their order.  No hard threshold is applied anywhere; sparsity is an
emergent, reported property.

An ``AttentionRecord`` keeps one rebalance's alphas and nothing derived
from them.  ``sparsity_report`` is the one place attention statistics are
computed, over a run's records stacked to (R, heads, N, N): it bins the
head-mean off-diagonal weights as low < 0.1, mid 0.1..0.3 (inclusive),
high > 0.3, bins each head the same way alongside, and counts a node's
effective degree as its neighbors with head-mean weight >= 0.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParameterBag, Tensor, _unbroadcast, uniform_init
from .nn import joined_matmul

__all__ = [
    "AttentionRecord",
    "GatLayer",
    "SparsityReport",
    "attend",
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
        return attend(wz, self.a)


def attend(wz: Tensor, a: Tensor) -> tuple[Tensor, Tensor]:
    """wz (B, T, heads, N, hd), a (heads, 2 hd) -> refined (B, T, N, heads * hd), alphas.

    One node with parents ``wz`` and ``a``.  Per head, e_ij = LeakyReLU(
    a_src . wz_i + a_dst . wz_j), alpha = softmax_j(e) and the mix is
    alpha @ wz, written straight into the heads-side-by-side layout.  The
    alphas come back as a constant (B, T, heads, N, N) tensor.
    """
    b, steps, heads, n, hd = wz.shape
    x = wz.data
    a3 = a.data.reshape(heads, 1, 2 * hd)
    a_src, a_dst = a3[:, :, :hd], a3[:, :, hd:]
    src = (x * a_src).sum(axis=-1)                                 # (B, T, heads, N)
    dst = (x * a_dst).sum(axis=-1)
    # src_i + dst_j over all ordered pairs
    e = src.reshape(b, steps, heads, n, 1) + dst.reshape(b, steps, heads, 1, n)
    mask = e >= 0.0
    e = np.where(mask, e, LEAKY_SLOPE * e)
    e = np.exp(e - e.max(axis=-1, keepdims=True))
    alpha = e / e.sum(axis=-1, keepdims=True)                      # (B, T, heads, N, N)
    out = np.empty((b, steps, n, heads, hd), dtype=alpha.dtype)
    np.matmul(alpha, x, out=out.transpose((0, 1, 3, 2, 4)))
    a_shape = a.shape

    def bwd(g):
        # the composed ops' backward, node by node: the mix, the softmax,
        # the LeakyReLU, the pair sum, then the source and destination
        # score products; wz's three contributions add in that order
        gm = np.transpose(g.reshape(b, steps, n, heads, hd), (0, 1, 3, 2, 4))
        g_alpha = np.matmul(gm, np.swapaxes(x, -1, -2))
        g_wz = np.matmul(np.swapaxes(alpha, -1, -2), gm)
        g_e = alpha * (g_alpha - (g_alpha * alpha).sum(axis=-1, keepdims=True))
        # inline on purpose: the product may take the factor's buffer and
        # e's memory layout, which fixes the summation order below
        g_e = g_e * np.where(mask, 1.0, LEAKY_SLOPE)
        g_a = []
        for coef, score_shape in ((a_src, (b, steps, heads, n, 1)),
                                  (a_dst, (b, steps, heads, 1, n))):
            g_score = _unbroadcast(g_e, score_shape).reshape(b, steps, heads, n, 1)
            g_prod = np.broadcast_to(g_score, x.shape).copy()
            g_wz = g_wz + g_prod * coef
            g_a.append(_unbroadcast(g_prod * x, coef.shape))
        return g_wz, np.concatenate(g_a, axis=-1).reshape(a_shape)

    refined = Tensor._from_op(out.reshape(b, steps, n, heads * hd), (wz, a), "gat", bwd)
    return refined, Tensor(alpha)


@dataclass
class AttentionRecord:
    """One rebalance's attention weights, the evidence every statistic reads."""

    window_end_date: str
    per_head: np.ndarray          # (heads, N, N), each row sums to 1

    @classmethod
    def from_alphas(cls, window_end_date: str, per_head: np.ndarray) -> "AttentionRecord":
        per_head = np.asarray(per_head, dtype=np.float64)
        if per_head.ndim != 3 or per_head.shape[1] != per_head.shape[2]:
            raise ValueError(f"expected (heads, N, N) alphas, got {per_head.shape}")
        return cls(window_end_date, per_head)

    def cluster_share(self, mask: np.ndarray) -> float:
        """Share of off-diagonal mean attention mass on within-cluster edges."""
        mask = np.asarray(mask, dtype=bool)
        mean = self.per_head.mean(axis=0)
        off = ~np.eye(mean.shape[0], dtype=bool)
        within = np.outer(mask, mask) & off
        total = mean[off].sum()
        return float(mean[within].sum() / total) if total > 0 else 0.0


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
    """Every attention statistic of a run, from its records' stacked alphas.

    Bin fractions are the mean over records of each record's count / edges;
    a node's effective degree is its neighbor count at head-mean weight
    >= 0.1, averaged over records.
    """
    if not records:
        raise ValueError("sparsity report needs at least one attention record")
    alphas = np.stack([r.per_head for r in records])       # (R, heads, N, N)
    n_heads, n = alphas.shape[1], alphas.shape[2]
    off = ~np.eye(n, dtype=bool)
    edges = n * (n - 1)
    mean = alphas.mean(axis=1)                              # (R, N, N)

    def fractions(weights: np.ndarray) -> dict[str, float]:
        w = weights[:, off]                                 # (R, edges)
        low = (w < EDGE_THRESHOLD_LOW).sum(axis=1)
        high = (w > EDGE_THRESHOLD_HIGH).sum(axis=1)
        counts = {"low": low, "mid": edges - low - high, "high": high}
        return {key: float(np.mean(c / edges)) for key, c in counts.items()}

    degrees = ((mean >= EDGE_THRESHOLD_LOW) & off).sum(axis=2).mean(axis=0)
    share = float(np.mean([r.cluster_share(defensive_mask) for r in records]))
    return SparsityReport(
        n_records=len(records),
        n_assets=n,
        bin_fractions=fractions(mean),
        per_head_bin_fractions=[fractions(alphas[:, k]) for k in range(n_heads)],
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
