"""Domain-prior graph and the two-layer graph convolution encoder.

Assets are linked when they share a sector or a region; the adjacency gets
self-loops and symmetric normalization D^{-1/2} (A + I) D^{-1/2}.  The
encoder projects window-mean features to 128 dims, applies two ReLU graph
convolutions and adds back half of the input projection as a residual.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ParameterBag, Tensor, matmul, uniform_init

__all__ = [
    "PriorGraph",
    "SpatialEncoder",
    "build_prior",
    "correlation_adjacency",
    "normalize_adjacency",
]


class PriorGraph:
    """Binary symmetric adjacency plus its normalized form."""

    def __init__(self, tickers: list[str], adjacency: np.ndarray):
        adjacency = np.asarray(adjacency, dtype=np.float64)
        n = len(tickers)
        if adjacency.shape != (n, n):
            raise ValueError(f"adjacency shape {adjacency.shape} does not match {n} tickers")
        if not np.array_equal(adjacency, adjacency.T):
            raise ValueError("prior adjacency must be symmetric")
        if np.diag(adjacency).any():
            raise ValueError("prior adjacency must have a zero diagonal")
        self.tickers = list(tickers)
        self.adjacency = adjacency
        self.normalized = normalize_adjacency(adjacency)


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric normalization with self-loops: D^{-1/2} (A + I) D^{-1/2}."""
    a_hat = np.asarray(adjacency, dtype=np.float64) + np.eye(adjacency.shape[0])
    deg = a_hat.sum(axis=1)
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    return a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def correlation_adjacency(returns: np.ndarray,
                          threshold: float = 0.5) -> tuple[np.ndarray, bool]:
    """Binary adjacency from pairwise return correlations above a threshold.

    ``returns`` is (N, L) trailing history.  Returns the adjacency and a
    flag marking the empty-graph fallback (no correlation clears the
    threshold, or the history is too short to define one); the normalized
    form of an empty adjacency is the identity, so downstream is safe
    either way.
    """
    r = np.asarray(returns, dtype=np.float64)
    n = r.shape[0]
    empty = np.zeros((n, n))
    if r.ndim != 2 or r.shape[1] < 2:
        return empty, True
    # a zero-variance row has no correlation: it stays isolated
    live = r.std(axis=1) > 0.0
    corr = np.zeros((n, n))
    if live.sum() >= 2:
        corr[np.ix_(live, live)] = np.corrcoef(r[live])
    a = (corr > threshold).astype(np.float64)
    np.fill_diagonal(a, 0.0)
    return a, not a.any()


def build_prior(sector_map: dict[str, str], region_map: dict[str, str],
                tickers: list[str]) -> PriorGraph:
    """Edge (i, j) = 1 iff same sector or same region; every ticker must be mapped."""
    missing = [t for t in tickers if t not in sector_map or t not in region_map]
    if missing:
        raise ValueError(f"tickers without sector/region mapping: {missing}")
    n = len(tickers)
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            ti, tj = tickers[i], tickers[j]
            if sector_map[ti] == sector_map[tj] or region_map[ti] == region_map[tj]:
                a[i, j] = a[j, i] = 1.0
    return PriorGraph(tickers, a)


class SpatialEncoder:
    """project -> two normalized graph convolutions -> 0.5-weighted residual."""

    def __init__(self, bag: ParameterBag, n_features: int, rng: np.random.Generator,
                 hidden: int = 128):
        self.hidden = hidden
        self.w_in = bag.register("spatial.w_in",
                                 uniform_init(rng, n_features, (n_features, hidden)))
        self.w1 = bag.register("spatial.w1", uniform_init(rng, hidden, (hidden, hidden)))
        self.w2 = bag.register("spatial.w2", uniform_init(rng, hidden, (hidden, hidden)))

    def __call__(self, window_mean_features: Tensor, normalized_adjacency: Tensor) -> Tensor:
        """(..., N, F) window-mean features -> (..., N, hidden) embeddings.

        ``normalized_adjacency`` broadcasts against leading batch axes; the
        same prior graph is shared across a batch, a per-sample stack works
        too.
        """
        h0 = matmul(window_mean_features, self.w_in)
        h1 = matmul(normalized_adjacency, matmul(h0, self.w1)).relu()
        h2 = matmul(normalized_adjacency, matmul(h1, self.w2)).relu()
        return h2 + 0.5 * h0
