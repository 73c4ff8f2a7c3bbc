"""Full allocation model: temporal + spatial encoders, graph attention, head.

Each asset's embedding at step t is the temporal encoder's per-step
projection joined with the window's spatial embedding, [temp_t || spat].
The graph attention refines every step; the residual adds half the
refinement to the temporal half, and the allocation LSTM consumes the
refined sequence.  The spatial half is the same at every step, so it is
never copied across time: every map that reads the joined embedding splits
its weight rows and adds the spatial term once per window.  The ablation
variants (single-head graph attention, mean-pool aggregation, static
correlation graph, reduced feature set) are config switches so the trainer
and backtester treat all of them uniformly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .allocation import AllocationHead
from .autodiff import ParameterBag, Tensor, matmul, no_grad, uniform_init
from .features import feature_columns
from .graphattn import REFINED, GatLayer
from .nn import joined_matmul
from .spatial import SpatialEncoder
from .temporal import TemporalEncoder

__all__ = ["CrispModel", "ModelConfig"]


@dataclass
class ModelConfig:
    n_assets: int = 13
    n_features: int = 31
    window: int = 20
    gat_heads: int = 4
    use_alloc_lstm: bool = True
    static_graph: bool = False
    init_seed: int = 0

    def __post_init__(self):
        feature_columns(self.n_features)        # raises on a width the roster lacks
        if self.gat_heads < 1 or REFINED % self.gat_heads:
            raise ValueError(
                f"{self.gat_heads} heads do not divide refined width {REFINED}")

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


class CrispModel:
    """Parameter container plus the batched differentiable forward pass."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.bag = ParameterBag()
        rng = np.random.default_rng(config.init_seed)
        self.temporal = TemporalEncoder(self.bag, config.n_features, rng)
        self.spatial = SpatialEncoder(self.bag, config.n_features, rng)
        if config.static_graph:
            # fixed-topology replacement: one graph convolution whose weight
            # matrix (256*128) matches the attention module's parameter count
            self.w_static = self.bag.register(
                "static.w", uniform_init(rng, 256, (256, 128)))
            self.gat = None
        else:
            self.gat = GatLayer(self.bag, rng, n_heads=config.gat_heads)
            self.w_static = None
        self.head = AllocationHead(self.bag, rng, use_lstm=config.use_alloc_lstm)

    # -- parameter plumbing ---------------------------------------------------

    def parameters(self):
        return list(self.bag)

    def zero_grads(self) -> None:
        self.bag.zero_grads()

    def state(self) -> dict[str, np.ndarray]:
        return self.bag.state()

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        self.bag.load_state(state)

    # -- forward --------------------------------------------------------------

    def forward(self, features: np.ndarray, prior_adjacency: np.ndarray,
                rng: np.random.Generator, training: bool,
                static_adjacency: np.ndarray | None = None,
                ) -> tuple[Tensor, np.ndarray | None]:
        """(B, N, T, F) features -> (weights (B, N), last-step attention).

        ``prior_adjacency`` is the normalized prior graph (N, N).  The static
        variant additionally needs per-window normalized correlation
        adjacencies (B, N, N).  Attention comes back as (B, heads, N, N)
        numpy for the final time step, or None for the static variant.
        """
        cfg = self.config
        b, n, steps, feats = features.shape
        if n != cfg.n_assets:
            raise ValueError(f"model built for {cfg.n_assets} assets, got {n}")
        if feats != cfg.n_features:
            raise ValueError(f"model built for {cfg.n_features} features, got {feats}")
        x = Tensor(features)
        prior = Tensor(prior_adjacency)

        h_step = self.temporal(x)                                         # (B, N, T, 128)
        spat = self.spatial(Tensor(features.mean(axis=2)), prior)         # (B, N, 128)
        temp = h_step.transpose((0, 2, 1, 3))                             # (B, T, N, 128)

        if cfg.static_graph:
            if static_adjacency is None:
                raise ValueError("static-graph variant requires per-window adjacencies")
            adj = Tensor(np.asarray(static_adjacency, dtype=np.float64)
                         .reshape(b, 1, n, n))
            refined = matmul(adj, joined_matmul(temp, spat, self.w_static)).relu()
            alphas_out = None
        else:
            refined, alphas = self.gat(temp, spat)
            alphas_out = alphas.data[:, steps - 1].copy()

        # residual on the temporal half; the spatial half passes through
        temp_final = temp + 0.5 * refined
        weights = self.head(temp_final, spat, rng, training)
        return weights, alphas_out

    def allocate(self, features: np.ndarray, prior_adjacency: np.ndarray,
                 static_adjacency: np.ndarray | None = None,
                 ) -> tuple[np.ndarray, np.ndarray | None]:
        """Eval-mode single-window forward: (N, T, F) -> ((N,), attention)."""
        rng = np.random.default_rng(0)     # dropout disabled in eval; unused
        with no_grad():
            batch = features[None, ...]
            static = None if static_adjacency is None else static_adjacency[None, ...]
            weights, alphas = self.forward(batch, prior_adjacency, rng,
                                           training=False, static_adjacency=static)
        att = None if alphas is None else alphas[0]
        return weights.data[0].copy(), att
