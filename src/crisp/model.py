"""Full allocation model: temporal + spatial encoders, graph attention, head.

Each asset's embedding at step t is the temporal encoder's per-step
projection joined with the window's spatial embedding, [temp_t || spat].
The graph attention refines every step; the residual adds half the
refinement to the temporal half, and the allocation LSTM consumes the
refined sequence.  The spatial half is the same at every step, so it is
never copied across time: every map that reads the joined embedding splits
its weight rows and adds the spatial term once per window.  A model is one
of the named ``VARIANTS``: the full model, or the full model less one
component (the learned graph, replaced by a static correlation graph;
multi-head attention, cut to one head; the allocation LSTM, replaced by a
mean pool; the four crisis features).  ``ModelConfig.variant`` is the one
switch, so the trainer and backtester treat every variant uniformly.

Only the temporal encoder computes below float64, at the dtype it holds
itself, in every ``forward``: training, validation and ``allocate`` (which
serves walk-forward, backtests and ablations) run the one function.
Parameters, the spatial encoder, graph attention, the allocation head, the
projection and the loss stay float64.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .allocation import AllocationHead
from .autodiff import ParameterBag, Tensor, matmul, no_grad, uniform_init
from .features import CRISIS_FEATURES, N_FEATURES
from .graphattn import GatLayer
from .nn import joined_matmul
from .spatial import SpatialEncoder
from .temporal import TemporalEncoder

__all__ = ["VARIANTS", "CrispModel", "ModelConfig"]

# variant name -> its row in the ablation table
VARIANTS = {
    "full": "Full CRISP",
    "static": "w/o Learnable Graph",
    "single_head": "w/o Multi-Head Attn",
    "no_lstm": "w/o LSTM",
    "no_crisis": "w/o Crisis Features",
}


@dataclass
class ModelConfig:
    n_assets: int = 13
    window: int = 20
    variant: str = "full"
    init_seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r} "
                             f"(known: {', '.join(VARIANTS)})")

    @property
    def n_features(self) -> int:
        if self.variant == "no_crisis":
            return N_FEATURES - len(CRISIS_FEATURES)
        return N_FEATURES

    @property
    def static_graph(self) -> bool:
        return self.variant == "static"

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
            self.gat = GatLayer(self.bag, rng,
                                n_heads=1 if config.variant == "single_head" else 4)
            self.w_static = None
        self.head = AllocationHead(self.bag, rng, use_lstm=config.variant != "no_lstm")

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
