"""Per-asset temporal encoder: BiLSTM, time attention, per-step projection.

Each asset's T-day feature sequence runs through a bidirectional LSTM (128
units per direction), 4-head scaled dot-product self-attention over the
time axis (64 dims per head, concatenated), the attention's 256->256 output
projection and a shared 256->128 step projection, giving one embedding per
step for the downstream graph attention.  Nothing lies between the two
projections, so they run as one 256->128 map whose matrix is their product.

Assets are independent here: the batch and asset axes are flattened
together, so permuting assets permutes outputs identically.

The encoder computes in ``ENCODER_DTYPE`` (float32), in training and in
every forward, so a checkpoint is chosen and served by the function it was
trained as: each forward casts its input to the encoder's ``dtype``, every
layer casts each weight it reads once to its input's dtype (the BiLSTM's
``wx``, ``wh`` and ``b``, the Q/K/V matrices and the folded projection),
and ``h_step`` is cast back to float64 at the exit.  The parameters, their
gradients and everything downstream stay float64.  Gradient checks and
composed-op references set an encoder's ``dtype`` to float64, where every
cast is the identity and adds no graph node.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import ParameterBag, Tensor, cast, concat, matmul, softmax, uniform_init
from .nn import LSTM

__all__ = ["ENCODER_DTYPE", "TemporalEncoder"]

# the dtype the encoder computes in
ENCODER_DTYPE = np.float32

_HIDDEN = 128      # per LSTM direction
_MODEL = 2 * _HIDDEN
_HEADS = 4
_HEAD_DIM = _MODEL // _HEADS


class TemporalEncoder:

    def __init__(self, bag: ParameterBag, n_features: int, rng: np.random.Generator):
        self.dtype = ENCODER_DTYPE
        self.fwd = LSTM(bag, "temporal.lstm_fwd", n_features, _HIDDEN, rng)
        self.bwd = LSTM(bag, "temporal.lstm_bwd", n_features, _HIDDEN, rng)
        self.wq = bag.register("temporal.attn_q", uniform_init(rng, _MODEL, (_MODEL, _MODEL)))
        self.wk = bag.register("temporal.attn_k", uniform_init(rng, _MODEL, (_MODEL, _MODEL)))
        self.wv = bag.register("temporal.attn_v", uniform_init(rng, _MODEL, (_MODEL, _MODEL)))
        self.w_out = bag.register("temporal.attn_out", uniform_init(rng, _MODEL, (_MODEL, _MODEL)))
        # draw (and drop) the removed pooled projection's weights so every
        # later parameter keeps the initial values it had for a given seed
        uniform_init(rng, 2 * _MODEL, (2 * _MODEL, 128))
        self.w_step = bag.register("temporal.step_proj.w",
                                   uniform_init(rng, _MODEL, (_MODEL, 128)))

    def bilstm(self, x: Tensor) -> Tensor:
        """(B*N, T, F) -> (B*N, T, 256): forward and backward states concatenated."""
        return concat([self.fwd.run(x), self.bwd.run(x, reverse=True)], axis=2)

    def _split_heads(self, x: Tensor, rows: int, steps: int) -> Tensor:
        # (rows, T, model) -> (rows, heads, T, head_dim)
        return x.reshape(rows, steps, _HEADS, _HEAD_DIM).transpose((0, 2, 1, 3))

    def self_attention(self, h: Tensor, return_weights: bool = False):
        """(B*N, T, 256) -> (B*N, T, 128) attention over time, per sequence.

        The mixed heads go through the output and step projections folded
        into one (256, 128) matrix, so the result is the per-step embedding.
        The 1/sqrt(head_dim) score scale is the softmax temperature, so no
        float64 constant enters the product.
        """
        rows, steps, _ = h.shape
        q = self._split_heads(matmul(h, cast(self.wq, h.dtype)), rows, steps)
        k = self._split_heads(matmul(h, cast(self.wk, h.dtype)), rows, steps)
        v = self._split_heads(matmul(h, cast(self.wv, h.dtype)), rows, steps)
        scores = matmul(q, k.swap_last_two())
        weights = softmax(scores, axis=-1,                    # (rows, heads, T, T)
                          temperature=math.sqrt(_HEAD_DIM))
        mixed = matmul(weights, v)
        mixed = mixed.transpose((0, 2, 1, 3)).reshape(rows, steps, _MODEL)
        out = matmul(mixed, cast(matmul(self.w_out, self.w_step), h.dtype))
        if return_weights:
            return out, weights
        return out

    def __call__(self, x: Tensor, return_weights: bool = False):
        """(B, N, T, F) -> h_step (B, N, T, 128), the per-step embeddings.

        With ``return_weights=True`` the time-attention weights
        (B*N, heads, T, T) come back as a second value.
        """
        b, n, steps, feats = x.shape
        flat = cast(x, self.dtype).reshape(b * n, steps, feats)
        h_bi = self.bilstm(flat)
        h_attn, weights = self.self_attention(h_bi, return_weights=True)
        h_step = cast(h_attn.reshape(b, n, steps, 128), np.float64)
        return (h_step, weights) if return_weights else h_step
