"""Small neural building blocks on top of the tensor engine.

Layers here hold no state beyond their parameters, which live in a shared
``ParameterBag`` owned by the model, so checkpointing and optimizer loops
see one flat namespace.  The LSTM runs at its input's dtype: the temporal
encoder's own dtype inside it, float64 elsewhere.  It reads its float64
weights cast to that dtype, cast per run or handed in already cast.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (ParameterBag, Tensor, _unbroadcast, cast, grad_enabled, matmul,
                       uniform_init)

__all__ = ["Linear", "LSTM", "joined_matmul"]


class Linear:
    """Affine map y = x W + b over the last axis."""

    def __init__(self, bag: ParameterBag, name: str, in_dim: int, out_dim: int,
                 rng: np.random.Generator, bias: bool = True):
        self.w = bag.register(f"{name}.w", uniform_init(rng, in_dim, (in_dim, out_dim)))
        self.b = bag.register(f"{name}.b", uniform_init(rng, in_dim, (out_dim,))) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        y = matmul(x, self.w)
        if self.b is not None:
            y = y + self.b
        return y


def joined_matmul(temp: Tensor, spat: Tensor, w: Tensor) -> Tensor:
    """[temp_t || spat] @ w at every step t, without building the joined input.

    temp (B, T, N, d_t), spat (B, N, d_s), w (d_t + d_s, out) -> (B, T, N, out).
    The spatial term is computed once per window and broadcast over T.
    """
    b, _, n, split = temp.shape
    return matmul(temp, w[:split]) + matmul(spat, w[split:]).reshape(b, 1, n, w.shape[1])


class LSTM:
    """Single-layer LSTM with packed gates, run as one autodiff node.

    The whole sequence runs as a single graph node tagged ``lstm`` that owns
    the input projection: it writes ``x @ wx + b`` for all steps into one
    (B, T, 4H) buffer, adds the (H -> 4H) recurrent projection step by step
    and overwrites the buffer with the gate activations; its backward is a
    hand-written backpropagation through time that returns the gradients of
    the input, the input weights, the gate bias and the recurrent weights.
    The 4H axis splits into input, forget, cell and output gates in that
    order.  The node keeps the gate buffer and the cell states only when
    grad is on and a parent requires it.
    """

    def __init__(self, bag: ParameterBag, name: str, in_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        self.hidden_dim = hidden_dim
        h = hidden_dim
        self.wx = bag.register(f"{name}.wx", uniform_init(rng, in_dim, (in_dim, 4 * h)))
        self.wh = bag.register(f"{name}.wh", uniform_init(rng, h, (h, 4 * h)))
        self.b = bag.register(f"{name}.b", uniform_init(rng, h, (4 * h,)))

    def cast_weights(self, dtype) -> tuple[Tensor, Tensor, Tensor]:
        """(wx, b, wh) at ``dtype``, as :meth:`run` reads them."""
        return cast(self.wx, dtype), cast(self.b, dtype), cast(self.wh, dtype)

    def run(self, x: Tensor, reverse: bool = False,
            weights: tuple[Tensor, Tensor, Tensor] | None = None) -> Tensor:
        """Full sequence: x (B, T, in) -> hidden states (B, T, H).

        With ``reverse=True`` the sequence is consumed right to left and the
        output is re-aligned so row t still describes timestep t.  The
        recurrence runs at ``x``'s dtype; ``weights`` is
        :meth:`cast_weights` at that dtype, cast here when absent.
        """
        wx, b, wh = self.cast_weights(x.dtype) if weights is None else weights
        return _recurrence(x, wx, b, wh, reverse)

    def run_joined(self, temp: Tensor, spat: Tensor) -> Tensor:
        """Forward run over [temp_t || spat]: temp (B, T, d_t), spat (B, d_s) -> (B, T, H).

        The time-constant part enters once per sequence, as the gate bias
        ``spat @ wx[d_t:] + b``; the joined input is never built.
        """
        split = temp.shape[-1]
        bias = (matmul(spat, self.wx[split:]) + self.b).reshape(spat.shape[0], 1, -1)
        return _recurrence(temp, self.wx[:split], bias, self.wh, reverse=False)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _recurrence(x: Tensor, wx: Tensor, bias: Tensor, wh: Tensor, reverse: bool) -> Tensor:
    """LSTM over inputs x (B, T, in): gates ``x_t @ wx + bias + h @ wh``.

    ``bias`` is any shape that broadcasts against (B, T, 4H): the (4H,)
    gate bias, or a per-sequence (B, 1, 4H) one that carries a
    time-constant input's projection.  All four operands share one dtype,
    and every buffer, forward and backward, is allocated in it.  Each step
    does the arithmetic of the per-step op composition in the same order
    (``z = xz_t + h @ wh``, then ``c = f*c + i*g``, ``h = o*tanh(c)``), so
    the output is bitwise equal to it; ``composed_lstm`` in the tests is
    that reference.
    """
    batch, steps, in_dim = x.shape
    width = wx.shape[1]
    hd = width // 4
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    parents = (x, wx, bias, wh)
    keep = grad_enabled() and any(p.requires_grad for p in parents)
    x2 = x.data.reshape(-1, in_dim)
    gates = (x2 @ wx.data).reshape(batch, steps, width)
    gates += bias.data
    dt = gates.dtype
    cells = np.empty((batch, steps, hd), dt) if keep else None
    out = np.empty((batch, steps, hd), dt)
    h = np.zeros((batch, hd), dt)
    c = np.zeros((batch, hd), dt)
    # the sigmoid's exp(-z) overflows to inf once z falls below about -88 in
    # float32 (-709 in float64), and 1 / (1 + inf) is then the exact limit
    # 0.  Every other value here is bounded (|h| <= 1, |c| <= T), so this
    # silences that warning alone; invalid values and NaN still surface
    with np.errstate(over="ignore"):
        for t in order:
            z = gates[:, t]
            z += h @ wh.data
            z[:, :2 * hd] = _sigmoid(z[:, :2 * hd])
            z[:, 2 * hd:3 * hd] = np.tanh(z[:, 2 * hd:3 * hd])
            z[:, 3 * hd:] = _sigmoid(z[:, 3 * hd:])
            i, f, g, o = (z[:, k * hd:(k + 1) * hd] for k in range(4))
            c = f * c + i * g
            h = o * np.tanh(c)
            out[:, t] = h
            if keep:
                cells[:, t] = c
    if not keep:
        return Tensor(out)
    x_shape, bias_shape, w_h = x.shape, bias.shape, wh.data
    # the input gradient needs wx; the three weight gradients are always
    # formed, and backward drops any whose tensor does not require grad
    w_x = wx.data if x.requires_grad else None

    def bwd(grad):
        dz = np.empty_like(gates)
        dh = np.zeros((batch, hd), dt)
        dc = np.zeros((batch, hd), dt)
        back = order[::-1]
        for n, t in enumerate(back):
            i, f, g, o = (gates[:, t, k * hd:(k + 1) * hd] for k in range(4))
            tc = np.tanh(cells[:, t])
            dh = grad[:, t] + dh
            dc = dc + dh * o * (1.0 - tc * tc)
            first = n == steps - 1
            c_prev = 0.0 if first else cells[:, back[n + 1]]
            dzt = dz[:, t]
            dzt[:, :hd] = dc * g * i * (1.0 - i)
            dzt[:, hd:2 * hd] = dc * c_prev * f * (1.0 - f)
            dzt[:, 2 * hd:3 * hd] = dc * i * (1.0 - g * g)
            dzt[:, 3 * hd:] = dh * tc * o * (1.0 - o)
            if not first:
                dc = dc * f
                dh = dzt @ w_h.T
        dz2 = dz.reshape(-1, width)
        # h_prev of every step, zero for the first processed one
        h_prev = np.zeros_like(out)
        if reverse:
            h_prev[:, :-1] = out[:, 1:]
        else:
            h_prev[:, 1:] = out[:, :-1]
        return (None if w_x is None else (dz2 @ w_x.T).reshape(x_shape),
                x2.T @ dz2, _unbroadcast(dz, bias_shape), h_prev.reshape(-1, hd).T @ dz2)

    return Tensor._from_op(out, parents, "lstm", bwd)
