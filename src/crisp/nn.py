"""Small neural building blocks on top of the tensor engine.

Layers here hold no state beyond their parameters, which live in a shared
``ParameterBag`` owned by the model, so checkpointing and optimizer loops
see one flat namespace.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    Parameter,
    ParameterBag,
    Tensor,
    grad_enabled,
    matmul,
    uniform_init,
)

__all__ = ["Linear", "LSTM", "MLP"]


class Linear:
    """Affine map y = x W + b over the last axis."""

    def __init__(self, bag: ParameterBag, name: str, in_dim: int, out_dim: int,
                 rng: np.random.Generator, bias: bool = True):
        self.w = bag.register(f"{name}.w", uniform_init(rng, in_dim, (in_dim, out_dim)))
        self.b = bag.register(f"{name}.b", uniform_init(rng, in_dim, (out_dim,))) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        y = matmul(x, self.w.tensor)
        if self.b is not None:
            y = y + self.b.tensor
        return y


class LSTM:
    """Single-layer LSTM with packed gates, run as one autodiff node.

    The input-side gate projection for all steps is one (in -> 4H) matmul;
    the recurrence then runs as a single graph node tagged ``lstm`` whose
    forward adds the (H -> 4H) recurrent projection step by step and whose
    backward is a hand-written backpropagation through time.  The 4H axis
    splits into input, forget, cell and output gates in that order.  The
    node saves the gate activations and cell states only when grad is on
    and a parent requires it, so a no-grad forward keeps one step's worth.
    """

    def __init__(self, bag: ParameterBag, name: str, in_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        self.hidden_dim = hidden_dim
        h = hidden_dim
        self.wx = bag.register(f"{name}.wx", uniform_init(rng, in_dim, (in_dim, 4 * h)))
        self.wh = bag.register(f"{name}.wh", uniform_init(rng, h, (h, 4 * h)))
        self.b = bag.register(f"{name}.b", uniform_init(rng, h, (4 * h,)))

    def run(self, x: Tensor, reverse: bool = False) -> Tensor:
        """Full sequence: x (B, T, in) -> hidden states (B, T, H).

        With ``reverse=True`` the sequence is consumed right to left and the
        output is re-aligned so row t still describes timestep t.
        """
        xz = matmul(x, self.wx.tensor) + self.b.tensor      # (B, T, 4H)
        return _recurrence(xz, self.wh.tensor, reverse)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _recurrence(xz: Tensor, wh: Tensor, reverse: bool) -> Tensor:
    """LSTM recurrence over input-side pre-activations xz (B, T, 4H).

    Each step does the arithmetic of the per-step op composition in the same
    order (``z = xz_t + h @ wh``, then ``c = f*c + i*g``, ``h = o*tanh(c)``),
    so the output is bitwise equal to it; ``composed_lstm`` in the tests is
    that reference.
    """
    batch, steps, width = xz.shape
    hd = width // 4
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    keep = grad_enabled() and (xz.requires_grad or wh.requires_grad)
    gates = np.empty((batch, steps, width)) if keep else None
    cells = np.empty((batch, steps, hd)) if keep else None
    out = np.empty((batch, steps, hd))
    h = np.zeros((batch, hd))
    c = np.zeros((batch, hd))
    for t in order:
        z = xz.data[:, t] + h @ wh.data
        i, f, g, o = (z[:, k * hd:(k + 1) * hd] for k in range(4))
        i[...] = _sigmoid(i)
        f[...] = _sigmoid(f)
        g[...] = np.tanh(g)
        o[...] = _sigmoid(o)
        c = f * c + i * g
        h = o * np.tanh(c)
        out[:, t] = h
        if keep:
            gates[:, t] = z
            cells[:, t] = c
    if not keep:
        return Tensor(out)

    def bwd(grad):
        dz = np.empty_like(gates)
        dh = np.zeros((batch, hd))
        dc = np.zeros((batch, hd))
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
                dh = dzt @ wh.data.T
        if xz.requires_grad:
            xz._accumulate(dz)
        if wh.requires_grad:
            # h_prev of every step, zero for the first processed one
            h_prev = np.zeros_like(out)
            if reverse:
                h_prev[:, :-1] = out[:, 1:]
            else:
                h_prev[:, 1:] = out[:, :-1]
            wh._accumulate(h_prev.reshape(-1, hd).T @ dz.reshape(-1, width))

    return Tensor._from_op(out, (xz, wh), "lstm", bwd)


class MLP:
    """Stack of Linear layers with ReLU between them (none after the last)."""

    def __init__(self, bag: ParameterBag, name: str, dims: list[int],
                 rng: np.random.Generator):
        if len(dims) < 2:
            raise ValueError("MLP needs at least an input and an output dimension")
        self.layers = [
            Linear(bag, f"{name}.l{i}", dims[i], dims[i + 1], rng)
            for i in range(len(dims) - 1)
        ]

    def __call__(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = x.relu()
        return x
