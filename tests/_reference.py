"""Autodiff ops and scalar feature formulas that only the tests use.

The model runs the LSTM gates and the graph attention's LeakyReLU inside
fused nodes, so ``crisp.autodiff`` has no tanh, sigmoid, LeakyReLU or
broadcast op.  These build the composed references those nodes are
checked against, each as one node on ``Tensor._from_op`` whose backward
captures arrays and shapes, never a ``Tensor``.  ``cvar``, ``rsi`` and
``amihud`` are the one-window scalar formulas that ``crisp.features``
computes as vectorized columns.
"""

from __future__ import annotations

import math

import numpy as np

from crisp.autodiff import Tensor, _unbroadcast, as_tensor

__all__ = ["amihud", "broadcast_to", "cvar", "leaky_relu", "rsi", "sigmoid", "tanh"]


def tanh(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.tanh(x.data)

    def bwd(g):
        return (g * (1.0 - out_data * out_data),)

    return Tensor._from_op(out_data, (x,), "tanh", bwd)


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = 1.0 / (1.0 + np.exp(-x.data))

    def bwd(g):
        return (g * out_data * (1.0 - out_data),)

    return Tensor._from_op(out_data, (x,), "sigmoid", bwd)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    """x where x >= 0, slope * x elsewhere."""
    x = as_tensor(x)
    mask = x.data >= 0.0
    out_data = np.where(mask, x.data, slope * x.data)

    def bwd(g):
        # inline on purpose: numpy may reuse a large temporary factor as the
        # product's buffer, which then has the mask's memory layout, and
        # that layout fixes the summation order of later reductions
        return (g * np.where(mask, 1.0, slope).astype(g.dtype, copy=False),)

    return Tensor._from_op(out_data, (x,), "leaky_relu", bwd)


def broadcast_to(x: Tensor, shape) -> Tensor:
    """``x`` broadcast to ``shape`` as a copy; its backward sums the copies."""
    x = as_tensor(x)
    in_shape = x.shape
    out_data = np.broadcast_to(x.data, tuple(shape)).copy()

    def bwd(g):
        return (_unbroadcast(g, in_shape),)

    return Tensor._from_op(out_data, (x,), "broadcast", bwd)


# -- scalar feature formulas ---------------------------------------------------

def cvar(returns: np.ndarray, alpha: float = 0.05) -> float:
    """Mean of the worst ceil(alpha*n) returns; negative when losses exist."""
    r = np.asarray(returns, dtype=np.float64).ravel()
    if r.size == 0:
        raise ValueError("cvar requires at least one return")
    k = math.ceil(alpha * r.size)
    worst = np.sort(r)[:k]
    return float(worst.mean())


def rsi(prices: np.ndarray, period: int = 14) -> float:
    """Wilder RSI in [0, 100]; 100 all-gain, 0 all-loss, 50 at zero movement."""
    p = np.asarray(prices, dtype=np.float64).ravel()
    if p.size < period + 1:
        raise ValueError(f"rsi needs at least {period + 1} prices, got {p.size}")
    diffs = np.diff(p[-(period + 1):])
    gain = np.maximum(diffs, 0.0).mean()
    loss = np.maximum(-diffs, 0.0).mean()
    if gain == 0.0 and loss == 0.0:
        return 50.0
    if loss == 0.0:
        return 100.0
    return float(100.0 - 100.0 / (1.0 + gain / loss))


def amihud(returns: np.ndarray, dollar_volumes: np.ndarray) -> float:
    """Mean |return| per unit of dollar volume; zero-volume days excluded."""
    r = np.asarray(returns, dtype=np.float64).ravel()
    dv = np.asarray(dollar_volumes, dtype=np.float64).ravel()
    if r.size != dv.size:
        raise ValueError(f"length mismatch: {r.size} returns vs {dv.size} volumes")
    live = dv > 0.0
    if not live.any():
        raise ValueError("amihud undefined: every day has zero dollar volume")
    return float((np.abs(r[live]) / dv[live]).mean())
