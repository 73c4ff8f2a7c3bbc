"""Autodiff ops that only the tests' composed references use.

The model runs the LSTM gates and the graph attention's LeakyReLU inside
fused nodes, so ``crisp.autodiff`` has no tanh, sigmoid, LeakyReLU or
broadcast op.  These build the composed references those nodes are
checked against, each as one node on ``Tensor._from_op`` whose backward
captures arrays and shapes, never a ``Tensor``.
"""

from __future__ import annotations

import numpy as np

from crisp.autodiff import Tensor, _unbroadcast, as_tensor

__all__ = ["broadcast_to", "leaky_relu", "sigmoid", "tanh"]


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
