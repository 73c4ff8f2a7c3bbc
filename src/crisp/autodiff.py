"""Dense tensors with reverse-mode automatic differentiation.

Every learnable layer in the pipeline is built from the operations in this
module.  A ``Tensor`` wraps a numpy array plus an optional gradient buffer
and a backpropagation closure that returns one gradient per parent.
Calling :func:`backward` on a scalar loss walks the graph in reverse
topological order and sums those gradients; it is the only code that does.
A learnable weight is a :class:`Parameter`, a leaf ``Tensor`` with a name
(``spatial.w1``, ``gat.w``, ...); layers use it directly as an operand, and
a model's :class:`ParameterBag` keeps them in one flat namespace.

Design notes:

* float64 by default, with one precision policy.  Parameters, their
  gradients, optimizer state and every loss stay float64, which keeps
  finite-difference checks noise-free.  Inside a :func:`precision` block a
  layer may compute in float32: it passes its inputs and each weight it
  reads through :func:`cast` once per forward and casts its output back to
  float64 (float64 master weights, as in Micikevicius et al., *Mixed
  Precision Training*, arXiv:1710.03740).  ``cast`` to the dtype a tensor
  already has returns it unchanged, so the default policy adds no node.
  The model sets a float32 policy for its temporal encoder in training
  and in every no-grad forward (``model.ENCODER_DTYPE``); gradient checks
  and direct ``forward`` calls run at the default.
  Ops take their dtype from their operands; a float32 op must combine with
  Python scalars only, since a 0-d float64 array upcasts it under NEP 50.
* Only leaves keep ``.grad``: parameters and user tensors created with
  ``requires_grad=True``.  Each interior gradient is freed as soon as its
  node's backward has run, so an interior tensor's ``.grad`` stays ``None``.
* Leaf gradients accumulate across repeated backward calls; call
  :meth:`Tensor.zero_grad` (or ``Model.zero_grads``) between steps.
* ``clip`` passes gradient 1 inside the bounds and 0 outside.
* Dropout uses inverted scaling at train time so eval mode is the identity.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "ParameterBag",
    "as_tensor",
    "backward",
    "cast",
    "concat",
    "dropout",
    "grad_enabled",
    "leaky_relu",
    "matmul",
    "maximum",
    "no_grad",
    "precision",
    "softmax",
]

_GRAD_ENABLED = True
_DTYPE = np.dtype(np.float64)
_FLOAT32 = np.dtype(np.float32)


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (eval-mode forward)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled() -> bool:
    return _GRAD_ENABLED


@contextlib.contextmanager
def precision(dtype):
    """Set the dtype that :func:`cast` converts to inside the block.

    float64 outside any block.  Only layers that cast their operands
    compute at this dtype; everything else stays float64.
    """
    global _DTYPE
    prev = _DTYPE
    _DTYPE = np.dtype(dtype)
    try:
        yield
    finally:
        _DTYPE = prev


def _is_basic_key(key) -> bool:
    """True for int/slice indexing, where positions cannot repeat."""
    items = key if isinstance(key, tuple) else (key,)
    return all(isinstance(k, (int, np.integer, slice, type(None), type(Ellipsis)))
               for k in items)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` over axes that numpy broadcasting introduced or stretched."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A dense array node in a reverse-mode autodiff graph.

    Data is float32 when given native float32 and float64 otherwise
    (Python numbers, integer and boolean arrays included).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad: bool = False):
        if getattr(data, "dtype", None) is _FLOAT32:
            self.data = np.asarray(data)
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence] | None = None
        self.op = "leaf"

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple["Tensor", ...], op: str,
                 backward: Callable[[np.ndarray], Sequence]) -> "Tensor":
        """Wrap an op's output; it joins the graph if any parent requires grad.

        ``backward`` maps the output's gradient to one gradient per parent,
        in ``parents`` order (``None`` for a parent that needs none), and
        neither writes a ``.grad`` nor mutates its argument.
        """
        out = cls(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
            out.op = op
        return out

    # -- bookkeeping ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._not_scalar()

    def _not_scalar(self):
        raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        a, b = self, as_tensor(other)
        out_data = a.data + b.data

        def bwd(g):
            return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                    _unbroadcast(g, b.shape) if b.requires_grad else None)

        return Tensor._from_op(out_data, (a, b), "add", bwd)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, as_tensor(other)
        out_data = a.data - b.data

        def bwd(g):
            return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                    _unbroadcast(-g, b.shape) if b.requires_grad else None)

        return Tensor._from_op(out_data, (a, b), "sub", bwd)

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __mul__(self, other):
        a, b = self, as_tensor(other)
        out_data = a.data * b.data

        def bwd(g):
            return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                    _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

        return Tensor._from_op(out_data, (a, b), "mul", bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, as_tensor(other)
        out_data = a.data / b.data

        def bwd(g):
            return (_unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
                    _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
                    if b.requires_grad else None)

        return Tensor._from_op(out_data, (a, b), "div", bwd)

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __neg__(self):
        a = self
        out_data = -a.data

        def bwd(g):
            return (-g,)

        return Tensor._from_op(out_data, (a,), "neg", bwd)

    def __pow__(self, exponent: float):
        a = self
        p = float(exponent)
        out_data = a.data ** p

        def bwd(g):
            return (g * p * a.data ** (p - 1.0),)

        return Tensor._from_op(out_data, (a,), "pow", bwd)

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))

    # -- elementwise functions ------------------------------------------------

    def exp(self):
        a = self
        out_data = np.exp(a.data)

        def bwd(g):
            return (g * out_data,)

        return Tensor._from_op(out_data, (a,), "exp", bwd)

    def log(self):
        a = self
        out_data = np.log(a.data)

        def bwd(g):
            return (g / a.data,)

        return Tensor._from_op(out_data, (a,), "log", bwd)

    def sqrt(self):
        a = self
        out_data = np.sqrt(a.data)

        def bwd(g):
            return (g * 0.5 / out_data,)

        return Tensor._from_op(out_data, (a,), "sqrt", bwd)

    def tanh(self):
        a = self
        out_data = np.tanh(a.data)

        def bwd(g):
            return (g * (1.0 - out_data * out_data),)

        return Tensor._from_op(out_data, (a,), "tanh", bwd)

    def sigmoid(self):
        a = self
        out_data = 1.0 / (1.0 + np.exp(-a.data))

        def bwd(g):
            return (g * out_data * (1.0 - out_data),)

        return Tensor._from_op(out_data, (a,), "sigmoid", bwd)

    def relu(self):
        a = self
        mask = a.data > 0.0
        out_data = np.where(mask, a.data, 0.0)

        def bwd(g):
            return (g * mask,)

        return Tensor._from_op(out_data, (a,), "relu", bwd)

    def abs(self):
        a = self
        out_data = np.abs(a.data)

        def bwd(g):
            return (g * np.sign(a.data),)

        return Tensor._from_op(out_data, (a,), "abs", bwd)

    def clip(self, lo: float, hi: float):
        """Clamp to [lo, hi]; gradient is 1 inside the bounds, 0 outside."""
        a = self
        inside = (a.data >= lo) & (a.data <= hi)
        out_data = np.clip(a.data, lo, hi)

        def bwd(g):
            return (g * inside,)

        return Tensor._from_op(out_data, (a,), "clip", bwd)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False):
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, a.shape).copy(),)

        return Tensor._from_op(out_data, (a,), "sum", bwd)

    def mean(self, axis: int | None = None, keepdims: bool = False):
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        out_data = a.data.reshape(shape)

        def bwd(g):
            return (g.reshape(a.shape),)

        return Tensor._from_op(out_data, (a,), "reshape", bwd)

    def transpose(self, axes: Sequence[int]):
        a = self
        axes = tuple(axes)
        out_data = np.transpose(a.data, axes)
        inv = tuple(np.argsort(axes))

        def bwd(g):
            return (np.transpose(g, inv),)

        return Tensor._from_op(out_data, (a,), "transpose", bwd)

    def swap_last_two(self):
        axes = tuple(range(self.ndim - 2)) + (self.ndim - 1, self.ndim - 2)
        return self.transpose(axes)

    def broadcast_to(self, shape: Sequence[int]):
        a = self
        shape = tuple(shape)
        out_data = np.broadcast_to(a.data, shape).copy()

        def bwd(g):
            return (_unbroadcast(g, a.shape),)

        return Tensor._from_op(out_data, (a,), "broadcast", bwd)

    def __getitem__(self, key):
        a = self
        out_data = a.data[key]
        basic = _is_basic_key(key)

        def bwd(g):
            gx = np.zeros_like(a.data)
            if basic:
                gx[key] = g
            else:
                np.add.at(gx, key, g)
            return (gx,)

        return Tensor._from_op(out_data, (a,), "slice", bwd)

    # -- autodiff entry point -------------------------------------------------

    def backward(self) -> None:
        backward(self)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def cast(x: Tensor, dtype=None) -> Tensor:
    """``x`` at ``dtype`` (the :func:`precision` policy's by default).

    Returns ``x`` itself when it already has that dtype; otherwise one node
    tagged ``cast`` whose backward returns the gradient at ``x``'s dtype.
    """
    x = as_tensor(x)
    dtype = _DTYPE if dtype is None else dtype
    src = x.dtype
    if src == dtype:
        return x

    def bwd(g):
        return (g.astype(src),)

    return Tensor._from_op(x.data.astype(dtype), (x,), "cast", bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy-style broadcasting of leading batch axes.

    Both operands must have at least 2 dimensions; the last two are the
    matrix axes and leading axes broadcast.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(
            f"matmul requires operands with ndim >= 2, got shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(
            f"matmul: inner dimensions disagree between shapes {a.shape} and {b.shape}")

    if b.ndim == 2:
        # Weight product: collapse the batch axes into one GEMM instead of
        # looping stacked matrix products, in both directions.
        k, n = b.shape
        a2 = a.data.reshape(-1, k)
        out_data = (a2 @ b.data).reshape(a.shape[:-1] + (n,))

        def bwd(g):
            g2 = g.reshape(-1, n)
            return ((g2 @ b.data.T).reshape(a.shape) if a.requires_grad else None,
                    a2.T @ g2 if b.requires_grad else None)

        return Tensor._from_op(out_data, (a, b), "matmul", bwd)

    try:
        out_data = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ValueError(
            f"matmul: cannot broadcast batch dimensions of shapes {a.shape} and {b.shape}"
        ) from exc

    def bwd(g):
        return (_unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
                if a.requires_grad else None,
                _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
                if b.requires_grad else None)

    return Tensor._from_op(out_data, (a, b), "matmul", bwd)


def softmax(x: Tensor, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """Stable softmax along `axis` with sharpening temperature.

    Logits are divided by `temperature` (must be positive) and shifted by
    their max before exponentiation, so any finite input yields rows that
    sum to one.
    """
    if temperature <= 0.0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    x = as_tensor(x)
    z = x.data / temperature
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - inner) / temperature,)

    return Tensor._from_op(out_data, (x,), "softmax", bwd)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    """x where x >= 0, slope * x elsewhere."""
    x = as_tensor(x)
    mask = x.data >= 0.0
    out_data = np.where(mask, x.data, slope * x.data)

    def bwd(g):
        return (g * np.where(mask, 1.0, slope),)

    return Tensor._from_op(out_data, (x,), "leaky_relu", bwd)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; the larger operand receives the gradient (ties go to `a`)."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data >= b.data
    out_data = np.where(take_a, a.data, b.data)

    def bwd(g):
        return (_unbroadcast(g * take_a, a.shape) if a.requires_grad else None,
                _unbroadcast(g * ~take_a, b.shape) if b.requires_grad else None)

    return Tensor._from_op(out_data, (a, b), "maximum", bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def bwd(g):
        return np.split(g, splits, axis=axis)

    return Tensor._from_op(out_data, tuple(tensors), "concat", bwd)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-p) in training, identity in eval."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {p}")
    x = as_tensor(x)
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss; the one place gradients are summed.

    Leaves that require grad add in place into their own ``.grad``, so
    repeated calls without ``zero_grad`` add up.  An interior gradient lives
    in a local table until its node's backward has run, so an interior
    tensor's ``.grad`` stays ``None``.  Its first contribution is kept by
    reference and each later one makes a fresh sum, so a buffer an op hands
    to two parents is never written.  Raises unless the loss is a scalar.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")

    # Iterative topological sort; graphs routinely exceed the recursion limit.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited and parent._backward is not None:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {}

    def add(t: Tensor, g: np.ndarray) -> None:
        if t._backward is None:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += g
        else:
            prev = grads.get(id(t))
            grads[id(t)] = g if prev is None else prev + g

    add(loss, np.ones_like(loss.data))
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is not None and parent.requires_grad:
                add(parent, pg)


class Parameter(Tensor):
    """A named leaf tensor the optimizer updates; gradient buffer allocated eagerly."""

    __slots__ = ("name",)

    def __init__(self, name: str, value: np.ndarray):
        super().__init__(np.array(value, dtype=np.float64), requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


class ParameterBag:
    """Ordered parameter registry enforcing unique names within a model."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def register(self, name: str, value: np.ndarray) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name!r}")
        p = Parameter(name, value)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self) -> Iterable[Parameter]:
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params.keys())

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    def state(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self._params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Copy every parameter from ``state``, which must hold exactly the
        bag's names and shapes; on any mismatch it raises and loads nothing."""
        for name, p in self._params.items():
            if name not in state:
                raise KeyError(f"checkpoint is missing parameter {name!r}")
            if state[name].shape != p.data.shape:
                raise ValueError(
                    f"parameter {name!r}: checkpoint shape {state[name].shape} "
                    f"does not match model shape {p.data.shape}")
        stale = [name for name in state if name not in self._params]
        if stale:
            raise ValueError(f"checkpoint has entries with no model parameter: {stale}")
        for name, p in self._params.items():
            p.data = np.array(state[name], dtype=np.float64)
            p.grad = np.zeros_like(p.data)


def uniform_init(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform(-k, k) with k = 1/sqrt(fan_in), the usual recurrent-net default."""
    k = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-k, k, size=shape)
