"""Dense tensors with reverse-mode automatic differentiation.

Every learnable layer in the pipeline is built from the operations in this
module.  A ``Tensor`` wraps a numpy array plus an optional gradient buffer;
an op's result also gets a graph entry, a node whose backpropagation
closure returns one gradient per parent.
Calling :func:`backward` on a scalar loss walks the graph in reverse
topological order and sums those gradients; it is the only code that does.
A learnable weight is a :class:`Parameter`, a leaf ``Tensor`` with a name
(``spatial.w1``, ``gat.w``, ...); layers use it directly as an operand, and
a model's :class:`ParameterBag` keeps them in one flat namespace.

Design notes:

* float64 by default.  Parameters, their gradients, optimizer state and
  every loss stay float64, which keeps finite-difference checks
  noise-free.  A layer may compute at a lower dtype of its own: it passes
  its inputs and each weight it reads through :func:`cast` once per
  forward and casts its output back to float64 (float64 master weights,
  as in Micikevicius et al., *Mixed Precision Training*,
  arXiv:1710.03740).  ``cast`` to the dtype a tensor already has returns
  it unchanged, so a float64 layer adds no node.  Only the temporal
  encoder does this, at a dtype it holds itself.
  Ops take their dtype from their operands.  A Python number takes the
  dtype of the tensor it combines with, as numpy's weak scalars do
  (NEP 50), so ``x * 0.5`` on a float32 ``x`` stays float32.
* What a node saves is exactly what its closure captures.  The node holds
  its parents' entries, its closure and its op tag, and no array; the
  closure captures the arrays, shapes, dtypes and ``requires_grad`` flags
  its formula reads, never a ``Tensor``.  A leaf that requires grad is its
  own entry, so ``Parameter.grad`` accumulates in place, and an operand
  that needs no gradient enters as one shared constant.  So an
  intermediate array lives only while its caller holds the tensor or a
  closure captured it, the rule of PyTorch's autograd (Paszke et al.,
  arXiv:1912.01703).  Under :func:`no_grad` no entry is built.
* Only leaves keep ``.grad``: parameters and user tensors created with
  ``requires_grad=True``.  Each interior gradient is freed as soon as its
  node's backward has run, so an interior tensor's ``.grad`` stays ``None``.
* :func:`backward` consumes the graph: each node drops its parents and its
  closure (with the arrays it saved) once its backward has run, so a
  second call on the same graph raises.  Leaf gradients accumulate across
  backward calls on fresh graphs; call :meth:`Tensor.zero_grad` (or
  ``Model.zero_grads``) between steps.  Where the C library has
  ``mallopt`` (glibc), backward fixes its thresholds so the heap it frees
  stays in the process for the next step.
* ``clip`` passes gradient 1 inside the bounds and 0 outside.
* Dropout uses inverted scaling at train time so eval mode is the identity.
"""

from __future__ import annotations

import contextlib
import ctypes
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
    "matmul",
    "maximum",
    "no_grad",
    "softmax",
]

_GRAD_ENABLED = True
_FLOAT32 = np.dtype(np.float32)
# glibc's mallopt parameters (malloc.h) and the values backward sets: an
# mmap threshold at the most glibc's adaptive one reaches, and a trim
# threshold above a training step's heap
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 1 << 30


def _find_mallopt():
    """The C library's ``mallopt``, or None where it has none."""
    try:
        return ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None


_MALLOPT = _find_mallopt()


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


def _is_basic_key(key) -> bool:
    """True for int/slice indexing, where positions cannot repeat."""
    items = key if isinstance(key, tuple) else (key,)
    return all(isinstance(k, (int, np.integer, slice, type(None), type(Ellipsis)))
               for k in items)


def _operand(value, like: "Tensor") -> "Tensor":
    """``value`` as a Tensor; a Python number gets ``like``'s dtype."""
    if isinstance(value, (int, float)):
        return Tensor(np.asarray(value, dtype=like.dtype))
    return as_tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` over axes that numpy broadcasting introduced or stretched."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class _Node:
    """A result's graph entry: its parents' entries, closure and op tag.

    It holds no array; whatever its backward reads, the closure captured.
    """

    __slots__ = ("_parents", "_backward", "op")
    requires_grad = True

    def __init__(self, parents: tuple, backward: Callable[[np.ndarray], Sequence], op: str):
        self._parents = parents
        self._backward = backward
        self.op = op


class Tensor:
    """A dense array node in a reverse-mode autodiff graph.

    Data is float32 when given native float32 and float64 otherwise
    (Python numbers, integer and boolean arrays included).  An op's result
    reaches the graph through its ``_Node``; ``_parents``, ``_backward`` and
    ``op`` read that entry.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        if getattr(data, "dtype", None) is _FLOAT32:
            self.data = np.asarray(data)
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple["Tensor", ...], op: str,
                 backward: Callable[[np.ndarray], Sequence]) -> "Tensor":
        """Wrap an op's output; it joins the graph if any parent requires grad.

        ``backward`` maps the output's gradient to one gradient per parent,
        in ``parents`` order (``None`` for a parent that needs none), and
        neither writes a ``.grad`` nor mutates its argument.  It captures
        the arrays, shapes, dtypes and flags it reads, never a ``Tensor``:
        the graph keeps exactly what the closures captured.
        """
        out = cls(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._node = _Node(tuple(map(_entry, parents)), backward, op)
        return out

    # -- bookkeeping ----------------------------------------------------------

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward(self) -> Callable[[np.ndarray], Sequence] | None:
        return None if self._node is None else self._node._backward

    @property
    def op(self) -> str:
        return "leaf" if self._node is None else self._node.op

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

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        a, b = self, _operand(other, self)
        out_data = a.data + b.data
        sa = a.shape if a.requires_grad else None
        sb = b.shape if b.requires_grad else None

        def bwd(g):
            return (None if sa is None else _unbroadcast(g, sa),
                    None if sb is None else _unbroadcast(g, sb))

        return Tensor._from_op(out_data, (a, b), "add", bwd)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, _operand(other, self)
        out_data = a.data - b.data
        sa = a.shape if a.requires_grad else None
        sb = b.shape if b.requires_grad else None

        def bwd(g):
            return (None if sa is None else _unbroadcast(g, sa),
                    None if sb is None else _unbroadcast(-g, sb))

        return Tensor._from_op(out_data, (a, b), "sub", bwd)

    def __rsub__(self, other):
        return _operand(other, self) - self

    def __mul__(self, other):
        a, b = self, _operand(other, self)
        out_data = a.data * b.data
        sa, sb = a.shape, b.shape
        # each factor is kept only for the other's gradient
        ad = a.data if b.requires_grad else None
        bd = b.data if a.requires_grad else None

        def bwd(g):
            return (None if bd is None else _unbroadcast(g * bd, sa),
                    None if ad is None else _unbroadcast(g * ad, sb))

        return Tensor._from_op(out_data, (a, b), "mul", bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, _operand(other, self)
        out_data = a.data / b.data
        sa, sb, bd = a.shape, b.shape, b.data
        ra = a.requires_grad
        ad = a.data if b.requires_grad else None

        def bwd(g):
            return (_unbroadcast(g / bd, sa) if ra else None,
                    None if ad is None else _unbroadcast(-g * ad / (bd * bd), sb))

        return Tensor._from_op(out_data, (a, b), "div", bwd)

    def __neg__(self):
        a = self
        out_data = -a.data

        def bwd(g):
            return (-g,)

        return Tensor._from_op(out_data, (a,), "neg", bwd)

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
        ad = a.data

        def bwd(g):
            return (g / ad,)

        return Tensor._from_op(out_data, (a,), "log", bwd)

    def sqrt(self):
        a = self
        out_data = np.sqrt(a.data)

        def bwd(g):
            return (g * 0.5 / out_data,)

        return Tensor._from_op(out_data, (a,), "sqrt", bwd)

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
        ad = a.data

        def bwd(g):
            return (g * np.sign(ad),)

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
        shape = a.shape

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor._from_op(out_data, (a,), "sum", bwd)

    def mean(self, axis: int | None = None, keepdims: bool = False):
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape):
        a = self
        out_data = a.data.reshape(shape)
        in_shape = a.shape

        def bwd(g):
            return (g.reshape(in_shape),)

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

    def __getitem__(self, key):
        a = self
        out_data = a.data[key]
        basic = _is_basic_key(key)
        shape, dtype = a.shape, a.dtype

        def bwd(g):
            gx = np.zeros(shape, dtype)
            if basic:
                gx[key] = g
            else:
                np.add.at(gx, key, g)
            return (gx,)

        return Tensor._from_op(out_data, (a,), "slice", bwd)

    # -- autodiff entry point -------------------------------------------------

    def backward(self) -> None:
        backward(self)


# the graph entry of every operand that needs no gradient: a leaf holding no
# array of its operand, which backward skips
_CONSTANT = Tensor(0.0)


def _entry(t: Tensor):
    """``t``'s graph entry: its node, itself for a leaf that needs a gradient."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else _CONSTANT


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def cast(x: Tensor, dtype) -> Tensor:
    """``x`` at ``dtype``.

    Returns ``x`` itself when it already has that dtype; otherwise one node
    tagged ``cast`` whose backward returns the gradient at ``x``'s dtype.
    """
    x = as_tensor(x)
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
    sa, sb = a.shape, b.shape

    if b.ndim == 2:
        # Weight product: collapse the batch axes into one GEMM instead of
        # looping stacked matrix products, in both directions.
        k, n = sb
        a2 = a.data.reshape(-1, k)
        out_data = (a2 @ b.data).reshape(sa[:-1] + (n,))
        x = a2 if b.requires_grad else None
        w = b.data if a.requires_grad else None

        def bwd(g):
            g2 = g.reshape(-1, n)
            return (None if w is None else (g2 @ w.T).reshape(sa),
                    None if x is None else x.T @ g2)

        return Tensor._from_op(out_data, (a, b), "matmul", bwd)

    try:
        out_data = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ValueError(
            f"matmul: cannot broadcast batch dimensions of shapes {a.shape} and {b.shape}"
        ) from exc
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def bwd(g):
        return (None if bd is None
                else _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), sa),
                None if ad is None
                else _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), sb))

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


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; the larger operand receives the gradient (ties go to `a`)."""
    a = as_tensor(a)
    b = _operand(b, a)
    take_a = a.data >= b.data
    out_data = np.where(take_a, a.data, b.data)
    sa = a.shape if a.requires_grad else None
    sb = b.shape if b.requires_grad else None

    def bwd(g):
        return (None if sa is None else _unbroadcast(g * take_a, sa),
                None if sb is None else _unbroadcast(g * ~take_a, sb))

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
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    x = as_tensor(x)
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask.astype(x.dtype, copy=False))


def _consumed(g):
    raise RuntimeError("this graph was already consumed by backward")


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss; the one place gradients are summed.

    Leaves that require grad add in place into their own ``.grad``, so
    calls on fresh graphs without ``zero_grad`` add up.  An interior
    gradient lives in a local table until its node's backward has run, so
    an interior tensor's ``.grad`` stays ``None``.  Its first contribution
    is kept by reference and each later one makes a fresh sum, so a buffer
    an op hands to two parents is never written.  Once a node's backward
    has run, the node drops its closure and its parents, so the arrays
    only that closure captured are freed while backward goes on; the nodes
    still to run stay referenced from the topological order, which keeps
    the id-keyed table valid.  Calling it again on the consumed graph
    raises ``RuntimeError``.  Raises ``ValueError`` unless the loss is a
    scalar.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    root = loss if loss._node is None else loss._node

    # Iterative topological sort; graphs routinely exceed the recursion limit.
    order: list[_Node] = []
    visited: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
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

    def add(entry, g: np.ndarray) -> None:
        if entry._backward is None:         # a leaf tensor
            if entry.grad is None:
                entry.grad = np.zeros_like(entry.data)
            entry.grad += g
        else:
            prev = grads.get(id(entry))
            grads[id(entry)] = g if prev is None else prev + g

    def run(node: _Node) -> None:
        g = grads.pop(id(node), None)
        parents, bwd = node._parents, node._backward
        node._parents, node._backward = (), _consumed
        if g is not None:
            for parent, pg in zip(parents, bwd(g)):
                if pg is not None and parent.requires_grad:
                    add(parent, pg)

    add(root, np.ones_like(loss.data))
    if root._backward is None:      # a leaf loss: nothing to run or consume
        return
    if _MALLOPT is not None:
        # the graph is freed as backward goes, so a step ends with the heap
        # top free; glibc's adaptive thresholds return it to the OS, and the
        # next forward faults it back in page by page.  Fixed thresholds
        # keep it for reuse
        _MALLOPT(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        _MALLOPT(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    while order:
        run(order.pop())


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
