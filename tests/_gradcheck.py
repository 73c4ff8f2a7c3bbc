"""Finite-difference gradient checking, and the float64 reference temporal
encoder it needs, shared by the unit and acceptance tests."""

from __future__ import annotations

import numpy as np

from crisp.autodiff import Tensor


def set_encoder_dtype(target, dtype=np.float64):
    """Run the temporal encoder of ``target`` (a ``CrispModel`` or a
    ``TemporalEncoder``) at ``dtype`` and return ``target``.

    float64 makes it the reference that finite differences and composed-op
    comparisons need: every cast in it is then the identity.
    """
    getattr(target, "temporal", target).dtype = dtype
    return target


# Coordinates where analytic and numeric are both below this are treated as
# matching zeros; relative error is meaningless there.
ZERO_FLOOR = 1e-7


def central_diff(fn, arrays: list[np.ndarray], which: int, index: tuple,
                 eps: float = 1e-6) -> float:
    """d fn / d arrays[which][index] by central differences."""
    flatidx = index
    saved = arrays[which][flatidx]
    arrays[which][flatidx] = saved + eps
    up = fn(arrays)
    arrays[which][flatidx] = saved - eps
    down = fn(arrays)
    arrays[which][flatidx] = saved
    return (up - down) / (2.0 * eps)


def max_rel_error(build, shapes: list[tuple], rng: np.random.Generator,
                  eps: float = 1e-6, scale: float = 1.0,
                  sample: int | None = None) -> float:
    """Worst relative error between backprop and finite differences.

    ``build`` maps a list of numpy arrays to a scalar loss Tensor (it is
    called fresh for every probe so mutations are visible).  ``sample`` caps
    probed coordinates per input; None probes all of them.
    """
    arrays = [scale * rng.standard_normal(s) for s in shapes]

    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build([t for t in tensors])
    loss.backward()

    def value(arrs):
        return float(build([Tensor(a) for a in arrs]).data)

    worst = 0.0
    for which, t in enumerate(tensors):
        grad = t.grad
        assert grad is not None, f"input {which} received no gradient"
        coords = list(np.ndindex(*arrays[which].shape))
        if sample is not None and len(coords) > sample:
            picks = rng.choice(len(coords), size=sample, replace=False)
            coords = [coords[int(i)] for i in picks]
        for idx in coords:
            num = central_diff(value, arrays, which, idx, eps)
            ana = float(grad[idx])
            if abs(num) < ZERO_FLOOR and abs(ana) < ZERO_FLOOR:
                continue
            worst = max(worst, abs(num - ana) / max(abs(num), abs(ana)))
    return worst
