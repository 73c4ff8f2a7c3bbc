"""In-memory span tracer that wraps crisp's public callables from outside.

Each wrapper replaces a callable at the place its callers look it up (a
module global, a class attribute or a strategy's ``weight_fn``), so no file
under ``src/`` changes and untraced runs execute the program untouched.  A
span is (phase, name, start, end, parent); spans live in flat arrays and are
written out once, at the end of the run.  A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from crisp import allocation, autodiff, backtest, data, training
from crisp.allocation import AllocationHead
from crisp.autodiff import Tensor
from crisp.data import Universe
from crisp.features import FeatureNormalizer
from crisp.graphattn import AttentionRecord, GatLayer
from crisp.model import CrispModel
from crisp.spatial import SpatialEncoder
from crisp.temporal import TemporalEncoder


def _forward_name(tracer: "Tracer") -> str:
    # validation forwards run under no_grad; walk-forward forwards are the
    # same no-grad call but sit under model.allocate
    if autodiff.grad_enabled() or tracer.inside("model.allocate"):
        return "model.forward"
    return "model.eval_forward"


# (owner, attribute, span name): every boundary the benchmark times
_TARGETS = [
    (training, "train", "training.train"),
    (training, "loss_from_batch", "objectives.loss"),
    (training, "clip_gradients", "training.clip"),
    (training, "adam_step", "training.adam"),
    (training, "save_checkpoint", "training.save_checkpoint"),
    (training, "load_checkpoint", "training.load_checkpoint"),
    (CrispModel, "forward", _forward_name),
    (CrispModel, "allocate", "model.allocate"),
    (TemporalEncoder, "bilstm", "temporal.bilstm"),
    (TemporalEncoder, "self_attention", "temporal.attention"),
    (SpatialEncoder, "__call__", "spatial.gcn"),
    (GatLayer, "__call__", "graphattn.gat"),
    (AllocationHead, "__call__", "allocation.head"),
    (allocation, "project_constraints_tensor", "allocation.project_tensor"),
    (Tensor, "backward", "autodiff.backward"),
    (backtest, "run_backtest", "backtest.engine"),
    (backtest, "compute_features", "features.compute"),
    (backtest, "attach_features", "features.attach"),
    (backtest, "metrics", "objectives.metrics"),
    (backtest, "project_constraints", "allocation.project"),
    (FeatureNormalizer, "transform", "features.normalize"),
    (Universe, "padded_inputs", "data.padded_inputs"),
    (AttentionRecord, "from_alphas", "graphattn.record"),
    (data, "generate_synthetic", "data.generate"),
    (data, "load_csv", "data.load_csv"),
    (data, "make_windows", "data.make_windows"),
]


def graph_op_counts(loss: Tensor) -> Counter:
    """Count the operation nodes reachable from ``loss`` by their op tag."""
    counts: Counter = Counter()
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._backward is not None:
            counts[node.op] += 1
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return counts


class Tracer:
    """Collects spans per phase; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.phases: list[str] = []
        self._phase = -1
        self.span_phase = array("i")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self._open: list[str] = []
        self.node_counts: dict[str, list[Counter]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def set_phase(self, label: str) -> None:
        self.phases.append(label)
        self._phase = len(self.phases) - 1

    def inside(self, name: str) -> bool:
        return name in self._open

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.span_start)
        self.span_phase.append(self._phase)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._open.append(name)
        self.span_start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[idx] = perf_counter()
            self._stack.pop()
            self._open.pop()

    def _wrap(self, fn, name):
        tracer = self
        if name == "autodiff.backward":
            @functools.wraps(fn)
            def backward(loss):
                # counted before the span opens, so the walk is not layer time
                phase = tracer.phases[tracer._phase]
                tracer.node_counts.setdefault(phase, []).append(graph_op_counts(loss))
                return tracer.call(name, fn, loss)
            return backward
        if callable(name):
            @functools.wraps(fn)
            def dynamic(*args, **kwargs):
                return tracer.call(name(tracer), fn, *args, **kwargs)
            return dynamic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)
        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _TARGETS:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name))
            else:
                patched = self._wrap(raw, name)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def wrap_strategy(self, strategy, name: str) -> None:
        """Span around a strategy's weight rule, where run_backtest looks it up."""
        strategy.weight_fn = self._wrap(strategy.weight_fn, name)

    # -- analysis -------------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.span_phase, dtype=np.int32),
                np.frombuffer(self.span_name, dtype=np.int32),
                np.frombuffer(self.span_start, dtype=np.float64),
                np.frombuffer(self.span_end, dtype=np.float64),
                np.frombuffer(self.span_parent, dtype=np.int32))

    def self_times(self, phase: str) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: total self seconds and call count within one phase."""
        if phase not in self.phases:
            return {}, {}
        ph, name, start, end, parent = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        mask = ph == self.phases.index(phase)
        totals = np.bincount(name[mask], weights=own[mask], minlength=len(self.names))
        calls = np.bincount(name[mask], minlength=len(self.names))
        return ({n: float(totals[i]) for i, n in enumerate(self.names) if calls[i]},
                {n: int(calls[i]) for i, n in enumerate(self.names) if calls[i]})

    def write(self, stem: str, summary: dict) -> None:
        """Spans to ``<stem>.spans.npz``, metrics and counts to ``<stem>.json``."""
        ph, name, start, end, parent = self._arrays()
        np.savez_compressed(f"{stem}.spans.npz", phase=ph, name=name, start=start,
                            end=end, parent=parent, names=np.array(self.names),
                            phases=np.array(self.phases))
        with open(f"{stem}.json", "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
