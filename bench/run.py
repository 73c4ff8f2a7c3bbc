"""Benchmark command for crisp: train, walkforward and baselines workloads.

    python3 bench/run.py --workload train --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of one workload; ``--trace 1``
wraps crisp's public callables, prints the per-layer metrics and writes the
spans under ``.bench_out/``.  ``--smoke`` runs every workload once at toy
sizes.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("train", "walkforward", "baselines")
# set-up runs at least SETUP_REPEATS times, and more while it has taken
# under SETUP_SECONDS, so a millisecond set-up still yields a steady median
SETUP_REPEATS = 5
SETUP_SECONDS = 0.5
SETUP_MAX_REPEATS = 50
BLAS_THREADS = 1

# per-layer self time, seconds per workload operation (training step or
# rebalance), read from the span of that name
RUN_LAYERS = {
    "temporal.bilstm_s": "temporal.bilstm",
    "temporal.attention_s": "temporal.attention",
    "spatial.gcn_s": "spatial.gcn",
    "graphattn.gat_s": "graphattn.gat",
    "allocation.head_s": "allocation.head",
    "allocation.project_tensor_s": "allocation.project_tensor",
    "model.forward_s": "model.forward",
    "model.eval_forward_s": "model.eval_forward",
    "objectives.loss_s": "objectives.loss",
    "autodiff.backward_s": "autodiff.backward",
    "training.clip_s": "training.clip",
    "training.adam_s": "training.adam",
    "features.compute_s": "features.compute",
    "features.normalize_s": "features.normalize",
    "data.padded_inputs_s": "data.padded_inputs",
    "graphattn.record_s": "graphattn.record",
    "objectives.metrics_s": "objectives.metrics",
    "backtest.engine_self_s": "backtest.engine",
    "model.allocate_s": "model.allocate",
    "allocation.project_s": "allocation.project",
    "backtest.mv_weight_s": "backtest.mv_weight",
    "backtest.rp_weight_s": "backtest.rp_weight",
}
# per-layer self time, seconds per set-up
SETUP_LAYERS = {
    "data.generate_s": "data.generate",
    "data.load_csv_s": "data.load_csv",
    "data.make_windows_s": "data.make_windows",
    "features.attach_s": "features.attach",
    "training.save_checkpoint_s": "training.save_checkpoint",
    "training.load_checkpoint_s": "training.load_checkpoint",
}
# autodiff op tags of one training step's graph
OP_TAGS = ("abs", "add", "broadcast", "clip", "concat", "div", "exp", "gather",
           "leaky_relu", "log", "matmul", "maximum", "mul", "neg", "relu", "reshape",
           "sigmoid", "slice", "softmax", "sqrt", "sub", "sum", "tanh", "transpose")


def _cap_threads() -> None:
    """One BLAS thread, set before numpy loads.

    The model's matmuls are small, and on a shared two-core machine a
    two-thread pool stalls whenever either core is busy elsewhere: step
    medians spread about twice as far between runs as with one thread.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_program():
    src = ROOT / "src"
    if not (src / "crisp" / "__init__.py").is_file():
        sys.exit(f"crisp sources not found under {src}")
    sys.path.insert(0, str(src))


def _timed_rounds(wl, state, seconds: float, tracer=None) -> list:
    """Whole rounds until another round of the last one's length would overrun."""
    rounds = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        rounds.append(wl.run_round(state, tracer))
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return rounds


def _make(name: str, smoke: bool):
    import workloads
    if name == "train":
        return workloads.Train(smoke)
    if name == "walkforward":
        return workloads.Walkforward(smoke, str(OUT))
    return workloads.Baselines(smoke)


def run_untraced(name: str, seed: int, seconds: float, smoke: bool, log) -> dict:
    wl = _make(name, smoke)
    setup_s = []
    while len(setup_s) < (1 if smoke else SETUP_REPEATS) or (
            sum(setup_s) < SETUP_SECONDS and len(setup_s) < SETUP_MAX_REPEATS):
        t0 = perf_counter()
        state = wl.setup(seed)
        setup_s.append(perf_counter() - t0)
    try:
        wl.prepare_op(state)()
        rounds = _timed_rounds(wl, state, seconds)
        peak = _peak_bytes(wl.prepare_op(state))
        wl.check(state, rounds, log)
    finally:
        wl.cleanup(state)
    latencies = [s for r in rounds for s in r.latencies]
    return {
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "ops_per_s": {"value": statistics.median(r.rate for r in rounds), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "peak_mb": {"value": peak / 1e6, "unit": "MB"},
        },
    }


def _peak_bytes(op) -> int:
    """tracemalloc peak of one operation, outside the timed rounds."""
    tracemalloc.start()
    try:
        op()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_traced(name: str, seed: int, seconds: float, smoke: bool, log) -> dict:
    """Untraced then traced rounds of ``name``, then one traced round of the rest.

    The traced rounds give the named workload's layers and, against the
    untraced ones, the tracing overhead.  Layers the named workload never
    enters are read from the one traced round of a workload that does, so
    every traced run reports every layer.
    """
    from tracer import Tracer

    wl = _make(name, smoke)
    state = wl.setup(seed)
    try:
        wl.prepare_op(state)()
        plain = _timed_rounds(wl, state, seconds / 2)
    finally:
        wl.cleanup(state)

    tracer = Tracer()
    order = [name] + [w for w in WORKLOADS if w != name]
    made = {w: (wl if w == name else _make(w, smoke)) for w in order}
    states: dict[str, dict] = {}
    rounds: dict[str, list] = {}
    tracer.install()
    try:
        for w in order:
            tracer.set_phase(f"{w}.setup")
            states[w] = made[w].setup(seed)
            tracer.set_phase(f"{w}.run")
            rounds[w] = (_timed_rounds(made[w], states[w], seconds / 2, tracer)
                         if w == name else [made[w].run_round(states[w], tracer)])
        tracer.uninstall()          # the checks run on the untouched program
        for w in order:
            made[w].check(states[w], rounds[w] + (plain if w == name else []), log)
    finally:
        tracer.uninstall()
        for w, st in states.items():
            made[w].cleanup(st)
    return _layer_report(tracer, order, seed, plain, rounds,
                         states["walkforward"]["checkpoint_bytes"])


def _layer_report(tracer, order, seed, plain, rounds, checkpoint_bytes) -> dict:
    name = order[0]
    ops = {w: sum(r.ops for r in rounds[w]) for w in order}
    per_phase = {w: (tracer.self_times(f"{w}.setup"), tracer.self_times(f"{w}.run"))
                 for w in order}

    def first(span: str, setup: bool):
        for w in order:
            totals, calls = per_phase[w][0 if setup else 1]
            if span in calls:
                return w, totals[span], calls[span]
        raise RuntimeError(f"no traced workload entered {span}")

    metrics: dict[str, dict] = {}
    sources: dict[str, str] = {}
    for metric, span in RUN_LAYERS.items():
        w, total, _ = first(span, setup=False)
        metrics[metric] = {"value": total / ops[w], "unit": "s"}
        sources[metric] = w
    for metric, span in SETUP_LAYERS.items():
        w, total, _ = first(span, setup=True)
        metrics[metric] = {"value": total, "unit": "s"}
        sources[metric] = w
    w, _, calls = first("allocation.project", setup=False)
    metrics["allocation.project_calls"] = {"value": calls / ops[w], "unit": "count"}

    w = next(w for w in order if tracer.node_counts.get(f"{w}.run"))
    steps = tracer.node_counts[f"{w}.run"]
    metrics["autodiff.graph_nodes"] = {
        "value": statistics.median(sum(c.values()) for c in steps), "unit": "count"}
    for tag in OP_TAGS:
        metrics[f"autodiff.nodes.{tag}"] = {
            "value": statistics.median(c.get(tag, 0) for c in steps), "unit": "count"}
    metrics["training.checkpoint_bytes"] = {"value": checkpoint_bytes, "unit": "bytes"}

    untraced = statistics.median(r.rate for r in plain)
    traced = statistics.median(r.rate for r in rounds[name])
    metrics["trace.overhead_pct"] = {"value": 100.0 * (untraced / traced - 1.0), "unit": "%"}

    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"trace_{name}_seed{seed}"), {
        "workload": name, "seed": seed, "metrics": metrics, "sources": sources,
        "overhead": {"untraced_rate": untraced, "traced_rate": traced,
                     "untraced_rounds": len(plain), "traced_rounds": len(rounds[name])},
        "node_counts": {ph: [dict(c) for c in cs] for ph, cs in tracer.node_counts.items()},
    })
    return {"attempted": sum(r.ops for r in plain) + sum(ops.values()),
            "failed": sum(r.failed for r in plain)
            + sum(r.failed for rs in rounds.values() for r in rs),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="train")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload once at toy sizes, traced and untraced")
    args = parser.parse_args(argv)

    _cap_threads()
    _import_program()
    from checks import CheckLog     # needs the program on sys.path

    OUT.mkdir(exist_ok=True)
    log = CheckLog()
    if args.smoke:
        plain = {w: run_untraced(w, args.seed, 0.0, True, log) for w in WORKLOADS}
        traced = run_traced(WORKLOADS[0], args.seed, 0.0, True, log)
        parts = [*plain.values(), traced]
        result = {
            "correct": log.correct,
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts),
            "metrics": traced["metrics"],
            "end_to_end": {w: p["metrics"] for w, p in plain.items()},
            "checks": log.summary(),
        }
    else:
        run = run_traced if args.trace else run_untraced
        part = run(args.workload, args.seed, args.seconds, False, log)
        result = {"correct": log.correct, **part}
    print(f"workload={args.workload} seed={args.seed} blas_threads={BLAS_THREADS} "
          f"checks={sum(log.passed.values())} passed, {sum(log.failed.values())} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
