"""Smoke test of the benchmark: every declared metric is emitted, every check runs.

    python3 -m pytest bench/test_smoke.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import ALL_CHECKS  # noqa: E402


def test_smoke_emits_every_metric_and_runs_every_check():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    emitted = [result["metrics"], *result["end_to_end"].values()]
    assert set(result["end_to_end"]) == {w["name"] for w in spec["workloads"]}
    for metrics, section in zip(emitted, ["per_layer"] + ["end_to_end"] * 3):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert set(metrics) == set(declared), section
        for name, unit in declared.items():
            value = metrics[name]["value"]
            assert metrics[name]["unit"] == unit, name
            assert isinstance(value, (int, float)) and math.isfinite(value), name

    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["checks"]) == set(ALL_CHECKS)
    for name, tally in result["checks"].items():
        assert tally["passed"] >= 1 and tally["failed"] == 0, name


def test_refuses_to_run_without_program_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "train",
                           "--seconds", "1"], capture_output=True, text=True,
                          timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
