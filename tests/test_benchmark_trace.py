"""A traced benchmark run reports every per-layer metric the benchmark
declares.  The tracer wraps the program's functions by name and reports a
layer whose spans never opened as absent, so a renamed or bypassed
function shows up here as a missing metric rather than as a run without a
result line."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PER_LAYER = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


@pytest.mark.parametrize("workload", ["enum", "climb", "verify"])
def test_traced_run_names_every_per_layer_metric(workload, tmp_path):
    # spans go to ``.perfbench_out`` in the working directory
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    missing = [name for name in PER_LAYER if name not in result["metrics"]]
    assert missing == []
