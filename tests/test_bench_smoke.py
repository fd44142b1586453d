"""The benchmark's traced mode runs end to end on the current source: a
change under ``src/`` that breaks a name the tracer wraps, or a check the
workloads make, fails here and not only in a benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["exact", "oracle", "cones", "cli"])
def test_a_short_traced_benchmark_round_is_correct(workload, tmp_path):
    # the benchmark runner's child environment: one BLAS thread, this source
    env = {k: v for k, v in os.environ.items() if k != "ENLARGEKIT_SEED"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--mode", "trace",
         "--workload", workload, "--seconds", "0.2", "--seed", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
