"""Figures for the ROADMAP Baseline rows, from the benchmark's own inputs.

    python3 perfbench/baseline.py

Prints the median wall time of each row over three calls, with BLAS held at
one thread like every benchmark process.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPEATS = 3
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from enlargekit import certificates as cert  # noqa: E402
from enlargekit import fitzpatrick as fz  # noqa: E402
from enlargekit import operators as ops  # noqa: E402
import workloads  # noqa: E402


def timed(fn):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    ident = ops.LinearMapOp(np.eye(2))
    box = ops.NormalConeOp(ops.Box(-np.ones(2), np.ones(2)))
    poly = ops.Polytope(tuple(workloads.polytope_vertices()))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    probes = [json.loads(subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--mode", "probe"],
                                        capture_output=True, text=True, env=env, check=True).stdout)
              for _ in range(REPEATS)]
    rows = {
        "fitz_bruteforce identity R^2, count 10000 [s]":
            timed(lambda: fz.fitz_bruteforce(ident, np.array([1.0, 0.0]), np.array([0.0, 1.0]))),
        "sum_fitz_exactness(I, N_box), 100 points [s]":
            timed(lambda: cert.sum_fitz_exactness(ident, box, n_points=100)),
        "Polytope.project, 200 vertices, x = (0.999, 0) [s]":
            timed(lambda: poly.project(np.array([0.999, 0.0]))),
        "Polytope.project, 200 vertices, x = (0.5, 0) [s]":
            timed(lambda: poly.project(np.array([0.5, 0.0]))),
        "import enlargekit.cli, fresh interpreter [s]": statistics.median(p["import_s"] for p in probes),
        "first sample_graph call, lazy imports [s]": statistics.median(p["lazy_import_s"] for p in probes),
    }
    for name, value in rows.items():
        print(f"{value:10.4f}  {name}")


if __name__ == "__main__":
    main()
