"""Benchmark of enlargekit: one workload per run, from a fresh process.

    python3 perfbench/run.py --workload {exact,oracle,cones,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Every process started here holds BLAS at one thread.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of BENCHMARK.json with ``--trace
0``, its per-layer metrics with ``--trace 1``).

``--trace 0``: two set-up-only processes, the workload process, two more
set-up-only processes; ``setup_s`` is the median set-up time of the five.
The other metrics come from the workload's timed phase.

``--trace 1``: a probe process for the import costs, an untraced and a
traced run of the same phase (the CLI workload calls ``cli.main`` in
process for both), and the layer figures of the traced one.  Spans are
written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("exact", "oracle", "cones", "cli")
PROBE_SAMPLES = 3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("ENLARGEKIT_SEED", "PYTHONPATH")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    return env


class Runner:
    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, mode, in_process=False):
        """Start worker.py in ``mode``; return (seconds until it printed
        ``ready``, its result object or None)."""
        a = self.args
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
               "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
               "--out", OUT] + (["--in-process"] if in_process else [])
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env, cwd=ROOT, text=True)
        timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest = proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
            timer.cancel()
        if proc.returncode != 0 or ready.strip() != "ready":
            raise BenchError(f"worker ({mode}) exited {proc.returncode} before finishing")
        return setup, (json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None)

    def probe(self):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--mode", "probe"],
                              capture_output=True, text=True, env=self.env, cwd=ROOT,
                              timeout=max(self.deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            raise BenchError(f"import probe exited {proc.returncode}: {proc.stderr[-500:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(runner):
    """Set-up is timed in five fresh processes: two before the workload
    process, the workload process itself, two after it."""
    before = [runner.worker("setup")[0] for _ in range(2)]
    setup, res = runner.worker("run")
    after = [runner.worker("setup")[0] for _ in range(2)]
    metrics = {
        "setup_s": statistics.median(before + [setup] + after),
        "verdict_p50_ms": res["p50_ms"],
        "verdicts_per_s": res["ops_per_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return res["correct"], res["attempted"], res["failed"], metrics


def per_layer(runner):
    probes = [runner.probe() for _ in range(PROBE_SAMPLES)]
    _, plain = runner.worker("run", in_process=True)
    _, traced = runner.worker("trace")
    metrics = dict(traced["layers"])
    metrics.update({
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "cli.lazy_import_s": statistics.median(p["lazy_import_s"] for p in probes),
        "trace.untraced_per_s": plain["ops_per_s"],
        "trace.traced_per_s": traced["ops_per_s"],
        "trace.overhead_pct": 100.0 * (plain["ops_per_s"] / traced["ops_per_s"] - 1.0),
        "trace.verdicts": float(traced["attempted"]),
    })
    return (plain["correct"] and traced["correct"], plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"], metrics)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "enlargekit", "__init__.py")):
        print(f"error: no enlargekit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    runner = Runner(args)
    try:
        correct, attempted, failed, values = (per_layer if args.trace else end_to_end)(runner)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
