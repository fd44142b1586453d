"""Steadiness check: two sets of runs of the same code, each run with its own
seed.

    python3 perfbench/steady.py [--workloads exact,oracle,cones,cli]

Two sets of ten runs per workload, seeds counting up from 1.  For every
end-to-end metric on every workload it prints each set's median and
quartiles, the spread (Q3 - Q1) / median against the metric's bound, and
how far the second set's median moved from the first in the worse
direction.  It also prints each set's share of failed operations, which
must be identical.  The raw results go to .perfbench-out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS, RUNS, FIRST_SEED = 2, 10, 1


def one_run(workload, seed, seconds):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    results = {w: [] for w in workloads}
    seed = FIRST_SEED
    for k in range(SETS):
        for w in workloads:
            runs, t0 = [], time.monotonic()
            for _ in range(RUNS):
                runs.append(one_run(w, seed, spec["run_seconds"]))
                seed += 1
            results[w].append(runs)
            print(f"set {k + 1} {w}: {RUNS} runs in {time.monotonic() - t0:.0f} s",
                  file=sys.stderr, flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench-out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh)

    ok = True
    for w in workloads:
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in results[w]]
        wrong = sum(not r["correct"] for s in results[w] for r in s)
        same = len(set(shares)) == 1
        ok &= wrong == 0 and same
        print(f"\n{w}: failed share per set {', '.join(f'{x:.6f}' for x in shares)}"
              f"{'' if same else '  DIFFERS'}; incorrect runs {wrong}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [quartiles([r["metrics"][name]["value"] for r in s]) for s in results[w]]
            cells = []
            for q1, med, q3 in stats:
                spread = (q3 - q1) / med
                within = spread <= bound
                ok &= within
                cells.append(f"{med:10.4g} [{q1:.4g}, {q3:.4g}] spread {spread:6.1%}{'' if within else ' !'}")
            first, last = stats[0][1], stats[1][1]
            worse = (last - first) / first if m["better"] == "lower" else (first - last) / first
            ok &= worse <= bound
            print(f"  {name:15s} bound {bound:4.0%} | " + " | ".join(cells)
                  + f" | shift {worse:+6.1%}{'' if worse <= bound else ' !'}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
