"""One workload process, started by run.py.

Modes:

* ``setup``: import, build the inputs from the seed, warm up one op of each
  kind (not the CLI calls that start a child process), print ``ready`` and
  exit.  run.py times the span from starting the
  interpreter to ``ready``.
* ``run``: the same set-up, then the timed phase: whole rounds of the
  workload's ops, closed loop, until ``--seconds`` have passed (at least two
  rounds, so that every op is repeated and compared).  The outputs are
  checked after the phase and one JSON line reports the figures: the
  median over the round's ops of each op's slow-level time (see
  ``slow_level``), and the ops of one round over the slow-level round time.
* ``trace``: ``run`` with spans around every public function of the
  package (see spans.py); the spans are written to ``--out``.
* ``probe``: time ``import enlargekit.cli`` in this fresh interpreter and
  the extra cost of the first graph-sampling call (its lazy imports).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

MIN_ROUNDS = 2


class CapturedStdout:
    """Installed as sys.stdout before the program is imported: the CLI binds
    its output stream at import, and an in-process call swaps ``target`` to
    capture the envelope."""

    def __init__(self, target):
        self.target = target

    def write(self, text):
        return self.target.write(text)

    def flush(self):
        self.target.flush()


def probe():
    clock = time.perf_counter
    t0 = clock()
    import enlargekit.cli  # noqa: F401
    t1 = clock()
    import numpy as np
    from enlargekit import operators as ops
    op = ops.LinearMapOp(np.eye(2))
    t2 = clock()
    ops.sample_graph(op, 10, 1.0, 0)
    t3 = clock()
    ops.sample_graph(op, 10, 1.0, 0)
    t4 = clock()
    return {"import_s": t1 - t0, "lazy_import_s": (t3 - t2) - (t4 - t3)}


def slow_level(samples):
    """On the shared 2-CPU host of the reference figures (README.md), the
    same code ran up to 1.7x faster at random moments, a second or a few
    long, on a share of the time that changed from minute to minute.  The fastest repeat depends on
    whether a run met such a moment, the median on how much of the run they
    covered; the upper decile stays at the host's floor speed."""
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def timed_phase(ops_, seconds, tracer):
    """Whole rounds until ``seconds`` have passed.  Returns each op's time
    per round (``times[r][i]``), each round's wall time, the first round's
    summaries and the first mismatch of a repeat against them."""
    clock = time.perf_counter
    times, round_s, first, mismatch = [], [], [], None
    start = clock()
    while True:
        r, row, r0 = len(times), [], clock()
        for i, op in enumerate(ops_):
            if tracer is not None:
                tracer.request = r * len(ops_) + i
                tracer.active = True
            t0 = clock()
            out = op.call()
            row.append(clock() - t0)
            if tracer is not None:
                tracer.active = False
            s = op.summary(out)
            if r == 0:
                first.append(s)
            elif s != first[i] and mismatch is None:
                mismatch = f"op {i} ({op.kind}) gave a different output in round {r + 1}"
        times.append(row)
        round_s.append(clock() - r0)
        if len(times) >= MIN_ROUNDS and clock() - start >= seconds:
            return times, round_s, first, mismatch


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace", "probe"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    parser.add_argument("--in-process", action="store_true",
                        help="cli workload: call cli.main instead of starting processes")
    args = parser.parse_args()
    protocol = sys.stdout
    if args.mode == "probe":
        print(json.dumps(probe()), file=protocol, flush=True)
        return 0
    sys.stdout = CapturedStdout(protocol)
    in_process = args.in_process or args.mode == "trace"
    import workloads

    workdir = os.path.join(args.out, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops_ = workloads.build(args.workload, args.seed, workdir, in_process)
        kinds = set()
        for op in ops_:
            if op.warm_up and op.kind not in kinds:
                kinds.add(op.kind)
                op.call()
        print("ready", file=protocol, flush=True)
        if args.mode == "setup":
            return 0
        tracer = None
        if args.mode == "trace":
            import spans
            tracer = spans.Tracer()
            tracer.install()
        times, round_s, first, mismatch = timed_phase(ops_, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [op.check(s) for op, s in zip(ops_, first)]
    for p in problems:
        if p is not None:
            print(f"{p[0]}: {p[1]}", file=sys.stderr)
    if mismatch:
        print(f"wrong: {mismatch}", file=sys.stderr)
    wrong = mismatch is not None or any(p is not None and p[0] == workloads.WRONG for p in problems)
    failed = sum(p is not None and p[0] == workloads.FAILED for p in problems)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" and not in_process else resource.RUSAGE_SELF
    rounds = len(times)
    result = {
        "correct": not wrong,
        "attempted": len(ops_) * rounds,
        "failed": failed * rounds,
        "rounds": rounds,
        "ops_per_s": len(ops_) / slow_level(round_s),
        "p50_ms": 1e3 * statistics.median(slow_level(col) for col in zip(*times)),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans, rounds)
        tracer.dump(os.path.join(args.out, f"spans-{args.workload}-{args.seed}.tsv.gz"))
    print(json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
