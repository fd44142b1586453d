"""Command-line front end: classify / fitz / enlarge / sumcheck.

Operator spec files are strict JSON (UTF-8, no comments):

    {"space_dim": 2,
     "operator": {"kind": "linear_map", "matrix": [[0, -1], [1, 0]]}}

Operator kinds: linear_map {matrix}, linear_relation {graph_basis, rows
are R^(2n) vectors}, norm_subdiff {p}, normal_cone {set: ball|box|
polytope}, sum {terms: [...]}.  A sum of two linear terms is handled as
its sum relation, itself a linear relation, by every command.

Every command prints a single versioned JSON envelope to stdout; CSV side
outputs go to user-named paths only.  Exit codes: 0 ok, 1 input error,
2 hypothesis/precondition failure, 3 numerical anomaly.  :func:`main`
alone maps every exception to its exit code, with one ``error:`` line on
stderr and nothing on stdout.  Output is
byte-identical for identical (spec, flags, seed); ENLARGEKIT_SEED
overrides the default seed 0 (an explicit --seed wins).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import certificates as cert
from . import enlargement as enl
from . import operators as ops
from .fitzpatrick import fitz_bruteforce, fitz_closed_form, pairing
from .linalg import check_nonnegative

SUMCHECK_TOL = 1e-6
BRUTEFORCE_GAP_ADVISORY = 1e-3

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_ANOMALY = 3


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# spec parsing and serialization
# ---------------------------------------------------------------------------

def _parse_set(obj, n):
    kind = obj.get("kind")
    if kind == "ball":
        return ops.Ball(np.asarray(obj["center"], float), float(obj["radius"]))
    if kind == "box":
        return ops.Box(np.asarray(obj["lo"], float), np.asarray(obj["hi"], float))
    if kind == "polytope":
        return ops.Polytope(tuple(np.asarray(v, float) for v in obj["vertices"]))
    raise InputError(f"unknown set kind {kind!r}")


def _parse_operator(obj, n):
    kind = obj.get("kind")
    if kind == "linear_map":
        m = np.asarray(obj["matrix"], float)
        if m.shape != (n, n):
            raise InputError(f"matrix shape {m.shape} does not match space_dim {n}")
        return ops.LinearMapOp(m)
    if kind == "linear_relation":
        rows = np.asarray(obj["graph_basis"], float)
        if rows.ndim != 2 or rows.shape[1] != 2 * n:
            raise InputError("graph_basis rows must be vectors of length 2n")
        return ops.LinearRelationOp.from_graph_columns(rows.T, dim=n)
    if kind == "norm_subdiff":
        return ops.NormSubdiffOp(dim=n, p=float(obj["p"]))
    if kind == "normal_cone":
        s = _parse_set(obj["set"], n)
        if s.dim != n:
            raise InputError("set dimension does not match space_dim")
        return ops.NormalConeOp(s)
    if kind == "sum":
        terms = tuple(_parse_operator(t, n) for t in obj["terms"])
        return ops.SumOp(terms)
    raise InputError(f"unknown operator kind {kind!r}")


def load_spec(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw.decode("utf-8"))
        n = int(doc["space_dim"])
        op = _parse_operator(doc["operator"], n)
    except (OSError, KeyError, TypeError, ValueError) as exc:  # JSON and descriptor errors too
        raise InputError(f"cannot load operator spec {path}: {exc}") from exc
    return op, raw


def _digest(*blobs):
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
        h.update(b"\x00")
    return h.hexdigest()


def jsonify(value):
    """JSON-safe conversion: arrays to lists, non-finite floats to strings."""
    if isinstance(value, dict):
        return {k: jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isinf(v):
            return "+inf" if v > 0 else "-inf"
        return v
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def emit(command, digest, seed, tolerances, results):
    envelope = {
        "schema": "v1",
        "tool": f"enlargekit {__version__}",
        "command": command,
        "inputs_digest": digest,
        "seed": seed,
        "tolerances": tolerances,
        "results": jsonify(results),
    }
    sys.stdout.write(json.dumps(envelope, indent=2) + "\n")


def _parse_floats(text, expected, what):
    try:
        vals = [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad {what}: {exc}") from exc
    if len(vals) != expected:
        raise InputError(f"{what} needs {expected} comma-separated floats, "
                         f"got {len(vals)}")
    return np.asarray(vals)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _classification(op):
    report = ops.validate(op)
    res = {
        "monotone": report.monotone,
        "maximal": report.maximal,
        "symmetric": None,
        "skew": None,
        "non_enlargeable": None,
        "detail": report.detail,
    }
    lin = ops.linear_form(op)
    if lin is not None:
        res["symmetric"] = ops.is_symmetric(lin)
        res["skew"] = ops.is_skew(lin)
    if report.maximal:  # non-enlargeability is defined for maximal operators
        c = cert.non_enlargeable(op)
        res["non_enlargeable"] = c.verdict
        if c.witness is not None:
            res["witness"] = {"x": c.witness[0], "xs": c.witness[1]}
    return res


def cmd_classify(args):
    op, raw = load_spec(args.spec)
    results = _classification(op)
    tol = {"membership": enl.SLACK_TOL, "eigenvalue_slack": ops.MONOTONE_TOL}
    emit("classify", _digest(raw), args.seed, tol, results)
    return EXIT_OK if results["monotone"] else EXIT_PRECONDITION


# ---------------------------------------------------------------------------
# fitz
# ---------------------------------------------------------------------------

def cmd_fitz(args):
    count, radius = int(args.bruteforce[0]), float(args.bruteforce[1])
    if count <= 0 or not (math.isfinite(radius) and radius > 0):
        raise InputError("--bruteforce needs a positive count and a positive finite radius")
    op, raw = load_spec(args.spec)
    n = op.dim
    point = _parse_floats(args.point, 2 * n, "--point")
    x, xs = point[:n], point[n:]
    closed = fitz_closed_form(op, x, xs)
    brute = fitz_bruteforce(op, x, xs, count=count, radius=radius, seed=args.seed)
    anomaly = brute.diverging
    gap = None
    if closed is not None and math.isfinite(closed):
        gap = closed - brute.value
        anomaly = anomaly or gap > BRUTEFORCE_GAP_ADVISORY or gap < -1e-9
    results = {
        "point": {"x": x, "xs": xs},
        "pairing": pairing(x, xs),
        "closed_form": "n/a" if closed is None else closed,
        "bruteforce": brute.value,
        "bruteforce_best_pair": {"x": brute.best_pair[0], "xs": brute.best_pair[1]},
        "gap": gap if gap is not None else "n/a",
        "divergence_suspected": brute.diverging,
        "radius_trend": [{"radius": r, "sup": s} for r, s in brute.trend],
        "anomaly": anomaly,
    }
    tol = {"membership": enl.SLACK_TOL,
           "bruteforce_gap_advisory": BRUTEFORCE_GAP_ADVISORY}
    emit("fitz", _digest(raw), args.seed, tol, results)
    return EXIT_ANOMALY if anomaly else EXIT_OK


# ---------------------------------------------------------------------------
# enlarge
# ---------------------------------------------------------------------------

def _slice_operator(op):
    lin = ops.linear_form(op)
    if isinstance(lin, ops.LinearMapOp):
        return lin
    m = None if lin is None else ops.relation_as_map(lin)
    if m is None:
        raise InputError("--slice-at needs a single-valued linear operator")
    return m


def _write_boundary_csv(path, x, points):
    n = x.shape[0]
    header = ",".join([f"x{i + 1}" for i in range(n)] +
                      [f"xs{i + 1}" for i in range(n)])
    lines = [header]
    for p in points:
        lines.append(",".join(repr(float(v)) for v in list(x) + list(p)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_enlarge(args):
    check_nonnegative(args.eps, "--eps")
    op, raw = load_spec(args.spec)
    n = op.dim
    if (args.point is None) == (args.slice_at is None):
        raise InputError("exactly one of --point and --slice-at is required")
    tol = {"membership": enl.SLACK_TOL,
           "boundary_probe": 1e-6}
    if args.point is not None:
        point = _parse_floats(args.point, 2 * n, "--point")
        x, xs = point[:n], point[n:]
        v = enl.enl_member(op, x, xs, args.eps, seed=args.seed)
        results = {
            "mode": "membership",
            "eps": args.eps,
            "point": {"x": x, "xs": xs},
            "member": v.member,
            "fitz_value": v.fitz_value,
            "slack": v.slack,
            "method": v.method,
            "approximate": v.method == "bruteforce",
        }
        emit("enlarge", _digest(raw), args.seed, tol, results)
        return EXIT_OK
    x = _parse_floats(args.slice_at, n, "--slice-at")
    ell = enl.enl_slice_linear(_slice_operator(op), x, args.eps)
    results = {
        "mode": "slice",
        "eps": args.eps,
        "at": x,
        "center": ell.center,
        "form": ell.form,
        "level": ell.level,
        "carrier_basis": ell.carrier.basis,
        "carrier_dim": ell.carrier.dim,
        "semiaxes": ell.semiaxes(),
        "ball_radius": ell.ball_radius(),
    }
    if args.csv:
        points = ell.boundary_points(num=64, seed=args.seed)
        _write_boundary_csv(args.csv, x, points)
        results["csv"] = {"path": args.csv, "points": len(points)}
    emit("enlarge", _digest(raw), args.seed, tol, results)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sumcheck
# ---------------------------------------------------------------------------

def cmd_sumcheck(args):
    check_nonnegative(args.tol, "--tol")
    if args.points < 1:
        raise InputError("--points must be at least 1")
    op_a, raw_a = load_spec(args.spec_a)
    op_b, raw_b = load_spec(args.spec_b)
    if op_a.dim != op_b.dim:
        raise InputError("operand spaces differ")
    report = cert.sum_fitz_exactness(op_a, op_b, n_points=args.points, seed=args.seed)
    if report.skipped_points == report.points_tested:
        if report.maximality is False:  # an empty sum graph: a precondition fails
            raise ops.NotMaximalError(report.sum_op.validate().detail)
        print(f"error: no sampled point had a finite value ({report.skipped_points} "
              f"of {report.points_tested} skipped)", file=sys.stderr)
        return EXIT_ANOMALY
    non_enl = cert.non_enlargeable(report.sum_op).verdict if report.maximality else None
    worst_resid = max((w[2] for w in report.exactness_witnesses), default=0.0)
    results = {
        "mode": report.mode,
        "max_gap": report.max_gap,
        "points_tested": report.points_tested,
        "finite_points": len(report.exactness_witnesses),
        "skipped_points": report.skipped_points,
        "worst_witness_residual": worst_resid,
        "maximal": report.maximality,
        "hypothesis_ok": report.hypothesis_ok,
        "advisory": not report.hypothesis_ok,
        "non_enlargeable": non_enl,
        "notes": report.notes,
    }
    tol = {"membership": enl.SLACK_TOL, "sumcheck": args.tol,
           "witness_residual": 1e-8}
    emit("sumcheck", _digest(raw_a, raw_b), args.seed, tol, results)
    if report.max_gap > args.tol:
        return EXIT_ANOMALY
    return EXIT_OK if report.hypothesis_ok else EXIT_PRECONDITION


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _default_seed():
    env = os.environ.get("ENLARGEKIT_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise InputError(f"ENLARGEKIT_SEED must be an integer, got {env!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="enlargekit",
        description="Fitzpatrick functions and enlargements of monotone "
                    "operators on R^n")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="monotonicity, symmetry, skewness, "
                                        "non-enlargeability")
    p.add_argument("spec")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("fitz", help="closed-form vs sampled Fitzpatrick value")
    p.add_argument("spec")
    p.add_argument("--point", required=True,
                   help="2n comma-separated floats: x then xs")
    p.add_argument("--bruteforce", nargs=2, default=["10000", "10.0"],
                   metavar=("COUNT", "RADIUS"))
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_fitz)

    p = sub.add_parser("enlarge", help="enlargement membership or slice")
    p.add_argument("spec")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--point", help="2n comma-separated floats: x then xs")
    p.add_argument("--slice-at", dest="slice_at",
                   help="n comma-separated floats")
    p.add_argument("--csv", help="write slice boundary samples to this path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_enlarge)

    p = sub.add_parser("sumcheck", help="sum-theorem exactness and maximality")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--tol", type=float, default=SUMCHECK_TOL)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_sumcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except ops.NotMonotoneError as exc:
        print(f"error: operator not monotone: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ops.NotMaximalError, ops.UnsupportedOperatorError) as exc:
        # a precondition fails, or no implementation covers the operator
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:  # InputError and malformed descriptors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        # solver failures and results contradicting a theorem
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANOMALY


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
