"""The four workloads: inputs made from the seed, the operations the timed
phase runs, and the checks of their outputs.

Each builder returns a list of :class:`Op`.  One round runs every op once, in
order; a run repeats whole rounds on the same inputs.  An op's ``summary``
reduces the program's result to plain values: the first round's summaries
are checked against the references in :mod:`refs`, and every later round
must reproduce them exactly.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys

import numpy as np

import refs
from enlargekit import certificates as cert
from enlargekit import cli
from enlargekit import enlargement as enl
from enlargekit import fitzpatrick as fz
from enlargekit import operators as ops

WRONG, FAILED = "wrong", "failed"

# Oracle values are lower bounds that the polish should bring this close.
ORACLE_TOL = 1e-3
# Sum-theorem gap allowed by the cone workload (the CLI's own default).
SUM_GAP_TOL = 1e-6


class Op:
    """One timed call into the program and what the benchmark checks about it.

    ``call()`` runs the program; ``summary(result)`` keeps plain values;
    ``check(summary)`` returns None when the output is right, else a
    ``(WRONG | FAILED, message)`` pair.  FAILED is reserved for the known
    polytope fault, which the benchmark counts instead of rejecting.
    ``warm_up`` is False for an op that runs in a child process: calling it
    before the timed phase would leave nothing warm in the next child.
    """

    def __init__(self, kind, call, summary, check, warm_up=True):
        self.kind, self.call, self.summary, self.check = kind, call, summary, check
        self.warm_up = warm_up


def _vec(a):
    return tuple(float(v) for v in np.ravel(a))


def _close(got, want, rtol):
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= rtol * (1.0 + abs(want))


def _expect(ok, message):
    return None if ok else (WRONG, message)


def _first(*problems):
    return next((p for p in problems if p is not None), None)


def _unit(rng, n, lo, hi):
    d = rng.normal(size=n)
    return d * (rng.uniform(lo, hi) / np.linalg.norm(d))


def _monotone(rng, n, rank=None, lam=None):
    """Symmetric PSD part plus a skew part.  ``lam`` gives the eigenvalue
    range of the symmetric part; otherwise it is a Wishart matrix of the
    given rank."""
    k = rng.normal(size=(n, n))
    skew = 0.5 * (k - k.T)
    if lam is not None:
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return (q * rng.uniform(*lam, size=n)) @ q.T + skew
    r = n if rank is None else rank
    g = rng.normal(size=(n, r + 4 if rank is None else r)) / math.sqrt(n + 4)
    return g @ g.T + skew


def _relation_columns(rng, n, skew):
    """Graph columns (U; V) of a maximal monotone relation with domain
    L = ran Q of dimension k = n // 2: {(Q a, Q M a + Q_perp b)}.  The
    pairing on the graph is a'Ma, so the relation is skew iff M is."""
    k = max(1, n // 2)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    qk, qp = q[:, :k], q[:, k:]
    m = _monotone(rng, k)
    if skew:
        m = 0.5 * (m - m.T)
    cols = np.block([[qk, np.zeros((n, n - k))], [qk @ m, qp]])
    return cols[:n], cols[n:], (qk, qp, m)


# ---------------------------------------------------------------------------
# exact: closed forms and linear algebra only
# ---------------------------------------------------------------------------

def _fitz_op(kind, fn, op, u, v, x, xs):
    """``fn`` names a function of ``fitzpatrick``, looked up at call time so
    that the traced run sees its wrapper."""
    want = refs.fitz_carrier(u, v, x, xs)
    on_graph = refs.in_graph(u, v, x, xs)
    pair = float(x @ xs)

    def check(s):
        (got,) = s
        return _first(
            _expect(_close(got, want, 1e-7), f"{kind}: F = {got!r}, reference {want!r}"),
            _expect(got >= pair - 1e-8 * (1 + abs(pair)), f"{kind}: F = {got!r} below the pairing {pair!r}"),
            _expect(not on_graph or _close(got, pair, 1e-8), f"{kind}: F = {got!r} off the pairing on the graph"))

    return Op(kind, lambda: getattr(fz, fn)(op, x, xs), lambda out: (float(out),), check)


def _non_enl_op(fn, op, u, v, skew):
    """``fn`` names a criterion of ``certificates``: the skew test for maps,
    the adjoint inclusion for relations."""
    def summary(c):
        w = None if c.witness is None else (_vec(c.witness[0]), _vec(c.witness[1]))
        return bool(c.verdict), w

    def check(s):
        verdict, w = s
        if verdict != skew:
            return WRONG, f"non-enlargeable = {verdict}, but the input was built {'skew' if skew else 'non-skew'}"
        if skew:
            return None
        if w is None:
            return WRONG, "an enlargeable operator came without a witness"
        x, xs = np.asarray(w[0]), np.asarray(w[1])
        if fn == "non_enlargeable_single_valued":
            # (0, z*) off the graph, inside the enlargement at eps = 1/2
            return _expect(np.linalg.norm(xs) > 1e-9 and refs.fitz_carrier(u, v, x, xs) <= 0.5 + 1e-9,
                           "skew-test witness is not in the eps = 1/2 enlargement off the graph")
        return _expect(refs.in_neg_adjoint(u, v, x, xs) and not refs.in_graph(u, v, x, xs),
                       "adjoint witness is not in gra(-A*) minus gra A")

    return Op("non_enlargeable", lambda: getattr(cert, fn)(op), summary, check)


def _sum_report_summary(r):
    return (float(r.max_gap), int(r.points_tested), len(r.exactness_witnesses),
            bool(r.maximality), bool(r.hypothesis_ok), r.mode)


def _sum_report_check(n_points, mode):
    def check(s):
        gap, tested, finite, maximal, hyp, got_mode = s
        return _first(
            _expect(gap <= SUM_GAP_TOL, f"sum-theorem gap {gap!r} above {SUM_GAP_TOL}"),
            _expect(tested == n_points and finite >= 1, f"{tested} points tested, {finite} finite"),
            _expect(maximal and hyp and got_mode == mode,
                    f"maximal={maximal} hypothesis={hyp} mode={got_mode}"))
    return check


def build_exact(seed):
    rng = np.random.default_rng(seed)
    out = []
    for n in (2, 5, 10, 20, 40):
        a = _monotone(rng, n, lam=(0.2, 2.0))
        a_def = _monotone(rng, n, rank=n // 2)
        skew = 0.5 * (a - a.T)
        eye = np.eye(n)
        a_op, def_op, skew_op = ops.LinearMapOp(a), ops.LinearMapOp(a_def), ops.LinearMapOp(skew)
        x, xs = rng.normal(size=n), rng.normal(size=n)
        s_def = 0.5 * (a_def + a_def.T)
        out += [
            _fitz_op("fitz_map", "fitz_linear_map", a_op, eye, a, x, xs),
            _fitz_op("fitz_map", "fitz_linear_map", a_op, eye, a, x, a @ x),
            _fitz_op("fitz_map", "fitz_linear_map", def_op, eye, a_def, x, xs),
            _fitz_op("fitz_map", "fitz_linear_map", def_op, eye, a_def, x,
                     -a_def.T @ x + s_def @ rng.normal(size=n)),
        ]
        u, v, (qk, qp, m) = _relation_columns(rng, n, skew=False)
        us, vs, _ = _relation_columns(rng, n, skew=True)
        rel = ops.LinearRelationOp.from_graph_columns(np.vstack([u, v]), dim=n)
        rel_skew = ops.LinearRelationOp.from_graph_columns(np.vstack([us, vs]), dim=n)
        t = rng.normal(size=n)
        ga = qk @ rng.normal(size=qk.shape[1])
        r = rng.normal(size=qk.shape[1])
        # on dom A, with V'x + U'x* in ran W: a finite value off the graph
        ok_star = qk @ (0.5 * (m + m.T) @ r - m.T @ (qk.T @ ga)) + qp @ rng.normal(size=qp.shape[1])
        out += [
            _fitz_op("fitz_relation", "fitz_linear_relation", rel, u, v, u @ t, v @ t),
            _fitz_op("fitz_relation", "fitz_linear_relation", rel, u, v, ga, ok_star),
            _fitz_op("fitz_relation", "fitz_linear_relation", rel, u, v, x, xs),
            _non_enl_op("non_enlargeable_single_valued", a_op, eye, a, skew=False),
            _non_enl_op("non_enlargeable_single_valued", skew_op, eye, skew, skew=True),
            _non_enl_op("non_enlargeable_linear_relation", rel, u, v, skew=False),
            _non_enl_op("non_enlargeable_linear_relation", rel_skew, us, vs, skew=True),
        ]
        for b in (skew_op, rel_skew):
            out.append(Op("sum_fitz_exactness",
                          lambda a_op=a_op, b=b, s=int(rng.integers(1 << 30)):
                          cert.sum_fitz_exactness(a_op, b, n_points=10, seed=s),
                          _sum_report_summary, _sum_report_check(10, "linear+linear")))
        out += _slice_ops(rng, a_op)
    return out


def _slice_ops(rng, a_op):
    """enl_slice_linear and closed-form enl_member on points a known factor
    inside or outside the ellipsoid A_eps(x) = {Ax + d : (1/4) d'S^+ d <= eps}."""
    a = a_op.matrix
    n = a.shape[0]
    s = 0.5 * (a + a.T)
    x = rng.normal(size=n)
    eps = float(rng.uniform(0.1, 2.0))
    w, _ = np.linalg.eigh(s)
    rank = int(np.sum(w > 1e-10 * w[-1]))

    def slice_check(summary):
        center, level, carrier_dim, boundary = summary
        pair_ok = all(_close(refs.fitz_map(a, x, np.asarray(z)) - float(x @ np.asarray(z)), eps, 1e-7)
                      for z in boundary)
        return _first(
            _expect(np.allclose(center, a @ x, rtol=1e-10, atol=1e-10), "slice centre is not Ax"),
            _expect(_close(level, 4.0 * eps, 1e-12) and carrier_dim == rank,
                    f"level {level!r} / carrier dim {carrier_dim} (want {4 * eps!r} / {rank})"),
            _expect(pair_ok, "a slice boundary point is not on F - pairing = eps"))

    ops_ = [Op("enl_slice_linear", lambda: enl.enl_slice_linear(a_op, x, eps),
               lambda ell: (_vec(ell.center), float(ell.level), int(ell.carrier.dim),
                            tuple(_vec(p) for p in ell.boundary_points(num=4, seed=0))),
               slice_check)]
    r = rng.normal(size=n)
    d0 = s @ r * (2.0 * math.sqrt(eps) / math.sqrt(float(r @ s @ r)))
    for scale in (0.5, 1.5):
        z = a @ x + scale * d0
        want = refs.fitz_map(a, x, z)

        def check(summary, inside=scale < 1, want=want):
            member, value, method = summary
            return _first(
                _expect(member == inside, f"enl_member says {member} at {'inside' if inside else 'outside'} point"),
                _expect(_close(value, want, 1e-7) and method == "closed_form",
                        f"enl_member F = {value!r} by {method}, reference {want!r}"))

        ops_.append(Op("enl_member", lambda z=z: enl.enl_member(a_op, x, z, eps),
                       lambda v: (bool(v.member), float(v.fitz_value), v.method), check))
    return ops_


# ---------------------------------------------------------------------------
# oracle: sampled suprema
# ---------------------------------------------------------------------------

def _oracle_check(kind, want):
    def check(s):
        value, diverging = s[0], s[1]
        return _first(
            _expect(value <= want + 1e-9, f"{kind}: oracle {value!r} above the true F {want!r}"),
            _expect(want - value <= ORACLE_TOL, f"{kind}: oracle {value!r}, reference {want!r}"),
            _expect(not diverging, f"{kind}: divergence flagged at a finite value"))
    return check


def _subdiff_query(rng, n, p):
    """A point, the reference F there, and an eps that puts the reference
    verdict at least 0.05 away from the boundary of the enlargement."""
    while True:
        x, xs = _unit(rng, n, 0.5, 2.0), _unit(rng, n, 0.5, 2.0)
        want = refs.fitz_norm_power(x, xs, p)
        gap = want - float(x @ xs)
        if gap >= 0.2:
            break
    member = bool(rng.integers(2))
    eps = gap + float(rng.uniform(0.05, 0.3)) if member else 0.5 * gap
    return x, xs, eps, want, member


def build_oracle(seed):
    """One query per configuration: a round takes about 4 to 5 s, so a 20 s
    run repeats each op four or five times."""
    rng = np.random.default_rng(seed)
    out = []
    for p, n in ((1.5, 2), (2.0, 3), (3.0, 2)):
        op = ops.NormSubdiffOp(n, p)
        x, xs, eps, want, member = _subdiff_query(rng, n, p)
        s = int(rng.integers(1 << 30))

        def check(summary, want=want, member=member, p=p):
            got_member, value, method = summary
            return _first(
                _oracle_check(f"enl_member p={p}", want)((value, False)),
                _expect(got_member == member and method == "bruteforce",
                        f"enl_member p={p}: member={got_member} by {method}, reference {member}"))

        out.append(Op("enl_member", lambda op=op, x=x, xs=xs, eps=eps, s=s:
                      enl.enl_member(op, x, xs, eps, seed=s),
                      lambda v: (bool(v.member), float(v.fitz_value), v.method), check))
    a = _monotone(rng, 2, lam=(0.5, 2.0))
    lo = -rng.uniform(0.5, 1.5, size=2)
    hi = rng.uniform(0.5, 1.5, size=2)
    x1, xs1 = _unit(rng, 3, 0.5, 2.0), _unit(rng, 3, 0.1, 0.9)
    xb, xsb = rng.uniform(lo, hi), rng.normal(size=2)
    xa, xsa = _unit(rng, 2, 0.5, 2.0), _unit(rng, 2, 0.5, 2.0)
    cases = [
        ("map", ops.LinearMapOp(a), xa, xsa, refs.fitz_map(a, xa, xsa)),
        ("norm p=1", ops.NormSubdiffOp(3, 1.0), x1, xs1, float(np.linalg.norm(x1))),
        ("box cone", ops.NormalConeOp(ops.Box(lo, hi)), xb, xsb,
         float(np.sum(np.maximum(lo * xsb, hi * xsb)))),
    ]
    for name, op, x, xs, want in cases:
        s = int(rng.integers(1 << 30))
        out.append(Op("fitz_bruteforce",
                      lambda op=op, x=x, xs=xs, s=s: fz.fitz_bruteforce(op, x, xs, count=10000, radius=10.0, seed=s),
                      lambda r: (float(r.value), bool(r.diverging)),
                      _oracle_check(f"fitz_bruteforce {name}", want)))
    return out


# ---------------------------------------------------------------------------
# cones: the linear + normal cone sum theorem and polytope geometry
# ---------------------------------------------------------------------------

# The 200-vertex polytope and its queries do not depend on the seed: the
# near-boundary queries fail today (Polytope.project stops at its iteration
# cap short of the hull, so contains() is False), and a failure counted in
# every run must come from fixed inputs.
POLYTOPE_VERTICES = 200
POLYTOPE_QUERIES = (  # (radius, angle, x*); the three at 0.999 lie inside the hull
    (0.8, 0.3, (1.0, 0.5)),
    (0.9, 2.0, (-0.4, 1.2)),
    (0.95, 4.0, (0.3, -0.9)),
    (0.999, 0.0, (1.0, 0.2)),
    (0.999, 0.5 * math.pi, (0.1, 1.0)),
    (0.999, math.pi, (-0.8, -0.3)),
)


def polytope_vertices():
    ang = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, POLYTOPE_VERTICES)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _polytope_ops():
    verts = polytope_vertices()
    hull = refs.convex_hull(verts)
    cone = ops.NormalConeOp(ops.Polytope(tuple(verts)))
    out = []
    for radius, angle, xs in POLYTOPE_QUERIES:
        x = radius * np.array([math.cos(angle), math.sin(angle)])
        xs = np.asarray(xs)
        inside = refs.polygon_contains(hull, x)
        want = refs.support_vertices(verts, xs) if inside else math.inf
        eps = max(0.0, want - float(x @ xs)) + 0.1 if inside else 0.1

        def check(s, inside=inside, want=want, margin=refs.polygon_margin(hull, x)):
            member, value = s
            if inside and math.isinf(value):
                return FAILED, f"x at depth {margin:.1e} inside the hull reported outside (F = +inf)"
            return _first(
                _expect(_close(value, want, 1e-9), f"polytope F = {value!r}, reference {want!r}"),
                _expect(member == inside, f"polytope member = {member}, reference {inside}"))

        out.append(Op("enl_member", lambda x=x, xs=xs, eps=eps: enl.enl_member(cone, x, xs, eps),
                      lambda v: (bool(v.member), float(v.fitz_value)), check))
    return out


def build_cones(seed):
    rng = np.random.default_rng(seed)
    n = 2
    a_box = _monotone(rng, n, lam=(0.5, 2.0))
    a_ball = _monotone(rng, n, lam=(0.5, 2.0))
    lo = -rng.uniform(0.5, 1.5, size=n)
    hi = rng.uniform(0.5, 1.5, size=n)
    center = rng.uniform(-0.3, 0.3, size=n)
    radius = float(rng.uniform(0.5, 1.5))
    box_cone = ops.NormalConeOp(ops.Box(lo, hi))
    ball_cone = ops.NormalConeOp(ops.Ball(center, radius))
    out = []
    pts = 16  # at 8 a check's cost varied twice as much with the seed
    for a, cone in ((a_box, box_cone), (a_ball, ball_cone)):
        s = int(rng.integers(1 << 30))
        out.append(Op("sum_fitz_exactness",
                      lambda a=a, cone=cone, s=s: cert.sum_fitz_exactness(ops.LinearMapOp(a), cone, n_points=pts, seed=s),
                      _sum_report_summary, _sum_report_check(pts, "linear+normal-cone")))
    out.append(Op("sum_maximality", lambda: cert.sum_maximality(ops.LinearMapOp(a_ball), ball_cone),
                  lambda m: (bool(m.maximal),),
                  lambda s: _expect(s[0], "linear + ball cone reported not maximal")))
    cases = ((a_box, box_cone, lambda b, h: refs.qp_box(b, h, lo, hi), lambda: rng.uniform(lo, hi)),
             (a_ball, ball_cone, lambda b, h: refs.qp_ball(b, h, center, radius),
              lambda: center + _unit(rng, n, 0.0, radius)))
    for a, cone, qp, point in cases:
        fa, fc = fz.fitz_evaluator(ops.LinearMapOp(a)), fz.fitz_evaluator(cone)
        for _ in range(2):
            z, zs = point(), 2.0 * rng.normal(size=n)
            want = refs.fitz_linear_plus_cone(a, z, zs, qp)
            out.append(Op("partial_inf_conv",
                          lambda fa=fa, fc=fc, z=z, zs=zs: fz.partial_inf_conv(fa, fc, z, zs),
                          lambda r: (float(r.value),),
                          lambda s, want=want: _expect(_close(s[0], want, 1e-6),
                                                       f"partial_inf_conv {s[0]!r}, QP reference {want!r}")))
    return out + _polytope_ops()


# ---------------------------------------------------------------------------
# cli: the command line as a user runs it
# ---------------------------------------------------------------------------

def _cli_call(argv, in_process):
    if in_process:
        return _main_captured(argv)
    proc = subprocess.run([sys.executable, "-m", "enlargekit", *argv], capture_output=True)
    return proc.returncode, proc.stdout


def _main_captured(argv):
    """cli.main(argv) with its envelope captured; sys.stdout is the
    worker's CapturedStdout, which the CLI bound at import."""
    proxy = sys.stdout
    saved, proxy.target = proxy.target, io.StringIO()
    try:
        code = cli.main(argv)
        return code, proxy.target.getvalue().encode()
    finally:
        proxy.target = saved


def _fmt(vals):
    return ",".join(repr(float(v)) for v in vals)


def build_cli(seed, workdir, in_process):
    rng = np.random.default_rng(seed)
    n = 2
    a = _monotone(rng, n, lam=(0.5, 2.0))
    lo, hi = -rng.uniform(0.5, 1.5, size=n), rng.uniform(0.5, 1.5, size=n)
    specs = {
        "map": {"kind": "linear_map", "matrix": a.tolist()},
        "norm": {"kind": "norm_subdiff", "p": 1.5},
        "box": {"kind": "normal_cone", "set": {"kind": "box", "lo": lo.tolist(), "hi": hi.tolist()}},
    }
    paths = {}
    for name, op in specs.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump({"space_dim": n, "operator": op}, fh)
    cseed = str(int(rng.integers(1000)))
    x, xs = _unit(rng, n, 0.5, 2.0), _unit(rng, n, 0.5, 2.0)
    px, pxs, peps, pwant, pmember = _subdiff_query(rng, n, 1.5)
    sx = rng.normal(size=n)
    seps = float(rng.uniform(0.1, 2.0))
    s_sym = 0.5 * (a + a.T)

    def classify(r):
        w = r.get("witness")
        ok = w is not None and refs.fitz_map(a, w["x"], w["xs"]) - float(np.dot(w["x"], w["xs"])) <= 0.5 + 1e-9
        return _expect(r["monotone"] and r["maximal"] and r["skew"] is False and r["non_enlargeable"] is False and ok,
                       f"classify results {r}")

    def fitz(r):
        want = refs.fitz_map(a, x, xs)
        return _expect(_close(r["closed_form"], want, 1e-9) and r["bruteforce"] <= want + 1e-9
                       and want - r["bruteforce"] <= ORACLE_TOL and r["anomaly"] is False,
                       f"fitz results closed={r['closed_form']} brute={r['bruteforce']}, reference {want}")

    def member(r):
        v = r["fitz_value"]
        return _expect(v <= pwant + 1e-9 and pwant - v <= ORACLE_TOL and r["member"] is pmember
                       and r["approximate"] is True,
                       f"enlarge --point F={v} member={r['member']}, reference {pwant} / {pmember}")

    def slice_(r):
        return _expect(np.allclose(r["center"], a @ sx, rtol=1e-10, atol=1e-10)
                       and _close(r["level"], 4 * seps, 1e-12) and r["carrier_dim"] == n
                       and np.allclose(r["form"], np.linalg.inv(s_sym), rtol=1e-7, atol=1e-9),
                       f"enlarge --slice-at results {r}")

    def sumcheck(r):
        return _expect(r["max_gap"] <= SUM_GAP_TOL and r["maximal"] is True and r["hypothesis_ok"] is True
                       and r["mode"] == "linear+normal-cone" and r["points_tested"] == 5,
                       f"sumcheck results {r}")

    calls = [
        ("classify", [paths["map"]], classify),
        ("fitz", [paths["map"], "--point=" + _fmt(np.r_[x, xs]), "--bruteforce", "2000", "10.0"], fitz),
        ("enlarge", [paths["norm"], f"--eps={peps!r}", "--point=" + _fmt(np.r_[px, pxs])], member),
        ("enlarge", [paths["map"], f"--eps={seps!r}", "--slice-at=" + _fmt(sx)], slice_),
        ("sumcheck", [paths["map"], paths["box"], "--points", "5"], sumcheck),
    ]
    return [Op(command, lambda argv=[command, *args, "--seed", cseed]: _cli_call(argv, in_process),
               lambda r: r, _envelope_check(command, int(cseed), results), warm_up=in_process)
            for command, args, results in calls]


def _envelope_check(command, seed, results):
    """Exit 0, a v1 envelope for ``command`` and ``seed``, then the
    command's own results."""
    def check(s):
        code, stdout = s
        if code != cli.EXIT_OK:
            return WRONG, f"{command}: exit {code}"
        doc = json.loads(stdout)
        if doc.get("schema") != "v1" or doc.get("command") != command or doc.get("seed") != seed:
            return WRONG, f"{command}: bad envelope {stdout[:120]!r}"
        return results(doc["results"])
    return check


def build(workload, seed, workdir, in_process):
    """The op list of one round of ``workload``.  The CLI workload writes its
    spec files under ``workdir`` and, with ``in_process``, calls
    ``cli.main`` directly instead of starting a process per call."""
    if workload == "cli":
        return build_cli(seed, workdir, in_process)
    return {"exact": build_exact, "oracle": build_oracle, "cones": build_cones}[workload](seed)
