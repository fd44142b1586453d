"""Decision procedures and numerical certificates: non-enlargeability,
one exact rule per operator kind (:func:`non_enlargeable`), the
Fitzpatrick-family singleton check, and the sum theorems (exactness of the
partial inf-convolution, maximality, non-enlargeability of sums).

Exact criteria used on R^n, where a maximally monotone operator is
non-enlargeable iff its graph is affine and its linear part passes the
adjoint criterion (Svaiter 2010):

* a maximally monotone linear relation is non-enlargeable iff
  gra(-A*) is contained in gra A, in which case the pairing vanishes on
  gra(-A*);
* a monotone single-valued linear map is non-enlargeable iff it is skew;
* N_C, and a maximal linear A plus N_C, are non-enlargeable iff the domain
  (C, or dom A cap C) is one point p: the graph is then {p} x R^n;
* the norm subdifferential is enlargeable;
* a monotone linear relation is maximal iff dim gra = n;
* a maximally monotone linear A plus N_C is maximal iff dom A meets C, for
  a box or polytope C (the polyhedral sum rule), and iff dom A meets int C
  or dom A = {0} (and meets C) for a ball.

Hypothesis failures of the sum theorems never abort a computation; the
reports carry an advisory flag instead, since the hypotheses are
sufficient, not necessary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import operators as ops
from .enlargement import enl_member, eps_subdiff_slice
from .fitzpatrick import fitz_evaluator, pairing, partial_inf_conv
from .linalg import Subspace, as_vector, contains as span_contains
from .operators import interior_domain_check, set_extent, split_linear_cone

# Halvings of the witness step along aff dom before giving up (the step
# enters the 1/2-enlargement once it is small, F being continuous there).
WITNESS_HALVINGS = 60


class GraphNotAffineError(ValueError):
    """The operator's graph is not an affine set."""


class PreconditionFailedError(ValueError):
    """A certificate's precondition does not hold for the given operators."""


@dataclass(frozen=True, eq=False)
class NonEnlargeableCertificate:
    verdict: bool
    witness: Optional[tuple]  # (x, x*) in gra(-A*) \ gra A when enlargeable
    method: str  # adjoint-inclusion | skew-test | affine-shift | norm-subdiff | domain-face
    detail: str = ""


def non_enlargeable_linear_relation(r: ops.LinearRelationOp) -> NonEnlargeableCertificate:
    """Adjoint-graph criterion for a maximally monotone linear relation.

    Non-enlargeable iff gra(-A*) is included in gra A; on a true verdict
    the pairing is checked to vanish on gra(-A*).  On a false verdict the
    witness is a unit basis vector of gra(-A*) outside the graph.
    """
    ops.require_maximal(r)
    n = r.dim
    neg_adj = ops.neg_adjoint_graph(r.graph)
    verdict = span_contains(r.graph, neg_adj)
    if verdict:
        worst = 0.0
        for col in neg_adj.basis.T:
            worst = max(worst, abs(float(col[:n] @ col[n:])))
        if worst > ops.MONOTONE_TOL:
            raise RuntimeError(
                f"pairing {worst:.3e} on gra(-A*) contradicts the criterion")
        return NonEnlargeableCertificate(
            True, None, "adjoint-inclusion",
            f"gra(-A*) inside gra A; max |<x,x*>| on gra(-A*) = {worst:.2e}")
    witness = None
    for col in neg_adj.basis.T:
        if not r.graph.contains_vector(col):
            witness = (col[:n].copy(), col[n:].copy())
            break
    return NonEnlargeableCertificate(
        False, witness, "adjoint-inclusion",
        "a basis vector of gra(-A*) leaves gra A")


def non_enlargeable_single_valued(a: ops.LinearMapOp) -> NonEnlargeableCertificate:
    """Skew criterion for a monotone linear map.

    An enlargeable (non-skew) map ships the witness (0, z*) with z* along
    the top eigenvector of the symmetric part, scaled so that the pair
    enters the enlargement at eps = 1/2.
    """
    ops.require_monotone(a)
    if ops.is_skew(a):
        return NonEnlargeableCertificate(True, None, "skew-test",
                                         "A + A' vanishes")
    cq = a.carrier  # W = A_+, eigenvalues descending
    zs = math.sqrt(2.0 * float(cq.lam[0])) * cq.q[:, 0]
    return NonEnlargeableCertificate(
        False, (np.zeros(a.dim), zs), "skew-test",
        "conjugate of the symmetric-part form is 1 at the witness, so the "
        "pair joins the enlargement at eps = 1/2")


def _shifted(witness, x, xs):
    return None if witness is None else (witness[0] + x, witness[1] + xs)


def _graph_directions(op) -> Subspace:
    """The subspace parallel to an affine graph, read from the kind: a
    linear map, relation or linear sum is its graph, and a translation has
    its inner operator's.  The zoo's other kinds have an affine graph iff
    they are non-enlargeable: the graph is then {p} x R^n."""
    if isinstance(op, ops.TranslatedOp):
        return _graph_directions(op.inner)
    lin = ops.linear_form(op)
    if lin is not None:
        return ops.graph_subspace(lin)
    if non_enlargeable(op).verdict:
        return Subspace(2 * op.dim, np.eye(2 * op.dim)[:, op.dim:])
    raise GraphNotAffineError(f"the graph of this {type(op).__name__} is not affine")


def non_enlargeable_affine(op: ops.OperatorDescriptor, base) -> NonEnlargeableCertificate:
    """Shift an affine-graph operator by a graph point and delegate to the
    linear-relation criterion; a kind whose graph is not affine raises
    GraphNotAffineError (see :func:`_graph_directions`)."""
    n = op.dim
    bx, bxs = as_vector(base[0], n), as_vector(base[1], n)
    if not ops.graph_member(op, bx, bxs, tol=1e-8):
        raise PreconditionFailedError("base point is not on the graph")
    inner = non_enlargeable_linear_relation(ops.LinearRelationOp(_graph_directions(op)))
    return NonEnlargeableCertificate(inner.verdict, _shifted(inner.witness, bx, bxs),
                                     "affine-shift", f"after shift by base: {inner.detail}")


def _domain_certificate(op) -> NonEnlargeableCertificate:
    """N_C (A = 0) or a maximal linear A plus N_C, whose domain is D cap C
    (D = dom A): non-enlargeable iff the domain is one point p, the graph
    being {p} x R^n.  Otherwise the witness is (x, A x + delta d): x in
    ri(D cap C) and d a unit direction of its affine hull, so that A x +
    delta d is off the graph, and delta halved until the closed-form
    :func:`enl_member` puts the pair in the enlargement at eps = 1/2."""
    if isinstance(op, ops.NormalConeOp):
        lin, cone = ops.LinearMapOp(np.zeros((op.dim, op.dim))), op
    else:
        lin, cone = op.linear_cone
    dom = lin.domain
    x, dirs = cone.set.face(dom)
    if dirs.shape[1] == 0:
        return NonEnlargeableCertificate(True, None, "domain-face",
                                         "the domain is one point p, so the graph is {p} x R^n")
    x = dom.dom.project(x)
    y = ops.apply(lin, x).point
    for k in range(WITNESS_HALVINGS):
        xs = y + 0.5 ** k * dirs[:, 0]
        if enl_member(op, x, xs, 0.5).member:
            return NonEnlargeableCertificate(
                False, (x, xs), "domain-face",
                f"x in ri dom, x* = A x + {0.5 ** k:g} d with d along aff dom: off the "
                "graph and in the enlargement at eps = 1/2")
    raise RuntimeError("no step along aff dom enters the enlargement at eps = 1/2")


def non_enlargeable(op: ops.OperatorDescriptor) -> NonEnlargeableCertificate:
    """Non-enlargeability of a maximally monotone operator, one exact rule
    per kind: the skew test for a linear map; the adjoint test for a linear
    relation or a linear + linear sum (on its sum relation); a translation's
    inner verdict with the witness shifted; False for the norm
    subdifferential; for N_C and a linear A plus N_C, True iff the domain
    is one point (:func:`_domain_certificate`).

    Raises NotMonotoneError or NotMaximalError unless
    :func:`operators.validate` finds the operator maximal.
    """
    ops.require_maximal(op)
    lin = ops.linear_form(op)
    if isinstance(lin, ops.LinearMapOp):
        return non_enlargeable_single_valued(lin)
    if lin is not None:
        return non_enlargeable_linear_relation(lin)
    if isinstance(op, ops.TranslatedOp):
        inner = non_enlargeable(op.inner)
        return NonEnlargeableCertificate(inner.verdict,
                                         _shifted(inner.witness, op.shift_x, op.shift_xs),
                                         inner.method, f"translation of: {inner.detail}")
    if isinstance(op, ops.NormSubdiffOp):
        # p = 1: (e1, e1/2); p > 1: (0, z*) just inside the slice (d f)_{1/2}(0)
        e1 = np.eye(op.dim)[0]
        witness = (e1, 0.5 * e1) if op.p == 1.0 else \
            (0.0 * e1, (1.0 - 1e-3) * eps_subdiff_slice(op, 0.5).radius * e1)
        return NonEnlargeableCertificate(False, witness, "norm-subdiff",
                                         "the witness joins the enlargement at eps = 1/2")
    return _domain_certificate(op)


# ---------------------------------------------------------------------------
# Fitzpatrick-family singleton check
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SingletonCheckReport:
    expected_singleton: bool
    graph_equality_ok: bool
    off_graph_ok: bool
    finite_off_graph_example: Optional[tuple]  # ((x, xs), value) when enlargeable
    detail: str = ""


def fitz_singleton_check(op) -> SingletonCheckReport:
    """Check F = pairing + indicator(graph) against :func:`non_enlargeable`.

    F must equal the pairing on 150 graph samples.  A non-enlargeable
    operator must show F = +inf at every off-graph probe; the witness of an
    enlargeable one must be an off-graph pair with finite F.
    """
    cert = non_enlargeable(op)
    expected, ev = cert.verdict, fitz_evaluator(op)
    graph_ok = all(abs(ev.evaluate(x, xs) - pairing(x, xs)) <= 1e-9
                   for x, xs in ops.sample_graph(op, 150, 3.0, 0))
    example = None
    if expected:
        d = np.random.default_rng(0).normal(size=(150, op.dim))
        probes = ((x, xs + 0.5 * u / max(np.linalg.norm(u), 1e-12)) for (x, xs), u
                  in zip(ops.sample_graph(op, 150, 3.0, 1), d))
        off_ok = not any(math.isfinite(ev.evaluate(x, p)) for x, p in probes
                         if not ops.graph_member(op, x, p, tol=1e-7))
    else:
        value = ev.evaluate(*cert.witness)
        off_ok = math.isfinite(value) and not ops.graph_member(op, *cert.witness, tol=1e-7)
        example = (cert.witness, value) if off_ok else None
    return SingletonCheckReport(
        expected_singleton=expected, graph_equality_ok=graph_ok,
        off_graph_ok=off_ok, finite_off_graph_example=example,
        detail="singleton family means F carries no information beyond the graph")


# ---------------------------------------------------------------------------
# sum theorems
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SumCheckReport:
    max_gap: float
    points_tested: int
    exactness_witnesses: list
    maximality: Optional[bool]  # None = undetermined
    hypothesis_ok: bool
    mode: str
    notes: str = ""
    skipped_points: int = 0  # points left unchecked (both sides +inf)
    sum_op: Optional[ops.SumOp] = field(default=None, repr=False)  # the sum checked


def sum_maximality(a, b) -> ops.ValidationReport:
    """The :func:`operators.validate` report of A + B, whose ``maximal`` is
    exact: the dimension of the sum graph for linear + linear; for a
    maximal linear A plus N_C, whether dom A meets C (box, polytope) or
    int C (ball, or dom A = {0}).  Raises NotMonotoneError when the linear
    term of a cone sum is not monotone."""
    sum_op = ops.SumOp((a, b))
    if sum_op.relation is None:
        ops.require_monotone(split_linear_cone(sum_op)[0])
    return ops.validate(sum_op)


def _sum_points(op: ops.SumOp, n_points, seed):
    """Test points (z, z*), as the rows (z, z*) of an (n_points, 2, n)
    array.  Linear + linear: graph points of the sum, range-compatible
    perturbations and fully random pairs, drawn in one pass.  Linear +
    normal cone: z a projection onto C, a support point of C, or a point
    near the interior point moved towards dom A and projected onto C; z*
    random."""
    rng = np.random.default_rng(seed)
    rel = op.relation
    if rel is not None:
        n, k = rel.dim, rel.graph.dim
        u, v = rel.u_block, rel.v_block
        w = 0.5 * (u.T @ v + v.T @ u)
        # one row per three points, the draws in the order of a point loop:
        # a graph point t; a graph point t and a target W r; an unused t
        # and a random pair (z, z*)
        rows = -(-n_points // 3)
        t0, t1, r, _, z2, zs2 = np.split(rng.normal(size=(rows, 4 * k + 2 * n)),
                                         np.cumsum([k, k, k, k, n]), axis=1)
        # the target moves z* by some d with U'd = W r: d = (U')^+ W r from
        # the kept domain record, kept where it is exact
        target = r @ w.T
        d = target @ rel.domain.u_pinv
        exact = np.linalg.norm(d @ u - target, axis=1) < \
            1e-9 * (1 + np.linalg.norm(target, axis=1))
        pts = np.empty((3 * rows, 2, n))
        pts[0::3, 0], pts[0::3, 1] = t0 @ u.T, t0 @ v.T
        pts[1::3, 0], pts[1::3, 1] = t1 @ u.T, t1 @ v.T
        pts[1::3, 1][exact] += d[exact]
        pts[2::3, 0], pts[2::3, 1] = z2 * 2, zs2 * 2
        return pts[:n_points]
    lin, cone = op.linear_cone
    n = lin.dim
    dom = ops.dom_subspace(lin)
    pts = []
    while len(pts) < n_points:
        kind = len(pts) % 3
        if kind == 0:
            z = cone.set.project(rng.normal(size=n) * set_extent(cone.set))
        elif kind == 1:
            d = rng.normal(size=n)
            d /= max(np.linalg.norm(d), 1e-12)
            z = cone.set.support_points(d[None, :])[0]
        else:
            # F of the sum is +inf off dom A: move towards it first
            z = dom.project(cone.set.interior_point() + 0.1 * rng.normal(size=n))
            z = cone.set.project(z)
        pts.append((z, rng.normal(size=n) * 2))
    return np.array(pts).reshape(n_points, 2, n)


def sum_fitz_exactness(a, b, n_points=100, seed=0) -> SumCheckReport:
    """Compare F of the sum against the partial inf-convolution of the
    summands at sampled points, recording the worst gap and the exactness
    witnesses of every finite inf-convolution value.

    The left side is the closed form of F of the sum
    (:func:`fitz_evaluator`): the sum relation's for linear + linear, the QP
    over C cap dom A for linear + normal cone.  Linear + linear takes all
    the points as rows at once: one :meth:`CarrierPair.inf_conv` gives the
    right side and its minimisers, and the sum relation's carrier the left
    side.  The right side of a cone sum is that QP's dual, built from the
    summands (:func:`partial_inf_conv`) on the QP that A keeps, one point
    at a time, and the left side is read off the same solve
    (``sum_value``, set on every result): one QP solve per point.  A QP
    the set refused is kept all the same, and both sides are +inf at every
    point off dom A (dom A misses C, or a ball touched by dom A at a point
    the samples miss); A not maximal, or a sample at the touching point,
    raises UnsupportedOperatorError.

    One rule reads the two sides of both theorems, point by point in order:
    a point where both sides are +inf counts as skipped; the first where
    exactly one is sets ``max_gap`` to +inf and ends the check, so no later
    point is solved or counted; every other point adds its gap to
    ``max_gap`` and its witness (index, v*, residual).  A violated
    hypothesis flags the report as advisory but the check still runs.

    ``maximality`` is the exact verdict of :func:`sum_maximality`, and
    ``sum_op`` the sum, for callers that go on to certify it.  Fewer than
    one point raises ValueError: a check of no point proves nothing.
    """
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    fa, fb = fitz_evaluator(a), fitz_evaluator(b)
    sum_op = ops.SumOp((a, b))
    both_linear = sum_op.relation is not None
    if both_linear:
        hypothesis_ok = True  # dom A - dom B is a subspace, closed in R^n
        mode = "linear+linear"
        notes = "domain-difference closedness holds automatically"
    else:
        lin, cone = split_linear_cone(sum_op)
        hypothesis_ok = interior_domain_check(lin, cone.set)
        mode = "linear+normal-cone"
        notes = f"interior-domain check: {hypothesis_ok}"
    points = _sum_points(sum_op, n_points, seed)
    if both_linear:
        z, zs = points[:, 0], points[:, 1]
        rhs, vstar, resid, _ = fa.carrier_pair(fb).inf_conv(z, zs)
        lhs = fitz_evaluator(sum_op).data.evaluate(z, zs)
        sides = zip(lhs.tolist(), rhs.tolist(), vstar, resid.tolist())
    else:
        # a generator: a point past the end of the check is never solved
        sides = ((r.sum_value, r.value, r.witness, r.inner_residual)
                 for r in (partial_inf_conv(fa, fb, z, zs) for z, zs in points))
    max_gap, witnesses, skipped = 0.0, [], 0
    for idx, (lhs, rhs, vstar, resid) in enumerate(sides):
        if math.isinf(lhs) and math.isinf(rhs):
            skipped += 1
        elif math.isinf(lhs) != math.isinf(rhs):
            max_gap = math.inf
            break
        else:
            max_gap = max(max_gap, abs(lhs - rhs))
            witnesses.append((idx, vstar, resid))
    return SumCheckReport(
        max_gap=max_gap, points_tested=len(points),
        exactness_witnesses=witnesses,
        maximality=ops.validate(sum_op).maximal,
        hypothesis_ok=hypothesis_ok, mode=mode, notes=notes,
        skipped_points=skipped, sum_op=sum_op)


def sum_non_enlargeable(a, b) -> NonEnlargeableCertificate:
    """Non-enlargeability of A + B for non-enlargeable linear summands.

    Raises PreconditionFailedError when a summand is enlargeable; a false
    verdict on the recomputed sum would contradict the sum theorem and is
    reported as an error, not a result.
    """
    rel = ops.SumOp((a, b)).relation
    if rel is None:
        raise ops.UnsupportedOperatorError("sum certificate needs linear terms")
    if not (non_enlargeable(a).verdict and non_enlargeable(b).verdict):
        raise PreconditionFailedError("summand is enlargeable")
    out = non_enlargeable_linear_relation(rel)
    if not out.verdict:
        raise RuntimeError("sum of non-enlargeable relations tested enlargeable; "
                           "this contradicts the sum theorem")
    return NonEnlargeableCertificate(True, None, out.method,
                                     f"sum graph dim {rel.graph.dim}; {out.detail}")


# ---------------------------------------------------------------------------
# random fixtures for stress tests
# ---------------------------------------------------------------------------

def random_monotone_matrix(n, rng, rank_deficient=False) -> ops.LinearMapOp:
    """PSD-plus-skew matrix; optionally with a rank-deficient symmetric part."""
    k = max(1, n - 1) if rank_deficient else n
    g = rng.normal(size=(n, k))
    kmat = rng.normal(size=(n, n))
    return ops.LinearMapOp(g @ g.T + 0.5 * (kmat - kmat.T))


def random_maximal_monotone_relation(n, rng) -> ops.LinearRelationOp:
    """Random maximal monotone linear relation in R^n.

    The graph of a random monotone matrix, rotated by a random orthogonal
    transform of R^2n, rejection-sampled until the rotated graph is
    monotone again (dimension n is preserved); past 200 tries, unrotated.
    """
    base = ops.as_relation(random_monotone_matrix(n, rng))
    for _ in range(200):
        q, _ = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)))
        cand = ops.LinearRelationOp(Subspace(2 * n, q @ base.graph.basis))
        rep = ops.validate(cand)
        if rep.monotone and rep.maximal:
            return cand
    return base
