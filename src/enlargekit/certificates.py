"""Decision procedures and numerical certificates: non-enlargeability via
the adjoint-graph criterion, the Fitzpatrick-family singleton check, and
the sum theorems (exactness of the partial inf-convolution, maximality,
non-enlargeability of sums).

Exact criteria used on R^n:

* a maximally monotone linear relation is non-enlargeable iff
  gra(-A*) is contained in gra A, in which case the pairing vanishes on
  gra(-A*);
* a monotone single-valued linear map is non-enlargeable iff it is skew;
* a monotone linear relation is maximal iff dim gra = n;
* a maximally monotone linear A plus N_C is maximal when dom A meets ri C
  (Rockafellar's qualification) and not maximal when dom A misses C; when
  dom A meets C only on its relative boundary the verdict is None.

Hypothesis failures of the sum theorems never abort a computation; the
reports carry an advisory flag instead, since the hypotheses are
sufficient, not necessary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import operators as ops
from .fitzpatrick import (
    fitz_bruteforce,
    fitz_evaluator,
    pairing,
    partial_inf_conv,
)
from .linalg import Subspace, as_vector, contains as span_contains, orthonormalize
from .operators import interior_domain_check, set_extent, split_linear_cone

SIDE_CLAIM_TOL = 1e-10
INCLUSION_TOL = 1e-9


class GraphNotAffineError(ValueError):
    """The operator's graph is not an affine set."""


class PreconditionFailedError(ValueError):
    """A certificate's precondition does not hold for the given operators."""


@dataclass(frozen=True, eq=False)
class NonEnlargeableCertificate:
    verdict: bool
    witness: Optional[tuple]  # (x, x*) in gra(-A*) \ gra A when enlargeable
    method: str               # adjoint-inclusion | skew-test | affine-shift
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
    verdict = span_contains(r.graph, neg_adj, tol=INCLUSION_TOL)
    if verdict:
        worst = 0.0
        for col in neg_adj.basis.T:
            worst = max(worst, abs(float(col[:n] @ col[n:])))
        if worst > SIDE_CLAIM_TOL:
            raise RuntimeError(
                f"pairing {worst:.3e} on gra(-A*) contradicts the criterion")
        return NonEnlargeableCertificate(
            True, None, "adjoint-inclusion",
            f"gra(-A*) inside gra A; max |<x,x*>| on gra(-A*) = {worst:.2e}")
    witness = None
    for col in neg_adj.basis.T:
        if not r.graph.contains_vector(col, tol=INCLUSION_TOL):
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
    sym = 0.5 * (a.matrix + a.matrix.T)
    from .linalg import sym_eig
    w, q = sym_eig(sym)
    lam, u = float(w[0]), q[:, 0]
    zs = math.sqrt(2.0 * lam) * u
    return NonEnlargeableCertificate(
        False, (np.zeros(a.dim), zs), "skew-test",
        "conjugate of the symmetric-part form is 1 at the witness, so the "
        "pair joins the enlargement at eps = 1/2")


def _affine_directions(pairs, base):
    """Span of the sampled graph pairs minus the base pair, in R^2n."""
    stacked = np.concatenate(base)
    diffs = pairs.reshape(pairs.shape[0], -1) - stacked
    return orthonormalize(diffs.T, ambient_dim=stacked.shape[0])


def non_enlargeable_affine(op: ops.OperatorDescriptor, base,
                           count=400, radius=4.0, seed=0) -> NonEnlargeableCertificate:
    """Shift an affine-graph operator by a graph point and delegate to the
    linear-relation criterion.

    Affineness is checked on samples: the difference directions may span at
    most an n-dimensional subspace and sampled midpoints must stay on the
    graph (convexity); either failure raises GraphNotAffineError.
    """
    n = op.dim
    bx, bxs = as_vector(base[0], n), as_vector(base[1], n)
    if not ops.graph_member(op, bx, bxs, tol=1e-8):
        raise PreconditionFailedError("base point is not on the graph")
    pairs = ops.sample_graph(op, count, radius, seed)
    directions = _affine_directions(pairs, (bx, bxs))
    if directions.dim > n:
        raise GraphNotAffineError(
            f"difference directions span {directions.dim} > n = {n} dimensions")
    for (x1, xs1), (x2, xs2) in zip(pairs[0::7], pairs[1::7]):
        mx, mxs = 0.5 * (x1 + x2), 0.5 * (xs1 + xs2)
        if not ops.graph_member(op, mx, mxs, tol=1e-8):
            raise GraphNotAffineError("sampled midpoint leaves the graph")
    shifted = ops.LinearRelationOp(directions)
    inner = non_enlargeable_linear_relation(shifted)
    witness = inner.witness
    if witness is not None:
        witness = (witness[0] + bx, witness[1] + bxs)
    return NonEnlargeableCertificate(inner.verdict, witness, "affine-shift",
                                     f"after shift by base: {inner.detail}")


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


def fitz_singleton_check(op, n_samples=150, seed=0) -> SingletonCheckReport:
    """Check F = pairing + indicator(graph) against the enlargeability verdict.

    Non-enlargeable operators must show F = pairing on graph samples and
    F = +inf at every off-graph probe; enlargeable ones must exhibit a
    finite off-graph value.
    """
    if isinstance(op, ops.LinearMapOp):
        expected = non_enlargeable_single_valued(op).verdict
    elif isinstance(op, ops.LinearRelationOp):
        expected = non_enlargeable_linear_relation(op).verdict
    else:
        expected = False  # the non-linear zoo members are all enlargeable
    ev = fitz_evaluator(op)
    rng = np.random.default_rng(seed)
    graph_ok = True
    for x, xs in ops.sample_graph(op, n_samples, 3.0, seed):
        if abs(ev.evaluate(x, xs) - pairing(x, xs)) > 1e-9:
            graph_ok = False
            break
    off_ok = True
    example = None
    for x, xs in ops.sample_graph(op, n_samples, 3.0, seed + 1):
        d = rng.normal(size=op.dim)
        d /= max(np.linalg.norm(d), 1e-12)
        probe = xs + 0.5 * d
        if ops.graph_member(op, x, probe, tol=1e-7):
            continue
        val = ev.evaluate(x, probe)
        if expected:
            if math.isfinite(val):
                off_ok = False
                break
        elif math.isfinite(val):
            example = ((x, probe), val)
            break
    if not expected:
        off_ok = example is not None
    return SingletonCheckReport(
        expected_singleton=expected, graph_equality_ok=graph_ok,
        off_graph_ok=off_ok, finite_off_graph_example=example,
        detail="singleton family means F carries no information beyond the graph")


# ---------------------------------------------------------------------------
# sum theorems
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MaximalityCertificate:
    maximal: Optional[bool]  # None = undetermined
    exact: bool   # every verdict rests on an exact criterion
    detail: str = ""


@dataclass(frozen=True, eq=False)
class SumCheckReport:
    max_gap: float
    points_tested: int
    exactness_witnesses: list
    maximality: Optional[bool]  # None = undetermined
    hypothesis_ok: bool
    mode: str
    notes: str = ""
    skipped_points: int = 0  # cone-sum points left unchecked (rhs = +inf)


def sum_maximality(a, b) -> MaximalityCertificate:
    """Maximality of A + B, as :func:`operators.validate` decides it: by the
    dimension of the sum graph for linear + linear, by whether dom A meets
    ri C or C at all for linear + normal cone (None: undetermined)."""
    sum_op = ops.SumOp((a, b))
    if sum_op.relation is None:
        ops.require_monotone(split_linear_cone(a, b)[0])
    rep = ops.validate(sum_op)
    return MaximalityCertificate(rep.maximal, True, rep.detail)


def _sum_points(op: ops.SumOp, n_points, seed):
    """Test points (z, z*).  Linear + linear: graph points of the sum,
    range-compatible perturbations and fully random pairs.  Linear + normal
    cone: z a projection onto C, a support point of C, or a point near the
    interior point moved towards dom A and projected onto C; z* random."""
    rng = np.random.default_rng(seed)
    rel = op.relation
    if rel is not None:
        n = rel.dim
        u, v = rel.u_block, rel.v_block
        w = 0.5 * (u.T @ v + v.T @ u)
        pts = []
        while len(pts) < n_points:
            t = rng.normal(size=rel.graph.dim)
            z, zs = u @ t, v @ t
            kind = len(pts) % 3
            if kind == 0:
                pts.append((z, zs))
            elif kind == 1:
                target = w @ rng.normal(size=w.shape[0])
                d, *_ = np.linalg.lstsq(u.T, target, rcond=None)
                if np.linalg.norm(u.T @ d - target) < 1e-9 * (1 + np.linalg.norm(target)):
                    pts.append((z, zs + d))
                else:
                    pts.append((z, zs))
            else:
                pts.append((rng.normal(size=n) * 2, rng.normal(size=n) * 2))
        return pts
    lin, cone = split_linear_cone(*op.terms)
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
            z = cone.set.interior_point() + 0.1 * rng.normal(size=n)
            if dom.dim < n:
                # F of the sum is +inf off dom A: move towards it first
                z = dom.project(z)
            z = cone.set.project(z)
        pts.append((z, rng.normal(size=n) * 2))
    return pts


def sum_fitz_exactness(a, b, n_points=100, seed=0) -> SumCheckReport:
    """Compare F of the sum against the partial inf-convolution of the
    summands at sampled points, recording the worst gap and the exactness
    witnesses of every finite inf-convolution value.

    The left side is the closed form of :func:`fitz_evaluator`: the sum
    relation's for linear + linear, the QP over C cap dom A for linear +
    normal cone.  Where that evaluator does not exist (dom A misses C, a
    ball only touches dom A, A is not maximal) the left side is the sampled
    supremum with its polish, and points with a +inf inf-convolution go
    unchecked.  A point where exactly one side is +inf sets ``max_gap`` to
    +inf.  Cone-sum points where both sides are +inf count as
    ``skipped_points``.  A violated hypothesis flags the report as advisory
    but the check still runs.

    ``maximality`` is the exact verdict of :func:`sum_maximality`.
    """
    fa, fb = fitz_evaluator(a), fitz_evaluator(b)
    sum_op = ops.SumOp((a, b))
    both_linear = sum_op.relation is not None
    if both_linear:
        hypothesis_ok = True  # dom A - dom B is a subspace, closed in R^n
        mode = "linear+linear"
        notes = "domain-difference closedness holds automatically"
    else:
        lin, cone = split_linear_cone(a, b)
        hypothesis_ok = interior_domain_check(lin, cone.set)
        mode = "linear+normal-cone"
        notes = f"interior-domain check: {hypothesis_ok}"
    try:
        lhs_ev = fitz_evaluator(sum_op)
    except ops.UnsupportedOperatorError:
        lhs_ev = None
    max_gap = 0.0
    witnesses = []
    skipped = 0
    points = _sum_points(sum_op, n_points, seed)
    for idx, (z, zs) in enumerate(points):
        rhs = partial_inf_conv(fa, fb, z, zs)
        if lhs_ev is not None:
            lhs = lhs_ev.evaluate(z, zs)
        elif math.isinf(rhs.value):
            lhs = math.inf  # a sampled lower bound cannot certify +inf
        else:
            lhs = fitz_bruteforce(sum_op, z, zs, count=2000, radius=8.0,
                                  seed=seed + idx, divergence_check=False).value
        if math.isinf(rhs.value) and math.isinf(lhs):
            skipped += not both_linear
            continue
        if math.isinf(rhs.value) != math.isinf(lhs):
            max_gap = math.inf
            break
        max_gap = max(max_gap, abs(lhs - rhs.value))
        witnesses.append((idx, rhs.witness, rhs.inner_residual))
    return SumCheckReport(
        max_gap=max_gap, points_tested=len(points),
        exactness_witnesses=witnesses,
        maximality=ops.validate(sum_op).maximal,
        hypothesis_ok=hypothesis_ok, mode=mode, notes=notes,
        skipped_points=skipped)


def sum_non_enlargeable(a, b) -> NonEnlargeableCertificate:
    """Non-enlargeability of A + B for non-enlargeable linear summands.

    Raises PreconditionFailedError when a summand is enlargeable; a false
    verdict on the recomputed sum would contradict the sum theorem and is
    reported as an error, not a result.
    """
    rel = ops.SumOp((a, b)).relation
    if rel is None:
        raise ops.UnsupportedOperatorError("sum certificate needs linear terms")
    for term in (a, b):
        if isinstance(term, ops.LinearMapOp):
            cert = non_enlargeable_single_valued(term)
        else:
            cert = non_enlargeable_linear_relation(term)
        if not cert.verdict:
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


def random_maximal_monotone_relation(n, rng, rotate=True, max_tries=200
                                     ) -> ops.LinearRelationOp:
    """Random maximal monotone linear relation in R^n.

    Starts from the graph of a random monotone matrix; optionally rotates
    the graph by a random orthogonal transform of R^2n, rejection-sampling
    until the rotated graph is monotone again (dimension n is preserved).
    """
    base = ops.as_relation(random_monotone_matrix(n, rng))
    if not rotate:
        return base
    for _ in range(max_tries):
        q, _ = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)))
        cand = ops.LinearRelationOp(Subspace(2 * n, q @ base.graph.basis))
        rep = ops.validate(cand)
        if rep.monotone and rep.maximal:
            return cand
    return base
