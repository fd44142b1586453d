"""Linear + linear sums: the null-space sum relation and the factored
quad-quad inf-convolution against the cylinder intersection and the
per-point solve they replace, and the regression cases of rounding-negative
carrier eigenvalues."""

import math

import numpy as np
import pytest

from enlargekit import certificates
from enlargekit import fitzpatrick as fz
from enlargekit import operators as ops
from enlargekit.certificates import random_monotone_matrix, sum_fitz_exactness
from enlargekit.fitzpatrick import CARRIER_TOL, fitz_evaluator, partial_inf_conv
from enlargekit.linalg import (
    EIG_RANK_ATOL,
    EIG_RANK_RTOL,
    intersect,
    orthonormalize,
    pseudoinverse,
    same_span,
)
from enlargekit.operators import LinearMapOp, LinearRelationOp, SumOp


def _relation(rng, n, k, skew=False):
    """{(Q_k a, Q_k M a + Q_perp b)}: maximal monotone with domain ran Q_k,
    M = GG' + (G - G')/2 (its skew part with ``skew``)."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    g = rng.normal(size=(k, k)) / math.sqrt(max(k, 1))
    m = g @ g.T + 0.5 * (g - g.T)
    if skew:
        m = 0.5 * (m - m.T)
    cols = np.block([[q[:, :k], np.zeros((n, n - k))], [q[:, :k] @ m, q[:, k:]]])
    return LinearRelationOp.from_graph_columns(cols, n)


def _vertical():
    return LinearRelationOp.from_graph_columns(np.array([[0.0], [1.0]]), dim=1)


def _zero_times_space(n, rng=None):
    """{0} x R^n; from a rotated basis of R^n its U block is rounding dust,
    not zero, for n >= 3."""
    q = np.eye(n) if rng is None else np.linalg.qr(rng.normal(size=(n, n)))[0]
    return LinearRelationOp.from_graph_columns(np.vstack([np.zeros((n, n)), q]), n)


# --- references: the constructions the factored code replaced ---------------

def _cylinder_sum_relation(a, b):
    """gra(A + B) from the intersection of two cylinders in (x, a*, b*)."""
    ra, rb = ops.as_relation(a), ops.as_relation(b)
    n = ra.dim
    ka, kb = ra.graph.dim, rb.graph.dim
    s1 = np.zeros((3 * n, ka + n))
    s1[: 2 * n, :ka] = ra.graph.basis
    s1[2 * n:, ka:] = np.eye(n)
    s2 = np.zeros((3 * n, kb + n))
    s2[:n, :kb] = rb.graph.basis[:n]
    s2[2 * n:, :kb] = rb.graph.basis[n:]
    s2[n: 2 * n, kb:] = np.eye(n)
    common = intersect(orthonormalize(s1, ambient_dim=3 * n),
                       orthonormalize(s2, ambient_dim=3 * n))
    t = common.basis
    cols = np.vstack([t[:n], t[n: 2 * n] + t[2 * n:]])
    return LinearRelationOp(orthonormalize(cols, ambient_dim=2 * n))


class _Piece:
    """phi(v) = (1/4) c' P c, c = a + sign * U'v, constrained to ran W."""

    def __init__(self, cq, a, sign):
        self.cq, self.a, self.sign = cq, a, float(sign)
        nul = cq.null
        if nul.shape[1]:
            self.e = self.sign * (nul.T @ cq.u.T)
            self.d = -(nul.T @ a)
        else:
            self.e = np.zeros((0, cq.u.shape[0]))
            self.d = np.zeros(0)
        self.hess = 0.5 * cq.u @ cq.p @ cq.u.T

    def grad(self, v):
        c = self.a + self.sign * (self.cq.u.T @ v)
        return 0.5 * self.sign * (self.cq.u @ self.cq.p @ c)


def _per_point_quad_quad(f1, f2, x, y):
    """(v*, residual), or None for incompatible carriers: one SVD of the
    stacked carrier rows and one pseudoinverse of the reduced Hessian at
    every point."""
    cq1, cq2 = f1.data, f2.data
    p1 = _Piece(cq1, cq1.v.T @ x + cq1.u.T @ y, -1.0)
    p2 = _Piece(cq2, cq2.v.T @ x, +1.0)
    n = x.shape[0]
    e = np.vstack([p1.e, p2.e])
    d = np.concatenate([p1.d, p2.d])
    if e.shape[0]:
        left, s, vt = np.linalg.svd(e)
        rank = int(np.sum(s > CARRIER_TOL))
        dl = left.T @ d
        if float(np.linalg.norm(dl[rank:])) > CARRIER_TOL * (1.0 + np.linalg.norm(d)):
            return None
        v0 = vt[:rank].T @ (dl[:rank] / s[:rank])
        z = vt[rank:].T
    else:
        v0 = np.zeros(n)
        z = np.eye(n)
    hess = p1.hess + p2.hess
    if z.shape[1] == 0:
        return v0, 0.0
    hr = z.T @ hess @ z
    gr = z.T @ (p1.grad(v0) + p2.grad(v0))
    wstar = -pseudoinverse(0.5 * (hr + hr.T)) @ gr
    vstar = v0 + z @ wstar
    resid = float(np.linalg.norm(z.T @ (p1.grad(vstar) + p2.grad(vstar))))
    return vstar, resid


def _linear_pairs(rng):
    """Sums of maps (full, rank-deficient and skew), relations with
    k = 0 ... n, {0} x R^n and the vertical relation, with each other."""
    out = [(_vertical(), LinearMapOp(np.zeros((1, 1)))),
           (_vertical(), _vertical()),
           (LinearMapOp([[0.0, -1.0], [1.0, 0.0]]), LinearMapOp(np.eye(2)))]
    for n in (1, 2, 3, 5, 8):
        full = random_monotone_matrix(n, rng)
        deficient = random_monotone_matrix(n, rng, rank_deficient=True)
        k = rng.normal(size=(n, n))
        skew = LinearMapOp(0.5 * (k - k.T))
        rels = [_relation(rng, n, j, skew=bool(j % 2)) for j in range(n + 1)]
        out += [(full, deficient), (full, skew), (skew, skew), (deficient, rels[-1]),
                (_zero_times_space(n), full), (_zero_times_space(n), _zero_times_space(n)),
                (_zero_times_space(n, rng), _zero_times_space(n, rng)),
                (_zero_times_space(n, rng), rels[n // 2]),
                (rels[0], rels[n // 2])]
        out += [(rels[j], rels[n - j]) for j in range(n + 1)]
    return out


def test_the_null_space_sum_relation_spans_the_cylinder_intersection():
    rng = np.random.default_rng(14)
    for a, b in _linear_pairs(rng):
        got, ref = ops.sum_relation(a, b), _cylinder_sum_relation(a, b)
        assert got.graph.dim == ref.graph.dim
        assert same_span(got.graph, ref.graph, tol=1e-8)


def test_the_factored_quad_quad_solve_matches_the_per_point_solve():
    rng = np.random.default_rng(15)
    finite = infinite = 0
    for a, b in _linear_pairs(rng):
        n = a.dim
        fa, fb = fitz_evaluator(a), fitz_evaluator(b)
        # points of the sum's graph (compatible carriers) and random points
        # (incompatible ones wherever a carrier is a proper subspace)
        pts = list(ops.sample_graph(SumOp((a, b)), 6, 2.0, seed=n))
        pts += [(rng.normal(size=n), rng.normal(size=n)) for _ in range(6)]
        for x, y in pts:
            ref = _per_point_quad_quad(fa, fb, x, y)
            got = partial_inf_conv(fa, fb, x, y)
            if ref is None:
                infinite += 1
                assert got.value == math.inf and got.witness is None
                continue
            finite += 1
            vstar, resid = ref
            value = fa.evaluate(x, y - vstar, tol=1e-7) + fb.evaluate(x, vstar, tol=1e-7)
            assert np.array_equal(got.witness, vstar)
            assert got.inner_residual == resid
            assert got.value == value
    assert finite > 100 and infinite > 20


def test_the_carrier_pair_is_built_once_per_ordered_summand_pair(monkeypatch):
    built = []
    real = fz.CarrierPair.build

    def counting(cq1, cq2):
        built.append((cq1, cq2))
        return real(cq1, cq2)

    monkeypatch.setattr(fz.CarrierPair, "build", staticmethod(counting))
    rng = np.random.default_rng(3)
    a, b = random_monotone_matrix(4, rng, rank_deficient=True), _relation(rng, 4, 2)
    for _ in range(2):
        rep = sum_fitz_exactness(a, b, n_points=10, seed=2)
        assert rep.max_gap <= 1e-9 and rep.points_tested == 10 and rep.exactness_witnesses
    assert len(built) == 1
    # fresh evaluators read the pair the check kept on a; (b, a) is a new pair
    fa, fb = fitz_evaluator(a), fitz_evaluator(b)
    for _ in range(5):
        for f1, f2 in ((fa, fb), (fb, fa)):
            partial_inf_conv(f1, f2, rng.normal(size=4), rng.normal(size=4))
    assert [pair[0] for pair in built] == [fa.data, fb.data]


@pytest.mark.parametrize("seed", [72, 86, 91])
def test_a_relation_plus_a_skew_relation_has_no_rounding_negative_carrier(seed):
    # each raised NotPSDError from a carrier eigenvalue of about -2e-12 to
    # -7e-12 that the monotonicity test (absolute slack 1e-10) had accepted
    rng = np.random.default_rng(seed)
    a, b = _relation(rng, 20, 10), _relation(rng, 20, 10, skew=True)
    rep = sum_fitz_exactness(a, b, n_points=12, seed=0)
    assert rep.max_gap <= 1e-9


# --- the batched sum check against the per-point loop it replaced -----------

def _per_point_sum_points(rel, n_points, seed):
    """The test points one at a time, with one least-squares solve per
    range-compatible perturbation, under the package's rank rule for U: no
    rank when every entry is rounding dust, else singular values above
    ``EIG_RANK_RTOL`` times the largest."""
    rng = np.random.default_rng(seed)
    n = rel.dim
    u, v = rel.u_block, rel.v_block
    w = 0.5 * (u.T @ v + v.T @ u)
    dust = float(np.max(np.abs(u), initial=0.0)) <= EIG_RANK_ATOL
    pts = []
    while len(pts) < n_points:
        t = rng.normal(size=rel.graph.dim)
        z, zs = u @ t, v @ t
        kind = len(pts) % 3
        if kind == 0:
            pts.append((z, zs))
        elif kind == 1:
            target = w @ rng.normal(size=w.shape[0])
            d = np.zeros(n) if dust else np.linalg.lstsq(u.T, target, rcond=EIG_RANK_RTOL)[0]
            if np.linalg.norm(u.T @ d - target) < 1e-9 * (1 + np.linalg.norm(target)):
                pts.append((z, zs + d))
            else:
                pts.append((z, zs))
        else:
            pts.append((rng.normal(size=n) * 2, rng.normal(size=n) * 2))
    return pts


def _per_point_sum_check(a, b, n_points, seed):
    """(max_gap, witnesses, points, scale): the scalar inf-convolution and
    the sum evaluator at each point in turn, stopping at the first point
    where exactly one side is +inf; ``scale`` is the largest |F| compared."""
    fa, fb = fitz_evaluator(a), fitz_evaluator(b)
    sum_op = SumOp((a, b))
    lhs_ev = fitz_evaluator(sum_op)
    points = _per_point_sum_points(sum_op.relation, n_points, seed)
    max_gap, witnesses, scale = 0.0, [], 0.0
    for idx, (z, zs) in enumerate(points):
        rhs = partial_inf_conv(fa, fb, z, zs)
        lhs = lhs_ev.evaluate(z, zs)
        if math.isinf(rhs.value) and math.isinf(lhs):
            continue
        if math.isinf(rhs.value) != math.isinf(lhs):
            max_gap = math.inf
            break
        max_gap = max(max_gap, abs(lhs - rhs.value))
        scale = max(scale, abs(lhs))
        witnesses.append((idx, rhs.witness, rhs.inner_residual))
    return max_gap, witnesses, points, scale


def _reduced_condition(a, b):
    """Condition number of the pair's reduced Hessian on its range (1 when
    the carriers fix v*): how far the minimiser moves with rounding."""
    lam = np.linalg.eigvalsh(fitz_evaluator(a).carrier_pair(fitz_evaluator(b)).hr_pinv)
    lam = lam[lam > 1e-12 * lam.max(initial=0.0)]
    return float(lam.max() / lam.min()) if lam.size else 1.0


def _batched_cases():
    rng = np.random.default_rng(17)
    out = []
    for n in (2, 5, 40):
        k = rng.normal(size=(n, n))
        skew = LinearMapOp(0.5 * (k - k.T))
        full = random_monotone_matrix(n, rng)
        deficient = random_monotone_matrix(n, rng, rank_deficient=True)
        half = max(1, n // 2)
        out += [(f"maps-{n}", full, skew), (f"maps-deficient-{n}", deficient, skew),
                (f"relations-{n}", _relation(rng, n, n), _relation(rng, n, n, skew=True)),
                # proper domains: random points are off both carriers
                (f"relations-proper-{n}", _relation(rng, n, half),
                 _relation(rng, n, n - half, skew=True)),
                (f"map-relation-{n}", deficient, _relation(rng, n, half))]
    return out


_BATCHED = _batched_cases()


@pytest.mark.parametrize("a, b", [case[1:] for case in _BATCHED],
                         ids=[case[0] for case in _BATCHED])
def test_the_batched_sum_check_matches_the_per_point_loop(a, b):
    # rows go through matrix products where the loop ran matrix-vector
    # ones, so the two round differently: the gap, a difference of values
    # of size |F|, agrees to 1e-12 of that size, and v* to 1e-12 times the
    # condition of the reduced problem that fixes it
    rep = sum_fitz_exactness(a, b, n_points=30, seed=5)
    gap, witnesses, points, scale = _per_point_sum_check(a, b, 30, 5)
    got = certificates._sum_points(rep.sum_op, 30, 5)
    assert got.shape == (30, 2, a.dim) and rep.points_tested == len(points) == 30
    for (z, zs), (rz, rzs) in zip(got, points):
        assert np.allclose(z, rz, rtol=1e-12, atol=1e-12)
        assert np.allclose(zs, rzs, rtol=1e-12, atol=1e-12)
    if math.isinf(gap):
        assert rep.max_gap == gap
    else:
        assert abs(rep.max_gap - gap) <= 1e-12 * (1.0 + scale)
    assert [w[0] for w in rep.exactness_witnesses] == [w[0] for w in witnesses]
    rtol = 1e-12 * _reduced_condition(a, b)
    for (_, v, _), (_, rv, _) in zip(rep.exactness_witnesses, witnesses):
        assert np.linalg.norm(v - rv) <= rtol * (1.0 + np.linalg.norm(rv))


def test_a_one_sided_infinity_ends_the_batched_check(monkeypatch):
    # the first point where exactly one side is +inf sets the gap to +inf,
    # and the witnesses stop before it
    real = fz.CarrierPair.solve

    def incompatible_at_4(self, x, y):
        vstar, resid, ok = real(self, x, y)
        ok = np.array(ok)
        ok[4] = False
        return vstar, resid, ok

    monkeypatch.setattr(fz.CarrierPair, "solve", incompatible_at_4)
    rng = np.random.default_rng(8)
    k = rng.normal(size=(5, 5))
    rep = sum_fitz_exactness(random_monotone_matrix(5, rng), LinearMapOp(0.5 * (k - k.T)),
                             n_points=12, seed=1)
    assert rep.max_gap == math.inf
    assert [w[0] for w in rep.exactness_witnesses] == [0, 1, 2, 3]


def test_the_batched_cases_include_points_infinite_on_both_sides():
    reports = [sum_fitz_exactness(a, b, n_points=30, seed=5) for _, a, b in _BATCHED]
    passed_over = [len(rep.exactness_witnesses) < rep.points_tested for rep in reports]
    assert any(passed_over) and not all(passed_over)
    assert all(rep.max_gap <= 1e-6 for rep in reports)
