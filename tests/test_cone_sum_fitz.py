"""The closed form of F for a linear + normal-cone sum: one QP over C cap
dom A, checked against an independent enumeration of its faces, plus the
wiring that reads it (sum check, oracle polish, enlargement, CLI)."""

import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from enlargekit import certificates, cli, linalg
from enlargekit import fitzpatrick as fz
from enlargekit import operators as ops
from enlargekit.certificates import (
    random_maximal_monotone_relation,
    random_monotone_matrix,
    sum_fitz_exactness,
)
from enlargekit.fitzpatrick import fitz_bruteforce, fitz_evaluator, pairing
from enlargekit.linalg import SolverFailureError, complement, orthonormalize
from enlargekit.operators import (
    Ball,
    Box,
    LinearMapOp,
    LinearRelationOp,
    NormalConeOp,
    Polytope,
    SumOp,
    graph_member,
)


# ---------------------------------------------------------------------------
# an independent reference: enumerate the faces of the feasible set
# ---------------------------------------------------------------------------

def _objective(b, h, s):
    return float(b @ s - s @ h @ s)


def _face_best(b, h, g, fixed_value, free, e, f):
    """Best feasible candidate of max b'(G x) - (G x)'H(G x) over the faces
    of {E x = f, x in bounds}: per face, solve the KKT system of the free
    variables by least squares.  A maximiser of a concave quadratic is a
    stationary point of some face whose least-squares KKT point is
    feasible, so the best feasible candidate is the maximum."""
    hx = g.T @ h @ g
    bx = g.T @ b
    x = fixed_value.copy()
    nf = int(free.sum())
    ef = e[:, free]
    kkt = np.zeros((nf + e.shape[0], nf + e.shape[0]))
    kkt[:nf, :nf] = 2.0 * hx[np.ix_(free, free)]
    kkt[:nf, nf:] = ef.T
    kkt[nf:, :nf] = ef
    rhs = np.concatenate([bx[free] - 2.0 * hx[np.ix_(free, ~free)] @ x[~free],
                          f - e[:, ~free] @ x[~free]])
    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    x[free] = sol[:nf]
    return x


def ref_box(b, h, q, lo, hi):
    """max over {s : lo <= Q s <= hi} of b's - s'Hs, in x = Q s."""
    n = q.shape[0]
    e = complement(orthonormalize(q, ambient_dim=n)).basis.T
    best = -math.inf
    for pattern in itertools.product((0, 1, 2), repeat=n):
        pattern = np.asarray(pattern)
        x = _face_best(b, h, q.T, np.where(pattern == 0, lo, hi), pattern == 2,
                       e, np.zeros(e.shape[0]))
        if np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12) and \
                np.linalg.norm(e @ x) <= 1e-10:
            best = max(best, _objective(b, h, q.T @ x))
    return best


def ref_polytope(b, h, q, verts):
    """max over {s : Q s in hull(verts)} of b's - s'Hs, in vertex weights."""
    p = np.asarray(verts).T
    n, m = p.shape
    perp = complement(orthonormalize(q, ambient_dim=n)).basis.T
    e = np.vstack([np.ones(m), perp @ p])
    f = np.concatenate([[1.0], np.zeros(perp.shape[0])])
    best = -math.inf
    for mask in itertools.product((False, True), repeat=m):
        free = np.asarray(mask)
        if not free.any():
            continue
        lam = _face_best(b, h, q.T @ p, np.zeros(m), free, e, f)
        if np.all(lam >= -1e-12) and np.linalg.norm(e @ lam - f) <= 1e-10:
            best = max(best, _objective(b, h, q.T @ p @ lam))
    return best


def ref_ball(b, h, q, center, radius):
    """max over {s : ||Q s - center|| <= radius} of b's - s'Hs, by bisection
    on the multiplier of the sphere."""
    s0 = q.T @ center
    rho = math.sqrt(radius ** 2 - float(np.sum((center - q @ s0) ** 2)))
    k = q.shape[1]
    # interior: the stationary set {2 H s = b}, if consistent, nearest s0
    s_ls = np.linalg.lstsq(2.0 * h, b, rcond=None)[0]
    if np.linalg.norm(2.0 * h @ s_ls - b) <= 1e-12 * (1.0 + np.linalg.norm(b)):
        null = complement(orthonormalize(h, ambient_dim=k)).basis if k else np.zeros((0, 0))
        s_p = s_ls + null @ (null.T @ (s0 - s_ls))
        if np.linalg.norm(s_p - s0) <= rho:
            return _objective(b, h, s_p)

    def s_of(mu):
        return np.linalg.solve(2.0 * h + 2.0 * mu * np.eye(k), b + 2.0 * mu * s0)

    lo, hi = 0.0, 1.0
    while np.linalg.norm(s_of(hi) - s0) > rho:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(s_of(mid) - s0) > rho:
            lo = mid
        else:
            hi = mid
    return _objective(b, h, s_of(hi))


def _chart(lin):
    """(Q, M, H) of the reduction, computed here from the graph basis."""
    rel = ops.as_relation(lin)
    u, v = rel.u_block, rel.v_block
    q = orthonormalize(u, ambient_dim=lin.dim).basis
    m = v @ np.linalg.lstsq(q.T @ u, np.eye(q.shape[1]), rcond=None)[0]
    return q, m, 0.5 * (q.T @ m + m.T @ q)


def reference(lin, c, z, zs):
    q, m, h = _chart(lin)
    b = m.T @ z + q.T @ zs
    if isinstance(c, Box):
        return ref_box(b, h, q, c.lo, c.hi)
    if isinstance(c, Ball):
        return ref_ball(b, h, q, c.center, c.radius)
    return ref_polytope(b, h, q, c.vertices)


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

def _proper_domain_relation(n, rng):
    """{(Q a, Q M a + Q_perp b)}: maximal, domain of dimension n - 1."""
    k = n - 1
    qm, _ = np.linalg.qr(rng.normal(size=(n, n)))
    mk = random_monotone_matrix(k, rng, rank_deficient=True).matrix
    cols = np.block([[qm[:, :k], np.zeros((n, n - k))], [qm[:, :k] @ mk, qm[:, k:]]])
    return LinearRelationOp.from_graph_columns(cols, dim=n)


def _linear_terms(n, rng):
    return [
        ("map", random_monotone_matrix(n, rng)),
        ("singular map", random_monotone_matrix(n, rng, rank_deficient=True)),
        ("skew map", LinearMapOp(np.triu(np.ones((n, n)), 1) - np.tril(np.ones((n, n)), -1))),
        ("relation", random_maximal_monotone_relation(n, rng)),
        ("proper domain", _proper_domain_relation(n, rng)),
    ]


def _sets(n, rng):
    verts = rng.normal(size=(n + 3, n))
    verts -= verts.mean(axis=0)  # the centroid, an interior point, at 0
    return [
        Box(-rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)),
        Ball(rng.uniform(-0.2, 0.2, n), float(rng.uniform(0.6, 1.4))),
        Polytope(tuple(verts)),
    ]


def _points_of(c, q, rng, count):
    """Points inside C cap D: multiples of a direction of D (0 is inside C)."""
    out = []
    while len(out) < count:
        z = q @ rng.normal(size=q.shape[1]) if q.shape[1] else np.zeros(q.shape[0])
        for scale in (1.0, 0.5, 0.2, 0.05, 0.0):
            if c.contains(scale * z / 0.95, tol=1e-12):  # C is star-shaped about 0
                out.append(scale * z)
                break
    return out


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cone_sum_evaluator_matches_the_face_enumeration(n, seed):
    rng = np.random.default_rng(100 * n + seed)
    for name, lin in _linear_terms(n, rng):
        q, m, _ = _chart(lin)
        for c in _sets(n, rng):
            ev = fitz_evaluator(SumOp((lin, NormalConeOp(c))))
            assert isinstance(ev, fz.ConeSumFitz)
            perp = complement(orthonormalize(q, ambient_dim=n)).basis
            for z in _points_of(c, q, rng, 4):
                # z is inside C, so (z, M Q'z + D-perp) is on the sum's graph
                on_graph = m @ (q.T @ z) + perp @ rng.normal(size=perp.shape[1])
                for zs in (3.0 * rng.normal(size=n), on_graph):
                    got, want = ev.evaluate(z, zs), reference(lin, c, z, zs)
                    assert got == pytest.approx(want, rel=1e-8, abs=1e-8), (name, c, z, zs)
                    assert got >= pairing(z, zs) - 1e-9
                assert ev.evaluate(z, on_graph) == pytest.approx(pairing(z, on_graph), abs=1e-8)
            if q.shape[1] == n:  # the sampler needs the cone's points in dom A
                for x, xs in ops.sample_graph(SumOp((lin, NormalConeOp(c))), 12, 2.0, seed):
                    assert ev.evaluate(x, xs) == pytest.approx(pairing(x, xs), rel=1e-8, abs=1e-8)


def test_cone_sum_evaluator_is_infinite_off_c_cap_d():
    rel = _proper_domain_relation(3, np.random.default_rng(4))
    q, _, _ = _chart(rel)
    ev = fitz_evaluator(SumOp((rel, NormalConeOp(Box(-np.ones(3), np.ones(3))))))
    perp = complement(orthonormalize(q, ambient_dim=3)).basis[:, 0]
    zs = np.ones(3)
    assert math.isfinite(ev.evaluate(0.1 * q[:, 0], zs))
    assert math.isinf(ev.evaluate(0.1 * q[:, 0] + 0.01 * perp, zs))  # off D
    far = 2.0 * q[:, 0] / np.max(np.abs(q[:, 0]))
    assert math.isinf(ev.evaluate(far, zs))  # in D, off C


def test_cone_sum_evaluator_refuses_what_the_reduction_does_not_cover():
    vertical = LinearRelationOp.from_graph_columns(np.array([[0.0], [1.0]]), dim=1)
    with pytest.raises(ops.UnsupportedOperatorError):  # C cap D empty
        fitz_evaluator(SumOp((vertical, NormalConeOp(Box([1.0], [2.0])))))
    line = LinearRelationOp.from_graph_columns(np.array([[1.0], [0.0], [0.0], [0.0]]), dim=2)
    with pytest.raises(ops.UnsupportedOperatorError):  # D only touches the ball
        fitz_evaluator(SumOp((line, NormalConeOp(Ball([0.0, 1.0], 1.0)))))
    # graph {(t e1, 0)}: monotone, dimension 1 < n, not maximal
    with pytest.raises(ops.UnsupportedOperatorError):
        fitz_evaluator(SumOp((line, NormalConeOp(Box([-1.0, -1.0], [1.0, 1.0])))))


def test_qp_cycle_cap_raises(monkeypatch):
    monkeypatch.setattr(linalg, "QP_CYCLES_PER_VARIABLE", 0)
    ev = fitz_evaluator(SumOp((LinearMapOp(np.eye(2)), NormalConeOp(Box([-1.0, -1.0], [1.0, 1.0])))))
    with pytest.raises(SolverFailureError):
        ev.evaluate(np.zeros(2), np.array([5.0, 1.0]))


def test_ball_qp_on_a_singular_form_meets_the_sphere():
    # B = diag(2, 0): g off ran B pushes the minimiser onto the sphere
    lam, vecs = np.array([2.0, 0.0]), np.eye(2)
    y, gap, mu = linalg.ball_qp(lam, vecs, np.array([1.0, 1.0]), 1.0)
    assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12) and gap <= 1e-12
    np.testing.assert_allclose((lam + mu) * y, [1.0, 1.0], atol=1e-12)  # (B + mu I) y = g
    inside, gap, mu = linalg.ball_qp(lam, vecs, np.array([1.0, 0.0]), 1.0)
    np.testing.assert_allclose(inside, [0.5, 0.0], atol=1e-15)
    assert mu == 0.0


# ---------------------------------------------------------------------------
# the sum check and the oracle read the closed form
# ---------------------------------------------------------------------------

def test_relation_plus_box_sum_is_exact():
    box = NormalConeOp(Box(-np.ones(3), np.ones(3)))
    for s in range(4):
        rel = random_maximal_monotone_relation(3, np.random.default_rng(s))
        rep = sum_fitz_exactness(rel, box)
        assert rep.max_gap <= 1e-6, (s, rep.max_gap)


def test_cone_sum_exactness_samples_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled where the closed form applies")

    monkeypatch.setattr(fz, "fitz_bruteforce", refuse)
    monkeypatch.setattr(ops, "sample_graph", refuse)
    a = LinearMapOp([[1.0, -1.0], [1.0, 1.0]])
    for c in (Box([-1.0, -1.0], [1.0, 1.0]), Ball([0.1, 0.0], 1.0)):
        rep = sum_fitz_exactness(a, NormalConeOp(c), n_points=16, seed=3)
        assert rep.max_gap <= 1e-6 and rep.skipped_points == 0


def test_one_sided_infinity_is_an_infinite_gap(monkeypatch):
    real = certificates.partial_inf_conv

    def finite_everywhere(f1, f2, x, y):
        out = real(f1, f2, x, y)
        return fz.InfConvResult(0.0, out.witness, 0.0, out.sum_value) if math.isinf(out.value) else out

    monkeypatch.setattr(certificates, "partial_inf_conv", finite_everywhere)
    vertical = LinearRelationOp.from_graph_columns(np.array([[0.0], [1.0]]), dim=1)
    rep = sum_fitz_exactness(vertical, NormalConeOp(Box([-1.0], [1.0])), n_points=9)
    assert math.isinf(rep.max_gap)


def test_bruteforce_polish_of_a_relation_plus_cone_is_exact():
    rel = random_maximal_monotone_relation(3, np.random.default_rng(2))
    op = SumOp((rel, NormalConeOp(Box(-np.ones(3), np.ones(3)))))
    ev = fitz_evaluator(op)
    rng = np.random.default_rng(7)
    for _ in range(5):
        z, zs = rng.uniform(-1.0, 1.0, 3), 2.0 * rng.normal(size=3)
        res = fitz_bruteforce(op, z, zs, count=200, radius=4.0)
        assert res.value == pytest.approx(ev.evaluate(z, zs), rel=1e-10, abs=1e-10)
        assert graph_member(op, *res.best_pair, tol=1e-8)


# ---------------------------------------------------------------------------
# the right side: the inf-convolution is the cone-sum QP's dual
# ---------------------------------------------------------------------------

def _relation_with_domain(n, k, rng):
    """{(Q a, Q M a + Q_perp b)}: maximal, dom = ran Q of dimension k."""
    qm, _ = np.linalg.qr(rng.normal(size=(n, n)))
    mk = random_monotone_matrix(k, rng).matrix if k else np.zeros((0, 0))
    cols = np.block([[qm[:, :k], np.zeros((n, n - k))], [qm[:, :k] @ mk, qm[:, k:]]])
    return LinearRelationOp.from_graph_columns(cols, dim=n)


@pytest.mark.parametrize("k", [3, 2, 1, 0])
def test_the_qp_multiplier_is_the_inf_convolution_minimiser(k):
    rng = np.random.default_rng(40 + k)
    compared = 0
    for c in _sets(3, rng):
        lin = _relation_with_domain(3, k, rng) if k < 3 else random_monotone_matrix(3, rng)
        fa, fc = fitz_evaluator(lin), fitz_evaluator(NormalConeOp(c))
        qp = fa.cone_qp(c)
        h = 0.5 * (qp.q.T @ qp.m + qp.m.T @ qp.q)
        for z in _points_of(c, qp.q, rng, 4):
            zs = 2.0 * rng.normal(size=3)
            b = qp.m.T @ z + qp.q.T @ zs
            s, _, v = qp.solve(b)
            p = qp.q @ s
            assert c.support(v) - v @ p <= 1e-9 * (1.0 + np.linalg.norm(v)), c
            np.testing.assert_allclose(qp.q.T @ v, b - 2.0 * h @ s, atol=1e-9)
            res = fz.partial_inf_conv(fa, fc, z, zs)
            assert 0.0 <= res.inner_residual <= 1e-8, (c, res.inner_residual)
            assert res.value == pytest.approx(fitz_evaluator(SumOp((lin, NormalConeOp(c))))
                                              .evaluate(z, zs), rel=1e-9, abs=1e-9)
            flipped = fz.partial_inf_conv(fc, fa, z, zs)
            assert flipped.value == pytest.approx(res.value, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(flipped.witness, zs - res.witness, atol=1e-12)
            # at k = 0, dom A = {0} and z = 0, where F is the pairing; there
            # _chart would read the rounding in U as a domain direction
            want = pairing(z, zs) if k == 0 else reference(lin, c, z, zs)
            assert res.value == pytest.approx(want, rel=1e-8, abs=1e-8), c
            compared += 1
    assert compared == 12


def test_linear_plus_cone_never_runs_douglas_rachford(monkeypatch):
    def refuse(*args):
        raise AssertionError("Douglas-Rachford on a linear + normal-cone pair")

    monkeypatch.setattr(fz, "_douglas_rachford", refuse)
    a = LinearMapOp([[1.0, -1.0], [1.0, 1.0]])
    verts = ((1.0, 0.0), (0.0, 1.0), (-1.0, -1.0))
    for c in (Box([-1.0, -1.0], [1.0, 1.0]), Ball([0.1, 0.0], 1.0), Polytope(verts)):
        for terms in ((a, NormalConeOp(c)), (NormalConeOp(c), a)):
            rep = sum_fitz_exactness(*terms, n_points=8, seed=5)
            assert rep.max_gap <= 1e-9 and rep.skipped_points == 0
            assert max(w[2] for w in rep.exactness_witnesses) <= 1e-8


def test_the_cone_sum_qp_is_built_once_per_set(monkeypatch):
    built = []
    real = fz.ConeSumQP.build

    def counting(lin, c):
        built.append(c)
        return real(lin, c)

    monkeypatch.setattr(fz.ConeSumQP, "build", staticmethod(counting))
    a = LinearMapOp([[1.0, -1.0], [1.0, 1.0]])
    box, ball = Box([-1.0, -1.0], [1.0, 1.0]), Ball([0.1, 0.0], 1.0)
    fa = fitz_evaluator(a)
    rng = np.random.default_rng(6)
    for c in (box, ball, box):
        fc = fitz_evaluator(NormalConeOp(c))
        for _ in range(16):
            fz.partial_inf_conv(fa, fc, c.project(rng.normal(size=2)), rng.normal(size=2))
    assert built == [box, ball]
    built.clear()
    # a keeps its QP per set: the check reuses the box QP built above, and
    # with a fresh map the left side reads the right side's QP
    sum_fitz_exactness(a, NormalConeOp(box), n_points=16, seed=3)
    assert built == []
    sum_fitz_exactness(LinearMapOp(a.matrix), NormalConeOp(box), n_points=16, seed=3)
    assert built == [box]
    built.clear()
    # a QP the set refuses is a kept record too: dom = span e1 misses the
    # ball about (0, 2), so F is +inf on the ball and the sum has no closed form
    line = LinearRelationOp.from_graph_columns(
        np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]).T, dim=2)
    far = Ball([0.0, 2.0], 1.0)
    fl, ff = fitz_evaluator(line), fitz_evaluator(NormalConeOp(far))
    for _ in range(2):
        for _ in range(8):
            z = far.project(rng.normal(size=2))
            assert math.isinf(fz.partial_inf_conv(fl, ff, z, rng.normal(size=2)).value)
        with pytest.raises(ops.UnsupportedOperatorError, match="misses the interior of the ball"):
            fitz_evaluator(SumOp((line, NormalConeOp(far))))
    assert built == [far]
    assert fl.cone_qp(far).solve is None


def test_the_cone_sum_check_solves_the_qp_once_per_point(monkeypatch):
    solves, built = [], []
    real_max, real_build = fz.ConeSumQP.maximiser, fz.ConeSumQP.build

    def counting_max(self, x, xs):
        solves.append((x, xs))
        return real_max(self, x, xs)

    def counting_build(lin, c):
        built.append(c)
        return real_build(lin, c)

    monkeypatch.setattr(fz.ConeSumQP, "maximiser", counting_max)
    monkeypatch.setattr(fz.ConeSumQP, "build", staticmethod(counting_build))
    a, box = LinearMapOp([[1.0, -1.0], [1.0, 1.0]]), Box([-1.0, -1.0], [1.0, 1.0])
    rep = sum_fitz_exactness(a, NormalConeOp(box), n_points=16, seed=3)
    assert (len(solves), len(built)) == (16, 1)
    assert len(rep.exactness_witnesses) == 16 and rep.max_gap <= 1e-9


_VERTICAL = LinearRelationOp.from_graph_columns(np.array([[0.0], [1.0]]), dim=1)


@pytest.mark.parametrize("a, b", [
    (LinearMapOp([[1.0, -1.0], [1.0, 1.0]]), NormalConeOp(Box([-1.0, -1.0], [1.0, 1.0]))),
    (NormalConeOp(Ball([0.1, 0.0], 1.0)), LinearMapOp([[2.0, -1.0], [1.0, 1.0]])),
    (_VERTICAL, NormalConeOp(Box([-1.0], [1.0]))),  # skips the points off dom A
    (_VERTICAL, NormalConeOp(Box([1.0], [2.0]))),  # no QP: skips every point
], ids=["map-box", "ball-map", "vertical-interval", "dom-misses-c"])
def test_the_one_solve_check_matches_a_two_solve_reference(a, b):
    # the reference is the check with the left side from the sum's own
    # evaluator, a second QP solved at every point
    rep = sum_fitz_exactness(a, b, n_points=12, seed=4)
    fa, fb = fitz_evaluator(a), fitz_evaluator(b)
    try:
        lhs_of = fitz_evaluator(rep.sum_op).evaluate
    except ops.UnsupportedOperatorError:
        lhs_of = lambda z, zs: math.inf
    gap, witnesses, skipped = 0.0, [], 0
    for idx, (z, zs) in enumerate(certificates._sum_points(rep.sum_op, 12, 4)):
        rhs, lhs = fz.partial_inf_conv(fa, fb, z, zs), lhs_of(z, zs)
        if math.isinf(rhs.value) and math.isinf(lhs):
            skipped += 1
            continue
        assert math.isinf(rhs.value) == math.isinf(lhs)
        gap = max(gap, abs(lhs - rhs.value))
        witnesses.append((idx, rhs.witness, rhs.inner_residual))
    assert (rep.max_gap, rep.skipped_points) == (gap, skipped)
    assert len(rep.exactness_witnesses) == len(witnesses)
    for (i, v, r), (j, w, s) in zip(rep.exactness_witnesses, witnesses):
        assert (i, r) == (j, s) and np.array_equal(v, w)


def test_a_linear_plus_cone_pair_without_a_qp_raises_at_once(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("Douglas-Rachford on a linear + normal-cone pair")

    monkeypatch.setattr(fz, "_douglas_rachford", refuse)
    # graph {(t e1, 0)}: not maximal; dom A only touches the ball
    line = LinearRelationOp.from_graph_columns(np.array([[1.0], [0.0], [0.0], [0.0]]), dim=2)
    ball = NormalConeOp(Ball([0.0, 1.0], 1.0))
    with pytest.raises(ops.UnsupportedOperatorError):
        sum_fitz_exactness(line, ball)
    f_line, f_ball = fitz_evaluator(line), fitz_evaluator(ball)
    assert math.isinf(fz.partial_inf_conv(f_line, f_ball, [0.0, 3.0], [1.0, 1.0]).value)
    with pytest.raises(ops.UnsupportedOperatorError):
        fz.partial_inf_conv(f_line, f_ball, [0.0, 1.0], [1.0, 1.0])
    # a maximal A whose domain span(e1) only touches the ball: +inf off dom A,
    # and no QP at the touching point
    touch = LinearRelationOp.from_graph_columns(
        np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]).T, dim=2)
    f_touch = fitz_evaluator(touch)
    assert math.isinf(fz.partial_inf_conv(f_touch, f_ball, [0.0, 1.0], [1.0, 1.0]).value)
    with pytest.raises(ops.UnsupportedOperatorError):
        fz.partial_inf_conv(f_ball, f_touch, [0.0, 0.0], [1.0, 1.0])
    specs = (_spec(tmp_path, "line.json", {"kind": "linear_relation",
                                           "graph_basis": [[1, 0, 0, 0]]}),
             _spec(tmp_path, "ball.json", {"kind": "normal_cone", "set": {
                 "kind": "ball", "center": [0, 1], "radius": 1}}))
    assert cli.main(["sumcheck", *specs]) == cli.EXIT_PRECONDITION


def test_a_domain_that_misses_c_skips_every_point(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled a sum with no closed form")

    monkeypatch.setattr(fz, "fitz_bruteforce", refuse)
    monkeypatch.setattr(ops, "sample_graph", refuse)
    monkeypatch.setattr(fz, "_douglas_rachford", refuse)
    vertical = LinearRelationOp.from_graph_columns(np.array([[0.0], [1.0]]), dim=1)
    rep = sum_fitz_exactness(vertical, NormalConeOp(Box([1.0], [2.0])), n_points=12)
    assert rep.skipped_points == rep.points_tested == 12
    assert rep.max_gap == 0.0 and rep.maximality is False


# ---------------------------------------------------------------------------
# graph membership of a relation plus a cone
# ---------------------------------------------------------------------------

def test_affine_plus_face_cone_membership():
    d = np.array([1.0, 1.0]) / math.sqrt(2.0)
    dp = np.array([1.0, -1.0]) / math.sqrt(2.0)
    rel = LinearRelationOp.from_graph_columns(
        np.stack([np.concatenate([d, d]), np.concatenate([np.zeros(2), dp])], axis=1), dim=2)
    x = np.zeros(2)
    everything = SumOp((rel, NormalConeOp(Box([0.0, -1.0], [1.0, 0.0]))))
    assert graph_member(everything, x, [3.0, 5.0])
    half = SumOp((NormalConeOp(Box([0.0, 0.0], [1.0, 1.0])), rel))
    assert graph_member(half, x, [-1.0, -1.0])
    assert not graph_member(half, x, [1.0, 1.0])


def test_affine_plus_ray_membership():
    # {(t e1, t e1 + s e2)} plus N of the unit disc at e1: e1 + span(e2) plus
    # the ray along e1, the half-plane x*_1 >= 1
    e = np.eye(2)
    rel = LinearRelationOp.from_graph_columns(
        np.stack([np.concatenate([e[0], e[0]]), np.concatenate([np.zeros(2), e[1]])], axis=1),
        dim=2)
    op = SumOp((rel, NormalConeOp(Ball([0.0, 0.0], 1.0))))
    assert graph_member(op, e[0], [2.0, 5.0])
    assert not graph_member(op, e[0], [0.5, 0.0])


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _spec(tmp_path, name, operator, n=2):
    path = tmp_path / name
    path.write_text(json.dumps({"space_dim": n, "operator": operator}))
    return str(path)


BOX = {"kind": "normal_cone", "set": {"kind": "box", "lo": [-1, -1], "hi": [1, 1]}}


def _main(*argv):
    proc = subprocess.run([sys.executable, "-m", "enlargekit", *argv], capture_output=True)
    return proc.returncode, json.loads(proc.stdout)["results"]


def test_sumcheck_map_and_relation_forms_agree(tmp_path):
    as_map = _spec(tmp_path, "map.json", {"kind": "linear_map", "matrix": [[1, -1], [1, 1]]})
    as_rel = _spec(tmp_path, "rel.json", {"kind": "linear_relation",
                                          "graph_basis": [[1, 0, 1, 1], [0, 1, -1, 1]]})
    box = _spec(tmp_path, "box.json", BOX)
    runs = [_main("sumcheck", a, box, "--points", "12", "--seed", "1")
            for a in (as_map, as_rel)]
    for code, res in runs:
        assert code == cli.EXIT_OK and res["max_gap"] <= 1e-6
    (_, m), (_, r) = runs
    assert (m["finite_points"], m["skipped_points"]) == (r["finite_points"], r["skipped_points"])


def test_fitz_of_a_cone_sum_spec_has_a_closed_form(tmp_path):
    spec = _spec(tmp_path, "sum.json", {"kind": "sum", "terms": [
        {"kind": "linear_map", "matrix": [[2, -1], [1, 1]]}, BOX]})
    code, res = _main("fitz", spec, "--point", "0.5,-0.25,1,2",
                      "--bruteforce", "500", "4.0")
    a, z, zs = np.array([[2.0, -1.0], [1.0, 1.0]]), np.array([0.5, -0.25]), np.array([1.0, 2.0])
    want = ref_box(a.T @ z + zs, 0.5 * (a + a.T), np.eye(2), -np.ones(2), np.ones(2))
    assert code == cli.EXIT_OK
    assert res["closed_form"] == pytest.approx(want, rel=1e-10)
    assert abs(res["gap"]) <= 1e-9


def test_enlarge_point_on_a_cone_sum_is_closed_form(tmp_path):
    spec = _spec(tmp_path, "sum.json", {"kind": "sum", "terms": [
        {"kind": "linear_map", "matrix": [[1, 0], [0, 1]]}, BOX]})
    proc = subprocess.run([sys.executable, "-m", "enlargekit", "enlarge", spec,
                           "--point", "0.5,0,1,1", "--eps", "1"], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    res = json.loads(proc.stdout)["results"]
    assert res["method"] == "closed_form" and res["approximate"] is False


def test_validate_decides_cone_sums_by_the_interior_hypothesis():
    line = LinearRelationOp.from_graph_columns(np.array([[0.0], [1.0], [0.0], [0.0]]), dim=2)
    line_max = SumOp((line, LinearMapOp(np.zeros((2, 2))))).relation  # not maximal: dim 1
    box = NormalConeOp(Box([1.0, -1.0], [2.0, 1.0]))
    assert ops.validate(SumOp((LinearMapOp(np.eye(2)), box))).maximal is True
    assert ops.validate(SumOp((box, line_max))).maximal is None
    vertical = LinearRelationOp.from_graph_columns(
        np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]).T, dim=2)
    # dom = span(e2) misses [1, 2] x [-1, 1]: the sum has an empty graph
    assert ops.validate(SumOp((vertical, box))).maximal is False


def test_cli_import_leaves_scipy_unloaded():
    code = ("import sys\n"
            "import enlargekit.cli, enlargekit.operators, enlargekit.enlargement\n"
            "import enlargekit.certificates\n"
            "print('scipy' in sys.modules)\n"
            "import enlargekit.fitzpatrick as fz\n"
            "print(callable(fz.scipy.optimize.minimize))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == ["False", "True"]


def test_a_cone_sum_evaluator_in_the_inf_convolution_is_unsupported():
    # no sum theorem takes a linear + N_C sum evaluator in a slot: in either
    # slot it raised a bare AssertionError, which no caller could map
    box = Box(-np.ones(2), np.ones(2))
    fs = fitz_evaluator(SumOp((LinearMapOp(np.eye(2)), NormalConeOp(box))))
    z, zs = np.array([0.5, 0.0]), np.array([0.0, 1.0])
    others = [fitz_evaluator(op) for op in (
        LinearMapOp(np.array([[1.0, -1.0], [1.0, 1.0]])), NormalConeOp(box),
        ops.NormSubdiffOp(2, 1.0))]
    for other in [fs, *others]:
        for f1, f2 in ((fs, other), (other, fs)):
            with pytest.raises(ops.UnsupportedOperatorError, match="SumOp"):
                fz.partial_inf_conv(f1, f2, z, zs)
