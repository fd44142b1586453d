"""Linear + normal-cone sums: whether dom A meets C or its relative
interior, checked against independent linear programs, the maximality
verdict built on it (checked against a Minty oracle), the
non-enlargeability certificate, and the exactness check that reads it."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enlargekit import certificates
from enlargekit import fitzpatrick as fz
from enlargekit.certificates import interior_domain_check, sum_fitz_exactness
from enlargekit.enlargement import enl_member
from enlargekit.operators import (
    INTERIOR_MARGIN,
    Ball,
    Box,
    LinearMapOp,
    LinearRelationOp,
    NormalConeOp,
    Polytope,
    SumOp,
    graph_member,
    validate,
)

GAP = 1e-7  # LP optima this close to a threshold count as ties


def _lp_depth(c, q):
    """Independent depth of ran Q in C, with its interior threshold: the
    largest t with lo + t <= Q s <= hi - t (box), with P lam in ran Q,
    sum lam = 1, lam >= t (polytope; -inf when infeasible), or r - dist(c,
    ran Q) (ball)."""
    from scipy.linalg import null_space
    from scipy.optimize import linprog
    n, k = q.shape
    if isinstance(c, Ball):
        s = np.linalg.lstsq(q, c.center, rcond=None)[0] if k else np.zeros(0)
        return c.radius - float(np.linalg.norm(c.center - q @ s)), INTERIOR_MARGIN
    cost = np.r_[np.zeros(k if isinstance(c, Box) else len(c.vertices)), -1.0]
    if isinstance(c, Box):
        a_ub = np.block([[q, np.ones((n, 1))], [-q, np.ones((n, 1))]])
        res = linprog(cost, A_ub=a_ub, b_ub=np.r_[c.hi, -c.lo], bounds=(None, None))
        return -res.fun, INTERIOR_MARGIN
    m = len(c.vertices)
    perp = null_space(q.T).T
    a_eq = np.vstack([np.r_[np.ones(m), 0.0], np.c_[perp @ c.matrix.T, np.zeros(len(perp))]])
    a_ub = np.c_[-np.eye(m), np.ones(m)]
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq,
                  b_eq=np.r_[1.0, np.zeros(len(perp))], bounds=[(None, None)] * m + [(None, 1.0)])
    return (-res.fun if res.status == 0 else -np.inf), INTERIOR_MARGIN / m


def _shifted(c, d):
    if isinstance(c, Box):
        return Box(c.lo + d, c.hi + d)
    if isinstance(c, Ball):
        return Ball(c.center + d, c.radius)
    return Polytope(tuple(c.matrix + d))


def _cases(n, rng):
    """(set, Q) pairs: random subspaces of a randomly placed set, and
    subspaces of a supporting hyperplane u-perp that touch the set at a
    boundary point or miss it by 0.3."""
    sets = (Box(-rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)),
            Ball(rng.uniform(-0.3, 0.3, n), float(rng.uniform(0.5, 1.5))),
            Polytope(tuple(rng.normal(size=(n + 3, n)))))
    for c, k in itertools.product(sets, range(n + 1)):
        for _ in range(4):
            q = np.linalg.qr(rng.normal(size=(n, k)))[0]
            yield "random", _shifted(c, 1.5 * rng.normal(size=n)), q
        if k == n:
            continue
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        q = np.linalg.qr((np.eye(n) - np.outer(u, u)) @ rng.normal(size=(n, k)))[0]
        p = c.support_points(-u[None, :])[0]
        yield "touch", _shifted(c, -p), q
        yield "miss", _shifted(c, 0.3 * u - p), q


@pytest.mark.parametrize("n", [2, 3])
def test_subspace_meets_set_matches_a_linear_program(n):
    rng = np.random.default_rng(n)
    seen = set()
    for built, c, q in _cases(n, rng):
        depth, inner = _lp_depth(c, q)
        want = "interior" if depth > inner + GAP else "touch" if abs(depth) <= GAP else \
            "miss" if depth < -GAP else None
        if built != "random":
            assert want == built, (built, depth)
        if want is None:
            continue
        seen.add((type(c).__name__, want))
        rel = LinearRelationOp.from_graph_columns(
            np.block([[q, np.zeros((n, n - q.shape[1]))],
                      [np.zeros((n, q.shape[1])), np.linalg.qr(q, mode="complete")[0][:, q.shape[1]:]]]),
            dim=n)
        x = c.meets(rel.domain, INTERIOR_MARGIN)
        got = "interior" if x is not None else "touch" if c.meets(rel.domain) is not None else "miss"
        assert got == want, (c, q, depth)
        if x is not None:
            assert c.contains(x) and np.linalg.norm(x - q @ (q.T @ x)) <= 1e-8
        verdict = validate(SumOp((rel, NormalConeOp(c)))).maximal
        touch = q.shape[1] == 0 if isinstance(c, Ball) else True
        assert verdict is {"interior": True, "touch": touch, "miss": False}[want]
        assert interior_domain_check(rel, c) is (want == "interior")
    assert len(seen) == 9  # every set meets every outcome


def test_relative_interior_of_a_flat_polytope():
    segment = Polytope((np.array([-1.0, 0.0]), np.array([1.0, 0.0])))
    vertical = LinearRelationOp.from_graph_columns(
        np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]).T, dim=2)
    for a in (LinearMapOp(np.eye(2)), vertical):
        # dom A meets ri of the segment, which has no interior in R^2
        assert validate(SumOp((a, NormalConeOp(segment)))).maximal is True
        assert interior_domain_check(a, segment) is False


def test_undetermined_verdict_when_dom_a_meets_only_a_face():
    # dom A = span e2 meets [0, 1] x [-1, 1] on its face x1 = 0 alone: the
    # polyhedral sum rule needs no interior point
    rel = LinearRelationOp.from_graph_columns(
        np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]).T, dim=2)
    cone = NormalConeOp(Box([0.0, -1.0], [1.0, 1.0]))
    assert validate(SumOp((rel, cone))).maximal is True
    c = certificates.sum_maximality(rel, cone)
    assert c.maximal is True and "relative boundary" in c.detail
    assert interior_domain_check(rel, cone.set) is False


def test_cone_sum_maximality_solves_no_inf_convolution(monkeypatch):
    def refuse(*args):
        raise AssertionError("partial_inf_conv called")

    monkeypatch.setattr(fz, "partial_inf_conv", refuse)
    monkeypatch.setattr(certificates, "partial_inf_conv", refuse)
    a = LinearMapOp([[1.0, -1.0], [1.0, 1.0]])
    for c in (Box([-1.0, -1.0], [1.0, 1.0]), Ball([0.2, 0.0], 0.5)):
        assert certificates.sum_maximality(a, NormalConeOp(c)).maximal is True


def test_interior_domain_check_searches_a_plane_domain():
    # graph basis (e1, 0), (e2, 0), (0, e3): dom A is the plane z = 0, a
    # proper subspace of dimension 2 that misses the origin's neighbourhood
    e = np.eye(3)
    cols = np.stack([np.concatenate([e[0], np.zeros(3)]),
                     np.concatenate([e[1], np.zeros(3)]),
                     np.concatenate([np.zeros(3), e[2]])], axis=1)
    plane = LinearRelationOp.from_graph_columns(cols, dim=3)
    ball = Ball([2.0, 0.0, 0.5], 1.0)
    box = Box([1.0, -1.0, -1.0], [2.0, 1.0, 1.0])
    for c in (ball, box):
        assert not c.contains(np.zeros(3))  # the quick origin test fails
        assert interior_domain_check(plane, c) is True


def test_cone_sum_exactness_reuses_its_inf_convolutions(monkeypatch):
    calls = []
    real = certificates.partial_inf_conv

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(certificates, "partial_inf_conv", counting)
    a = LinearMapOp([[1.0, -1.0], [1.0, 1.0]])
    cone = NormalConeOp(Box([-1.0, -1.0], [1.0, 1.0]))
    rep = sum_fitz_exactness(a, cone, n_points=16, seed=3)
    assert len(calls) == 16
    assert rep.maximality is True
    assert certificates.sum_maximality(a, cone).maximal is True


def _relation_on(q, m):
    """The maximal monotone relation {(Q a, Q M a + Q_perp b)}, dom = ran Q."""
    n, k = q.shape
    perp = np.linalg.qr(q, mode="complete")[0][:, k:]
    cols = np.block([[q, np.zeros((n, n - k))], [q @ m, perp]])
    return LinearRelationOp.from_graph_columns(cols, dim=n)


def _minty_range_contains(rel, box, y):
    """Independent Minty oracle: is y in ran(I + A + N_C)?  By face
    enumeration: on the pattern sigma, x = U t lies on the lower (-1) or
    upper (+1) face of coordinate i or between them (0), the normal v has
    the matching sign (v_i = 0 between), and U t + V t + v = y; each pattern
    is one linear feasibility problem."""
    from scipy.optimize import linprog
    u, v = rel.u_block, rel.v_block
    n, k = u.shape
    for sigma in itertools.product((-1, 0, 1), repeat=n):
        sig = np.array(sigma)
        on, inner = sig != 0, sig == 0
        a_eq = np.vstack([np.c_[u + v, np.eye(n)], np.c_[u[on], np.zeros((on.sum(), n))]])
        b_eq = np.r_[y, np.where(sig < 0, box.lo, box.hi)[on]]
        a_ub = np.vstack([np.c_[u[inner], np.zeros((inner.sum(), n))],
                          np.c_[-u[inner], np.zeros((inner.sum(), n))]])
        b_ub = np.r_[box.hi[inner], -box.lo[inner]]
        bounds = [(None, None)] * k + [(0, None) if s > 0 else (None, 0) if s < 0 else (0, 0)
                                       for s in sig]
        res = linprog(np.zeros(k + n), A_ub=a_ub if len(a_ub) else None,
                      b_ub=b_ub if len(a_ub) else None, A_eq=a_eq, b_eq=b_eq, bounds=bounds)
        if res.status == 0:
            return True
    return False


# (what D = dom A touches, rows spanning D, the box [lo, hi] in R^3, whether
# D cap C is one point)
TOUCHED_BOXES = [
    ("face, D a plane", [[0, 1, 0], [0, 0, 1]], [0, -1, -1], [1, 1, 1], False),
    ("face, D a line", [[0, 1, 1]], [0, -1, -1], [1, 1, 1], False),
    ("edge, D a plane", [[1, -1, 0], [0, 0, 1]], [0, 0, -1], [1, 1, 1], False),
    ("edge, D a line", [[0, 0, 1]], [0, 0, -1], [1, 1, 1], False),
    ("vertex, D a plane", [[1, -1, 0], [1, 1, -2]], [0, 0, 0], [1, 1, 1], True),
    ("vertex, D a line", [[1, -1, 0]], [0, 0, 0], [1, 1, 1], True),
    ("vertex, D = {0}", [], [0, 0, 0], [1, 1, 1], True),
]


@pytest.mark.parametrize("what, rows, lo, hi, one_point", TOUCHED_BOXES,
                         ids=[t[0] for t in TOUCHED_BOXES])
def test_touched_box_verdicts_agree_with_a_minty_oracle(what, rows, lo, hi, one_point):
    # A + N_C is maximal iff ran(I + A + N_C) = R^n (Minty's theorem)
    rng = np.random.default_rng(len(what))
    q = np.linalg.qr(np.array(rows, float).T)[0] if rows else np.zeros((3, 0))
    box = Box(lo, hi)
    for _ in range(4):
        k = q.shape[1]
        m = certificates.random_monotone_matrix(k, rng).matrix if k else np.zeros((0, 0))
        rel = _relation_on(q, m)
        sum_op = SumOp((rel, NormalConeOp(box)))
        assert validate(sum_op).maximal is True
        assert interior_domain_check(rel, box) is False
        for y in 3.0 * rng.normal(size=(3, 3)):
            assert _minty_range_contains(rel, box, y), (what, y)
        c = certificates.non_enlargeable(sum_op)
        assert c.verdict is one_point
        if not one_point:
            x, xs = c.witness
            assert not graph_member(sum_op, x, xs)
            v = enl_member(sum_op, x, xs, 0.5)
            assert v.member and v.method == "closed_form"
    # the oracle is not vacuous: dom A misses a shifted box, so the sum's
    # graph and range are empty
    missed = Box(np.array(lo) + 1.0, np.array(hi) + 1.0)
    rel = _relation_on(q, np.zeros((q.shape[1], q.shape[1])))
    assert validate(SumOp((rel, NormalConeOp(missed)))).maximal is False
    assert not _minty_range_contains(rel, missed, np.zeros(3))


def _placed(c, q, place, rng):
    """The set moved so that ran Q meets it anywhere, touches it at a
    boundary point, or misses it by 0.3 (as in :func:`_cases`)."""
    n, k = q.shape
    if place == "random" or k == n:
        return _shifted(c, 1.5 * rng.normal(size=n))
    perp = np.linalg.qr(q, mode="complete")[0][:, k:]
    u = perp @ rng.normal(size=n - k)
    u /= np.linalg.norm(u)
    p = c.support_points(-u[None, :])[0]
    return _shifted(c, (0.3 * u if place == "miss" else 0.0) - p)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 3),
       kind=st.sampled_from(["box", "ball", "polytope"]),
       place=st.sampled_from(["random", "touch", "miss"]))
def test_every_maximal_linear_plus_cone_sum_is_decided(seed, n, kind, place):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, n + 1))
    q = np.linalg.qr(rng.normal(size=(n, k)))[0]
    c = {"box": lambda: Box(-rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)),
         "ball": lambda: Ball(rng.uniform(-0.3, 0.3, n), float(rng.uniform(0.5, 1.5))),
         "polytope": lambda: Polytope(tuple(rng.normal(size=(n + 3, n))))}[kind]()
    c = _placed(c, q, place, rng)
    m = certificates.random_monotone_matrix(k, rng).matrix if k else np.zeros((0, 0))
    sum_op = SumOp((_relation_on(q, m), NormalConeOp(c)))
    maximal = validate(sum_op).maximal
    assert maximal is not None
    assert certificates.sum_maximality(*sum_op.terms).maximal is maximal
    if maximal:
        cert = certificates.non_enlargeable(sum_op)
        assert cert.verdict in (True, False)
        if not cert.verdict:
            x, xs = cert.witness
            assert not graph_member(sum_op, x, xs)
            assert enl_member(sum_op, x, xs, 0.5).member


def test_zero_domain_touching_a_ball_is_maximal_with_a_closed_form():
    # dom A = {0} lies on the sphere: the sum's graph is {0} x R^2
    rel = LinearRelationOp.from_graph_columns(np.vstack([np.zeros((2, 2)), np.eye(2)]), dim=2)
    sum_op = SumOp((rel, NormalConeOp(Ball([1.0, 0.0], 1.0))))
    assert validate(sum_op).maximal is True
    assert certificates.non_enlargeable(sum_op).verdict is True
    v = enl_member(sum_op, [0.0, 0.0], [3.0, 1.0], 0.0)
    assert v.member and v.method == "closed_form" and v.fitz_value == 0.0
    assert not enl_member(sum_op, [0.1, 0.0], [3.0, 1.0], 0.5).member
