import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enlargekit.linalg import Subspace, orthonormalize, same_span
from enlargekit.operators import (
    Ball,
    BallValue,
    Box,
    EmptySet,
    LinearMapOp,
    LinearRelationOp,
    NormSubdiffOp,
    NormalConeOp,
    PolyhedralValue,
    Polytope,
    SumOp,
    TranslatedOp,
    adjoint_relation,
    apply,
    graph_member,
    graph_subspace,
    is_skew,
    is_symmetric,
    neg_adjoint_graph,
    relation_as_map,
    sample_graph,
    sum_relation,
    support_function,
    symmetric_part,
    validate,
)

ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return LinearMapOp(np.array([[c, -s], [s, c]]))


def zero_times_r():
    """The relation {0} x R on the line."""
    return LinearRelationOp.from_graph_columns(np.array([[0.0], [1.0]]), dim=1)


def test_validate_rotation_90():
    rep = validate(LinearMapOp(ROT90))
    assert rep.monotone and rep.maximal


def test_validate_negative_map():
    rep = validate(LinearMapOp([[-1.0]]))
    assert not rep.monotone


def test_validate_vertical_relation():
    rep = validate(zero_times_r())
    assert rep.monotone and rep.maximal


def test_validate_low_dim_relation_not_maximal():
    rel = LinearRelationOp.from_graph_columns(np.zeros((2, 0)), dim=1)
    rep = validate(rel)
    assert rep.monotone and rep.maximal is False


def test_symmetry_and_skewness():
    assert is_skew(rotation(np.pi / 2))
    assert is_symmetric(LinearMapOp(np.eye(2)))
    assert not is_skew(LinearMapOp(np.eye(2)))
    np.testing.assert_allclose(
        symmetric_part(LinearMapOp([[1.0, -1.0], [1.0, 1.0]])), np.eye(2), atol=1e-15)


def test_relation_skew_form():
    assert is_skew(LinearRelationOp.from_matrix(ROT90))
    assert is_symmetric(zero_times_r())  # U^T V = 0 symmetric trivially


def test_adjoint_identity_and_zero_self_adjoint():
    ident = graph_subspace(LinearMapOp([[1.0]]))
    assert same_span(adjoint_relation(ident), ident)
    zero = graph_subspace(LinearMapOp([[0.0]]))
    assert same_span(adjoint_relation(zero), zero)


def test_neg_adjoint_of_rot90_is_itself():
    g = graph_subspace(LinearMapOp(ROT90))
    assert same_span(neg_adjoint_graph(g), g)


def test_adjoint_matches_transpose_for_maps():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = rng.integers(1, 5)
        a = rng.normal(size=(n, n))
        adj = adjoint_relation(graph_subspace(LinearMapOp(a)))
        expected = graph_subspace(LinearMapOp(a.T))
        assert same_span(adj, expected, tol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_adjoint_involution(n, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, 2 * n + 1))
    g = orthonormalize(rng.normal(size=(2 * n, k)), ambient_dim=2 * n) if k else \
        Subspace(2 * n, np.zeros((2 * n, 0)))
    assert same_span(adjoint_relation(adjoint_relation(g)), g, tol=1e-10)


def polyhedral_kind(v):
    """(dimension of the directions, whether there is a cone) of a
    PolyhedralValue."""
    assert isinstance(v, PolyhedralValue)
    return v.directions.dim, v.rows is not None


def test_apply_norm_subdiff_at_zero():
    val = apply(NormSubdiffOp(dim=2, p=1.0), [0.0, 0.0])
    assert isinstance(val, BallValue)
    assert val.radius == 1.0
    val2 = apply(NormSubdiffOp(dim=2, p=1.0), [3.0, 0.0])
    assert polyhedral_kind(val2) == (0, False)  # a point
    np.testing.assert_allclose(val2.point, [1.0, 0.0])


def test_apply_box_normal_cone():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    assert polyhedral_kind(apply(NormalConeOp(box), [0.2, -0.3])) == (0, False)
    face = apply(NormalConeOp(box), [1.0, 0.0])
    assert polyhedral_kind(face) == (0, True)  # a cone
    assert face.contains([2.0, 0.0])
    assert not face.contains([-0.1, 0.0])
    assert not face.contains([1.0, 0.5])
    assert isinstance(apply(NormalConeOp(box), [1.5, 0.0]), EmptySet)


def test_apply_ball_normal_cone():
    cone = NormalConeOp(Ball([0.0, 0.0], 1.0))
    ray = apply(cone, [1.0, 0.0])
    assert polyhedral_kind(ray) == (0, True)
    assert ray.contains([3.0, 0.0]) and not ray.contains([-1.0, 0.0])


def test_apply_vertical_relation():
    val = apply(zero_times_r(), [0.0])
    assert polyhedral_kind(val) == (1, False)  # a line
    np.testing.assert_allclose(val.point, [0.0])
    assert val.directions.dim == 1
    assert isinstance(apply(zero_times_r(), [1.0]), EmptySet)


def test_apply_sum_translates():
    op = SumOp((LinearMapOp(np.eye(2)), LinearMapOp(2 * np.eye(2))))
    val = apply(op, [1.0, -1.0])
    assert polyhedral_kind(val) == (0, False)
    np.testing.assert_allclose(val.point, [3.0, -3.0])


def test_relation_plus_polytope_cone_value():
    # {0} x R plus N of the segment [-1, 1] given by its vertices
    segment = NormalConeOp(Polytope((np.array([-1.0]), np.array([1.0]))))
    op = SumOp((zero_times_r(), segment))
    assert graph_member(op, [0.0], [3.0]) and graph_member(op, [0.0], [-3.0])
    assert not graph_member(op, [0.5], [3.0])
    # A(x) = x1 e1 + R e2 on dom A = span e1, plus N of a triangle at its
    # vertex 0, {u <= 0}: the value at 0 is the half-plane u1 <= 0
    rel = LinearRelationOp.from_graph_columns(
        np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]).T, dim=2)
    tri = NormalConeOp(Polytope((np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]))))
    rng = np.random.default_rng(0)
    for u in 3.0 * rng.normal(size=(40, 2)):
        assert graph_member(SumOp((rel, tri)), [0.0, 0.0], u) is bool(u[0] <= 0.0)


def test_support_functions():
    assert support_function(Box([-1.0, -1.0], [1.0, 1.0]), [1.0, -2.0]) == pytest.approx(3.0)
    assert support_function(Ball([0.0, 0.0], 2.5), [3.0, 4.0]) == pytest.approx(12.5)
    tri = Polytope((np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    assert support_function(tri, [1.0, 1.0]) == pytest.approx(1.0)


def test_polytope_membership_and_projection():
    tri = Polytope((np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    assert tri.contains([0.2, 0.2])
    assert not tri.contains([0.8, 0.8])
    np.testing.assert_allclose(tri.project([1.0, 1.0]), [0.5, 0.5], atol=1e-7)


def test_sample_graph_identity_pairs():
    op = LinearMapOp(np.eye(2))
    for x, xs in sample_graph(op, 50, 5.0, seed=3):
        np.testing.assert_allclose(x, xs)


def test_sample_graph_prefix_stable():
    op = LinearMapOp(np.array([[2.0, 0.0], [0.0, 1.0]]))
    short = sample_graph(op, 20, 5.0, seed=9)
    long = sample_graph(op, 60, 5.0, seed=9)
    for (a, b), (c, d) in zip(short, long):
        np.testing.assert_array_equal(a, c)
        np.testing.assert_array_equal(b, d)


def test_sample_graph_skew_pairing_vanishes():
    for x, xs in sample_graph(LinearMapOp(ROT90), 200, 10.0, seed=1):
        assert abs(x @ xs) <= 1e-12 * (1.0 + x @ x)


def test_sample_graph_membership():
    ops = [
        LinearMapOp(np.array([[1.0, 0.5], [0.5, 2.0]])),
        zero_times_r(),
        NormSubdiffOp(dim=2, p=1.0),
        NormSubdiffOp(dim=2, p=3.0),
        NormalConeOp(Box([-1.0, -1.0], [1.0, 1.0])),
        NormalConeOp(Ball([0.5, 0.0], 2.0)),
        NormalConeOp(Polytope((np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                               np.array([0.0, 1.0])))),
    ]
    for op in ops:
        for x, xs in sample_graph(op, 60, 3.0, seed=5):
            assert graph_member(op, x, xs, tol=1e-8), (op, x, xs)


def test_sampled_pairs_are_pairwise_monotone():
    ops = [
        LinearMapOp(np.array([[1.0, -2.0], [2.0, 0.5]])),
        zero_times_r(),
        NormSubdiffOp(dim=3, p=1.5),
        NormalConeOp(Ball([0.0, 0.0], 1.0)),
    ]
    for op in ops:
        assert validate(op).monotone
        pairs = sample_graph(op, 40, 2.0, seed=17)
        for x, xs in pairs:
            for y, ys in pairs:
                assert (x - y) @ (xs - ys) >= -1e-8


def test_sum_relation_identity_plus_identity():
    s = sum_relation(LinearMapOp(np.eye(1)), LinearMapOp(np.eye(1)))
    expected = graph_subspace(LinearMapOp(2 * np.eye(1)))
    assert same_span(s.graph, expected)


def test_sum_relation_vertical_plus_zero():
    s = sum_relation(zero_times_r(), LinearMapOp(np.zeros((1, 1))))
    assert same_span(s.graph, zero_times_r().graph)
    assert validate(s).maximal


def test_sum_with_a_cone_term_has_no_sum_relation():
    op = SumOp((LinearMapOp(np.eye(2)), NormalConeOp(Ball([0.0, 0.0], 1.0))))
    assert op.relation is None


def test_validate_linear_sum_is_the_verdict_of_its_sum_relation():
    diagonal = LinearRelationOp.from_graph_columns(
        np.array([[1.0], [0.0], [1.0], [0.0]]), dim=2)  # monotone, not maximal
    pairs = [
        (LinearMapOp([[-1.0]]), LinearMapOp([[2.0]])),
        (LinearMapOp([[-1.0]]), LinearMapOp([[0.5]])),
        (LinearMapOp(ROT90), LinearMapOp(2.0 * ROT90)),
        (zero_times_r(), LinearMapOp(np.zeros((1, 1)))),
        (diagonal, LinearMapOp(np.zeros((2, 2)))),
    ]
    for a, b in pairs:
        assert validate(SumOp((a, b))) == validate(sum_relation(a, b))


def test_relation_as_map_roundtrip():
    a = np.array([[1.0, 2.0], [-1.0, 0.5]])
    rel = LinearRelationOp.from_matrix(a)
    back = relation_as_map(rel)
    np.testing.assert_allclose(back.matrix, a, atol=1e-10)
    assert relation_as_map(zero_times_r()) is None


def test_translated_graph():
    base = zero_times_r()
    op = TranslatedOp(base, np.array([1.0]), np.array([2.0]))
    assert graph_member(op, [1.0], [7.0])
    assert not graph_member(op, [0.5], [0.0])
    for x, xs in sample_graph(op, 30, 2.0, seed=2):
        assert graph_member(op, x, xs, tol=1e-8)


def test_polytope_project_does_not_stop_on_a_stalled_face():
    # momentum makes two FISTA iterates meet on the face opposite the origin
    # vertex before the weights are right; the point lies 0.002 inside
    tri = Polytope((np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    x = np.array([0.85623089, 0.1407441])
    np.testing.assert_allclose(tri.project(x), x, atol=1e-12)
    assert tri.contains(x)


def _hull_contains(pts, x):
    """Monotone-chain hull of 2-D points, then a same-side test of x."""
    pts = sorted(map(tuple, pts))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = chain(pts) + chain(reversed(pts))
    return all(cross(hull[i - 1], hull[i], x) >= 0 for i in range(len(hull)))


def test_polytope_contains_agrees_with_hull_near_the_boundary():
    ang = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 200)
    verts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    poly = Polytope(tuple(verts))
    inside = 0
    for a in np.linspace(0.0, 2.0 * np.pi, 60, endpoint=False):
        x = 0.999 * np.array([np.cos(a), np.sin(a)])
        want = _hull_contains(verts, x)
        assert poly.contains(x) == want, a
        inside += want
    assert inside == 55


def _hull_residual(verts, p):
    """Distance from p to the nearest nonnegative weighting of the vertices
    whose weights sum to one (Lawson-Hanson NNLS): ~0 exactly for hull points."""
    from scipy.optimize import nnls
    a = np.vstack([verts.T, np.ones(len(verts))])
    return nnls(a, np.append(p, 1.0))[1]


def test_polytope_project_is_the_nearest_hull_point():
    rng = np.random.default_rng(3)
    for trial in range(150):
        n = 2 + trial % 4
        verts = rng.normal(size=(int(rng.integers(1, 25)), n))
        if trial % 5 == 1 and len(verts) > 1:
            verts[-1] = verts[0]  # duplicate vertex
        if trial % 5 == 2 and len(verts) > 2:
            verts[2] = 0.25 * verts[0] + 0.75 * verts[1]  # collinear triple
        if trial % 5 == 3:
            verts = verts[:1]  # a single vertex
        poly = Polytope(tuple(verts))
        w = rng.exponential(size=len(verts))
        for x in (rng.normal(size=n) * 3.0, w @ verts / w.sum() + 1e-6 * rng.normal(size=n)):
            p = poly.project(x)
            assert np.max((verts - p) @ (x - p)) <= 1e-9
            assert _hull_residual(verts, p) <= 1e-9


def test_polytope_project_raises_at_its_cycle_cap(monkeypatch):
    import enlargekit.operators as ops
    from enlargekit.fitzpatrick import SolverFailureError

    tri = Polytope((np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    monkeypatch.setattr(ops, "WOLFE_CYCLES_PER_VERTEX", 0)
    with pytest.raises(SolverFailureError):
        tri.project(np.array([0.2, 0.2]))
