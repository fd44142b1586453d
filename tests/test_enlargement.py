import math

import numpy as np
import pytest

from enlargekit.operators import (
    Ball,
    Box,
    LinearMapOp,
    LinearRelationOp,
    NormSubdiffOp,
    NormalConeOp,
    NotSkewError,
    UnsupportedOperatorError,
    graph_member,
    neg_adjoint_graph,
    sample_graph,
)
from enlargekit.linalg import complement
from enlargekit.fitzpatrick import fitz_bruteforce, pairing
from enlargekit.enlargement import (
    SLACK_TOL,
    enl_member,
    enl_slice_linear,
    enl_slice_param,
    eps_subdiff_slice,
    norm_subdiff_enl_member,
    normal_cone_enl_member,
    skew_relation_enl,
)

ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return LinearMapOp(np.array([[c, -s], [s, c]]))


def test_identity_boundary_membership():
    ident = LinearMapOp(np.eye(1))
    # eps = 0.25 puts the boundary at |x - xs| = 1
    v = enl_member(ident, [0.0], [1.0], 0.25)
    assert v.member and v.method == "closed_form"
    assert enl_member(ident, [0.0], [1.0 - 1e-6], 0.25).member
    assert not enl_member(ident, [0.0], [1.0 + 1e-6], 0.25).member


def test_graph_points_member_at_eps_zero():
    cases = [
        LinearMapOp(np.array([[1.0, 0.5], [0.5, 2.0]])),
        LinearRelationOp.from_matrix(ROT90),
        NormalConeOp(Box([-1.0, -1.0], [1.0, 1.0])),
        NormSubdiffOp(dim=2, p=1.0),
    ]
    for op in cases:
        for x, xs in sample_graph(op, 40, 2.0, seed=4):
            assert enl_member(op, x, xs, 0.0).member


def test_skew_map_never_enlarged():
    skew = LinearMapOp(ROT90)
    x = np.array([1.0, -1.0])
    xs = ROT90 @ x + np.array([0.3, 0.0])
    for eps in (0.0, 1.0, 100.0):
        assert not enl_member(skew, x, xs, eps).member


def test_enl_member_rejects_negative_eps():
    with pytest.raises(ValueError):
        enl_member(LinearMapOp(np.eye(1)), [0.0], [0.0], -1.0)


def test_slice_rotation_radius():
    for theta in (0.0, np.pi / 6, np.pi / 3):
        for eps in (0.5, 1.0, 2.0):
            s = enl_slice_linear(rotation(theta), [0.3, -0.7], eps)
            expected = 2.0 * math.sqrt(math.cos(theta) * eps)
            assert s.ball_radius() == pytest.approx(expected, abs=1e-9)
            np.testing.assert_allclose(s.semiaxes(), expected, atol=1e-9)


def test_slice_skew_rotation_is_point():
    s = enl_slice_linear(LinearMapOp(ROT90), [1.0, 2.0], 3.0)
    assert s.ball_radius() == 0.0
    assert s.carrier.dim == 0
    assert s.contains(ROT90 @ np.array([1.0, 2.0]))
    assert not s.contains([0.0, 0.0])
    # the float rotation(pi/2) carries cos(pi/2) ~ 6e-17 of trig dust; the
    # rank floor snaps its symmetric part to zero, so the slice degenerates
    # exactly as the mathematical theta = pi/2 case demands
    sf = enl_slice_linear(rotation(np.pi / 2), [1.0, 2.0], 3.0)
    assert sf.ball_radius() == 0.0
    assert sf.carrier.dim == 0


def test_slice_identity_radius_two():
    s = enl_slice_linear(LinearMapOp(np.eye(2)), [0.5, 0.5], 1.0)
    assert s.ball_radius() == pytest.approx(2.0, abs=1e-12)


def test_slice_coherence_with_membership():
    a = LinearMapOp(np.array([[1.0, -2.0], [2.0, 0.5]]))
    rng = np.random.default_rng(21)
    for _ in range(300):
        x = rng.normal(size=2) * 2
        xs = rng.normal(size=2) * 3
        eps = float(rng.uniform(0, 2))
        s = enl_slice_linear(a, x, eps)
        assert s.contains(xs) == enl_member(a, x, xs, eps).member


def test_slice_rank_deficient_carrier():
    a = LinearMapOp(np.diag([1.0, 0.0]))
    s = enl_slice_linear(a, [1.0, 1.0], 1.0)
    assert s.carrier.dim == 1
    assert s.contains([1.0 + 1.9, 0.0])
    assert not s.contains([1.0, 0.1])  # off the carrier


def _near_skew(seed):
    """Skew plus 1e-6 G G' on R^3: monotone, with A_+ near 1e-7 at its least."""
    rng = np.random.default_rng(seed)
    k, g = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    return LinearMapOp(0.5 * (k - k.T) + 1e-6 * (g @ g.T))


def test_slices_of_near_skew_maps_have_their_semiaxes():
    # pinv(A_+) has entries near 1e7, so rounding alone leaves b' form b
    # asymmetric by far more than sym_eig's absolute SYM_TOL
    for seed in range(50):
        a = _near_skew(seed)
        s = enl_slice_linear(a, np.ones(3), 0.5)
        kept = a.carrier.lam[: a.carrier.ran.shape[1]]
        want = np.sqrt(4.0 * 0.5 * kept)
        np.testing.assert_allclose(np.sort(s.semiaxes()), np.sort(want), rtol=1e-9, atol=0)
        assert len(s.boundary_points(num=8, seed=0)) == 8


def test_rounding_negative_symmetric_part_slices_on_its_carrier():
    # -5e-11 is within the monotonicity slack and below the rank cutoff:
    # validate calls the map maximal monotone, and both slice forms read
    # that eigenvalue as kernel instead of refusing the map
    a = LinearMapOp(np.diag([0.1, -5e-11]))
    assert a.validate().maximal
    x, eps = np.array([1.0, 0.0]), 0.5
    s = enl_slice_linear(a, x, eps)
    assert s.carrier.dim == 1
    np.testing.assert_allclose(s.form, np.diag([10.0, 0.0]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(s.semiaxes(), [math.sqrt(0.2)], rtol=0, atol=1e-12)
    assert s.contains([0.1 + 0.99 * math.sqrt(0.2), 0.0])
    assert not s.contains([0.1 + 1.01 * math.sqrt(0.2), 0.0])
    assert not s.contains([0.1, 1e-3])  # off the carrier
    p = enl_slice_param(a, x, eps)
    assert p.ran.dim == 1
    for zs in p.boundary_points(8):
        assert s.contains(zs, tol=1e-7)


def test_param_slice_identity_segment():
    p = enl_slice_param(LinearMapOp(np.eye(1)), [0.5], 1.0)
    assert p.image_contains([0.5 + 1.99])
    assert p.image_contains([0.5 - 1.99])
    assert not p.image_contains([0.5 + 2.01])


def test_param_slice_matches_ellipsoid():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(2, 2))
    a = LinearMapOp(g @ g.T + np.array([[0.0, -0.8], [0.8, 0.0]]))
    x = np.array([0.4, -0.2])
    eps = 0.7
    ell = enl_slice_linear(a, x, eps)
    par = enl_slice_param(a, x, eps)
    for zs in ell.boundary_points(24):
        assert par.image_contains(zs, tol=1e-7)
    for zs in par.boundary_points(24):
        assert ell.contains(zs, tol=1e-7)
        # boundary points sit on the level set: tightening eps expels them
        tight = enl_slice_linear(a, x, eps - 1e-3)
        assert not tight.contains(zs, tol=1e-7)


def test_param_slice_skew_is_base_point():
    p = enl_slice_param(LinearMapOp(ROT90), [1.0, 0.0], 5.0)
    base = ROT90 @ np.array([1.0, 0.0])
    assert p.image_contains(base)
    assert not p.image_contains(base + np.array([1e-3, 0.0]))


def test_skew_relation_enlargement_vertical():
    rel = LinearRelationOp.from_graph_columns(np.array([[0.0], [1.0]]), dim=1)
    # gra(-A*) = {0} x R and the pairing vanishes there: the whole graph,
    # at every eps
    for eps in (0.0, 1.0):
        assert skew_relation_enl(rel, [0.0], [3.0], eps)
    assert not skew_relation_enl(rel, [0.5], [0.0], 10.0)


def test_skew_relation_enl_single_valued():
    rel = LinearRelationOp.from_matrix(ROT90)
    x = np.array([1.0, 2.0])
    assert skew_relation_enl(rel, x, ROT90 @ x, 0.0)
    assert not skew_relation_enl(rel, x, ROT90 @ x + np.array([0.1, 0.0]), 1.0)


def test_skew_relation_enl_requires_skew():
    with pytest.raises(NotSkewError):
        skew_relation_enl(LinearRelationOp.from_matrix(np.eye(2)), [0.0, 0.0],
                          [0.0, 0.0], 0.0)


def test_eps_subdiff_slice_radii():
    assert eps_subdiff_slice(NormSubdiffOp(dim=2, p=1.0), 7.0).radius == 1.0
    s = eps_subdiff_slice(NormSubdiffOp(dim=2, p=2.0), 0.5)
    assert s.radius == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert eps_subdiff_slice(NormSubdiffOp(dim=2, p=2.0), 0.0).radius == 0.0


def test_norm_subdiff_membership_formula():
    op = NormSubdiffOp(dim=2, p=1.0)
    assert norm_subdiff_enl_member(op, [1.0, 0.0], [1.0, 0.0], 0.0)
    assert not norm_subdiff_enl_member(op, [1.0, 0.0], [0.0, 1.0], 0.9)
    assert norm_subdiff_enl_member(op, [1.0, 0.0], [0.0, 1.0], 1.0)


def test_normal_cone_membership_formula():
    nc = NormalConeOp(Box([-1.0, -1.0], [1.0, 1.0]))
    for t in (0.0, 0.5, 2.0):
        assert normal_cone_enl_member(nc, [1.0, 0.0], [t, 0.0], 0.0)
    assert not normal_cone_enl_member(nc, [0.0, 0.0], [1.0, 0.0], 0.5)
    assert not normal_cone_enl_member(nc, [2.0, 0.0], [1.0, 0.0], 100.0)


def test_nesting_in_eps():
    ops_list = [
        LinearMapOp(np.array([[2.0, 1.0], [-1.0, 1.0]])),
        NormalConeOp(Ball([0.0, 0.0], 1.0)),
        NormSubdiffOp(dim=2, p=1.0),
    ]
    rng = np.random.default_rng(33)
    for op in ops_list:
        for _ in range(60):
            x, xs = rng.normal(size=2), rng.normal(size=2) * 2
            if enl_member(op, x, xs, 0.3).member:
                assert enl_member(op, x, xs, 1.0).member


def test_eps_zero_recovers_graph():
    ops_list = [
        LinearMapOp(np.array([[1.0, 0.0], [0.0, 2.0]])),
        NormalConeOp(Box([-1.0, -1.0], [1.0, 1.0])),
        NormSubdiffOp(dim=2, p=1.0),
    ]
    rng = np.random.default_rng(9)
    for op in ops_list:
        for _ in range(80):
            x, xs = rng.normal(size=2), rng.normal(size=2)
            assert enl_member(op, x, xs, 0.0).member == graph_member(op, x, xs, 1e-9)


def _sampled_member(op, x, xs, eps, count, seed):
    """No violation found: the sampled lower bound of F (graph samples
    and the polish; the divergence flag is not read) is at most
    <x, xs> + eps."""
    res = fitz_bruteforce(op, x, xs, count=count, radius=16.0, seed=seed)
    return res.value <= pairing(x, xs) + eps + SLACK_TOL


def test_oracle_agrees_with_closed_form_p1():
    op = NormSubdiffOp(dim=2, p=1.0)
    rng = np.random.default_rng(14)
    caught = 0
    for _ in range(200):
        x = rng.normal(size=2) * 2
        xs = rng.normal(size=2)
        eps = float(rng.uniform(0, 1))
        closed = norm_subdiff_enl_member(op, x, xs, eps)
        sampled = _sampled_member(op, x, xs, eps, count=400, seed=2)
        if closed:
            assert sampled  # a violation against a true member would be unsound
        if not sampled:
            assert not closed
            caught += 1
    assert caught > 20  # the oracle does falsify a healthy share of non-members


def test_oracle_matches_slice_radius_p_greater_one():
    for p in (1.5, 2.0, 3.0):
        op = NormSubdiffOp(dim=2, p=p)
        for eps in (0.1, 0.5):
            r = eps_subdiff_slice(op, eps).radius
            d = np.array([1.0, 0.0])
            assert _sampled_member(op, np.zeros(2), (r - 1e-6) * d, eps,
                                   count=400, seed=1)
            assert not _sampled_member(op, np.zeros(2), (r + 1e-6) * d, eps,
                                       count=400, seed=1)


def test_oracle_eps_zero_is_subgradient_check():
    op = NormSubdiffOp(dim=2, p=2.0)
    assert _sampled_member(op, [1.0, 0.0], [1.0, 0.0], 0.0, count=400, seed=0)
    assert not _sampled_member(op, [1.0, 0.0], [1.5, 0.0], 0.0, count=400, seed=0)


# ---------------------------------------------------------------------------
# the closed-form graph tests against their formulas
# ---------------------------------------------------------------------------
#
# Each helper is enl_member on one kind; the references are the closed forms
# of the enlargements' graphs, with no tolerance.  Boundary points sit 1e-6
# either side, far outside the 1e-9 membership tolerance.

def _ref_normal_cone(c, x, xs, eps):
    return c.contains(x, 0.0) and c.support(xs) <= float(x @ xs) + eps


def _ref_norm_p1(x, xs, eps):
    return np.linalg.norm(xs) <= 1.0 and np.linalg.norm(x) <= float(x @ xs) + eps


def _ref_skew(rel, x, xs, eps):
    neg_adj = neg_adjoint_graph(rel.graph).basis
    stacked = np.concatenate([x, xs])
    on_graph = np.linalg.norm(stacked - neg_adj @ (neg_adj.T @ stacked)) <= 1e-12
    return bool(on_graph) and float(x @ xs) >= -eps


@pytest.mark.parametrize("c", [Box([-1.0, -0.5], [1.0, 2.0]), Ball([0.5, -0.25], 1.5)],
                         ids=["box", "ball"])
def test_normal_cone_helper_matches_its_formula(c):
    nc, rng = NormalConeOp(c), np.random.default_rng(21)
    cases = [(rng.normal(size=2) * 2, rng.normal(size=2) * 2, rng.uniform(0, 2))
             for _ in range(200)]
    for _ in range(40):
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        edge = c.support_points(d[None, :])[0]  # on the boundary, with outward normal d
        xs = 2.0 * rng.normal(size=2)
        cases += [(edge + t * d, xs, 5.0) for t in (-1e-6, 1e-6)]
        x = c.project(edge - 0.3 * d)  # inside: sigma_C(xs) - <x, xs> > 0
        gap = c.support(xs) - float(x @ xs)
        cases += [(x, xs, gap + t) for t in (-1e-6, 1e-6) if gap + t >= 0.0]
    members = 0
    for x, xs, eps in cases:
        want = _ref_normal_cone(c, x, xs, eps)
        assert normal_cone_enl_member(nc, x, xs, eps) == want, (x, xs, eps)
        members += want
    assert 0 < members < len(cases)


def test_norm_subdiff_helper_matches_its_formula():
    op, rng = NormSubdiffOp(dim=3, p=1.0), np.random.default_rng(22)
    cases = [(rng.normal(size=3) * 2, rng.normal(size=3) * 0.7, rng.uniform(0, 2))
             for _ in range(200)]
    for _ in range(40):
        x, u = rng.normal(size=3), rng.normal(size=3)
        u /= np.linalg.norm(u)
        cases += [(x, (1.0 + t) * u, 10.0) for t in (-1e-6, 1e-6)]  # ||xs|| = 1 +- 1e-6
        xs = 0.5 * u
        gap = np.linalg.norm(x) - float(x @ xs)  # >= ||x|| / 2 > 0
        cases += [(x, xs, gap + t) for t in (-1e-6, 1e-6)]
    members = 0
    for x, xs, eps in cases:
        want = _ref_norm_p1(x, xs, eps)
        assert norm_subdiff_enl_member(op, x, xs, eps) == want, (x, xs, eps)
        members += want
    assert 0 < members < len(cases)
    with pytest.raises(UnsupportedOperatorError):
        norm_subdiff_enl_member(NormSubdiffOp(dim=3, p=2.0), np.zeros(3), np.zeros(3), 1.0)


@pytest.mark.parametrize("rel", [
    LinearRelationOp.from_graph_columns(np.array([[0.0], [1.0]]), dim=1),
    LinearRelationOp.from_matrix(ROT90),
    LinearRelationOp.from_matrix(np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5],
                                           [2.0, -0.5, 0.0]])),
], ids=["vertical", "rot90", "skew3"])
def test_skew_relation_helper_matches_its_formula(rel):
    # the pairing vanishes on gra(-A*) of a maximal skew relation, so the
    # subspace is the only boundary there is
    n, rng = rel.dim, np.random.default_rng(23)
    neg_adj = neg_adjoint_graph(rel.graph).basis
    off = complement(neg_adjoint_graph(rel.graph)).basis
    cases = [(rng.normal(size=n), rng.normal(size=n), rng.uniform(0, 2)) for _ in range(100)]
    for _ in range(40):
        on = neg_adj @ rng.normal(size=neg_adj.shape[1])
        for t in (0.0, -1e-6, 1e-6):
            p = on + t * (off @ rng.normal(size=off.shape[1]) if t else 0.0)
            cases.append((p[:n], p[n:], rng.uniform(0, 1)))
    members = 0
    for x, xs, eps in cases:
        want = _ref_skew(rel, x, xs, eps)
        assert skew_relation_enl(rel, x, xs, eps) == want, (x, xs, eps)
        members += want
    assert 0 < members < len(cases)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -0.5])
def test_a_non_finite_or_negative_eps_is_refused(eps):
    # NaN passed the old eps < 0 test: member=False with slack nan, and
    # slices of level or radius nan
    a, x = rotation(0.3), np.array([1.0, 0.0])
    calls = (lambda: enl_member(a, x, [0.0, 1.0], eps),
             lambda: enl_slice_linear(a, x, eps),
             lambda: enl_slice_param(a, x, eps),
             lambda: eps_subdiff_slice(NormSubdiffOp(2, 2.0), eps))
    for call in calls:
        with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
            call()
