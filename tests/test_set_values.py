"""Set values against references computed here: PolyhedralValue.contains
and the Minkowski table behind SumOp.apply."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enlargekit.linalg import orthonormalize
from enlargekit.operators import (
    MEMBER_TOL,
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
    UnsupportedOperatorError,
    apply,
)


def band(u):
    return MEMBER_TOL * (1.0 + float(np.linalg.norm(u)))


def assert_agrees(value, u, dist):
    """contains(u) must match a reference distance outside [0.1, 10] times
    the band tol (1 + ||u||)."""
    if dist < 0.1 * band(u):
        assert value.contains(u), (u, dist)
    elif dist > 10.0 * band(u):
        assert not value.contains(u), (u, dist)


def box_sign_cone(rng, n, scale):
    signs = rng.integers(-1, 2, n).astype(float)
    signs[rng.integers(n)] = rng.choice([-1.0, 1.0])
    value = apply(NormalConeOp(Box(-np.ones(n), np.ones(n))), signs)
    member = scale * signs * rng.exponential(size=n)

    def dist(u):  # per-coordinate projection onto the sign cone
        proj = np.where(signs > 0, np.maximum(u, 0.0), np.where(signs < 0, np.minimum(u, 0.0), 0.0))
        return np.linalg.norm(u - proj)
    return value, member, dist


def ball_ray(rng, n, scale):
    center, d = rng.normal(size=n), rng.normal(size=n)
    d /= np.linalg.norm(d)
    value = apply(NormalConeOp(Ball(center, 2.0)), center + 2.0 * d)
    return value, scale * rng.exponential() * d, lambda u: np.linalg.norm(u - max(u @ d, 0.0) * d)


def affine(rng, n, scale):
    point, cols = scale * rng.normal(size=n), rng.normal(size=(n, int(rng.integers(1, n + 1))))
    value = PolyhedralValue(point, orthonormalize(cols, ambient_dim=n))

    def dist(u):
        t = np.linalg.lstsq(cols, u - point, rcond=None)[0]
        return np.linalg.norm(cols @ t - (u - point))
    return value, point + cols @ rng.normal(size=cols.shape[1]), dist


def affine_cone_residual(point, cols, rows, u):
    """min over s and z <= 0 of ||rows D s + z - rows (u - point)||."""
    from scipy.optimize import lsq_linear

    m, k = rows.shape[0], cols.shape[1]
    a, b = np.hstack([rows @ cols, np.eye(m)]), rows @ (u - point)
    hi = np.concatenate([np.full(k, np.inf), np.zeros(m)])
    return np.linalg.norm(a @ lsq_linear(a, b, bounds=(np.full(k + m, -np.inf), hi),
                                         method="bvls").x - b)


def affine_cone(rng, n, scale):
    point, cols = scale * rng.normal(size=n), orthonormalize(rng.normal(size=(n, 1)), ambient_dim=n)
    c = rng.normal(size=n)
    rows = rng.normal(size=(int(rng.integers(1, 2 * n + 1)), n))
    rows *= -np.sign(rows @ c)[:, None]  # so that rows c <= 0: the cone is not {0}
    value = PolyhedralValue(point, cols, rows)
    member = point + scale * cols.basis @ rng.normal(size=1)  # the apex, moved along D
    return value, member, lambda u: affine_cone_residual(point, cols.basis, rows, u)


KINDS = {"box sign cone": box_sign_cone, "ball ray": ball_ray, "affine": affine,
         "affine + cone": affine_cone}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(KINDS)), st.integers(1, 4), st.sampled_from([1.0, 100.0]),
       st.floats(-13.0, -3.0), st.integers(0, 2**31 - 1))
def test_contains_matches_a_reference_distance(kind, n, scale, log_eps, seed):
    # members of norm ~ scale, moved off by 1e-13 .. 1e-3 of (1 + their norm)
    rng = np.random.default_rng(seed)
    value, member, dist = KINDS[kind](rng, n, scale)
    for _ in range(5):
        step = rng.normal(size=n)
        u = member + 10.0 ** log_eps * (1.0 + np.linalg.norm(member)) * step / np.linalg.norm(step)
        assert_agrees(value, u, dist(u))


# the value at x of each kind: a point, a line, a ray, a face cone, a
# polytope cone, a ball and the empty set
KIND_AT = {
    "point": (LinearMapOp(np.array([[2.0, 0.0], [0.0, 3.0]])), [1.0, 1.0]),
    "line": (LinearRelationOp.from_graph_columns(
        np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]).T, dim=2), [0.5, 0.0]),
    "ray": (NormalConeOp(Ball([0.0, 0.0], 1.0)), [0.6, 0.8]),
    "face cone": (NormalConeOp(Box([-1.0, -1.0], [1.0, 1.0])), [1.0, -1.0]),
    "polytope cone": (NormalConeOp(Polytope((np.zeros(2), np.array([1.0, 0.0]),
                                             np.array([0.0, 1.0])))), [0.0, 0.0]),
    "ball": (NormSubdiffOp(dim=2, p=1.0), [0.0, 0.0]),
    "empty": (NormalConeOp(Ball([0.0, 0.0], 1.0)), [2.0, 0.0]),
}


@pytest.mark.parametrize("kind", sorted(KIND_AT))
@pytest.mark.parametrize("point_first", [True, False])
def test_a_point_shifts_every_kind(kind, point_first):
    op, x = KIND_AT[kind]
    shift = LinearMapOp(np.array([[1.0, -2.0], [0.5, 1.0]]))
    p = apply(shift, x).point
    alone = apply(op, x)
    got = apply(SumOp((shift, op) if point_first else (op, shift)), x)
    assert type(got) is type(alone)
    if isinstance(alone, BallValue):
        np.testing.assert_array_equal(got.center, alone.center + p)
        assert got.radius == alone.radius
    elif isinstance(alone, PolyhedralValue):
        np.testing.assert_array_equal(got.point, alone.point + p)
        np.testing.assert_array_equal(got.directions.basis, alone.directions.basis)
        assert (got.rows is None) == (alone.rows is None)
        if got.rows is not None:
            np.testing.assert_array_equal(got.rows, alone.rows)


# A(x) = x1 e1 + R e2 on dom A = span e1, plus a cone at x = 0 whose
# value there contains e1 and not -e1: each sum is the half-plane u1 >= 0
HALF_PLANE_CONES = {
    "ray": NormalConeOp(Ball([-1.0, 0.0], 1.0)),
    "face cone": NormalConeOp(Box([-1.0, -1.0], [0.0, 1.0])),
    "polytope cone": NormalConeOp(Polytope((np.zeros(2), np.array([-1.0, 0.0]),
                                            np.array([0.0, -1.0])))),
}


@pytest.mark.parametrize("cone", sorted(HALF_PLANE_CONES))
def test_a_relation_value_plus_a_cone_is_one_value(cone):
    rel = KIND_AT["line"][0]
    x = np.zeros(2)
    value = apply(SumOp((rel, HALF_PLANE_CONES[cone])), x)
    assert isinstance(value, PolyhedralValue)
    assert value.directions.dim == 1 and value.rows is not None
    rng = np.random.default_rng(3)
    for u in np.vstack([rng.normal(size=(30, 2)),
                        [[0.0, 5.0], [1e-12, -1.0], [-1e-12, 1.0], [-1e-6, 2.0]]]):
        assert_agrees(value, u, max(-u[0], 0.0))
        dist = affine_cone_residual(value.point, value.directions.basis, value.rows, u)
        assert_agrees(value, u, dist)


@pytest.mark.parametrize("terms, x", [
    # a face cone plus a ray: two cones
    ((NormalConeOp(Box([-1.0, -1.0], [1.0, 1.0])), NormalConeOp(Ball([0.0, 0.0], 1.0))),
     [1.0, 0.0]),
    # two polytope cones at a shared vertex
    ((KIND_AT["polytope cone"][0], KIND_AT["polytope cone"][0]), [0.0, 0.0]),
    # the p = 1 ball at 0 plus the vertical line {0} x R
    ((NormSubdiffOp(dim=1, p=1.0),
      LinearRelationOp.from_graph_columns(np.array([[0.0], [1.0]]), dim=1)), [0.0]),
])
def test_sums_with_no_value_here_raise(terms, x):
    for pair in (terms, terms[::-1]):
        with pytest.raises(UnsupportedOperatorError):
            apply(SumOp(pair), x)


def test_an_empty_term_empties_the_sum():
    # off the unit ball, on a face of the box [-2, 2]^2: empty plus a cone
    cones = (KIND_AT["empty"][0], NormalConeOp(Box([-2.0, -2.0], [2.0, 2.0])))
    for pair in (cones, cones[::-1]):
        assert isinstance(apply(SumOp(pair), [2.0, 0.0]), EmptySet)


def test_a_member_far_along_the_directions_belongs():
    # u is 3e-13 off the value and 200 from its point; the bounded least
    # squares on rows (u - point), with no move along D first, stopped
    # 3.3e-7 short of 0, above the 1.7e-7 band
    value = PolyhedralValue(
        np.array([-44.089723821744975, -31.319985535042534]),
        orthonormalize(np.array([[-0.3750628668542946], [-0.9269993775116776]]), ambient_dim=2),
        np.array([[-0.3410817123625282, -1.5873677939253144],
                  [0.5128754660477324, -0.2172860419246039],
                  [-0.4384717562621945, -0.7611135321317363]]))
    u = np.array([37.21383423162922, 169.62858542108458])
    dist = affine_cone_residual(value.point, value.directions.basis, value.rows, u)
    assert dist < 1e-12
    assert value.contains(u)
