"""Checks of the independent references against values known in closed form.

    python3 -m pytest perfbench
"""

import math

import numpy as np
import pytest

import refs


@pytest.mark.parametrize("seed", range(5))
def test_norm_power_p2_is_quarter_square(seed):
    rng = np.random.default_rng(seed)
    x, xs = rng.normal(size=3), rng.normal(size=3)
    assert refs.fitz_norm_power(x, xs, 2.0) == pytest.approx(0.25 * np.sum((x + xs) ** 2), rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_norm_power_graph_point_gives_pairing(p):
    # on the graph, F(y, |y|^(p-2) y) = |y|^p
    y = np.array([0.6, -0.8]) * 1.3
    ys = np.linalg.norm(y) ** (p - 2.0) * y
    assert refs.fitz_norm_power(y, ys, p) == pytest.approx(float(y @ ys), rel=1e-12)


def test_norm_power_scalar_p3():
    # n = 1, x = 0: F = sup_r r|x*| - r^3 = 2 (|x*|/3)^(3/2)
    assert refs.fitz_norm_power([0.0], [3.0], 3.0) == pytest.approx(2.0, rel=1e-12)


def test_carrier_identity_and_skew():
    x, xs = np.array([1.0, 2.0]), np.array([0.5, -1.0])
    assert refs.fitz_map(np.eye(2), x, xs) == pytest.approx(0.25 * np.sum((x + xs) ** 2))
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert refs.fitz_map(rot, x, rot @ x) == 0.0
    assert refs.fitz_map(rot, x, xs) == math.inf


def test_carrier_vertical_relation():
    # graph {0} x R: F(x, x*) = 0 at x = 0, +inf elsewhere
    u, v = np.array([[0.0]]), np.array([[1.0]])
    assert refs.fitz_carrier(u, v, [0.0], [5.0]) == 0.0
    assert refs.fitz_carrier(u, v, [1.0], [5.0]) == math.inf
    assert refs.in_neg_adjoint(u, v, [0.0], [3.0]) and refs.in_graph(u, v, [0.0], [3.0])


def test_qp_box_interior_and_corner():
    h = np.eye(2)
    val, w = refs.qp_box([1.0, 0.0], h, [-1.0, -1.0], [1.0, 1.0])
    assert val == pytest.approx(0.25) and w == pytest.approx([0.5, 0.0])
    val, w = refs.qp_box([10.0, -10.0], h, [-1.0, -1.0], [1.0, 1.0])
    assert w == pytest.approx([1.0, -1.0]) and val == pytest.approx(18.0)


def test_qp_ball_interior_and_boundary():
    h = np.eye(2)
    val, w = refs.qp_ball([1.0, 0.0], h, [0.0, 0.0], 1.0)
    assert val == pytest.approx(0.25)
    val, w = refs.qp_ball([10.0, 0.0], h, [0.0, 0.0], 1.0)
    assert w == pytest.approx([1.0, 0.0]) and val == pytest.approx(9.0)


def test_identity_plus_box_cone_matches_sum_formula():
    # A = I, C = [-1, 1]^2, z in C: F = max_w <z + z*, w> - |w|^2 = |z + z*|^2 / 4 if inside
    z, zs = np.array([0.2, -0.1]), np.array([0.3, 0.4])
    qp = lambda b, h: refs.qp_box(b, h, [-1, -1], [1, 1])
    assert refs.fitz_linear_plus_cone(np.eye(2), z, zs, qp) == pytest.approx(0.25 * np.sum((z + zs) ** 2))


def test_polygon_square():
    sq = refs.convex_hull([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
    assert len(sq) == 4
    assert refs.polygon_margin(sq, [0.5, 0.5]) == pytest.approx(0.5)
    assert refs.polygon_contains(sq, [1.0, 0.3])
    assert not refs.polygon_contains(sq, [1.001, 0.3])
    assert refs.support_vertices(sq, [1.0, 2.0]) == 3.0
