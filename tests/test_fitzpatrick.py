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
    SumOp,
    UnsupportedOperatorError,
    graph_member,
    sample_graph,
)
from enlargekit import fitzpatrick as fz
from enlargekit.fitzpatrick import (
    FitzEvaluator,
    InfConvResult,
    fitz_bruteforce,
    fitz_closed_form,
    fitz_evaluator,
    fitz_linear_map,
    fitz_linear_relation,
    fitz_norm_subdiff,
    fitz_normal_cone,
    pairing,
    partial_inf_conv,
)

ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


def vertical_relation():
    return LinearRelationOp.from_graph_columns(np.array([[0.0], [1.0]]), dim=1)


# --- closed forms ------------------------------------------------------------

def test_fitz_identity_line():
    ident = LinearMapOp(np.eye(1))
    assert fitz_linear_map(ident, [1.0], [1.0]) == pytest.approx(1.0)
    assert fitz_linear_map(ident, [1.0], [0.0]) == pytest.approx(0.25)


def test_fitz_skew_is_graph_indicator():
    skew = LinearMapOp(ROT90)
    x = np.array([1.0, 2.0])
    assert fitz_linear_map(skew, x, ROT90 @ x) == pytest.approx(0.0, abs=1e-12)
    assert math.isinf(fitz_linear_map(skew, x, ROT90 @ x + [0.1, 0.0]))


def test_fitz_identity_relation_matches_map():
    rel = LinearRelationOp.from_matrix(np.eye(2))
    rng = np.random.default_rng(0)
    for _ in range(25):
        x, xs = rng.normal(size=2), rng.normal(size=2)
        expected = 0.25 * float(np.linalg.norm(x + xs) ** 2)
        assert fitz_linear_relation(rel, x, xs) == pytest.approx(expected, abs=1e-10)


def test_fitz_vertical_relation_is_indicator_in_x():
    rel = vertical_relation()
    assert fitz_linear_relation(rel, [0.0], [5.0]) == pytest.approx(0.0, abs=1e-12)
    assert math.isinf(fitz_linear_relation(rel, [1.0], [0.0]))


def test_fitz_normal_cone_box():
    cone = NormalConeOp(Box([-1.0, -1.0], [1.0, 1.0]))
    assert fitz_normal_cone(cone, [0.0, 0.0], [1.0, -2.0]) == pytest.approx(3.0)
    assert math.isinf(fitz_normal_cone(cone, [2.0, 0.0], [1.0, 0.0]))


def test_fitz_normal_cone_ball_graph_point():
    cone = NormalConeOp(Ball([0.0, 0.0], 1.0))
    for t in (0.5, 1.0, 4.0):
        val = fitz_normal_cone(cone, [1.0, 0.0], [t, 0.0])
        assert val == pytest.approx(t)
        assert val == pytest.approx(pairing([1.0, 0.0], [t, 0.0]))


def test_fitz_norm_subdiff_p1():
    op = NormSubdiffOp(dim=2, p=1.0)
    assert fitz_norm_subdiff(op, [3.0, 0.0], [1.0, 0.0]) == pytest.approx(3.0)
    assert math.isinf(fitz_norm_subdiff(op, [1.0, 0.0], [2.0, 0.0]))
    assert fitz_norm_subdiff(op, [0.0, 0.0], [0.0, 0.0]) == 0.0


def test_fitz_closed_form_dispatch():
    assert fitz_closed_form(NormSubdiffOp(dim=2, p=3.0), [0.0, 0.0], [0.0, 0.0]) is None
    s = SumOp((LinearMapOp(np.eye(1)), LinearMapOp(np.eye(1))))
    # F_{2 Id}(0, 2) = (1/4) (0 + 2)^2 / 2 ... computed from the 2Id closed form
    assert fitz_closed_form(s, [0.0], [2.0]) == pytest.approx(0.5)


def test_fitz_inequality_on_random_points():
    zoo = [
        fitz_evaluator(LinearMapOp(np.array([[2.0, 1.0], [-1.0, 1.0]]))),
        fitz_evaluator(LinearRelationOp.from_matrix(ROT90)),
        fitz_evaluator(NormalConeOp(Box([-1.0, -1.0], [1.0, 1.0]))),
        fitz_evaluator(NormSubdiffOp(dim=2, p=1.0)),
    ]
    rng = np.random.default_rng(42)
    for ev in zoo:
        for _ in range(200):
            x, xs = rng.normal(size=2) * 2, rng.normal(size=2) * 2
            assert ev.evaluate(x, xs) >= pairing(x, xs) - 1e-9


def test_fitz_equality_on_graph_samples():
    cases = [
        (LinearMapOp(np.array([[1.0, 0.5], [0.5, 2.0]])), None),
        (LinearRelationOp.from_matrix(ROT90), None),
        (NormalConeOp(Ball([0.0, 0.0], 1.5)), None),
        (NormSubdiffOp(dim=2, p=1.0), None),
    ]
    for op, _ in cases:
        ev = fitz_evaluator(op)
        for x, xs in sample_graph(op, 80, 3.0, seed=8):
            assert ev.evaluate(x, xs) == pytest.approx(pairing(x, xs), abs=1e-9)


# --- sampled oracle ----------------------------------------------------------

def test_bruteforce_identity_close_to_closed_form():
    ident = LinearMapOp(np.eye(2))
    rng = np.random.default_rng(5)
    for _ in range(5):
        x, xs = rng.normal(size=2) * 3, rng.normal(size=2) * 3
        res = fitz_bruteforce(ident, x, xs, count=10000, radius=10.0, seed=1)
        expected = 0.25 * float(np.linalg.norm(x + xs) ** 2)
        assert res.value <= expected + 1e-9
        assert expected - res.value <= 1e-3
        assert not res.diverging


def test_bruteforce_pins_graph_points():
    ops_list = [
        LinearMapOp(np.array([[1.0, 0.5], [0.5, 2.0]])),
        NormalConeOp(Box([-1.0, -1.0], [1.0, 1.0])),
        NormSubdiffOp(dim=2, p=1.0),
    ]
    for op in ops_list:
        for x, xs in sample_graph(op, 12, 2.0, seed=3):
            res = fitz_bruteforce(op, x, xs, count=400, radius=4.0, seed=2)
            assert abs(res.value - pairing(x, xs)) <= 1e-9


def test_bruteforce_flags_divergence_off_graph_skew():
    skew = LinearMapOp(ROT90)
    x = np.array([1.0, 0.0])
    xs = ROT90 @ x + np.array([0.5, 0.5])
    res = fitz_bruteforce(skew, x, xs, count=3000, radius=4.0, seed=0)
    assert res.diverging
    assert math.isinf(fitz_linear_map(skew, x, xs))


def test_bruteforce_no_divergence_on_quadratic():
    ident = LinearMapOp(np.eye(2))
    res = fitz_bruteforce(ident, [1.0, 0.0], [0.0, 1.0], count=3000, radius=8.0, seed=0)
    assert not res.diverging


def test_bruteforce_monotone_in_count():
    op = LinearMapOp(np.array([[1.0, -2.0], [2.0, 0.5]]))
    x, xs = np.array([0.3, -1.2]), np.array([0.4, 0.9])
    # the raw sampled sup at radius R, before the polish joins it
    vals = [fitz_bruteforce(op, x, xs, count=c, radius=6.0, seed=7).trend[0][1]
            for c in (100, 400, 1600, 6400)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_fitz_norm_subdiff_p2_matches_identity():
    # p = 2 power norm has gradient x, i.e. the identity operator
    op = NormSubdiffOp(dim=2, p=2.0)
    x, xs = np.array([1.0, -0.5]), np.array([0.5, 0.5])
    val = fitz_norm_subdiff(op, x, xs, count=8000, radius=8.0, seed=0)
    expected = 0.25 * float(np.linalg.norm(x + xs) ** 2)
    assert val == pytest.approx(expected, abs=1e-3)


# --- exact chart polish ------------------------------------------------------

def _close_rel(got, want, rtol):
    return abs(got - want) <= rtol * (1.0 + abs(want))


def _on_carrier(u, v, x, xs):
    """Move (x, xs) so that c = V'x + U'xs lies in ran W: then F is finite.
    Adding (V d, U d) adds (U'U + V'V) d to c."""
    w = 0.5 * (u.T @ v + v.T @ u)
    c = v.T @ x + u.T @ xs
    d = np.linalg.solve(u.T @ u + v.T @ v, w @ np.linalg.pinv(w) @ c - c)
    return x + v @ d, xs + u @ d


def test_polish_attains_closed_form_of_maps():
    from enlargekit.certificates import random_monotone_matrix
    rng = np.random.default_rng(21)
    mats = [ROT90, np.diag([1.0, 0.0]), np.array([[1.0, -3.0], [3.0, 0.0]])]
    mats += [random_monotone_matrix(n, rng, rank_deficient=rd).matrix
             for n in (2, 3, 4) for rd in (False, True)]
    for m in mats:
        op = LinearMapOp(m)
        n = op.dim
        for _ in range(4):
            x, xs = _on_carrier(np.eye(n), m, rng.normal(size=n) * 2, rng.normal(size=n) * 2)
            want = fitz_linear_map(op, x, xs)
            assert math.isfinite(want)
            res = fitz_bruteforce(op, x, xs, count=500, radius=4.0, seed=1)
            assert _close_rel(res.value, want, 1e-12)
            assert graph_member(op, *res.best_pair)


def test_polish_attains_closed_form_of_relations():
    from enlargekit.certificates import random_maximal_monotone_relation
    rng = np.random.default_rng(22)
    rels = [vertical_relation(), LinearRelationOp.from_matrix(ROT90)]
    rels += [random_maximal_monotone_relation(n, rng) for n in (2, 3, 4) for _ in range(2)]
    for op in rels:
        n = op.dim
        for _ in range(4):
            x, xs = _on_carrier(op.u_block, op.v_block,
                                rng.normal(size=n) * 2, rng.normal(size=n) * 2)
            want = fitz_linear_relation(op, x, xs)
            assert math.isfinite(want)
            res = fitz_bruteforce(op, x, xs, count=500, radius=4.0, seed=2)
            assert _close_rel(res.value, want, 1e-12)
            assert graph_member(op, *res.best_pair)


def test_polish_attains_norm_for_p1():
    op = NormSubdiffOp(dim=3, p=1.0)
    rng = np.random.default_rng(23)
    for scale in (0.0, 0.01, 1.0, 5.0):
        for _ in range(3):
            x = rng.normal(size=3) * scale
            xs = rng.normal(size=3)
            xs *= rng.uniform(0.0, 1.0) / np.linalg.norm(xs)
            res = fitz_bruteforce(op, x, xs, count=500, radius=4.0, seed=3)
            assert abs(res.value - float(np.linalg.norm(x))) <= 1e-12 * (1.0 + np.linalg.norm(x))
            assert graph_member(op, *res.best_pair)


def _dense_power_fitz(x, xs, p):
    """sup over r >= 0 of ||r^(p-1) x + r xs|| - r^p: a 200001-point log grid
    over twenty decades below a radius past which the objective is negative,
    then a 20001-point linear grid between the neighbours of its three best
    points."""
    def h(r):
        pts = np.multiply.outer(r ** (p - 1.0), x) + np.multiply.outer(r, xs)
        return np.linalg.norm(pts, axis=-1) - r ** p

    top = max(4.0 * np.linalg.norm(x), (4.0 * np.linalg.norm(xs)) ** (1.0 / (p - 1.0)))
    radii = np.geomspace(top * 1e-20, top, 200001)
    vals = h(radii)
    best = max(0.0, float(np.max(vals)))
    for k in np.argsort(vals)[-3:]:
        fine = np.linspace(radii[max(k - 1, 0)], radii[min(k + 1, radii.size - 1)], 20001)
        best = max(best, float(np.max(h(fine))))
    return best


@pytest.mark.parametrize("p", [1.05, 1.2, 1.5, 2.0, 3.0, 6.0])
def test_polish_attains_dense_search_for_p_above_1(p):
    op = NormSubdiffOp(dim=2, p=p)
    rng = np.random.default_rng(int(p * 100))
    pairs = []
    for nx, ns in [(0.01, 0.01), (5.0, 0.01), (0.01, 5.0), (5.0, 5.0), (1.0, 2.0), (6.6, 2.2)]:
        x, xs = rng.normal(size=2), rng.normal(size=2)
        pairs.append((x * nx / np.linalg.norm(x), xs * ns / np.linalg.norm(xs)))
    # xs against x: h has a bump at small r and one at large r, which a
    # linear radius grid up to r_max steps over when p is near 1
    unit, turn = np.array([0.6, 0.8]), np.array([[-0.95, -0.31], [0.31, -0.95]])
    for nx in (1.0, 5.0):
        pairs += [(nx * unit, -1.2 * unit), (nx * unit, 1.2 * turn @ unit)]
    for x, xs in pairs:
        want = _dense_power_fitz(x, xs, p)
        res = fitz_bruteforce(op, x, xs, count=500, radius=4.0, seed=4)
        assert _close_rel(res.value, want, 1e-10), (x, xs, res.value, want)
        assert graph_member(op, *res.best_pair)


def test_bruteforce_stays_finite_where_f_is_not():
    # F = +inf at each query: a non-monotone map (no chart candidate), a
    # point off the carrier of a skew map, and p = 1 with ||xs|| > 1
    cases = [
        (LinearMapOp(np.diag([-1.0, 1.0])), [1.0, 0.5], [0.3, -0.2]),
        (LinearMapOp(ROT90), [1.0, 0.0], [0.5, 1.5]),
        (NormSubdiffOp(dim=2, p=1.0), [1.0, -0.5], [1.5, 1.0]),
    ]
    for op, x, xs in cases:
        res = fitz_bruteforce(op, x, xs, count=2000, radius=4.0, seed=0)
        assert math.isfinite(res.value) and abs(res.value) < 1e3
        assert res.diverging
        assert graph_member(op, *res.best_pair)


# --- partial inf-convolution -------------------------------------------------

def test_infconv_zero_map_is_neutral():
    f_id = fitz_evaluator(LinearMapOp(np.eye(1)))
    f_zero = fitz_evaluator(LinearMapOp(np.zeros((1, 1))))
    res = partial_inf_conv(f_id, f_zero, [0.7], [1.3])
    expected = fitz_linear_map(LinearMapOp(np.eye(1)), [0.7], [1.3])
    assert res.value == pytest.approx(expected, abs=1e-10)
    np.testing.assert_allclose(res.witness, [0.0], atol=1e-9)


def test_infconv_two_identities():
    f_id = fitz_evaluator(LinearMapOp(np.eye(1)))
    res = partial_inf_conv(f_id, f_id, [0.0], [2.0])
    assert res.value == pytest.approx(0.5, abs=1e-10)
    np.testing.assert_allclose(res.witness, [1.0], atol=1e-8)
    assert res.inner_residual <= 1e-8


def test_infconv_witness_consistency():
    f_id = fitz_evaluator(LinearMapOp(np.eye(1)))
    cone = fitz_evaluator(NormalConeOp(Box([-1.0], [1.0])))
    res = partial_inf_conv(f_id, cone, [1.0], [3.0])
    assert res.value == pytest.approx(3.0, abs=1e-7)
    recomputed = f_id.evaluate([1.0], [3.0] - res.witness) + \
        cone.evaluate([1.0], res.witness)
    assert recomputed == pytest.approx(res.value, abs=1e-8)


def test_infconv_matches_bruteforce_of_sum():
    a = LinearMapOp(np.eye(1))
    cone_op = NormalConeOp(Box([-1.0], [1.0]))
    res = partial_inf_conv(fitz_evaluator(a), fitz_evaluator(cone_op), [1.0], [3.0])
    brute = fitz_bruteforce(SumOp((a, cone_op)), [1.0], [3.0],
                            count=4000, radius=8.0, seed=0)
    assert abs(res.value - brute.value) <= 1e-6


def test_infconv_incompatible_carriers_is_infinite():
    skew = fitz_evaluator(LinearMapOp(ROT90))
    cone = fitz_evaluator(NormalConeOp(Ball([0.0, 0.0], 1.0)))
    # x outside the ball: the indicator side is +inf outright
    res = partial_inf_conv(skew, cone, [2.0, 0.0], [0.0, 0.0])
    assert math.isinf(res.value)
    assert res.witness is None


def test_infconv_upper_bounds_sum_bruteforce():
    # F_{A+B} <= F_A box_2 F_B: the sampled sup of the sum never exceeds
    # the inf-convolution meaningfully.
    a = LinearMapOp(np.array([[1.0, 0.0], [0.0, 2.0]]))
    cone_op = NormalConeOp(Ball([0.0, 0.0], 1.5))
    fa, fc = fitz_evaluator(a), fitz_evaluator(cone_op)
    rng = np.random.default_rng(12)
    for _ in range(20):
        z = rng.normal(size=2)
        zs = rng.normal(size=2) * 2
        res = partial_inf_conv(fa, fc, z, zs)
        brute = fitz_bruteforce(SumOp((a, cone_op)), z, zs, count=2000,
                                radius=6.0, seed=3)
        if math.isfinite(res.value):
            assert brute.value <= res.value + 1e-6


def _box_support(lo, hi, y):
    return float(np.sum(np.maximum(hi * y, lo * y)))


def test_infconv_of_two_box_cones_is_the_intersection_cone():
    # N_B1 box_2 N_B2 at (x, x*) is the indicator of B1 cap B2 at x plus its
    # support function at x* (Rockafellar 1970, Cor. 23.8.1); B1 cap B2 is
    # again a box, [max lo, min hi].  No linear piece: Douglas-Rachford.
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        for _ in range(5):
            lo1 = rng.uniform(-2.0, 0.0, n)
            hi1 = lo1 + rng.uniform(0.5, 2.0, n)
            lo2 = lo1 + rng.uniform(0.1, 0.3, n) * (hi1 - lo1)
            hi2 = hi1 + rng.uniform(-0.3, 0.5, n) * (hi1 - lo1)
            lo, hi = np.maximum(lo1, lo2), np.minimum(hi1, hi2)
            f1, f2 = fitz_evaluator(NormalConeOp(Box(lo1, hi1))), \
                fitz_evaluator(NormalConeOp(Box(lo2, hi2)))
            for _ in range(2):
                x, y = rng.uniform(lo, hi), 2.0 * rng.normal(size=n)
                want = _box_support(lo, hi, y)
                for fa, fb in ((f1, f2), (f2, f1)):
                    res = partial_inf_conv(fa, fb, x, y)
                    assert res.value == pytest.approx(want, rel=1e-9, abs=1e-9)
                    assert res.inner_residual <= 1e-8
                off = x.copy()
                off[0] = lo1[0]  # in B1, below lo2[0]
                assert math.isinf(partial_inf_conv(f1, f2, off, y).value)
                assert partial_inf_conv(f2, f1, off, y).witness is None


def test_the_p1_norm_graph_has_no_partial_inf_convolution(monkeypatch):
    # no sum theorem pairs d||.|| with anything: refused before any
    # iteration, in either slot
    def refuse(*args):
        raise AssertionError("Douglas-Rachford on a pair with the p = 1 norm graph")

    monkeypatch.setattr(fz, "_douglas_rachford", refuse)
    f_norm = fitz_evaluator(NormSubdiffOp(dim=2, p=1.0))
    others = [fitz_evaluator(op) for op in (
        LinearMapOp(np.array([[2.0, -1.0], [1.0, 1.0]])), LinearMapOp(ROT90),
        NormalConeOp(Box(-np.ones(2), np.ones(2))))] + [f_norm]
    x, y = np.array([0.1, 0.2]), np.array([2.5, 0.0])
    for other in others:
        for f1, f2 in ((f_norm, other), (other, f_norm)):
            with pytest.raises(UnsupportedOperatorError, match="NormSubdiffOp"):
                partial_inf_conv(f1, f2, x, y)
