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
    Polytope,
    NotMaximalError,
    SumOp,
    TranslatedOp,
    as_relation,
    graph_member,
)
from enlargekit.certificates import (
    GraphNotAffineError,
    PreconditionFailedError,
    interior_domain_check,
    fitz_singleton_check,
    non_enlargeable,
    non_enlargeable_affine,
    non_enlargeable_linear_relation,
    non_enlargeable_single_valued,
    random_maximal_monotone_relation,
    random_monotone_matrix,
    sum_fitz_exactness,
    sum_maximality,
    sum_non_enlargeable,
)
from enlargekit.enlargement import enl_member
from enlargekit.linalg import orthonormalize, same_span

ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


def vertical_relation():
    return LinearRelationOp.from_graph_columns(np.array([[0.0], [1.0]]), dim=1)


def test_vertical_relation_non_enlargeable():
    cert = non_enlargeable_linear_relation(vertical_relation())
    assert cert.verdict and cert.witness is None
    assert cert.method == "adjoint-inclusion"


def test_identity_relation_enlargeable_with_witness():
    cert = non_enlargeable_linear_relation(LinearRelationOp.from_matrix(np.eye(1)))
    assert not cert.verdict
    x, xs = cert.witness
    direction = orthonormalize(np.array([[1.0], [-1.0]]))
    assert direction.contains_vector(np.concatenate([x, xs]), tol=1e-9)


def test_rotation_relations():
    assert non_enlargeable_linear_relation(LinearRelationOp.from_matrix(ROT90)).verdict
    theta = np.pi / 3
    c, s = np.cos(theta), np.sin(theta)
    rot = LinearRelationOp.from_matrix(np.array([[c, -s], [s, c]]))
    assert not non_enlargeable_linear_relation(rot).verdict


def test_single_valued_criterion():
    assert non_enlargeable_single_valued(LinearMapOp(ROT90)).verdict
    assert non_enlargeable_single_valued(LinearMapOp(np.zeros((2, 2)))).verdict
    cert = non_enlargeable_single_valued(LinearMapOp(np.eye(2)))
    assert not cert.verdict and cert.witness is not None


def test_enlargeable_witnesses_are_valid():
    fixtures = [
        LinearMapOp(np.eye(2)),
        LinearMapOp(np.array([[1.0, -2.0], [2.0, 0.5]])),
        LinearRelationOp.from_matrix(np.eye(1)),
    ]
    for op in fixtures:
        if isinstance(op, LinearMapOp):
            cert = non_enlargeable_single_valued(op)
        else:
            cert = non_enlargeable_linear_relation(op)
        assert not cert.verdict
        x, xs = cert.witness
        assert not graph_member(op, x, xs, tol=1e-9)
        assert enl_member(op, x, xs, 1.0).member


def test_criteria_agree_on_random_maps():
    rng = np.random.default_rng(3)
    for n in range(2, 7):
        for _ in range(20):
            if rng.uniform() < 0.3:
                k = rng.normal(size=(n, n))
                a = LinearMapOp(0.5 * (k - k.T))
            else:
                a = random_monotone_matrix(n, rng)
            v1 = non_enlargeable_single_valued(a).verdict
            v2 = non_enlargeable_linear_relation(as_relation(a)).verdict
            assert v1 == v2


def test_side_claim_on_true_verdicts():
    fixtures = [vertical_relation(), LinearRelationOp.from_matrix(ROT90),
                as_relation(LinearMapOp(np.zeros((2, 2))))]
    for rel in fixtures:
        cert = non_enlargeable_linear_relation(rel)
        assert cert.verdict  # the pairing side-claim is asserted internally


def test_affine_shift_translated_vertical():
    op = TranslatedOp(vertical_relation(), np.array([1.0]), np.array([2.0]))
    cert = non_enlargeable_affine(op, (np.array([1.0]), np.array([5.0])))
    assert cert.verdict
    assert cert.method == "affine-shift"


def test_affine_shift_translated_identity():
    op = TranslatedOp(LinearMapOp(np.eye(1)), np.array([1.0]), np.array([1.0]))
    cert = non_enlargeable_affine(op, (np.array([2.0]), np.array([2.0])))
    assert not cert.verdict
    x, xs = cert.witness
    assert not graph_member(op, x, xs, tol=1e-8)


def test_affine_shift_rejects_norm_subdiff():
    op = NormSubdiffOp(dim=2, p=1.0)
    base = (np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(GraphNotAffineError):
        non_enlargeable_affine(op, base)


def test_translation_invariance_of_verdicts():
    rng = np.random.default_rng(8)
    for op in (vertical_relation(), LinearRelationOp.from_matrix(np.eye(1)),
               as_relation(LinearMapOp(ROT90))):
        direct = non_enlargeable_linear_relation(op).verdict
        t = rng.normal(size=op.graph.dim)
        shift = op.graph.basis @ t  # a graph point
        n = op.dim
        translated = TranslatedOp(op, shift[:n], shift[n:])
        cert = non_enlargeable_affine(translated, (shift[:n], shift[n:]))
        assert cert.verdict == direct


def test_singleton_check_skew_map():
    rep = fitz_singleton_check(LinearMapOp(ROT90))
    assert rep.expected_singleton and rep.graph_equality_ok and rep.off_graph_ok


def test_singleton_check_identity_exhibits_finite_value():
    rep = fitz_singleton_check(LinearMapOp(np.eye(2)))
    assert not rep.expected_singleton
    assert rep.graph_equality_ok and rep.off_graph_ok
    (x, xs), val = rep.finite_off_graph_example
    assert math.isfinite(val)
    assert not graph_member(LinearMapOp(np.eye(2)), x, xs, tol=1e-9)


def test_singleton_check_vertical_relation():
    rep = fitz_singleton_check(vertical_relation())
    assert rep.expected_singleton and rep.graph_equality_ok and rep.off_graph_ok


def test_singleton_check_one_point_polytope_cone():
    # N of {v} has the graph {v} x R^n: non-enlargeable, with no off-graph pair
    op = NormalConeOp(Polytope((np.array([1.0, 2.0]), np.array([1.0, 2.0]))))
    rep = fitz_singleton_check(op)
    assert rep.expected_singleton and rep.graph_equality_ok and rep.off_graph_ok
    assert non_enlargeable(op).verdict
    assert non_enlargeable_affine(op, (np.array([1.0, 2.0]), np.array([5.0, -3.0]))).verdict


def test_non_enlargeable_rule_per_kind():
    box_cone = NormalConeOp(Box([-1.0, 0.0], [1.0, 2.0]))
    segment = Polytope((np.array([0.0, 0.0]), np.array([2.0, 2.0])))
    for op in (box_cone, NormalConeOp(Ball([0.0, 1.0], 0.5)), NormalConeOp(segment),
               SumOp((LinearMapOp(np.eye(2)), box_cone)),
               TranslatedOp(NormSubdiffOp(dim=2, p=1.0), np.array([1.0, 0.0]), np.zeros(2)),
               TranslatedOp(NormSubdiffOp(dim=2, p=2.0), np.zeros(2), np.ones(2))):
        cert = non_enlargeable(op)
        assert cert.verdict is False
        x, xs = cert.witness
        assert not graph_member(op, x, xs) and enl_member(op, x, xs, 0.5).member
    # dom {0} x R meets [-1, 1] in one point: the sum's graph is {0} x R
    point_dom = SumOp((vertical_relation(), NormalConeOp(Box([-1.0], [1.0]))))
    assert non_enlargeable(point_dom).verdict
    assert non_enlargeable_affine(point_dom, (np.zeros(1), np.array([4.0]))).verdict
    translated = TranslatedOp(vertical_relation(), np.array([1.0]), np.array([2.0]))
    assert non_enlargeable(translated).verdict
    with pytest.raises(NotMaximalError):
        non_enlargeable(LinearRelationOp.from_graph_columns(np.array([[1.0], [1.0], [0.0], [0.0]]), dim=2))


def test_sum_maximality_linear_cases():
    c1 = sum_maximality(LinearMapOp(np.eye(1)), LinearMapOp(np.eye(1)))
    assert c1.maximal
    c2 = sum_maximality(vertical_relation(), LinearMapOp(np.zeros((1, 1))))
    assert c2.maximal


def test_sum_maximality_identity_plus_box_cone():
    c = sum_maximality(LinearMapOp(np.eye(1)), NormalConeOp(Box([-1.0], [1.0])))
    assert c.maximal


def test_sum_exactness_identity_pair():
    rep = sum_fitz_exactness(LinearMapOp(np.eye(1)), LinearMapOp(np.eye(1)),
                             n_points=50, seed=0)
    assert rep.max_gap <= 1e-8
    assert rep.maximality and rep.hypothesis_ok
    assert all(resid <= 1e-8 for _, _, resid in rep.exactness_witnesses)


def test_sum_exactness_vertical_plus_zero():
    rep = sum_fitz_exactness(vertical_relation(), LinearMapOp(np.zeros((1, 1))),
                             n_points=60, seed=4)
    assert rep.max_gap <= 1e-8


def test_sum_exactness_identity_plus_interval_cone():
    rep = sum_fitz_exactness(LinearMapOp(np.eye(1)), NormalConeOp(Box([-1.0], [1.0])),
                             n_points=30, seed=5)
    assert rep.max_gap <= 1e-6
    assert rep.hypothesis_ok


def test_sum_non_enlargeable_cases():
    skew_a = LinearMapOp(ROT90)
    skew_b = LinearMapOp(2.0 * ROT90)
    assert sum_non_enlargeable(skew_a, skew_b).verdict
    assert sum_non_enlargeable(vertical_relation(), LinearMapOp(np.zeros((1, 1)))).verdict
    with pytest.raises(PreconditionFailedError):
        sum_non_enlargeable(skew_a, LinearMapOp(np.eye(2)))


def test_interior_domain_check_cases():
    assert interior_domain_check(LinearMapOp(np.eye(2)), Ball([0.0, 0.0], 1.0)) is True
    line_x = LinearRelationOp.from_graph_columns(
        np.array([[1.0], [0.0], [0.0], [0.0]]), dim=2)
    box = Box([1.0, -1.0], [2.0, 1.0])
    assert interior_domain_check(line_x, box) is True
    line_y = LinearRelationOp.from_graph_columns(
        np.array([[0.0], [1.0], [0.0], [0.0]]), dim=2)
    assert interior_domain_check(line_y, box) is False
    tri = Polytope((np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    assert interior_domain_check(LinearMapOp(np.eye(2)), tri) is True


def test_random_relation_generator_properties():
    rng = np.random.default_rng(19)
    from enlargekit.operators import validate
    for n in (2, 3):
        for _ in range(10):
            r = random_maximal_monotone_relation(n, rng)
            rep = validate(r)
            assert rep.monotone and rep.maximal


def test_fs6_small_scale():
    rng = np.random.default_rng(100)
    for _ in range(5):
        a = random_maximal_monotone_relation(3, rng)
        b = random_maximal_monotone_relation(3, rng)
        rep = sum_fitz_exactness(a, b, n_points=40, seed=int(rng.integers(1 << 16)))
        assert rep.max_gap <= 1e-6


def test_sum_maximality_of_a_cone_sum_is_exact():
    a, cone = LinearMapOp(np.eye(2)), NormalConeOp(Box([-1.0, -1.0], [1.0, 1.0]))
    c = sum_maximality(a, cone)
    assert c.maximal is True
    assert c.detail == "linear + normal cone: dom A meets ri C"


def test_linear_sum_exactness_builds_the_sum_relation_once(monkeypatch):
    from enlargekit import operators as ops
    calls = []
    real = ops.sum_relation

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(ops, "sum_relation", counting)
    rep = sum_fitz_exactness(LinearMapOp(ROT90), LinearMapOp(np.eye(2)), n_points=6)
    assert rep.max_gap <= 1e-8 and rep.maximality
    assert len(calls) == 1


def test_sum_maximality_rests_on_points_of_finite_value():
    # dom {0} x R = {0} meets the interior of [-1, 1], where F of the sum
    # is finite only at x = 0
    c = sum_maximality(vertical_relation(), NormalConeOp(Box([-1.0], [1.0])))
    assert c.maximal is True and c.detail == "linear + normal cone: dom A meets ri C"
    # the sum {0} x R + N_[1, 2] has an empty graph
    empty = sum_maximality(vertical_relation(), NormalConeOp(Box([1.0], [2.0])))
    assert empty.maximal is False
    assert "dom A misses C" in empty.detail


def test_sum_exactness_counts_skipped_cone_points():
    # F of {0} x R is finite only at x = 0, so the inf-convolution is +inf
    # at every test point of the interval off the origin
    rep = sum_fitz_exactness(vertical_relation(), NormalConeOp(Box([-1.0], [1.0])),
                             n_points=6)
    assert rep.skipped_points > 0
    assert rep.skipped_points + len(rep.exactness_witnesses) == rep.points_tested
    linear = sum_fitz_exactness(LinearMapOp(np.eye(1)), LinearMapOp(np.eye(1)),
                                n_points=6)
    assert linear.skipped_points == 0


def test_sum_exactness_map_plus_relation_with_a_proper_domain():
    # R = {(Q a, Q M a + Q_perp b)}: its carrier block on the Q_perp part is
    # rounding noise, which the quad-quad solve must not take as a constraint
    for n in (2, 4, 10, 40):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = random_monotone_matrix(n, rng)
            k = max(1, n // 2)
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            m = random_monotone_matrix(k, rng).matrix
            cols = np.block([[q[:, :k], np.zeros((n, n - k))], [q[:, :k] @ m, q[:, k:]]])
            r = LinearRelationOp.from_graph_columns(cols, dim=n)
            rep = sum_fitz_exactness(a, r, n_points=4, seed=seed)
            assert rep.max_gap <= 1e-6, (n, seed, rep.max_gap)


def test_sum_exactness_checks_points_of_a_proper_domain():
    # the sum {0} x R + N_[-1, 1] has finite F only at x = 0, so a point of
    # dom A must be among those checked
    rep = sum_fitz_exactness(vertical_relation(), NormalConeOp(Box([-1.0], [1.0])),
                             n_points=9)
    assert 0 < rep.skipped_points < rep.points_tested
    assert len(rep.exactness_witnesses) == rep.points_tested - rep.skipped_points
    assert rep.max_gap <= 1e-8


@pytest.mark.parametrize("n_points", [0, -3])
def test_a_sum_check_of_no_point_is_refused(n_points):
    # it reported max_gap 0.0 over 0 points tested, which reads as a pass
    with pytest.raises(ValueError, match="n_points must be at least 1"):
        sum_fitz_exactness(LinearMapOp(ROT90), LinearMapOp(np.eye(2)), n_points=n_points)
