"""The oracle's polish is the evaluator's maximiser: it must give, bitwise,
the pair and value of the per-kind chart maximisers it replaced, which are
kept here as the reference."""

import math

import numpy as np
import pytest

from enlargekit import fitzpatrick as fz
from enlargekit import operators as ops
from enlargekit.certificates import random_maximal_monotone_relation, random_monotone_matrix
from enlargekit.operators import (
    Ball,
    Box,
    CarrierQuadratic,
    LinearMapOp,
    LinearRelationOp,
    NormSubdiffOp,
    NormalConeOp,
    SumOp,
    TranslatedOp,
)


def _ref_linear_chart_max(op, x, xs):
    try:
        ops.require_monotone(op)
    except ops.NotMonotoneError:
        return None
    cq = CarrierQuadratic.build(op.u_block, op.v_block)
    t = 0.5 * (cq.p @ cq.c_of(x, xs))
    return cq.u @ t, cq.v @ t


def _ref_sum_chart_max(op, x, xs):
    if op.relation is not None:
        return _ref_linear_chart_max(op.relation, x, xs)
    try:
        lin, cone = ops.split_linear_cone(op)
        return fz.ConeSumQP.build(lin, cone.set).maximiser(x, xs)[1]
    except (ops.UnsupportedOperatorError, ops.NotMonotoneError):
        return None


def _ref_chart_polish(op, x, xs):
    if isinstance(op, (ops.LinearMapOp, ops.LinearRelationOp)):
        pair = _ref_linear_chart_max(op, x, xs)
    elif isinstance(op, ops.NormSubdiffOp) and op.p == 1.0:
        nx = float(np.linalg.norm(x))
        pair = (np.zeros_like(x), x / nx if nx > 0 else np.zeros_like(x))
    elif isinstance(op, ops.NormSubdiffOp):
        pair = fz._power_chart_max(op.p, x, xs)
    elif isinstance(op, ops.SumOp):
        pair = _ref_sum_chart_max(op, x, xs)
    else:
        pair = None
    if pair is None:
        return -math.inf, None
    return fz._objective(x, xs)(*pair), pair


def _operators():
    rng = np.random.default_rng(11)
    a = random_monotone_matrix(3, rng, rank_deficient=True)
    g = np.vstack([np.eye(3), a.matrix])[:, :2]  # two graph directions of a map
    box, ball = Box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]), Ball([0.1, 0.0, 0.2], 1.0)
    return {
        "map": a,
        "not-monotone": LinearMapOp(np.diag([1.0, -1.0, 0.5])),
        "maximal-relation": random_maximal_monotone_relation(3, rng),
        "non-maximal-relation": LinearRelationOp.from_graph_columns(g, 3),
        "linear+linear": SumOp((a, random_maximal_monotone_relation(3, rng))),
        "linear+box": SumOp((a, NormalConeOp(box))),
        "box+linear": SumOp((NormalConeOp(box), a)),
        "linear+ball": SumOp((a, NormalConeOp(ball))),
        "p=1": NormSubdiffOp(3, 1.0),
        "p=1.5": NormSubdiffOp(3, 1.5),
        "normal-cone": NormalConeOp(box),
        "translated": TranslatedOp(a, [0.5, 0.0, -0.5], [1.0, 1.0, 0.0]),
    }


def _same(got, want):
    value, pair = got
    assert value == want[0]
    if want[1] is None:
        assert pair is None
    else:
        assert all(np.array_equal(p, q) for p, q in zip(pair, want[1]))


@pytest.mark.parametrize("name", list(_operators()))
def test_the_polish_is_the_replaced_chart_maximiser(name, monkeypatch):
    op = _operators()[name]
    rng = np.random.default_rng(len(name))
    points = [(0.5 * rng.normal(size=3), rng.normal(size=3)) for _ in range(4)]
    points.append((np.zeros(3), np.zeros(3)))
    for x, xs in points:
        _same(fz._chart_polish(op, x, xs), _ref_chart_polish(op, x, xs))
        got = fz.fitz_bruteforce(op, x, xs, count=300, seed=2)
        with monkeypatch.context() as m:
            m.setattr(fz, "_chart_polish", _ref_chart_polish)
            want = fz.fitz_bruteforce(op, x, xs, count=300, seed=2)
        _same((got.value, got.best_pair), (want.value, want.best_pair))
        assert got.trend == want.trend and got.diverging == want.diverging


def test_the_polish_covers_each_outcome():
    found = {}
    for name, op in _operators().items():
        found[name] = fz._chart_polish(op, 0.3 * np.ones(3), np.ones(3))[1] is not None
    assert found == {name: name not in ("not-monotone", "normal-cone", "translated")
                     for name in found}
