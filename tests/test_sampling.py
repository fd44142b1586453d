"""The graph sampler's contract: array shape, prefix stability, graph
membership for every operator kind, the Halton radical inverse, and the
number of pairs one oracle call draws."""

import math
import subprocess
import sys

import numpy as np
import pytest

from enlargekit import operators as ops
from enlargekit.fitzpatrick import fitz_bruteforce
from enlargekit.linalg import zero_space
from enlargekit.operators import (
    Ball,
    Box,
    LinearMapOp,
    LinearRelationOp,
    NormSubdiffOp,
    NormalConeOp,
    Polytope,
    SumOp,
    TranslatedOp,
    graph_member,
    sample_graph,
)

TRIANGLE = Polytope((np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])))
BOX2 = Box([-1.0, -1.0], [1.0, 1.0])
VERTICAL = LinearRelationOp.from_graph_columns(np.array([[0.0], [1.0]]), dim=1)

SAMPLED_KINDS = {
    "linear map": LinearMapOp(np.array([[1.0, 0.5], [-0.5, 2.0]])),
    "linear relation": LinearRelationOp.from_graph_columns(
        np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]), dim=2),
    "relation {0} x R": VERTICAL,
    "relation of graph dim 0": LinearRelationOp(zero_space(4)),
    "norm p = 1": NormSubdiffOp(dim=3, p=1.0),
    "norm p = 1.5": NormSubdiffOp(dim=2, p=1.5),
    "norm p = 3": NormSubdiffOp(dim=2, p=3.0),
    "ball cone": NormalConeOp(Ball([0.5, 0.0], 2.0)),
    "box cone": NormalConeOp(BOX2),
    "polytope cone": NormalConeOp(TRIANGLE),
    "map + box cone": SumOp((LinearMapOp(np.eye(2)), NormalConeOp(BOX2))),
    "ball cone + map": SumOp((NormalConeOp(Ball([0.0, 0.0], 1.0)),
                              LinearMapOp(np.array([[0.0, -1.0], [1.0, 0.0]])))),
    "map + map": SumOp((LinearMapOp(np.eye(2)), LinearMapOp(np.array([[0.0, -1.0], [1.0, 0.0]])))),
    "{0} x R + interval cone": SumOp((VERTICAL, NormalConeOp(Box([-1.0], [1.0])))),
    "box cone + (map + p = 1 norm)": SumOp((
        NormalConeOp(BOX2),
        SumOp((LinearMapOp(np.eye(2)), NormSubdiffOp(dim=2, p=1.0))))),
    "translated map": TranslatedOp(LinearMapOp(np.eye(2)), np.array([1.0, -1.0]),
                                   np.array([0.5, 2.0])),
    "translated relation": TranslatedOp(VERTICAL, np.array([1.0]), np.array([2.0])),
}


@pytest.mark.parametrize("name", sorted(SAMPLED_KINDS))
def test_sample_is_an_array_with_a_stable_prefix(name):
    op = SAMPLED_KINDS[name]
    short = sample_graph(op, 20, 3.0, seed=11)
    long = sample_graph(op, 60, 3.0, seed=11)
    assert short.shape == (20, 2, op.dim)
    assert long.shape == (60, 2, op.dim)
    np.testing.assert_array_equal(short, long[:20])


@pytest.mark.parametrize("name", sorted(SAMPLED_KINDS))
def test_sampled_pairs_lie_on_the_graph(name):
    op = SAMPLED_KINDS[name]
    for x, xs in sample_graph(op, 60, 3.0, seed=5):
        assert graph_member(op, x, xs, tol=1e-8), (name, x, xs)


def test_sum_with_an_empty_graph_raises():
    # the relation {0} x R has domain {0}, which misses [1, 2]: the sum's
    # graph is empty
    op = SumOp((VERTICAL, NormalConeOp(Box([1.0], [2.0]))))
    with pytest.raises(RuntimeError, match="both domains"):
        sample_graph(op, 5, 1.0, seed=0)


def test_seeds_give_different_samples():
    op = SAMPLED_KINDS["norm p = 1.5"]
    assert not np.array_equal(sample_graph(op, 30, 2.0, seed=1),
                              sample_graph(op, 30, 2.0, seed=2))


def test_radical_inverse_hand_values():
    np.testing.assert_array_equal(ops._radical_inverse(range(4), 2),
                                  [0.0, 0.5, 0.25, 0.75])
    np.testing.assert_allclose(ops._radical_inverse(range(4), 3),
                               [0.0, 1 / 3, 2 / 3, 1 / 9], rtol=0, atol=1e-15)


def test_halton_columns_use_the_first_primes():
    h = ops._halton(10, 3)
    for j, base in enumerate((2, 3, 5)):
        np.testing.assert_array_equal(h[:, j], ops._radical_inverse(range(10), base))


def test_bruteforce_draws_three_passes(monkeypatch):
    drawn = []
    real = ops.sample_graph

    def counting(op, count, radius, seed):
        out = real(op, count, radius, seed)
        drawn.append(len(out))
        return out

    monkeypatch.setattr(ops, "sample_graph", counting)
    res = fitz_bruteforce(LinearMapOp(np.eye(2)), [1.0, 0.0], [0.0, 1.0],
                          count=500, radius=4.0, seed=0)
    assert sum(drawn) == 3 * 500
    assert len(res.trend) == 3
    drawn.clear()
    fitz_bruteforce(LinearMapOp(np.eye(2)), [1.0, 0.0], [0.0, 1.0],
                    count=500, radius=4.0, seed=0, divergence_check=False)
    assert sum(drawn) == 500


def test_cli_import_and_sampling_leave_scipy_stats_unloaded():
    code = ("import sys\n"
            "import numpy as np\n"
            "import enlargekit.cli\n"
            "from enlargekit.operators import LinearMapOp, sample_graph\n"
            "sample_graph(LinearMapOp(np.eye(2)), 10, 1.0, 0)\n"
            "print('scipy.stats' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0])
def test_a_non_finite_or_nonpositive_radius_is_refused(radius):
    # a NaN radius gave fitz_bruteforce value=nan and diverging=False, which
    # is no lower bound
    op = NormSubdiffOp(2, 1.5)
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        sample_graph(op, 10, radius, 0)
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        fitz_bruteforce(op, [1.0, 0.0], [0.5, 0.0], count=10, radius=radius)
