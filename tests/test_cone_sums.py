"""Linear + normal-cone sums: the interior-domain hypothesis on a plane
domain, and the maximality verdict read off the exactness check's own
inf-convolution values."""

import numpy as np

from enlargekit import certificates
from enlargekit.certificates import interior_domain_check, sum_fitz_exactness
from enlargekit.operators import Ball, Box, LinearMapOp, LinearRelationOp, NormalConeOp


def test_interior_domain_check_searches_a_plane_domain():
    # graph basis (e1, 0), (e2, 0), (0, e3): dom A is the plane z = 0, a
    # proper subspace of dimension 2, so only the seeded search can answer
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
    # the same verdict as the 60-point certificate drawn from the same stream
    assert certificates.sum_maximality(a, cone, seed=3).maximal is True
