"""A linear map is the relation with graph {(x, A x)}: every query the two
forms share must give the same answer on either."""

import math

import numpy as np
import pytest

from enlargekit.certificates import random_monotone_matrix
from enlargekit.fitzpatrick import _chart_polish, fitz_evaluator
from enlargekit.linalg import same_span
from enlargekit.operators import (
    LinearMapOp,
    LinearRelationOp,
    NotMonotoneError,
    dom_subspace,
    is_skew,
    is_symmetric,
    validate,
)


def _maps():
    rng = np.random.default_rng(5)
    out = []
    for n in (1, 2, 3, 5):
        out.append(random_monotone_matrix(n, rng))
        out.append(random_monotone_matrix(n, rng, rank_deficient=True))
        k = rng.normal(size=(n, n))
        out.append(LinearMapOp(k - k.T))
    out.append(LinearMapOp([[1.0, 0.0], [0.0, -1.0]]))  # not monotone
    return out


def _off_carrier_point(a):
    """(0, z) with z in the kernel of the symmetric part, where F = +inf;
    None when the symmetric part is nonsingular."""
    w, q = np.linalg.eigh(0.5 * (a + a.T))
    kernel = q[:, np.abs(w) <= 1e-9 * max(1.0, float(np.max(np.abs(w))))]
    if kernel.shape[1] == 0:
        return None
    return np.zeros(a.shape[0]), kernel[:, 0]


@pytest.mark.parametrize("m", _maps(), ids=lambda m: f"n{m.dim}")
def test_map_and_relation_form_agree(m):
    r = LinearRelationOp.from_matrix(m.matrix)
    vm, vr = validate(m), validate(r)
    assert (vm.monotone, vm.maximal) == (vr.monotone, vr.maximal)
    assert is_symmetric(m) == is_symmetric(r)
    assert is_skew(m) == is_skew(r)
    assert same_span(dom_subspace(m), dom_subspace(r))

    rng = np.random.default_rng(m.dim)
    x, xs = rng.normal(size=m.dim), rng.normal(size=m.dim)
    if not vm.monotone:
        for op in (m, r):
            with pytest.raises(NotMonotoneError):
                fitz_evaluator(op)
            assert _chart_polish(op, x, xs) == (-math.inf, None)
        return
    em, er = fitz_evaluator(m), fitz_evaluator(r)
    graph = em.evaluate(x, m.matrix @ x)
    assert graph == pytest.approx(float(x @ m.matrix @ x), rel=1e-9, abs=1e-9)
    for px, pxs in ((x, m.matrix @ x), (x, xs)):
        fm, fr = em.evaluate(px, pxs), er.evaluate(px, pxs)
        assert math.isinf(fm) == math.isinf(fr)
        if math.isfinite(fm):
            assert fm == pytest.approx(fr, rel=1e-10, abs=1e-10)
            # the chart maximiser attains F; off the carrier (F = +inf) its
            # value is only a lower bound, which depends on the chart
            pm, pr = _chart_polish(m, px, pxs)[0], _chart_polish(r, px, pxs)[0]
            assert pm == pytest.approx(pr, rel=1e-10, abs=1e-10)
    off = _off_carrier_point(m.matrix)
    if off is not None:
        assert math.isinf(em.evaluate(*off)) and math.isinf(er.evaluate(*off))


def test_the_inputs_cover_each_case():
    maps = _maps()
    assert any(not validate(m).monotone for m in maps)
    assert any(is_skew(m) and m.dim > 1 for m in maps)
    monotone = [m for m in maps if validate(m).monotone and not is_skew(m)]
    assert any(_off_carrier_point(m.matrix) is None for m in monotone)
    assert any(_off_carrier_point(m.matrix) is not None for m in monotone)
