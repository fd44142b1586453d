"""A monotone map's enlargement slices and skew witness read its kept
carrier: they must give, bitwise, the values of the per-call
eigendecompositions of the symmetric part that they replaced, which are
kept here as the reference."""

import math

import numpy as np
import pytest

from enlargekit import operators as ops
from enlargekit.certificates import non_enlargeable_single_valued, random_monotone_matrix
from enlargekit.enlargement import (
    EllipsoidSlice,
    enl_slice_linear,
    enl_slice_param,
)
from enlargekit.linalg import (
    NotPSDError,
    Subspace,
    eig_pinv,
    rank_cutoff,
    sym_eig,
    zero_space,
)
from enlargekit.operators import LinearMapOp


def _ref_symmetric_part_psd(a):
    ops.require_monotone(a)
    return 0.5 * (a.matrix + a.matrix.T)


def _ref_pseudoinverse(m):
    w, q = sym_eig(m)
    cut = rank_cutoff(w)
    if w.size and float(np.min(w)) < -cut:
        raise NotPSDError(f"eigenvalue {np.min(w):.3e} below -{cut:.3e}")
    return eig_pinv(w, q, cut)


def _ref_range_subspace(sym):
    w, q = sym_eig(sym)
    cols = q[:, w > rank_cutoff(w)]
    if cols.shape[1] == 0:
        return zero_space(sym.shape[0])
    return Subspace(sym.shape[0], cols)


def _ref_slice(a, x, eps):
    sym = _ref_symmetric_part_psd(a)
    return EllipsoidSlice(center=a.matrix @ x, form=_ref_pseudoinverse(sym),
                          level=4.0 * float(eps), carrier=_ref_range_subspace(sym))


def _ref_param(a, x, eps):
    sym = _ref_symmetric_part_psd(a)
    return a.matrix @ x, 2.0 * sym, sym, 0.5 * float(eps)


def _ref_param_boundary(base, gen, sym, bound, num, seed):
    inner = EllipsoidSlice(center=np.zeros(base.shape[0]), form=sym,
                           level=2.0 * bound, carrier=_ref_range_subspace(sym))
    return [base + gen @ z for z in inner.boundary_points(num, seed)]


def _ref_witness(a):
    w, q = sym_eig(0.5 * (a.matrix + a.matrix.T))
    return math.sqrt(2.0 * float(w[0])) * q[:, 0]


def _maps(n, rng):
    k = rng.normal(size=(n, n))
    skew = 0.5 * (k - k.T)
    g = rng.normal(size=(n, n))
    return {
        "full-rank": random_monotone_matrix(n, rng),
        "rank-deficient": random_monotone_matrix(n, rng, rank_deficient=True),
        "skew": LinearMapOp(skew),
        "zero": LinearMapOp(np.zeros((n, n))),
        "near-skew dust": LinearMapOp(skew + 1e-14 * (g @ g.T)),
        "near-skew": LinearMapOp(skew + 1e-3 * (g @ g.T)),
        "near-skew tiny": LinearMapOp(skew + 1e-8 * (g @ g.T)),
    }


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_points(ps, qs):
    return len(ps) == len(qs) and all(_same(p, q) for p, q in zip(ps, qs))


def _outcome(fn, *args, **kwargs):
    """The value of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def _same_outcome(got, want, same):
    if isinstance(want, tuple) and isinstance(want[0], type):
        return got == want
    return not (isinstance(got, tuple) and isinstance(got[0], type)) and same(got, want)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 20, 40])
def test_slices_and_witness_match_the_per_call_decomposition(n):
    rng = np.random.default_rng(100 + n)
    for kind, a in _maps(n, rng).items():
        x = rng.normal(size=n)
        for eps in (0.0, 0.5, 2.0):
            got, want = enl_slice_linear(a, x, eps), _ref_slice(a, x, eps)
            for field in ("center", "form", "level"):
                assert _same(getattr(got, field), getattr(want, field)), (kind, eps, field)
            assert _same(got.carrier.basis, want.carrier.basis), (kind, eps)
            # a tiny symmetric part gives a form with huge entries, whose
            # products fail the absolute symmetry check alike in both
            assert _same_outcome(_outcome(got.semiaxes), _outcome(want.semiaxes),
                                 _same), (kind, eps)
            assert _same_outcome(_outcome(got.boundary_points, num=16, seed=3),
                                 _outcome(want.boundary_points, num=16, seed=3),
                                 _same_points), (kind, eps)
            par, ref = enl_slice_param(a, x, eps), _ref_param(a, x, eps)
            for field, value in zip(("base", "gen", "sym", "bound"), ref):
                assert _same(getattr(par, field), value), (kind, eps, field)
            assert _same(par.ran.basis, want.carrier.basis), (kind, eps)
            assert _same_points(par.boundary_points(num=16, seed=3),
                                _ref_param_boundary(*ref, num=16, seed=3)), (kind, eps)
        cert = non_enlargeable_single_valued(a)
        if cert.witness is not None:
            assert _same(cert.witness[1], _ref_witness(a)), kind
            assert not np.any(cert.witness[0])
