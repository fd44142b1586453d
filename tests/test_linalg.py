import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enlargekit import linalg
from enlargekit.linalg import (
    DimensionMismatchError,
    NonSymmetricError,
    NotPSDError,
    Subspace,
    complement,
    contains,
    full_space,
    intersect,
    orthonormalize,
    pseudoinverse,
    same_span,
    sym_eig,
)


def test_sym_eig_diagonal():
    w, q = sym_eig(np.diag([2.0, 0.0]))
    np.testing.assert_allclose(w, [2.0, 0.0], atol=1e-12)


def test_sym_eig_identity():
    w, _ = sym_eig(np.eye(3))
    np.testing.assert_allclose(w, np.ones(3), atol=1e-12)


def test_sym_eig_hand_decomposition():
    # [[1,-1],[-1,1]] has eigenpairs (2, (1,-1)/sqrt2) and (0, (1,1)/sqrt2)
    m = np.array([[1.0, -1.0], [-1.0, 1.0]])
    w, q = sym_eig(m)
    np.testing.assert_allclose(w, [2.0, 0.0], atol=1e-12)
    v = q[:, 0]
    np.testing.assert_allclose(np.abs(v), np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)
    np.testing.assert_allclose(q @ np.diag(w) @ q.T, m, atol=1e-9)


def test_sym_eig_rejects_asymmetry():
    with pytest.raises(NonSymmetricError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_pseudoinverse_examples():
    np.testing.assert_allclose(pseudoinverse(np.eye(2)), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(pseudoinverse(np.zeros((2, 2))), np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-12)


def test_pseudoinverse_rejects_negative():
    with pytest.raises(NotPSDError):
        pseudoinverse(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_pinv_solves_in_range(n):
    rng = np.random.default_rng(7 + n)
    for _ in range(20):
        g = rng.normal(size=(n, max(1, n - 1)))
        m = g @ g.T
        y = m @ rng.normal(size=n)
        np.testing.assert_allclose(m @ (pseudoinverse(m) @ y), y, atol=1e-8)


def test_subspace_examples():
    s = orthonormalize(np.array([[1.0], [0.0]]))
    np.testing.assert_allclose(np.abs(complement(s).basis), [[0.0], [1.0]], atol=1e-12)
    assert contains(full_space(2), orthonormalize(np.array([[1.0], [1.0]])))
    both = orthonormalize(np.eye(2))
    diag = orthonormalize(np.array([[1.0], [1.0]]))
    assert same_span(intersect(both, diag), diag)


def test_intersect_disjoint_lines():
    a = orthonormalize(np.array([[1.0], [0.0]]))
    b = orthonormalize(np.array([[0.0], [1.0]]))
    assert intersect(a, b).dim == 0


def test_dimension_mismatch():
    a = orthonormalize(np.eye(2))
    b = orthonormalize(np.eye(3))
    with pytest.raises(DimensionMismatchError):
        contains(a, b)


def _random_subspace(rng, k):
    d = rng.integers(0, k + 1)
    return orthonormalize(rng.normal(size=(k, d)), ambient_dim=k) if d else linalg.zero_space(k)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**31 - 1))
def test_double_complement_spans_original(k, seed):
    s = _random_subspace(np.random.default_rng(seed), k)
    assert same_span(complement(complement(s)), s, tol=1e-10)
    assert s.dim + complement(s).dim == k


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_orthonormalize_idempotent(k, seed):
    rng = np.random.default_rng(seed)
    s = orthonormalize(rng.normal(size=(k, rng.integers(1, k + 1))))
    again = orthonormalize(s.basis)
    assert again.dim == s.dim
    assert same_span(again, s, tol=1e-12)


def test_projector_coordinates_roundtrip():
    rng = np.random.default_rng(3)
    s = orthonormalize(rng.normal(size=(5, 2)))
    v = s.basis @ rng.normal(size=2)
    assert s.contains_vector(v)
    np.testing.assert_allclose(s.project(v), v, atol=1e-12)
