"""Dense small-scale linear algebra: symmetric eigendecompositions,
Moore-Penrose pseudoinverses and subspace arithmetic.

Everything here is sized for desk-scale problems (n up to a few dozen);
all algorithms are dense and deterministic.  Two small convex QP solvers
close the module: a primal active-set method for bounds plus equalities
and the More-Sorensen secular equation for a ball.  Rank decisions follow one
policy throughout: eigenvalues (or singular values) below
``EIG_RANK_RTOL`` times the largest one are treated as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative eigenvalue cutoff used for every rank decision in the package.
EIG_RANK_RTOL = 1e-10

# Absolute floor of the default rank cutoff: quadratic forms that are zero
# up to floating-point dust (e.g. symmetric parts of skew fixtures built
# from trig values) must rank as zero, not as full-rank noise.
EIG_RANK_ATOL = 1e-12

# Default absolute tolerance for symmetry checks.
SYM_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Operands of a subspace or matrix operation have incompatible shapes."""


class NonSymmetricError(ValueError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPSDError(ValueError):
    """A matrix required to be positive semidefinite has a significantly
    negative eigenvalue."""


class SolverFailureError(RuntimeError):
    """An iterative solver stopped at its cycle or iteration cap.

    Distinct from a genuinely infinite value: it signals numerical trouble
    or violated hypotheses, never a certified answer.
    """


def as_vector(x, dim=None) -> np.ndarray:
    """Coerce to a finite 1-d float array, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.shape[0]}")
    return v


def as_matrix(m, square=False) -> np.ndarray:
    """Coerce to a finite 2-d float array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if square and a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def check_nonnegative(value, what):
    """Raise ValueError unless ``value`` is a finite number >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{what} must be finite and nonnegative")


def check_symmetric(m, tol=SYM_TOL) -> np.ndarray:
    """Return ``m`` as a square array, raising :class:`NonSymmetricError`
    if ``max|m - m.T|`` exceeds ``tol``."""
    a = as_matrix(m, square=True)
    asym = 0.0 if a.size == 0 else float(np.max(np.abs(a - a.T)))
    if asym > tol:
        raise NonSymmetricError(f"asymmetry {asym:.3e} exceeds tolerance {tol:.3e}")
    return 0.5 * (a + a.T)


def sym_eig(m, tol=SYM_TOL):
    """Eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    m : array_like
        Square matrix, symmetric within ``tol``.
    tol : float, optional
        Maximum allowed entrywise asymmetry.

    Returns
    -------
    eigenvalues : ndarray
        Sorted in descending order.
    eigenvectors : ndarray
        Orthonormal columns, ``m = Q diag(w) Q.T``.
    """
    a = check_symmetric(m, tol)
    w, q = np.linalg.eigh(a)
    return w[::-1].copy(), q[:, ::-1].copy()


def rank_cutoff(eigenvalues) -> float:
    """Eigenvalue magnitude below which the package treats a value as zero:
    the relative policy with the absolute floor."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    lam_max = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    return max(EIG_RANK_RTOL * lam_max, EIG_RANK_ATOL)


def pseudoinverse(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric PSD matrix.

    Eigenvalues below the cutoff (:func:`rank_cutoff`) are treated as zero;
    an eigenvalue below ``-cutoff`` raises :class:`NotPSDError`.
    """
    w, q = sym_eig(m)
    cut = rank_cutoff(w)
    if w.size and float(np.min(w)) < -cut:
        raise NotPSDError(f"eigenvalue {np.min(w):.3e} below -{cut:.3e}")
    return eig_pinv(w, q, cut)


def eig_pinv(w, q, cut) -> np.ndarray:
    """Pseudoinverse of q diag(w) q' from its eigendecomposition, with
    every eigenvalue at or below ``cut`` (rounding-negative ones of a PSD
    matrix included) read as zero; it does not check the signs."""
    inv = np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)
    return (q * inv) @ q.T


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of R^k held as an orthonormal column basis.

    ``basis`` has shape ``(ambient_dim, dim)``; a zero-dimensional subspace
    has a ``(ambient_dim, 0)`` basis.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis) if np.asarray(self.basis).size else np.asarray(
            self.basis, dtype=float).reshape(self.ambient_dim, -1)
        if b.shape[0] != self.ambient_dim:
            raise DimensionMismatchError(
                f"basis rows {b.shape[0]} != ambient dim {self.ambient_dim}")
        gram = b.T @ b
        if gram.size and np.max(np.abs(gram - np.eye(b.shape[1]))) > 1e-12:
            raise ValueError("basis columns are not orthonormal within 1e-12")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, v) -> np.ndarray:
        x = as_vector(v, dim=self.ambient_dim)
        return self.basis @ (self.basis.T @ x)

    def contains_vector(self, v, tol=1e-9) -> bool:
        x = as_vector(v, dim=self.ambient_dim)
        resid = float(np.linalg.norm(x - self.project(x)))
        return resid <= tol * (1.0 + float(np.linalg.norm(x)))


def full_space(k) -> Subspace:
    return Subspace(k, np.eye(k))


def zero_space(k) -> Subspace:
    return Subspace(k, np.zeros((k, 0)))


def orthonormalize(columns, ambient_dim=None) -> Subspace:
    """Subspace spanned by the given columns (any rank, possibly none).

    ``columns`` is an ``(k, m)`` array or a sequence of length-k vectors;
    near-dependent directions are dropped by the package rank policy.
    """
    c = np.asarray(columns, dtype=float)
    if c.ndim == 1:
        c = c.reshape(-1, 1)
    if c.ndim != 2:
        raise DimensionMismatchError(f"expected columns, got shape {c.shape}")
    if c.shape[0] == 0 or c.shape[1] == 0:
        k = ambient_dim if ambient_dim is not None else c.shape[0]
        return zero_space(k)
    if ambient_dim is not None and c.shape[0] != ambient_dim:
        raise DimensionMismatchError(
            f"columns live in R^{c.shape[0]}, expected R^{ambient_dim}")
    u, s, _ = np.linalg.svd(c, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return zero_space(c.shape[0])
    rank = int(np.sum(s > EIG_RANK_RTOL * s[0]))
    return Subspace(c.shape[0], u[:, :rank])


def complement(s: Subspace) -> Subspace:
    """Orthogonal complement; ``complement(s)`` and ``s`` together span R^k."""
    if s.dim == 0:
        return full_space(s.ambient_dim)
    if s.dim == s.ambient_dim:
        return zero_space(s.ambient_dim)
    u, _, _ = np.linalg.svd(s.basis, full_matrices=True)
    return Subspace(s.ambient_dim, u[:, s.dim:])


def contains(s: Subspace, t: Subspace, tol=1e-9) -> bool:
    """Span inclusion ``t`` inside ``s`` within ``tol``."""
    if s.ambient_dim != t.ambient_dim:
        raise DimensionMismatchError("subspaces live in different ambient spaces")
    if t.dim == 0:
        return True
    resid = t.basis - s.basis @ (s.basis.T @ t.basis)
    return float(np.max(np.linalg.norm(resid, axis=0))) <= tol


def intersect(s: Subspace, t: Subspace) -> Subspace:
    """Common span, computed as the complement of the sum of complements."""
    if s.ambient_dim != t.ambient_dim:
        raise DimensionMismatchError("subspaces live in different ambient spaces")
    stacked = np.hstack([complement(s).basis, complement(t).basis])
    return complement(orthonormalize(stacked, ambient_dim=s.ambient_dim))


def same_span(s: Subspace, t: Subspace, tol=1e-9) -> bool:
    return contains(s, t, tol) and contains(t, s, tol)


# ---------------------------------------------------------------------------
# convex quadratic programs
# ---------------------------------------------------------------------------

# Active-set QP: working-set changes allowed per variable (finite
# termination makes the cap unreachable in exact arithmetic), and the
# tolerance of multiplier signs and flat directions, relative to the
# problem's scale.
QP_CYCLES_PER_VARIABLE = 10
QP_TOL = 1e-10
# More-Sorensen: Newton steps on the secular equation before it raises.
BALL_QP_ITERS = 100


def null_space(m) -> np.ndarray:
    """Orthonormal basis of ker m (singular values below ``EIG_RANK_RTOL``
    times the largest count as zero)."""
    m = np.atleast_2d(m)
    _, s, vt = np.linalg.svd(m)
    tol = (s[0] if s.size else 0.0) * EIG_RANK_RTOL
    rank = int(np.sum(s > tol))
    return vt[rank:].T


def bounded_qp(h, g, lo, hi, x0, e=None):
    """Minimise (1/2) x'Hx - g'x over {lo <= x <= hi, E x = E x0} from the
    feasible ``x0``, by the primal active-set method (Nocedal-Wright,
    *Numerical Optimization*, ch. 16), which terminates finitely.

    H is symmetric PSD and may be singular; bounds may be infinite but
    lo < hi.  The working set holds the variables fixed at a bound.  Each
    cycle minimises over the free variables in the null space of E: a
    Newton step when the reduced gradient lies in the range of the reduced
    Hessian, else a descent direction of zero curvature, either one cut
    at the first bound it meets.  At a minimiser of the face a fixed
    variable whose multiplier has the wrong sign is freed.  Past
    ``QP_CYCLES_PER_VARIABLE`` * (n + 1) cycles, or on a descent ray that
    meets no bound, it raises :class:`SolverFailureError`.

    Returns (x, kkt, mu): kkt the norm of the sign-corrected KKT residual
    (for any feasible x*, q(x) - q(x*) <= kkt ||x - x*||, so kkt times the
    feasible set's diameter bounds the duality gap) and mu the multipliers
    of E x = E x0, so that H x - g + E'mu vanishes on the free variables
    and is the bound multiplier (>= 0 at lo, <= 0 at hi) on the fixed ones.
    """
    x = np.array(x0, dtype=float)
    e = np.zeros((0, x.size)) if e is None else e
    at = np.where(x <= lo, -1.0, np.where(x >= hi, 1.0, 0.0))  # -1 lower, +1 upper
    scale = 1.0 + float(np.max(np.abs(g), initial=0.0)) + \
        float(np.max(np.abs(h), initial=0.0)) * (1.0 + float(np.max(np.abs(x), initial=0.0)))
    tol = QP_TOL * scale
    cap = QP_CYCLES_PER_VARIABLE * (x.size + 1)
    for _ in range(cap):
        free = at == 0.0
        grad = h @ x - g
        z = null_space(e[:, free])
        lam, q = np.linalg.eigh(z.T @ h[np.ix_(free, free)] @ z)
        gq = q.T @ (z.T @ grad[free])
        pos = lam > rank_cutoff(lam)
        flat = ~pos & (np.abs(gq) > tol)
        newton = not flat.any()
        p = -(z @ (q[:, pos] @ (gq[pos] / lam[pos]) if newton else q[:, flat] @ gq[flat]))
        xf, lof, hif = x[free], lo[free], hi[free]
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = np.where(p < 0, (lof - xf) / p, np.where(p > 0, (hif - xf) / p, np.inf))
        reach = np.maximum(reach, 0.0)
        j = int(np.argmin(reach)) if reach.size else -1
        if j >= 0 and (reach[j] < 1.0 or not newton):
            if math.isinf(reach[j]):
                raise SolverFailureError("quadratic program is unbounded below")
            idx = np.flatnonzero(free)
            x[idx] = xf + reach[j] * p
            x[idx[j]] = lo[idx[j]] if p[j] < 0 else hi[idx[j]]
            at[idx[j]] = -1.0 if p[j] < 0 else 1.0
            continue
        x[free] = xf + p
        grad = h @ x - g
        mu = np.linalg.lstsq(e[:, free].T, -grad[free], rcond=None)[0] if e.shape[0] else \
            np.zeros(0)
        nu = grad + e.T @ mu
        viol = np.where(free, 0.0, np.maximum(at * nu, 0.0))
        k = int(np.argmax(viol))
        if viol[k] <= tol:
            return x, float(np.linalg.norm(np.where(free, nu, viol))), mu
        at[k] = 0.0
    raise SolverFailureError(
        f"active-set QP did not terminate in {cap} working-set changes")


def ball_qp(lam, vecs, g, radius):
    """Minimise (1/2) y'By - g'y over ||y|| <= radius, B = vecs diag(lam)
    vecs' PSD, by the More-Sorensen secular equation.

    Inside the ball the minimum-norm Newton point is optimal.  Otherwise
    the minimiser is y(mu) = (B + mu I)^-1 g with ||y(mu)|| = radius; Newton
    on 1/radius - 1/||y(mu)||, concave in mu, climbs monotonically to the
    root from a lower bound of it.  Returns (y, gap, mu), with gap a bound
    on the duality gap from the KKT residual and mu >= 0 the multiplier of
    the ball, (B + mu I) y = g; past ``BALL_QP_ITERS`` steps it raises
    :class:`SolverFailureError`.
    """
    lam = np.maximum(lam, 0.0)
    gam = vecs.T @ g
    pos = lam > rank_cutoff(lam)
    null_g = float(np.linalg.norm(gam[~pos]))
    gn = float(np.linalg.norm(gam))
    off_range = null_g > QP_TOL * (1.0 + gn)  # else the null part of g is rounding
    mu = 0.0
    coef = np.where(pos, gam / np.where(pos, lam, 1.0), 0.0)
    if off_range or float(np.linalg.norm(coef)) > radius:
        g2 = np.where(pos | off_range, gam * gam, 0.0)
        nz = g2 > 0.0
        mu = max(gn / radius - float(np.max(lam, initial=0.0)), null_g / radius, 0.0)
        for _ in range(BALL_QP_ITERS):
            d = lam[nz] + mu
            phi2 = float(np.sum(g2[nz] / d ** 2))
            step = (math.sqrt(phi2) / radius - 1.0) * phi2 / float(np.sum(g2[nz] / d ** 3))
            if not step > 1e-15 * mu:
                break
            mu += step
        else:
            raise SolverFailureError(
                f"secular equation unsolved after {BALL_QP_ITERS} Newton steps")
        coef = np.where(nz, gam / (lam + mu), 0.0)
    y = vecs @ coef
    resid = float(np.linalg.norm((lam + mu) * coef - gam))
    return y, 2.0 * radius * resid + 0.5 * mu * abs(radius * radius - float(coef @ coef)), mu
