"""The operator zoo and its supporting set descriptors.

Operators live on R^n (dual pairing = Euclidean dot product) and come in
five flavours: linear maps, linear relations (graph = subspace of R^2n),
norm subdifferentials, normal cones of bounded convex sets, and binary
sums.  A sixth plumbing variant translates a graph by a fixed pair, which
is what the affine-shift certificates operate on.

Each kind answers for itself: ``validate()`` decides monotonicity and
maximality (the rules are at :func:`validate`); ``apply(x)`` is the exact
set value op(x) at a checked vector, EmptySet off the domain;
``values_at(x, ss)`` gives per row of x an element of op(x) and whether
op(x) is nonempty (empty rows carry an arbitrary value); ``sample(count,
radius, ss)`` gives the x rows and x* rows of ``count`` prefix-stable graph
points.  Sums and translations answer through their terms' methods, and
the public :func:`validate`, :func:`apply` and :func:`sample_graph` check
their inputs and call them.  A set value is one of three kinds:
EmptySet; BallValue (the p = 1 norm subdifferential at 0); and
PolyhedralValue, a point plus a subspace plus a polyhedral cone, which is
every other value.  Each answers ``contains(u)`` and ``shifted(offset)``;
a polyhedral value holds u when u's residual is at most tol (1 + ||u||).

A linear map is the relation with graph {(x, A x)}, charted by U = I and
V = A.  Maps and relations share ``validate``; it, symmetry, skewness, the
domain and the Fitzpatrick carrier read the chart (U, V) of either form,
while a map's application and sampling keep its matrix.  Each convex set
owns its normal-cone helpers (the set protocol below).

All descriptors are immutable; every operation is pure given an explicit
seed, so concurrent use needs no synchronization.  A descriptor keeps what
it derives after first use, through one get-or-build method
(:meth:`_Descriptor._kept`): its ``validate()`` report and, for a map or
relation, its Fitzpatrick carrier (:class:`CarrierQuadratic`), and per
second summand of a sum with it, the sum relation and carrier pair of a
linear one or the cone-sum QP of a set C (for N_C).  Nothing kept refers
back to a descriptor; two concurrent first uses may both compute it, with
identical results.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .linalg import (
    EIG_RANK_ATOL,
    DimensionMismatchError,
    SolverFailureError,
    Subspace,
    as_matrix,
    as_vector,
    ball_qp,
    bounded_qp,
    complement,
    contains,
    eig_pinv,
    intersect,
    null_space,
    orthonormalize,
    rank_cutoff,
    sym_eig,
    zero_space,
)

# Eigenvalue slack used when classifying monotone / symmetric / skew.
MONOTONE_TOL = 1e-10

# Membership tolerance for set and graph tests.
MEMBER_TOL = 1e-9

# Relative slack of the Fitzpatrick carrier test ||null' c|| ~ 0.
CARRIER_TOL = 1e-9

# Depth of an interior point: "meets ri C" is "meets C shrunk by this margin".
INTERIOR_MARGIN = 1e-6


class MalformedDescriptorError(ValueError):
    """An operator descriptor violates its structural invariants."""


class NotMonotoneError(ValueError):
    """Operation requires a monotone operator."""


class NotMaximalError(ValueError):
    """Operation requires a maximally monotone operator."""


class NotSkewError(ValueError):
    """Operation requires a skew linear relation."""


class UnsupportedOperatorError(TypeError):
    """The requested operation has no implementation for this descriptor."""


# ---------------------------------------------------------------------------
# convex set descriptors
# ---------------------------------------------------------------------------
#
# Besides support, contains, project and interior_point, each set C answers
# what its normal cone needs: normal_cone_value(x) is N_C(x) as a set value;
# inset_points(m, ss) gives m seeded points of C; support_points(d) a
# maximiser of <., d_i> over C per unit row d_i (so every s d_i, s >= 0, is
# a normal there); cone_values_at(x, ss) per row of x an element of N_C(x)
# and whether x lies in C (rows off C carry an arbitrary value).  These four
# are what NormalConeOp's apply, sample and values_at read.
#
# meets(q, margin) decides, for Q with orthonormal columns (possibly none),
# whether ran Q meets C shrunk by the margin (a ball's radius less it, a
# box's faces moved in by it, a polytope's vertices pulled towards their mean
# by that fraction, which lands in ri C).  It returns a point of the
# intersection, or None when the least distance exceeds MEMBER_TOL.
#
# face(q) describes ran Q cap C: a point of its relative interior and an
# orthonormal basis (columns) of the directions of its affine hull, or None
# when ran Q misses C.  A constraint of C counts as holding with equality on
# ran Q cap C when tightening it by INTERIOR_MARGIN makes ran Q miss C.
#
# subspace_qp(q, hess) serves the Fitzpatrick function of a linear + normal
# cone sum: for Q with orthonormal columns and H PSD it returns solve(b) ->
# (s, gap, v): a maximiser of <b, s> - <s, H s> over {s : Q s in C}, a bound
# on the gap of its value, and the multiplier of the constraint Q s in C,
# a normal v in N_C(Q s) with Q'v = b - 2 H s (the KKT condition), read off
# the solver's own multipliers.  It starts from the point of ``meets`` and
# raises UnsupportedOperatorError when ran Q misses C (for a ball: misses
# its interior, unless ran Q = {0}).


def _perp(q):
    """Rows: an orthonormal basis of the complement of ran Q."""
    return complement(Subspace(q.shape[0], q)).basis.T


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed Euclidean ball with positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if not self.radius > 0:
            raise MalformedDescriptorError("ball radius must be positive")

    @property
    def dim(self):
        return self.center.shape[0]

    def support(self, u) -> float:
        u = as_vector(u, self.dim)
        return float(self.center @ u + self.radius * np.linalg.norm(u))

    def contains(self, x, tol=MEMBER_TOL) -> bool:
        x = as_vector(x, self.dim)
        return float(np.linalg.norm(x - self.center)) <= self.radius + tol

    def project(self, x) -> np.ndarray:
        x = as_vector(x, self.dim)
        d = x - self.center
        nd = float(np.linalg.norm(d))
        if nd <= self.radius:
            return x
        return self.center + d * (self.radius / nd)

    def interior_point(self) -> np.ndarray:
        return self.center.copy()

    def normal_cone_value(self, x) -> "SetValue":
        d = x - self.center
        nd = float(np.linalg.norm(d))
        if nd > self.radius + MEMBER_TOL:
            return EmptySet()
        if nd < self.radius - MEMBER_TOL:
            return _pointed(np.zeros(self.dim))
        # the ray {s d : s >= 0}: <d, u> >= 0 and no part of u across d
        d = d / nd
        perp = _perp(d[:, None])
        return _pointed(np.zeros(self.dim), np.vstack([-d, perp, -perp]))

    def inset_points(self, m, ss) -> np.ndarray:
        return self.center + _ball_points(m, self.dim, self.radius, ss)

    def support_points(self, d) -> np.ndarray:
        return self.center + self.radius * d

    def meets(self, q, margin=0.0):
        x = q @ (q.T @ self.center)  # the point of ran Q nearest the center
        far = float(np.linalg.norm(self.center - x)) > self.radius - margin + MEMBER_TOL
        return None if far else x

    def face(self, q):
        # a subspace that meets the sphere alone touches the ball at one point
        x = self.meets(q, INTERIOR_MARGIN)
        if x is not None:
            return x, q
        x = self.meets(q)
        return None if x is None else (x, q[:, :0])

    def subspace_qp(self, q, hess):
        # a ball of radius rho about s0 in the coordinates s; ran Q = {0}
        # may touch the ball (the sum's graph is then {0} x R^n)
        x0 = self.meets(q, INTERIOR_MARGIN if q.shape[1] else 0.0)
        if x0 is None:
            raise UnsupportedOperatorError("the subspace misses the interior of the ball")
        s0 = q.T @ x0
        rho = math.sqrt(max(self.radius ** 2 - float(np.sum((self.center - x0) ** 2)), 0.0))
        lam, vecs = sym_eig(2.0 * hess)

        def solve(b):
            # (2H + mu I) y = b - 2 H s0, so b - 2 H s = mu y = Q'(mu (Q s - c))
            y, gap, mu = ball_qp(lam, vecs, b - 2.0 * hess @ s0, rho)
            s = s0 + y
            return s, gap, mu * (q @ s - self.center)
        return solve

    def cone_values_at(self, x, ss):
        (g,) = _rngs(ss, 1)
        d = x - self.center
        nd = np.linalg.norm(d, axis=1)
        on_sphere = nd >= self.radius - MEMBER_TOL
        scale = g.uniform(0.0, _CONE_VALUE_SCALE, x.shape[0]) / np.maximum(nd, MEMBER_TOL)
        return d * np.where(on_sphere, scale, 0.0)[:, None], nd <= self.radius + MEMBER_TOL


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box {x : lo <= x <= hi componentwise}, lo < hi."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lo)
        hi = as_vector(self.hi, lo.shape[0])
        if not np.all(lo < hi):
            raise MalformedDescriptorError("box requires lo < hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return self.lo.shape[0]

    def support(self, u) -> float:
        u = as_vector(u, self.dim)
        return float(np.sum(np.maximum(self.lo * u, self.hi * u)))

    def contains(self, x, tol=MEMBER_TOL) -> bool:
        x = as_vector(x, self.dim)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def project(self, x) -> np.ndarray:
        return np.clip(as_vector(x, self.dim), self.lo, self.hi)

    def interior_point(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def normal_cone_value(self, x) -> "SetValue":
        if not self.contains(x):
            return EmptySet()
        # the sign cone: u_i >= 0 on an upper face, <= 0 on a lower one, 0 inside
        signs = self._face_signs(x)
        free = np.eye(self.dim)[signs == 0]
        rows = np.vstack([-np.diag(signs)[signs != 0], free, -free])
        return _pointed(np.zeros(self.dim), rows if signs.any() else None)

    def inset_points(self, m, ss) -> np.ndarray:
        (g,) = _rngs(ss, 1)
        return g.uniform(self.lo, self.hi, size=(m, self.dim))

    def support_points(self, d) -> np.ndarray:
        return np.where(d > 0, self.hi, self.lo)

    def cone_values_at(self, x, ss):
        (g,) = _rngs(ss, 1)
        ok = np.all((x >= self.lo - MEMBER_TOL) & (x <= self.hi + MEMBER_TOL), axis=1)
        return self._face_signs(x) * g.uniform(0.0, _CONE_VALUE_SCALE, x.shape), ok

    def meets(self, q, margin=0.0):
        # margin may be a vector: one depth per coordinate
        lo, hi, perp = self.lo + margin, self.hi - margin, _perp(q)
        if np.any(lo >= hi):
            return None
        x = 0.5 * (lo + hi)
        if perp.shape[0]:  # least distance from ran Q: a bound-constrained least squares
            x = bounded_qp(perp.T @ perp, np.zeros(self.dim), lo, hi, x)[0]
        return None if float(np.linalg.norm(perp @ x)) > MEMBER_TOL else x

    def face(self, q):
        # coordinate i sits on a face of C all over ran Q cap C when the box
        # shrunk in that coordinate alone misses ran Q
        pts = [self.meets(q, INTERIOR_MARGIN * e) for e in np.eye(self.dim)]
        tight = [x is None for x in pts]
        pts = [x for x in pts if x is not None]
        x = np.mean(pts, axis=0) if pts else self.meets(q)
        if x is None:
            return None
        return x, null_space(np.vstack([_perp(q), np.eye(self.dim)[tight]]))

    def subspace_qp(self, q, hess):
        # in x = Q s: lo <= x <= hi and Q_perp' x = Q_perp' x0
        x0, perp = self.meets(q), _perp(q)
        if x0 is None:
            raise UnsupportedOperatorError("the subspace misses the box")
        hx, diam = 2.0 * q @ hess @ q.T, float(np.linalg.norm(self.hi - self.lo))

        def solve(b):
            # the normal is minus the KKT vector hx x - Q b + Q_perp mu
            x, kkt, mu = bounded_qp(hx, q @ b, self.lo, self.hi, x0, perp)
            s = q.T @ x
            return s, kkt * diam, q @ (b - 2.0 * hess @ s) - perp.T @ mu
        return solve

    def _face_signs(self, x) -> np.ndarray:
        """Coordinatewise +1 on an upper face, -1 on a lower one, 0 inside."""
        signs = np.where(x >= self.hi - MEMBER_TOL, 1.0, 0.0)
        return np.where(x <= self.lo + MEMBER_TOL, -1.0, signs)


# Wolfe's stopping tolerance, relative to the largest shifted vertex norm,
# and its cap on major cycles per vertex plus dimension (finite termination
# makes the cap unreachable in exact arithmetic).
WOLFE_TOL = 1e-12
WOLFE_CYCLES_PER_VERTEX = 10


def _wolfe(q):
    """Nearest point y of the hull of the rows q_i to the origin, by Wolfe's
    nearest-point algorithm (Math. Prog. 11, 1976), which terminates
    finitely; returns (corral, weights, y) with y = weights @ q[corral].

    A corral S starts at the row of least norm, and y is a point of its
    hull.  A major cycle adds the j minimising <q_j, y> unless ||y|| <= eps,
    ||y||^2 - <q_j, y> <= eps ||y|| (eps = ``WOLFE_TOL`` max ||q_i||), j is in
    S, or ||y|| did not fall since the last one.  Minor cycles move y to the
    affine minimiser of S (minimum-norm least squares, so repeated and
    affinely dependent rows are safe), dropping a row whose weight reaches
    zero on the way.  Past ``WOLFE_CYCLES_PER_VERTEX`` * (m + n) major
    cycles it raises :class:`SolverFailureError` instead of returning.
    """
    sq = np.einsum("ij,ij->i", q, q)
    eps = WOLFE_TOL * float(np.sqrt(np.max(sq)))
    corral, lam = [int(np.argmin(sq))], np.ones(1)
    y, last = q[corral[0]], np.inf
    cap = WOLFE_CYCLES_PER_VERTEX * (q.shape[0] + q.shape[1])
    for _ in range(cap):
        dots = q @ y
        j = int(np.argmin(dots))
        ny = float(np.linalg.norm(y))
        if ny <= eps or ny * ny - float(dots[j]) <= eps * ny or j in corral or ny >= last:
            return corral, lam, y
        corral, lam, last = corral + [j], np.append(lam, 0.0), ny
        while True:  # minor cycles, each dropping a row of the corral
            qs = q[corral]
            beta = np.linalg.lstsq((qs[1:] - qs[0]).T, -qs[0], rcond=None)[0]
            alpha = np.concatenate([[1.0 - beta.sum()], beta])
            if np.all(alpha > 0.0):
                break
            # step from lam towards alpha until a weight reaches zero
            neg = np.flatnonzero(alpha <= 0.0)
            ratios = lam[neg] / np.maximum(lam[neg] - alpha[neg], np.finfo(float).tiny)
            lam = lam + float(np.min(ratios)) * (alpha - lam)
            lam[neg[np.argmin(ratios)]] = 0.0
            corral = [c for c, w in zip(corral, lam) if w > 0.0]
            lam = lam[lam > 0.0]
        lam = alpha
        y = lam @ q[corral]
    raise SolverFailureError(
        f"Wolfe's nearest-point algorithm did not terminate in {cap} major cycles")


@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex hull of a nonempty, vertex-listed point set (V-representation)."""

    vertices: tuple
    matrix: np.ndarray = field(init=False, repr=False)  # (m, n), one row a vertex

    def __post_init__(self):
        if len(self.vertices) == 0:
            raise MalformedDescriptorError("polytope needs at least one vertex")
        verts = tuple(as_vector(v) for v in self.vertices)
        d = verts[0].shape[0]
        if any(v.shape[0] != d for v in verts):
            raise DimensionMismatchError("polytope vertices have mixed dimensions")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "matrix", np.stack(verts))

    @property
    def dim(self):
        return self.matrix.shape[1]

    def support(self, u) -> float:
        u = as_vector(u, self.dim)
        return float(np.max(self.matrix @ u))

    def project(self, x) -> np.ndarray:
        """Nearest point of the hull, by Wolfe's algorithm (:func:`_wolfe`)."""
        x = as_vector(x, self.dim)
        return x + _wolfe(self.matrix - x)[2]

    def contains(self, x, tol=MEMBER_TOL) -> bool:
        x = as_vector(x, self.dim)
        return float(np.linalg.norm(x - self.project(x))) <= tol * (1.0 + np.linalg.norm(x))

    def interior_point(self) -> np.ndarray:
        return self.matrix.mean(axis=0)

    def normal_cone_value(self, x) -> "SetValue":
        return _pointed(np.zeros(self.dim), self.matrix - x) if self.contains(x) else EmptySet()

    def inset_points(self, m, ss) -> np.ndarray:
        # Dirichlet(1, ..., 1) weights as normalised exponentials
        (g,) = _rngs(ss, 1)
        w = g.standard_exponential((m, self.matrix.shape[0]))
        return (w / w.sum(axis=1, keepdims=True)) @ self.matrix

    def support_points(self, d) -> np.ndarray:
        return self.matrix[np.argmax(d @ self.matrix.T, axis=1)]

    def cone_values_at(self, x, ss):
        return np.zeros(x.shape), np.array([self.contains(row) for row in x], dtype=bool)

    def meets(self, q, margin=0.0):
        m = self.matrix.shape[0]
        lam = self._weights(_perp(q), np.full(m, margin / m))
        return None if lam is None else lam @ self.matrix

    def face(self, q):
        # vertex i carries weight at a point of ran Q cap C when pulling the
        # hull towards it keeps the hull meeting ran Q
        perp, m = _perp(q), self.matrix.shape[0]
        found = [w for w in (self._weights(perp, INTERIOR_MARGIN * e) for e in np.eye(m))
                 if w is not None]
        if not found:
            return None
        lam = np.mean(found, axis=0)
        verts = self.matrix[lam > 0.0]
        hull = orthonormalize((verts - verts[0]).T, self.dim)
        return lam @ self.matrix, intersect(hull, Subspace(self.dim, q)).basis

    def _weights(self, perp, pull):
        """Vertex weights of a point of the hull in ker Q_perp', at least
        ``pull`` (nonnegative weights of sum below 1): Wolfe's weights of the
        hull point of the projected vertices nearest 0, after moving each
        vertex v to (1 - sum pull) v + pull @ vertices; None when that point
        is off 0."""
        m = self.matrix.shape[0]
        proj = self.matrix @ perp.T
        corral, w, y = _wolfe(proj + (pull @ proj - pull.sum() * proj))
        if float(np.linalg.norm(y)) > MEMBER_TOL:
            return None
        lam = np.zeros(m)
        lam[corral] = w
        return (1.0 - pull.sum()) * lam + pull

    def subspace_qp(self, q, hess):
        # in the vertex weights lam: lam >= 0, sum lam = 1 and Q_perp' P lam
        # = Q_perp' P lam0
        perp = _perp(q)
        m = self.matrix.shape[0]
        lam0 = self._weights(perp, np.zeros(m))
        if lam0 is None:
            raise UnsupportedOperatorError("the subspace misses the polytope")
        pq = self.matrix @ q
        e, hl = np.vstack([np.ones(m), perp @ self.matrix.T]), 2.0 * pq @ hess @ pq.T
        lo, hi = np.zeros(m), np.full(m, np.inf)

        def solve(b):
            # with v = Q r - Q_perp mu[1:], r = b - 2 H s, the KKT vector is
            # mu[0] - P'v >= 0, zero where lam > 0: <p_j, v> peaks on the
            # vertices that carry Q s
            lam, kkt, mu = bounded_qp(hl, pq @ b, lo, hi, lam0, e)
            s = pq.T @ lam
            return s, kkt * math.sqrt(2.0), q @ (b - 2.0 * hess @ s) - perp.T @ mu[1:]
        return solve


ConvexSetDescriptor = Union[Ball, Box, Polytope]


def support_function(c: ConvexSetDescriptor, u) -> float:
    """sup over the set of <point, u>; always finite (sets are bounded)."""
    return c.support(u)


# ---------------------------------------------------------------------------
# operator descriptors
# ---------------------------------------------------------------------------

class _Descriptor:
    """``validate()`` returns ``_report()``, kept after first use."""

    def validate(self) -> "ValidationReport":
        return self._kept("report", self._report)

    def _kept(self, key, build, other=None):
        """What this descriptor keeps under ``key``, made by ``build()`` on
        first use; with ``other`` (a linear second summand, or the set C of
        N_C), kept for the sum self + other in a record weakly keyed by
        ``other``, as a strong key would tie two operators summed in both
        orders into a cycle.  It takes no lock (``functools.cached_property``
        holds one before Python 3.12, which nested first uses deadlock on)."""
        store = self.__dict__
        if other is not None:
            store = store.setdefault("sums", weakref.WeakKeyDictionary()).setdefault(other, {})
        if key not in store:
            store[key] = build()
        return store[key]


@dataclass(frozen=True, eq=False)
class CarrierQuadratic:
    """F(x, u) = (1/4) c' P c on the affine carrier {c in ran W}, c = V'x +
    U'u, W = (U'V + V'U)/2.  The one eigendecomposition of a linear
    operator's graph form: it keeps ``lam`` (descending; it decides
    monotonicity) and the eigenvectors ``q``, P = pinv(W), and the rank
    split of q into ``ran`` and ``null``, bases of ran W and ker W (the
    carrier test is ||null' c|| ~ 0).  For a map (U = I, V = A) W is the
    symmetric part of A, so its enlargement slices and skew witness read
    these too.

    :meth:`c_of` and :meth:`evaluate` take one point, x and u of shape
    (n,), or m points as the rows of (m, n) arrays, through the same
    row-vector expressions; one point gives the matrix-vector products'
    own rounding."""

    u: np.ndarray       # (n, k)
    v: np.ndarray       # (n, k)
    lam: np.ndarray     # (k,) eigenvalues of W, descending
    q: np.ndarray       # (k, k) orthonormal eigenvectors, columns as lam
    p: np.ndarray       # pinv(W)
    ran: np.ndarray     # (k, r) orthonormal basis of ran W
    null: np.ndarray    # (k, k - r) orthonormal basis of ker W

    @classmethod
    def build(cls, u, v) -> "CarrierQuadratic":
        lam, q = sym_eig(0.5 * (u.T @ v + v.T @ u))
        # P and the rank split are read only once lam has passed the
        # monotonicity test, so an eigenvalue at or below the cutoff (even
        # < 0) is kernel; ran is a mask copy like null, since a strided
        # view of q would round the slices' products differently
        cut = rank_cutoff(lam)
        return cls(u=u, v=v, lam=lam, q=q, p=eig_pinv(lam, q, cut),
                   ran=q[:, lam > cut], null=q[:, lam <= cut])

    def c_of(self, x, u) -> np.ndarray:
        return x @ self.v + u @ self.u

    def evaluate(self, x, u, tol=CARRIER_TOL):
        """F at (x, u): a float for one point, an (m,) array for rows; +inf
        where ||null' c|| exceeds tol (1 + ||c||)."""
        c = self.c_of(x, u)
        value = 0.25 * np.vecdot(c @ self.p, c)
        if self.null.shape[1]:
            r = c @ self.null
            off = np.sqrt(np.vecdot(r, r)) > tol * (1.0 + np.sqrt(np.vecdot(c, c)))
            if c.ndim > 1:
                return np.where(off, math.inf, value)
            if off:  # one point: a branch costs less than np.where
                return math.inf
        return float(value) if c.ndim == 1 else value


class _Linear(_Descriptor):
    """Maps and relations: every verdict reads the graph chart (U, V)."""

    @property
    def carrier(self) -> CarrierQuadratic:
        """The Fitzpatrick carrier of the graph chart, kept after first use."""
        return self._kept("carrier", lambda: CarrierQuadratic.build(self.u_block, self.v_block))

    def _report(self):
        lam = self.carrier.lam
        lam_min = float(lam[-1]) if lam.size else 0.0
        mono, k = lam_min >= -MONOTONE_TOL, lam.size
        return ValidationReport(mono, mono and k == self.dim,
                                f"graph form min eigenvalue = {lam_min:.6e}, "
                                f"dim gra = {k} (n = {self.dim})")


class _Subdifferential(_Descriptor):
    """Norm subdifferentials and normal cones: maximally monotone outright."""

    def _report(self):
        return ValidationReport(True, True, "subdifferential of a proper lsc convex function")


@dataclass(frozen=True, eq=False)
class LinearMapOp(_Linear):
    """Single-valued linear operator x -> A x: the relation whose graph
    {(x, A x)} is charted by t -> (U t, V t), ``u_block`` = I, ``v_block`` = A.
    Application and sampling keep the matrix form."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_matrix(self.matrix, square=True))

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def u_block(self) -> np.ndarray:
        return np.eye(self.dim)

    @property
    def v_block(self) -> np.ndarray:
        return self.matrix

    def apply(self, x):
        return _pointed(self.matrix @ x)

    def values_at(self, x, ss):
        return x @ self.matrix.T, np.ones(x.shape[0], dtype=bool)

    def sample(self, count, radius, ss):
        y = _params(count, self.dim, radius, ss)
        return y, y @ self.matrix.T


@dataclass(frozen=True, eq=False)
class LinearRelationOp(_Linear):
    """Set-valued operator whose graph is a linear subspace of R^2n.

    The graph basis is stored with the first n coordinates for x and the
    last n for x*.
    """

    graph: Subspace

    def __post_init__(self):
        if self.graph.ambient_dim % 2 != 0:
            raise MalformedDescriptorError("relation graph must live in R^(2n)")

    @property
    def dim(self):
        return self.graph.ambient_dim // 2

    @property
    def u_block(self) -> np.ndarray:
        return self.graph.basis[: self.dim]

    @property
    def v_block(self) -> np.ndarray:
        return self.graph.basis[self.dim:]

    @classmethod
    def from_matrix(cls, a) -> "LinearRelationOp":
        m = LinearMapOp(a)
        return cls.from_graph_columns(np.vstack([m.u_block, m.v_block]), m.dim)

    @classmethod
    def from_graph_columns(cls, columns, dim) -> "LinearRelationOp":
        return cls(orthonormalize(columns, ambient_dim=2 * dim))

    def _values_directions(self):
        """V ker U: the directions of every nonempty value A x."""
        null_u = null_space(self.u_block)
        if not null_u.shape[1]:
            return zero_space(self.dim)
        return orthonormalize(self.v_block @ null_u, ambient_dim=self.dim)

    def apply(self, x):
        u = self.u_block
        t, *_ = np.linalg.lstsq(u, x, rcond=None)
        if float(np.linalg.norm(u @ t - x)) > MEMBER_TOL * (1.0 + np.linalg.norm(x)):
            return EmptySet()
        return PolyhedralValue(self.v_block @ t, self._values_directions())

    def values_at(self, x, ss):
        u = self.u_block
        t = np.linalg.lstsq(u, x.T, rcond=None)[0].T
        ok = np.linalg.norm(t @ u.T - x, axis=1) <= MEMBER_TOL * (1.0 + np.linalg.norm(x, axis=1))
        w, dirs = t @ self.v_block.T, self._values_directions()
        if dirs.dim:
            (g,) = _rngs(ss, 1)
            w = w + g.standard_normal((x.shape[0], dirs.dim)) @ dirs.basis.T
        return w, ok

    def sample(self, count, radius, ss):
        if self.graph.dim == 0:
            return np.zeros((count, self.dim)), np.zeros((count, self.dim))
        t = _params(count, self.graph.dim, radius, ss)
        return t @ self.u_block.T, t @ self.v_block.T


@dataclass(frozen=True, eq=False)
class NormSubdiffOp(_Subdifferential):
    """Subdifferential of the Euclidean p-power norm.

    ``p == 1`` means f = ||.||; ``p > 1`` means f = (1/p) ||.||^p.
    """

    dim: int
    p: float

    def __post_init__(self):
        if self.dim < 1:
            raise MalformedDescriptorError("dimension must be >= 1")
        if not self.p >= 1.0:
            raise MalformedDescriptorError("exponent p must be >= 1")

    def gradient(self, x) -> np.ndarray:
        """The single-valued selection at x != 0 (the unique value there)."""
        x = as_vector(x, self.dim)
        r = float(np.linalg.norm(x))
        if r == 0.0:
            return np.zeros(self.dim)
        return x * r ** (self.p - 2.0)

    def apply(self, x):
        if float(np.linalg.norm(x)) > 0.0:
            return _pointed(self.gradient(x))
        zero = np.zeros(self.dim)
        return BallValue(zero, 1.0) if self.p == 1.0 else _pointed(zero)

    def values_at(self, x, ss):
        m, n = x.shape
        r = np.linalg.norm(x, axis=1)
        w = x * (np.where(r > 0.0, r, 1.0) ** (self.p - 2.0))[:, None]
        if self.p == 1.0:
            g_dir, g_u = _rngs(ss, 2)
            kink = _unit_rows(g_dir, m, n) * g_u.random(m)[:, None]
            w = np.where((r > 0.0)[:, None], w, kink)
        return w, np.ones(m, dtype=bool)

    def sample(self, count, radius, ss):
        """Points r d along seeded unit directions, with r cycling through
        _RADIUS_CYCLE; at r = 0 the p = 1 kink pairs the origin with a scaled
        unit direction, any element of the unit ball being a subgradient."""
        g_dir, g_u = _rngs(ss, 2)
        d = _unit_rows(g_dir, count, self.dim)
        u = g_u.random(count)
        slot = np.arange(count) % _RADIUS_CYCLE.size
        r = np.where(slot == _RADIUS_CYCLE.size - 1, u, _RADIUS_CYCLE[slot]) * radius
        mag = np.where(r == 0.0, u, 1.0) if self.p == 1.0 else r ** (self.p - 1.0)
        return r[:, None] * d, mag[:, None] * d


@dataclass(frozen=True, eq=False)
class NormalConeOp(_Subdifferential):
    """Normal cone operator of a bounded closed convex set."""

    set: ConvexSetDescriptor

    @property
    def dim(self):
        return self.set.dim

    def apply(self, x):
        return self.set.normal_cone_value(x)

    def values_at(self, x, ss):
        return self.set.cone_values_at(x, ss)

    def sample(self, count, radius, ss):
        """Rows cycle through: a point of the set with the zero normal; a
        maximiser of <., d> with the outward normal s d (s from _SCALE_GRID);
        for boxes, the centre moved onto a face pattern (cycling through
        {-1, 0, 1}^n) with a sign-constrained normal."""
        c, n = self.set, self.dim
        period = 3 if isinstance(c, Box) else 2
        ss_in, ss_dir = _children(ss, 2)
        x, xs = np.empty((count, n)), np.zeros((count, n))
        x[0::period] = c.inset_points(len(x[0::period]), ss_in)
        d = _unit_rows(np.random.default_rng(ss_dir), len(x[1::period]), n)
        x[1::period] = c.support_points(d)
        xs[1::period] = d * _cone_scales(len(d), radius)
        if period == 3:
            sig = _face_patterns(len(x[2::3]), n)
            x[2::3] = np.where(sig > 0, c.hi, np.where(sig < 0, c.lo, 0.5 * (c.lo + c.hi)))
            xs[2::3] = sig * _cone_scales(len(sig), radius)
        return x, xs


# A sum whose sampled driver points meet the other term's domain this rarely
# has too thin a graph to sample: draws stop at this multiple of the count.
_SUM_DRAW_CAP = 64


@dataclass(frozen=True, eq=False)
class SumOp(_Descriptor):
    """Pointwise sum of two operators on the same space.

    When both terms are linear maps or relations, A + B is again one linear
    relation; ``relation`` holds it, built once per ordered pair of terms
    and kept by the first term for the second, and every layer treats the
    sum as that relation.  It is None when a term is not linear.
    ``linear_cone`` holds the (linear, normal-cone) terms of a linear map or
    relation plus a normal cone, in that order, and None for other sums.
    """

    terms: tuple
    relation: Optional[LinearRelationOp] = field(init=False, repr=False)
    linear_cone: Optional[tuple] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.terms) != 2:
            raise MalformedDescriptorError("sums have exactly two terms in v1")
        dims = {t.dim for t in self.terms}
        if len(dims) != 1:
            raise DimensionMismatchError("sum terms live in different spaces")
        relation = None
        if all(isinstance(t, _Linear) for t in self.terms):
            relation = self.terms[0]._kept("relation", lambda: sum_relation(*self.terms),
                                           self.terms[1])
        object.__setattr__(self, "relation", relation)
        lin, cone = self.terms[::-1] if isinstance(self.terms[0], NormalConeOp) else self.terms
        pair = isinstance(lin, _Linear) and isinstance(cone, NormalConeOp)
        object.__setattr__(self, "linear_cone", (lin, cone) if pair else None)

    @property
    def dim(self):
        return self.terms[0].dim

    def _report(self):
        if self.relation is not None:
            return self.relation.validate()
        terms = [t.validate() for t in self.terms]
        mono = all(t.monotone for t in terms)
        if mono and all(t.maximal for t in terms) and self.linear_cone is not None:
            lin, cone = self.linear_cone
            return _cone_sum_maximal(lin, cone.set)
        return ValidationReport(mono, None, "sum: maximality undetermined")

    def apply(self, x):
        return _minkowski(self.terms[0].apply(x), self.terms[1].apply(x))

    def values_at(self, x, ss):
        ss0, ss1 = _children(ss, 2)
        w0, ok0 = self.terms[0].values_at(x, ss0)
        w1, ok1 = self.terms[1].values_at(x, ss1)
        return w0 + w1, ok0 & ok1

    def sample(self, count, radius, ss):
        """Graph points of the more domain-restricted term (a normal cone when
        there is one) plus an element of the other term's value there.  Points
        off the other term's domain are dropped, so longer prefixes of the
        driver's sample are drawn until ``count`` points remain."""
        if self.relation is not None:
            return self.relation.sample(count, radius, ss)
        t0, t1 = self.terms
        if isinstance(t1, NormalConeOp) and not isinstance(t0, NormalConeOp):
            t0, t1 = t1, t0
        ss_drv, ss_val = _children(ss, 2)
        drawn = count
        while True:
            x, u = t0.sample(drawn, radius, ss_drv)
            w, ok = t1.values_at(x, ss_val)
            keep = np.flatnonzero(ok)[:count]
            if keep.size == count:
                return x[keep], u[keep] + w[keep]
            if drawn >= _SUM_DRAW_CAP * count:
                raise RuntimeError(
                    f"only {keep.size} of {count} sampled points of the sum lie in "
                    f"both domains after {drawn} draws")
            drawn *= 2


@dataclass(frozen=True, eq=False)
class TranslatedOp(_Descriptor):
    """Graph translation: gra = gra(inner) + {(shift_x, shift_xs)}."""

    inner: "OperatorDescriptor"
    shift_x: np.ndarray
    shift_xs: np.ndarray

    def __post_init__(self):
        n = self.inner.dim
        object.__setattr__(self, "shift_x", as_vector(self.shift_x, n))
        object.__setattr__(self, "shift_xs", as_vector(self.shift_xs, n))

    @property
    def dim(self):
        return self.inner.dim

    def _report(self):
        inner = self.inner.validate()
        return ValidationReport(inner.monotone, inner.maximal, f"translation of: {inner.detail}")

    def apply(self, x):
        return self.inner.apply(x - self.shift_x).shifted(self.shift_xs)

    def values_at(self, x, ss):
        w, ok = self.inner.values_at(x - self.shift_x, ss)
        return w + self.shift_xs, ok

    def sample(self, count, radius, ss):
        x, xs = self.inner.sample(count, radius, ss)
        return x + self.shift_x, xs + self.shift_xs


OperatorDescriptor = Union[
    LinearMapOp, LinearRelationOp, NormSubdiffOp, NormalConeOp, SumOp, TranslatedOp
]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    monotone: bool
    maximal: Optional[bool]  # None = unknown at this level
    detail: str


def symmetric_part(op) -> np.ndarray:
    """(A + A^T)/2 for a linear map (or a relation that is one in disguise)."""
    m = relation_as_map(op) if isinstance(op, LinearRelationOp) else op
    if not isinstance(m, LinearMapOp):
        raise UnsupportedOperatorError("symmetric_part needs a single-valued linear map")
    return 0.5 * (m.matrix + m.matrix.T)


def _chart(op, what):
    """(U, V) of the chart t -> (U t, V t) of a linear map's or relation's
    graph; ``what`` names the query in the error for any other operator."""
    if not isinstance(op, _Linear):
        raise UnsupportedOperatorError(f"{what} is defined for linear operators")
    return op.u_block, op.v_block


def is_symmetric(op, tol=MONOTONE_TOL) -> bool:
    """<x, y*> = <y, x*> for all graph pairs: U'V - V'U vanishes."""
    u, v = _chart(op, "symmetry")
    return float(np.max(np.abs(u.T @ v - v.T @ u), initial=0.0)) <= tol


def is_skew(op, tol=MONOTONE_TOL) -> bool:
    """<x, x*> = 0 on the whole graph: U'V + V'U vanishes."""
    u, v = _chart(op, "skewness")
    return float(np.max(np.abs(u.T @ v + v.T @ u), initial=0.0)) <= tol


def validate(op: OperatorDescriptor) -> ValidationReport:
    """Decide monotonicity (exactly, for linear operators) and maximality.

    Linear maps and relations, on their graph chart (U, V): monotone iff
    the graph form (U'V + V'U)/2 is PSD (for a map, the symmetric part of
    A); a monotone one is maximal iff dim gra = n, as a map's always is.
    Subdifferentials and normal cones are maximally monotone outright.
    A linear + linear sum gets the verdict of its sum relation.  A maximal
    linear A plus N_C is decided exactly from how dom A meets C
    (:func:`_cone_sum_maximal`).  For other sums (a term that is not
    maximal, or no linear term) monotonicity of every term is reported (a
    sufficient condition) and maximality is left undetermined (None).
    """
    return op.validate()


def linear_form(op):
    """The linear map or relation that ``op`` is: itself, or the sum
    relation of a linear + linear sum; None for any other operator."""
    if isinstance(op, SumOp):
        return op.relation
    return op if isinstance(op, _Linear) else None


def split_linear_cone(op: SumOp):
    """(linear term, normal-cone term) of a sum of a linear map or relation
    and a normal cone, in either order, read off :attr:`SumOp.linear_cone`
    of the sum the caller holds; any other sum raises
    UnsupportedOperatorError."""
    pair = op.linear_cone
    if pair is None:
        raise UnsupportedOperatorError("sums are covered for linear+linear and linear+normal-cone")
    return pair


def interior_domain_check(a, c: ConvexSetDescriptor) -> bool:
    """Does dom A meet the interior of C?  Exact: dom A meets C shrunk by
    ``INTERIOR_MARGIN`` (see the sets' ``meets``), and a polytope must be
    full-dimensional, since ri C is int C only then."""
    if isinstance(c, Polytope) and np.linalg.matrix_rank(c.matrix - c.interior_point()) < c.dim:
        return False
    return c.meets(dom_subspace(a).basis, INTERIOR_MARGIN) is not None


def _cone_sum_maximal(lin, c: ConvexSetDescriptor) -> ValidationReport:
    """A maximal monotone linear A plus N_C, decided from D = dom A:

    * D meets ri C: maximal (Rockafellar's qualification, D being a subspace);
    * D misses C: not maximal (the sum's graph is empty);
    * D meets a box or polytope C only on its relative boundary: maximal, by
      the polyhedral sum rule, which needs no interior point (Rockafellar
      1970, Thm 23.8);
    * D touches a ball C: D cap C is one point p with p - c in D-perp, so
      the graph is {p} x (A p + D-perp), maximal iff D = {0}.
    """
    d = dom_subspace(lin).basis
    if c.meets(d, INTERIOR_MARGIN) is not None:
        return ValidationReport(True, True, "linear + normal cone: dom A meets ri C")
    if c.meets(d) is None:
        return ValidationReport(True, False, "linear + normal cone: dom A misses C, "
                                             "so the sum has an empty graph")
    if not isinstance(c, Ball):
        return ValidationReport(True, True, "linear + normal cone: dom A meets the "
                                            "polyhedral C on its relative boundary")
    return ValidationReport(True, d.shape[1] == 0,
                            "linear + normal cone: dom A touches the ball at one point "
                            "p, so the graph {p} x (A p + dom A-perp) is maximal iff "
                            "dom A = {0}")


def set_extent(c):
    """A bound on the norms of the points of a set."""
    if isinstance(c, Ball):
        return float(np.linalg.norm(c.center) + c.radius)
    if isinstance(c, Box):
        return float(np.max(np.abs(np.concatenate([c.lo, c.hi]))))
    return float(np.max(np.linalg.norm(c.matrix, axis=1)))


def require_monotone(op) -> ValidationReport:
    rep = validate(op)
    if not rep.monotone:
        raise NotMonotoneError(rep.detail)
    return rep


def require_maximal(op) -> ValidationReport:
    rep = require_monotone(op)
    if rep.maximal is not True:
        raise NotMaximalError(rep.detail)
    return rep


# ---------------------------------------------------------------------------
# graphs and adjoints
# ---------------------------------------------------------------------------

def graph_subspace(op) -> Subspace:
    """The graph of a linear map / relation as a subspace of R^2n."""
    return as_relation(op).graph


def adjoint_relation(g: Subspace) -> Subspace:
    """Graph of the adjoint relation: pairs (y, y*) with (y*, -y) in G-perp.

    Computed from the orthogonal complement of G by swapping the two
    blocks and negating one of them; dim gra A* = 2n - dim G.
    """
    if g.ambient_dim % 2 != 0:
        raise DimensionMismatchError("graph must live in R^(2n)")
    n = g.ambient_dim // 2
    comp = complement(g).basis
    cols = np.vstack([comp[n:], -comp[:n]])
    return Subspace(g.ambient_dim, cols)


def neg_adjoint_graph(g: Subspace) -> Subspace:
    """Graph of -A*: the second block of gra A* negated."""
    adj = adjoint_relation(g).basis
    n = g.ambient_dim // 2
    return Subspace(g.ambient_dim, np.vstack([adj[:n], -adj[n:]]))


def dom_subspace(op) -> Subspace:
    """Domain of a linear map / relation, as a subspace of R^n: ran U.

    U is I or a block of an orthonormal graph basis, so entries below
    ``EIG_RANK_ATOL`` throughout are rounding: the domain is {0} (the
    relative rank cutoff alone would read such dust as directions)."""
    u, _ = _chart(op, "a domain subspace")
    if float(np.max(np.abs(u), initial=0.0)) <= EIG_RANK_ATOL:
        return zero_space(op.dim)
    return orthonormalize(u, ambient_dim=op.dim)


def relation_as_map(rel: LinearRelationOp) -> Optional[LinearMapOp]:
    """Matrix form of a relation that is single-valued with full domain."""
    n = rel.dim
    u, v = rel.u_block, rel.v_block
    if rel.graph.dim != n:
        return None
    if np.linalg.matrix_rank(u, tol=1e-10) != n:
        return None
    t = np.linalg.solve(u.T @ u, u.T)  # U t = x  resolved columnwise
    return LinearMapOp(v @ t)


def as_relation(op) -> LinearRelationOp:
    if isinstance(op, LinearRelationOp):
        return op
    if isinstance(op, LinearMapOp):
        return LinearRelationOp.from_matrix(op.matrix)
    raise UnsupportedOperatorError("only linear operators convert to relations")


def sum_relation(a, b) -> LinearRelationOp:
    """Graph of A + B for linear maps/relations.

    With the charts s -> (U_a s, V_a s) of gra A and t -> (U_b t, V_b t)
    of gra B, gra(A + B) is charted by (U_a s, V_a s + V_b t) over the
    pairs (s, t) with U_a s = U_b t: one null space of [U_a, -U_b].
    """
    (ua, va), (ub, vb) = _chart(a, "a sum relation"), _chart(b, "a sum relation")
    if ua.shape[0] != ub.shape[0]:
        raise DimensionMismatchError("sum terms live in different spaces")
    pairs = null_space(np.hstack([ua, -ub]))
    s, t = pairs[: ua.shape[1]], pairs[ua.shape[1]:]
    return LinearRelationOp(orthonormalize(np.vstack([ua @ s, va @ s + vb @ t]),
                                           ambient_dim=2 * ua.shape[0]))


# ---------------------------------------------------------------------------
# set-valued application
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmptySet:
    def contains(self, u, tol=MEMBER_TOL) -> bool:
        return False

    def shifted(self, offset) -> "SetValue":
        return self


@dataclass(frozen=True, eq=False)
class BallValue:
    center: np.ndarray
    radius: float  # >= 0; a radius-0 value is the single point `center`

    def contains(self, u, tol=MEMBER_TOL) -> bool:
        u = as_vector(u, self.center.shape[0])
        return float(np.linalg.norm(u - self.center)) <= self.radius + tol

    def shifted(self, offset) -> "SetValue":
        return BallValue(self.center + offset, self.radius)


@dataclass(frozen=True, eq=False)
class PolyhedralValue:
    """point + span(directions) + K, with K = {0} when ``rows`` is None (a
    point, or an affine set) and K = {u : rows u <= 0} otherwise: a ball's
    normal ray, a box face's sign cone, a polytope's normal cone.  Every
    value of a linear map or relation, of N_C, and of their sums and
    translations has this form (Rockafellar 1970, Sec. 19 and Thm 23.8).

    u belongs when the residual of d, u - point less its part along the
    directions D, is at most tol (1 + ||u||).  The residual is ||d|| with no
    rows, max(rows d) with rows and no directions, and otherwise the least
    squares min over s and z <= 0 of ||rows D s + z - rows d||, a bounded
    QP.  (Moreau's test in the polar cone's multipliers has the Hessian rows
    rows', singular when there are more rows than dimensions, where the
    active-set solver takes rounding for a descent ray.  Dropping d's part
    along D first keeps the QP's data, and so its stopping slack, at the
    scale of the distance rather than of ||u - point||.)"""

    point: np.ndarray
    directions: Subspace
    rows: Optional[np.ndarray] = None

    def contains(self, u, tol=MEMBER_TOL) -> bool:
        u = as_vector(u, self.point.shape[0])
        d = u - self.point
        d = d - self.directions.project(d)
        if self.rows is None:
            resid = float(np.linalg.norm(d))
        elif not self.directions.dim:
            resid = float(np.max(self.rows @ d, initial=0.0))
        else:
            rd, b = self.rows @ self.directions.basis, self.rows @ d
            m, k = rd.shape
            a = np.hstack([rd, np.eye(m)])
            hi = np.concatenate([np.full(k, np.inf), np.zeros(m)])
            x = bounded_qp(a.T @ a, a.T @ b, np.full(k + m, -np.inf), hi, np.zeros(k + m))[0]
            resid = float(np.linalg.norm(a @ x - b))
        return resid <= tol * (1.0 + float(np.linalg.norm(u)))

    def shifted(self, offset) -> "SetValue":
        return PolyhedralValue(self.point + offset, self.directions, self.rows)


def _pointed(point, rows=None) -> PolyhedralValue:
    """point + {u : rows u <= 0}, or the point alone when rows is None."""
    return PolyhedralValue(point, zero_space(point.shape[0]), rows)


SetValue = Union[EmptySet, BallValue, PolyhedralValue]


def _minkowski(a: SetValue, b: SetValue) -> SetValue:
    """Empty wins; a point shifts the other value; two polyhedral values
    with at most one cone merge.  Nothing else has a value here."""
    if isinstance(a, EmptySet) or isinstance(b, EmptySet):
        return EmptySet()
    if isinstance(b, PolyhedralValue) and b.rows is None and not b.directions.dim:
        a, b = b, a
    if isinstance(a, PolyhedralValue) and a.rows is None and not a.directions.dim:
        return b.shifted(a.point)
    if isinstance(a, PolyhedralValue) and isinstance(b, PolyhedralValue) and (
            a.rows is None or b.rows is None):
        dirs = orthonormalize(np.hstack([a.directions.basis, b.directions.basis]),
                              ambient_dim=a.point.shape[0])
        return PolyhedralValue(a.point + b.point, dirs, b.rows if a.rows is None else a.rows)
    raise UnsupportedOperatorError(
        "Minkowski sum not supported: two cones, or a ball plus more than a point")


def apply(op: OperatorDescriptor, x) -> SetValue:
    """Exact set description of op(x); EmptySet when x is outside the domain."""
    return op.apply(as_vector(x, op.dim))


def graph_member(op: OperatorDescriptor, x, xs, tol=MEMBER_TOL) -> bool:
    """(x, xs) in gra op, via the exact set value at x."""
    return apply(op, x).contains(xs, tol)


# ---------------------------------------------------------------------------
# deterministic graph sampling
# ---------------------------------------------------------------------------
#
# Every sampler below returns whole arrays (x rows, x* rows) and is
# prefix-stable: row i depends on i and the seed alone, never on the count.
# Cyclic patterns come from index arithmetic, the low-discrepancy half from
# the Halton sequence by index, and each random quantity from its own child
# generator, read row by row.

# Normal magnitudes for cone graph sampling, relative to the sampling radius
# (at the default radius 10 this is the decade grid 0, 1e-2 .. 1e2).
_SCALE_GRID = np.array([0.0, 1e-3, 1e-2, 1e-1, 1.0, 1e1])

# Radii of the norm-subdifferential samples as fractions of the sampling
# radius; the last slot of each cycle takes a seeded uniform radius instead.
_RADIUS_CYCLE = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 0.0])

# Upper end of the uniform magnitudes drawn for ray and face-cone values.
_CONE_VALUE_SCALE = 10.0


def _children(ss, k):
    """The first ``k`` children of ``ss``, as ``ss.spawn(k)`` gives them on a
    fresh sequence but without advancing ``ss``: redrawing a longer sample
    from the same ``ss`` reads the same streams."""
    return [np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (i,))
            for i in range(k)]


def _rngs(ss, k):
    return [np.random.default_rng(s) for s in _children(ss, k)]


def _primes(k):
    out = []
    cand = 2
    while len(out) < k:
        if all(cand % p for p in out):
            out.append(cand)
        cand += 1
    return out


def _radical_inverse(idx, base):
    """The base-``base`` digits of each index mirrored about the radix point
    (van der Corput): 0, 1/2, 1/4, 3/4, ... in base 2."""
    idx = np.array(idx, dtype=np.int64)
    out = np.zeros(idx.shape)
    scale = 1.0
    while np.any(idx):
        scale /= base
        idx, digit = np.divmod(idx, base)
        out += digit * scale
    return out


def _halton(count, dim):
    """The first ``count`` points of the unscrambled Halton sequence in
    [0, 1)^dim, starting at the origin; coordinate j uses the j-th prime."""
    idx = np.arange(count)
    return np.stack([_radical_inverse(idx, b) for b in _primes(dim)], axis=1)


def _unit_rows(rng, m, dim):
    d = rng.standard_normal((m, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _ball_points(m, dim, radius, ss):
    """Seeded uniform points of the radius ball centred at the origin."""
    g_dir, g_rad = _rngs(ss, 2)
    d = _unit_rows(g_dir, m, dim)
    return d * (radius * g_rad.random(m) ** (1.0 / dim))[:, None]


def _params(count, dim, radius, ss):
    """Parameter points: even rows are Halton points of the cube
    [-radius, radius]^dim pulled into the radius ball, odd rows seeded
    uniform points of the ball."""
    h = radius * (2.0 * _halton((count + 1) // 2, dim) - 1.0)
    nh = np.linalg.norm(h, axis=1, keepdims=True)
    p = np.empty((count, dim))
    p[0::2] = h * (radius / np.maximum(nh, radius))
    p[1::2] = _ball_points(count // 2, dim, radius, ss)
    return p


def _cone_scales(m, radius):
    """Column of normal magnitudes cycling through the scale grid."""
    return (radius * _SCALE_GRID[np.arange(m) % _SCALE_GRID.size])[:, None]


def _face_patterns(m, n):
    """Rows 0, 1, ... of the cyclic sequence {-1, 0, 1}^n in lexicographic
    order (last coordinate fastest), read off the base-3 digits of the row
    index."""
    j = np.arange(m)
    sig = np.empty((m, n))
    for i in range(n - 1, -1, -1):
        j, sig[:, i] = np.divmod(j, 3)
    return sig - 1.0


def sample_graph(op: OperatorDescriptor, count, radius, seed) -> np.ndarray:
    """Deterministic graph samples: an array of shape ``(count, 2, n)`` whose
    row i is a pair (x, x*) on gra op (``for x, xs in sample_graph(...)``).

    Every kind is sampled in one vectorised pass.  For a fixed seed and
    radius a longer sample extends a shorter one: each random quantity is
    read row by row from its own child generator of
    ``np.random.SeedSequence(seed)``, cyclic patterns follow the row index,
    and the low-discrepancy half is the unscrambled Halton sequence by
    index.  Sampled suprema are therefore monotone in ``count``.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError("radius must be positive and finite")
    x, xs = op.sample(int(count), float(radius), np.random.SeedSequence(seed))
    return np.stack([x, xs], axis=1)
