"""The operator zoo and its supporting set descriptors.

Operators live on R^n (dual pairing = Euclidean dot product) and come in
five flavours: linear maps, linear relations (graph = subspace of R^2n),
norm subdifferentials, normal cones of bounded convex sets, and binary
sums.  A sixth plumbing variant translates a graph by a fixed pair, which
is what the affine-shift certificates operate on.

A linear map is the relation with graph {(x, A x)}, charted by U = I and
V = A.  Monotonicity, symmetry, skewness, the domain and the Fitzpatrick
carrier read the chart (U, V) of either form; application and sampling
keep a matrix branch for maps.  Each convex set owns its normal-cone helpers.

All descriptors are immutable; every operation is pure given an explicit
seed, so concurrent use needs no synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .linalg import (
    DimensionMismatchError,
    SolverFailureError,
    Subspace,
    as_matrix,
    as_vector,
    ball_qp,
    bounded_qp,
    complement,
    contains,
    null_space,
    orthonormalize,
    sym_eig,
    zero_space,
)

# Eigenvalue slack used when classifying monotone / symmetric / skew.
MONOTONE_TOL = 1e-10

# Membership tolerance for set and graph tests.
MEMBER_TOL = 1e-9

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
# and whether x lies in C (rows off C carry an arbitrary value).
#
# meets(q, margin) decides, for Q with orthonormal columns (possibly none),
# whether ran Q meets C shrunk by the margin (a ball's radius less it, a
# box's faces moved in by it, a polytope's vertices pulled towards their mean
# by that fraction, which lands in ri C).  It returns a point of the
# intersection, or None when the least distance exceeds MEMBER_TOL.
#
# subspace_qp(q, hess) serves the Fitzpatrick function of a linear + normal
# cone sum: for Q with orthonormal columns and H PSD it returns solve(b) ->
# (s, gap), a maximiser of <b, s> - <s, H s> over {s : Q s in C} and a bound
# on the gap of its value.  It starts from the point of ``meets`` and raises
# UnsupportedOperatorError when ran Q misses C (for a ball: misses its
# interior).


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
            return PointValue(np.zeros(self.dim))
        return RayValue(d / nd)

    def inset_points(self, m, ss) -> np.ndarray:
        return self.center + _ball_points(m, self.dim, self.radius, ss)

    def support_points(self, d) -> np.ndarray:
        return self.center + self.radius * d

    def meets(self, q, margin=0.0):
        x = q @ (q.T @ self.center)  # the point of ran Q nearest the center
        far = float(np.linalg.norm(self.center - x)) > self.radius - margin + MEMBER_TOL
        return None if far else x

    def subspace_qp(self, q, hess):
        # a ball of radius rho about s0 in the coordinates s
        x0 = self.meets(q, INTERIOR_MARGIN)
        if x0 is None:
            raise UnsupportedOperatorError("the subspace misses the interior of the ball")
        s0 = q.T @ x0
        rho = math.sqrt(self.radius ** 2 - float(np.sum((self.center - x0) ** 2)))
        lam, vecs = sym_eig(2.0 * hess)

        def solve(b):
            y, gap = ball_qp(lam, vecs, b - 2.0 * hess @ s0, rho)
            return s0 + y, gap
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
        signs = self._face_signs(x)
        return FaceConeValue(signs) if signs.any() else PointValue(np.zeros(self.dim))

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
        lo, hi, perp = self.lo + margin, self.hi - margin, _perp(q)
        if np.any(lo >= hi):
            return None
        x = 0.5 * (lo + hi)
        if perp.shape[0]:  # least distance from ran Q: a bound-constrained least squares
            x = bounded_qp(perp.T @ perp, np.zeros(self.dim), lo, hi, x)[0]
        return None if float(np.linalg.norm(perp @ x)) > MEMBER_TOL else x

    def subspace_qp(self, q, hess):
        # in x = Q s: lo <= x <= hi and Q_perp' x = Q_perp' x0
        x0, perp = self.meets(q), _perp(q)
        if x0 is None:
            raise UnsupportedOperatorError("the subspace misses the box")
        hx, diam = 2.0 * q @ hess @ q.T, float(np.linalg.norm(self.hi - self.lo))

        def solve(b):
            x, kkt = bounded_qp(hx, q @ b, self.lo, self.hi, x0, perp)
            return q.T @ x, kkt * diam
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
        return ConeByInequalities(self.matrix - x) if self.contains(x) else EmptySet()

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
        lam = self._weights(_perp(q), margin)
        return None if lam is None else lam @ self.matrix

    def _weights(self, perp, margin):
        """Vertex weights of a point of the hull in ker Q_perp', all at least
        margin / m: Wolfe's weights of the hull point of the projected
        vertices nearest 0, after pulling them towards their mean by the
        fraction ``margin``; None when that point is off 0."""
        m = self.matrix.shape[0]
        proj = self.matrix @ perp.T
        corral, w, y = _wolfe(proj + margin * (proj.mean(axis=0) - proj))
        if float(np.linalg.norm(y)) > MEMBER_TOL:
            return None
        lam = np.zeros(m)
        lam[corral] = w
        return (1.0 - margin) * lam + margin / m

    def subspace_qp(self, q, hess):
        # in the vertex weights lam: lam >= 0, sum lam = 1 and Q_perp' P lam
        # = Q_perp' P lam0
        perp = _perp(q)
        lam0, m = self._weights(perp, 0.0), self.matrix.shape[0]
        if lam0 is None:
            raise UnsupportedOperatorError("the subspace misses the polytope")
        pq = self.matrix @ q
        e, hl = np.vstack([np.ones(m), perp @ self.matrix.T]), 2.0 * pq @ hess @ pq.T
        lo, hi = np.zeros(m), np.full(m, np.inf)

        def solve(b):
            lam, kkt = bounded_qp(hl, pq @ b, lo, hi, lam0, e)
            return pq.T @ lam, kkt * math.sqrt(2.0)
        return solve


ConvexSetDescriptor = Union[Ball, Box, Polytope]


def support_function(c: ConvexSetDescriptor, u) -> float:
    """sup over the set of <point, u>; always finite (sets are bounded)."""
    return c.support(u)


# ---------------------------------------------------------------------------
# operator descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LinearMapOp:
    """Single-valued linear operator x -> A x: the relation whose graph
    {(x, A x)} is charted by t -> (U t, V t), ``u_block`` = I, ``v_block`` = A."""

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


@dataclass(frozen=True, eq=False)
class LinearRelationOp:
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


@dataclass(frozen=True, eq=False)
class NormSubdiffOp:
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


@dataclass(frozen=True, eq=False)
class NormalConeOp:
    """Normal cone operator of a bounded closed convex set."""

    set: ConvexSetDescriptor

    @property
    def dim(self):
        return self.set.dim


@dataclass(frozen=True, eq=False)
class SumOp:
    """Pointwise sum of two operators on the same space.

    When both terms are linear maps or relations, A + B is again one linear
    relation; ``relation`` holds it (built once, here) and every layer
    treats the sum as that relation.  It is None when a term is not linear.
    """

    terms: tuple
    relation: Optional[LinearRelationOp] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.terms) != 2:
            raise MalformedDescriptorError("sums have exactly two terms in v1")
        dims = {t.dim for t in self.terms}
        if len(dims) != 1:
            raise DimensionMismatchError("sum terms live in different spaces")
        linear = all(isinstance(t, (LinearMapOp, LinearRelationOp)) for t in self.terms)
        object.__setattr__(self, "relation", sum_relation(*self.terms) if linear else None)

    @property
    def dim(self):
        return self.terms[0].dim


@dataclass(frozen=True, eq=False)
class TranslatedOp:
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
    if isinstance(op, LinearRelationOp):
        m = relation_as_map(op)
        if m is None:
            raise UnsupportedOperatorError("relation is not a single-valued map")
        op = m
    if not isinstance(op, LinearMapOp):
        raise UnsupportedOperatorError("symmetric_part needs a linear operator")
    return 0.5 * (op.matrix + op.matrix.T)


def _chart(op, what):
    """(U, V) of the chart t -> (U t, V t) of a linear map's or relation's
    graph; ``what`` names the query in the error for any other operator."""
    if not isinstance(op, (LinearMapOp, LinearRelationOp)):
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
    linear A plus N_C is decided by whether dom A meets ri C or C at all
    (:func:`_cone_sum_maximal`; None when it meets C only on the relative
    boundary).  For other sums, monotonicity of every term is reported (a
    sufficient condition) and maximality is left undetermined.
    """
    if isinstance(op, (LinearMapOp, LinearRelationOp)):
        u, v = op.u_block, op.v_block
        w, _ = sym_eig(0.5 * (u.T @ v + v.T @ u))
        lam_min = float(w[-1]) if w.size else 0.0
        mono, k = lam_min >= -MONOTONE_TOL, u.shape[1]
        return ValidationReport(mono, mono and k == op.dim,
                                f"graph form min eigenvalue = {lam_min:.6e}, "
                                f"dim gra = {k} (n = {op.dim})")
    if isinstance(op, (NormSubdiffOp, NormalConeOp)):
        return ValidationReport(True, True, "subdifferential of a proper lsc convex function")
    if isinstance(op, SumOp):
        if op.relation is not None:
            return validate(op.relation)
        terms = [validate(t) for t in op.terms]
        mono = all(t.monotone for t in terms)
        if mono and all(t.maximal for t in terms):
            try:
                lin, cone = split_linear_cone(*op.terms)
            except UnsupportedOperatorError:
                lin = None
            if lin is not None:
                return _cone_sum_maximal(lin, cone.set)
        return ValidationReport(mono, None, "sum: maximality undetermined")
    if isinstance(op, TranslatedOp):
        inner = validate(op.inner)
        return ValidationReport(inner.monotone, inner.maximal,
                                f"translation of: {inner.detail}")
    raise MalformedDescriptorError(f"unknown descriptor {type(op)!r}")


def split_linear_cone(a, b):
    """(linear term, normal-cone term) of a linear map or relation plus a
    normal cone, in either order; any other pair raises
    UnsupportedOperatorError."""
    lin, cone = (b, a) if isinstance(a, NormalConeOp) else (a, b)
    if isinstance(lin, (LinearMapOp, LinearRelationOp)) and isinstance(cone, NormalConeOp):
        return lin, cone
    raise UnsupportedOperatorError(
        "sums are covered for linear+linear and linear+normal-cone")


def interior_domain_check(a, c: ConvexSetDescriptor) -> bool:
    """Does dom A meet the interior of C?  Exact: dom A meets C shrunk by
    ``INTERIOR_MARGIN`` (see the sets' ``meets``), and a polytope must be
    full-dimensional, since ri C is int C only then."""
    if isinstance(c, Polytope) and np.linalg.matrix_rank(c.matrix - c.interior_point()) < c.dim:
        return False
    return c.meets(dom_subspace(a).basis, INTERIOR_MARGIN) is not None


def _cone_sum_maximal(lin, c: ConvexSetDescriptor) -> ValidationReport:
    """A maximal monotone linear A plus N_C: maximal when D = dom A meets
    ri C (Rockafellar's qualification ri dom A cap ri C nonempty, as D is
    a subspace), not maximal when D misses C (the sum's graph is empty),
    undetermined when D meets C only on its relative boundary."""
    d = dom_subspace(lin).basis
    if c.meets(d, INTERIOR_MARGIN) is not None:
        return ValidationReport(True, True, "linear + normal cone: dom A meets ri C")
    if c.meets(d) is None:
        return ValidationReport(True, False, "linear + normal cone: dom A misses C, "
                                             "so the sum has an empty graph")
    return ValidationReport(True, None, "linear + normal cone: dom A meets C only on "
                                        "its relative boundary; maximality undetermined")


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
    """Domain of a linear map / relation, as a subspace of R^n: ran U."""
    u, _ = _chart(op, "a domain subspace")
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

    Built in (x, a*, b*) coordinates: intersect the two cylinder
    subspaces, then push forward through (x, a*, b*) -> (x, a* + b*).
    """
    ra, rb = as_relation(a), as_relation(b)
    if ra.dim != rb.dim:
        raise DimensionMismatchError("sum terms live in different spaces")
    n = ra.dim
    ka, kb = ra.graph.dim, rb.graph.dim
    s1 = np.zeros((3 * n, ka + n))
    s1[: 2 * n, :ka] = ra.graph.basis
    s1[2 * n:, ka:] = np.eye(n)
    s2 = np.zeros((3 * n, kb + n))
    s2[:n, :kb] = rb.graph.basis[:n]
    s2[2 * n:, :kb] = rb.graph.basis[n:]
    s2[n: 2 * n, kb:] = np.eye(n)
    from .linalg import intersect as _intersect
    common = _intersect(orthonormalize(s1, ambient_dim=3 * n),
                        orthonormalize(s2, ambient_dim=3 * n))
    t = common.basis
    cols = np.vstack([t[:n], t[n: 2 * n] + t[2 * n:]])
    return LinearRelationOp(orthonormalize(cols, ambient_dim=2 * n))


# ---------------------------------------------------------------------------
# set-valued application
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmptySet:
    def contains(self, u, tol=MEMBER_TOL) -> bool:
        return False


@dataclass(frozen=True, eq=False)
class PointValue:
    point: np.ndarray

    def contains(self, u, tol=MEMBER_TOL) -> bool:
        u = as_vector(u, self.point.shape[0])
        return float(np.linalg.norm(u - self.point)) <= tol * (1.0 + np.linalg.norm(self.point))


@dataclass(frozen=True, eq=False)
class BallValue:
    center: np.ndarray
    radius: float  # >= 0; a radius-0 value is the single point `center`

    def contains(self, u, tol=MEMBER_TOL) -> bool:
        u = as_vector(u, self.center.shape[0])
        return float(np.linalg.norm(u - self.center)) <= self.radius + tol


@dataclass(frozen=True, eq=False)
class AffineSetValue:
    point: np.ndarray
    directions: Subspace

    def contains(self, u, tol=MEMBER_TOL) -> bool:
        u = as_vector(u, self.point.shape[0])
        d = u - self.point
        resid = float(np.linalg.norm(d - self.directions.project(d)))
        return resid <= tol * (1.0 + float(np.linalg.norm(u)))


@dataclass(frozen=True, eq=False)
class RayValue:
    """{s * direction : s >= 0} with a unit direction."""

    direction: np.ndarray

    @property
    def generators(self) -> np.ndarray:
        return self.direction[:, None]

    def contains(self, u, tol=MEMBER_TOL) -> bool:
        u = as_vector(u, self.direction.shape[0])
        s = float(u @ self.direction)
        resid = float(np.linalg.norm(u - s * self.direction))
        return s >= -tol and resid <= tol * (1.0 + float(np.linalg.norm(u)))


@dataclass(frozen=True, eq=False)
class FaceConeValue:
    """Box normal cone at a face: sign-constrained coordinates.

    ``signs[i]`` is +1 where the point sits on the upper face, -1 on the
    lower face, 0 where the coordinate is interior (forcing u_i = 0).
    """

    signs: np.ndarray

    @property
    def generators(self) -> np.ndarray:
        return np.diag(self.signs)[:, self.signs != 0]

    def contains(self, u, tol=MEMBER_TOL) -> bool:
        u = as_vector(u, self.signs.shape[0])
        ok_free = np.all(np.abs(u[self.signs == 0]) <= tol)
        ok_up = np.all(u[self.signs > 0] >= -tol)
        ok_dn = np.all(u[self.signs < 0] <= tol)
        return bool(ok_free and ok_up and ok_dn)


@dataclass(frozen=True, eq=False)
class AffineConeValue:
    """point + span(directions) + {generators c : c >= 0}.

    u belongs to it iff the least squares min over s and c >= 0 of
    ||u - point - D s - G c|| (D the directions, G the generators) is 0,
    a bound-constrained QP."""

    point: np.ndarray
    directions: Subspace
    generators: np.ndarray

    def contains(self, u, tol=MEMBER_TOL) -> bool:
        u = as_vector(u, self.point.shape[0])
        a = np.hstack([self.directions.basis, self.generators])
        k, j = self.directions.dim, self.generators.shape[1]
        d = u - self.point
        lo = np.concatenate([np.full(k, -np.inf), np.zeros(j)])
        x = bounded_qp(a.T @ a, a.T @ d, lo, np.full(k + j, np.inf), np.zeros(k + j))[0]
        return float(np.linalg.norm(d - a @ x)) <= tol * (1.0 + float(np.linalg.norm(u)))


@dataclass(frozen=True, eq=False)
class ConeByInequalities:
    """{u : rows @ u <= 0}; used for polytope normal cones."""

    rows: np.ndarray

    def contains(self, u, tol=MEMBER_TOL) -> bool:
        u = as_vector(u, self.rows.shape[1])
        return bool(np.all(self.rows @ u <= tol * (1.0 + np.linalg.norm(u))))


@dataclass(frozen=True, eq=False)
class TranslatedValue:
    """base + offset, for cone-type values shifted off the origin."""

    base: "SetValue"
    offset: np.ndarray

    def contains(self, u, tol=MEMBER_TOL) -> bool:
        u = as_vector(u, self.offset.shape[0])
        return self.base.contains(u - self.offset, tol)


SetValue = Union[EmptySet, PointValue, BallValue, AffineSetValue, RayValue,
                 FaceConeValue, AffineConeValue, ConeByInequalities, TranslatedValue]


def _translate_value(val: SetValue, shift: np.ndarray) -> SetValue:
    if isinstance(val, EmptySet):
        return val
    if isinstance(val, PointValue):
        return PointValue(val.point + shift)
    if isinstance(val, BallValue):
        return BallValue(val.center + shift, val.radius)
    if isinstance(val, AffineSetValue):
        return AffineSetValue(val.point + shift, val.directions)
    if isinstance(val, TranslatedValue):
        return TranslatedValue(val.base, val.offset + shift)
    return TranslatedValue(val, shift)


def _minkowski(a: SetValue, b: SetValue) -> SetValue:
    if isinstance(a, EmptySet) or isinstance(b, EmptySet):
        return EmptySet()
    if isinstance(a, PointValue):
        return _translate_value(b, a.point)
    if isinstance(b, PointValue):
        return _translate_value(a, b.point)
    if isinstance(a, AffineSetValue) and isinstance(b, AffineSetValue):
        dirs = orthonormalize(
            np.hstack([a.directions.basis, b.directions.basis]),
            ambient_dim=a.point.shape[0])
        return AffineSetValue(a.point + b.point, dirs)
    if isinstance(b, AffineSetValue):
        a, b = b, a
    if isinstance(a, AffineSetValue) and isinstance(b, (RayValue, FaceConeValue)):
        return AffineConeValue(a.point, a.directions, b.generators)
    raise UnsupportedOperatorError(
        f"Minkowski sum of {type(a).__name__} and {type(b).__name__} not supported")


def apply(op: OperatorDescriptor, x) -> SetValue:
    """Exact set description of op(x); EmptySet when x is outside the domain."""
    x = as_vector(x, op.dim)
    if isinstance(op, LinearMapOp):
        return PointValue(op.matrix @ x)
    if isinstance(op, LinearRelationOp):
        u, v = op.u_block, op.v_block
        t, *_ = np.linalg.lstsq(u, x, rcond=None)
        if float(np.linalg.norm(u @ t - x)) > MEMBER_TOL * (1.0 + np.linalg.norm(x)):
            return EmptySet()
        point = v @ t
        null_u = null_space(u)
        dirs = orthonormalize(v @ null_u, ambient_dim=op.dim) if null_u.shape[1] else \
            zero_space(op.dim)
        if dirs.dim == 0:
            return PointValue(point)
        return AffineSetValue(point, dirs)
    if isinstance(op, NormSubdiffOp):
        r = float(np.linalg.norm(x))
        if r == 0.0:
            if op.p == 1.0:
                return BallValue(np.zeros(op.dim), 1.0)
            return PointValue(np.zeros(op.dim))
        return PointValue(op.gradient(x))
    if isinstance(op, NormalConeOp):
        return op.set.normal_cone_value(x)
    if isinstance(op, SumOp):
        return _minkowski(apply(op.terms[0], x), apply(op.terms[1], x))
    if isinstance(op, TranslatedOp):
        inner = apply(op.inner, x - op.shift_x)
        return _translate_value(inner, op.shift_xs)
    raise MalformedDescriptorError(f"unknown descriptor {type(op)!r}")





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


def _sample_subdiff(op: NormSubdiffOp, count, radius, ss):
    """Points r d along seeded unit directions, with r cycling through
    _RADIUS_CYCLE; at r = 0 the p = 1 kink pairs the origin with a scaled
    unit direction, any element of the unit ball being a subgradient."""
    g_dir, g_u = _rngs(ss, 2)
    d = _unit_rows(g_dir, count, op.dim)
    u = g_u.random(count)
    slot = np.arange(count) % _RADIUS_CYCLE.size
    r = np.where(slot == _RADIUS_CYCLE.size - 1, u, _RADIUS_CYCLE[slot]) * radius
    if op.p == 1.0:
        mag = np.where(r == 0.0, u, 1.0)
    else:
        mag = r ** (op.p - 1.0)
    return r[:, None] * d, mag[:, None] * d


def _sample_cone(c: ConvexSetDescriptor, count, radius, ss):
    """Rows cycle through: a point of the set with the zero normal; a
    maximiser of <., d> with the outward normal s d (s from _SCALE_GRID);
    for boxes, the centre moved onto a face pattern (cycling through
    {-1, 0, 1}^n) with a sign-constrained normal."""
    n = c.dim
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




def _values_at(op, x, ss):
    """For each row of ``x``: an element of op(x), and whether op(x) is
    nonempty (rows where it is empty carry an arbitrary value)."""
    m, n = x.shape
    ok = np.ones(m, dtype=bool)
    if isinstance(op, LinearMapOp):
        return x @ op.matrix.T, ok
    if isinstance(op, LinearRelationOp):
        u, v = op.u_block, op.v_block
        t = np.linalg.lstsq(u, x.T, rcond=None)[0].T
        nx = np.linalg.norm(x, axis=1)
        ok = np.linalg.norm(t @ u.T - x, axis=1) <= MEMBER_TOL * (1.0 + nx)
        w = t @ v.T
        null_u = null_space(u)
        if null_u.shape[1]:
            dirs = orthonormalize(v @ null_u, ambient_dim=n)
            (g,) = _rngs(ss, 1)
            w = w + g.standard_normal((m, dirs.dim)) @ dirs.basis.T
        return w, ok
    if isinstance(op, NormSubdiffOp):
        r = np.linalg.norm(x, axis=1)
        safe = np.where(r > 0.0, r, 1.0)
        w = x * (safe ** (op.p - 2.0))[:, None]
        if op.p == 1.0:
            g_dir, g_u = _rngs(ss, 2)
            kink = _unit_rows(g_dir, m, n) * g_u.random(m)[:, None]
            w = np.where((r > 0.0)[:, None], w, kink)
        return w, ok
    if isinstance(op, NormalConeOp):
        return op.set.cone_values_at(x, ss)
    if isinstance(op, SumOp):
        ss0, ss1 = _children(ss, 2)
        w0, ok0 = _values_at(op.terms[0], x, ss0)
        w1, ok1 = _values_at(op.terms[1], x, ss1)
        return w0 + w1, ok0 & ok1
    if isinstance(op, TranslatedOp):
        w, ok = _values_at(op.inner, x - op.shift_x, ss)
        return w + op.shift_xs, ok
    raise MalformedDescriptorError(f"unknown descriptor {type(op)!r}")



# A sum whose sampled driver points meet the other term's domain this rarely
# has too thin a graph to sample: draws stop at this multiple of the count.
_SUM_DRAW_CAP = 64


def _sample_sum(op: SumOp, count, radius, ss):
    """Graph points of the more domain-restricted term (a normal cone when
    there is one) plus an element of the other term's value there.  Points
    off the other term's domain are dropped, so longer prefixes of the
    driver's sample are drawn until ``count`` points remain."""
    if op.relation is not None:
        return _sample(op.relation, count, radius, ss)
    t0, t1 = op.terms
    if isinstance(t1, NormalConeOp) and not isinstance(t0, NormalConeOp):
        driver, other = t1, t0
    else:
        driver, other = t0, t1
    ss_drv, ss_val = _children(ss, 2)
    drawn = count
    while True:
        x, u = _sample(driver, drawn, radius, ss_drv)
        w, ok = _values_at(other, x, ss_val)
        keep = np.flatnonzero(ok)[:count]
        if keep.size == count:
            return x[keep], u[keep] + w[keep]
        if drawn >= _SUM_DRAW_CAP * count:
            raise RuntimeError(
                f"only {keep.size} of {count} sampled points of the sum lie in "
                f"both domains after {drawn} draws")
        drawn *= 2


def _sample(op, count, radius, ss):
    """(x rows, x* rows) of ``count`` graph points; see :func:`sample_graph`."""
    if isinstance(op, LinearMapOp):
        y = _params(count, op.dim, radius, ss)
        return y, y @ op.matrix.T
    if isinstance(op, LinearRelationOp):
        if op.graph.dim == 0:
            return np.zeros((count, op.dim)), np.zeros((count, op.dim))
        t = _params(count, op.graph.dim, radius, ss)
        return t @ op.u_block.T, t @ op.v_block.T
    if isinstance(op, NormSubdiffOp):
        return _sample_subdiff(op, count, radius, ss)
    if isinstance(op, NormalConeOp):
        return _sample_cone(op.set, count, radius, ss)
    if isinstance(op, SumOp):
        return _sample_sum(op, count, radius, ss)
    if isinstance(op, TranslatedOp):
        x, xs = _sample(op.inner, count, radius, ss)
        return x + op.shift_x, xs + op.shift_xs
    raise MalformedDescriptorError(f"unknown descriptor {type(op)!r}")


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
    if radius <= 0:
        raise ValueError("radius must be positive")
    x, xs = _sample(op, int(count), float(radius), np.random.SeedSequence(seed))
    return np.stack([x, xs], axis=1)
