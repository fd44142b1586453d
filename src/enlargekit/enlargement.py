"""Epsilon-enlargements: membership verdicts, explicit slice descriptors
for monotone linear maps, and the norm subdifferential's slice at 0.

A pair (x, x*) belongs to the enlargement A_eps exactly when
F_A(x, x*) <= <x, x*> + eps (Burachik-Svaiter 2002), and every membership
test here reads that one inequality: :func:`enl_member` decides it, with
the slack in its verdict (for a kind with no closed form, from the lower
bound of F that :func:`fitzpatrick.fitz_bruteforce` samples); the graph
tests of a skew relation, the p = 1 norm subdifferential and a normal cone
are :func:`enl_member` on that kind.  Slices A_eps(x) of a monotone linear
map are ellipsoids described exactly (center + quadratic form + level +
carrier subspace), never as point clouds, so boundary-tight tests stay
exact.  They read the map's kept carrier (:class:`operators.CarrierQuadratic`:
pinv(A_+) and a basis of ran A_+), so a slice decomposes nothing; only
:meth:`EllipsoidSlice.semiaxes` and :meth:`EllipsoidSlice.boundary_points`
decompose the slice's own form.

Membership comparisons use a uniform absolute boundary tolerance of
``SLACK_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .fitzpatrick import fitz_bruteforce, fitz_closed_form, pairing
from .linalg import Subspace, as_vector, check_nonnegative, sym_eig

SLACK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class EnlargementVerdict:
    """Outcome of an enlargement membership test.

    slack = <x, x*> + eps - F; membership means slack >= -SLACK_TOL.
    ``method`` records whether F came from a closed form or from the
    sampled oracle (the latter is approximate: a lower bound of F).
    """

    member: bool
    fitz_value: float
    slack: float
    method: str


def enl_member(op: ops.OperatorDescriptor, x, xs, eps,
               count=10000, radius=10.0, seed=0) -> EnlargementVerdict:
    """Decide (x, xs) in gra A_eps for a maximally monotone operator.

    Uses the closed-form Fitzpatrick value when the zoo provides one,
    otherwise the sampled oracle with divergence detection (a diverging
    sup is treated as F = +inf, suspected).
    """
    check_nonnegative(eps, "eps")
    ops.require_maximal(op)
    n = op.dim
    x, xs = as_vector(x, n), as_vector(xs, n)
    value = fitz_closed_form(op, x, xs)
    method = "closed_form"
    if value is None:
        res = fitz_bruteforce(op, x, xs, count=count, radius=radius, seed=seed)
        value = math.inf if res.diverging else res.value
        method = "bruteforce"
    slack = -math.inf if math.isinf(value) else pairing(x, xs) + eps - value
    return EnlargementVerdict(member=slack >= -SLACK_TOL, fitz_value=value,
                              slack=slack, method=method)


# ---------------------------------------------------------------------------
# slices of monotone linear maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EllipsoidSlice:
    """A_eps(x) = {center + z : z in carrier, z' form z <= level}."""

    center: np.ndarray
    form: np.ndarray
    level: float
    carrier: Subspace

    def contains(self, zs, tol=SLACK_TOL) -> bool:
        zs = as_vector(zs, self.center.shape[0])
        d = zs - self.center
        if not self.carrier.contains_vector(d, tol):
            return False
        return float(d @ self.form @ d) <= self.level + tol

    def _carrier_eig(self):
        """Eigenpairs of the form on the carrier basis b.  The product
        b' form b is made symmetric first: a near-skew map's form pinv(A_+)
        has entries near 1/lambda_min(A_+), so rounding alone would fail
        sym_eig's absolute symmetry check."""
        b = self.carrier.basis
        m = b.T @ self.form @ b
        return sym_eig(0.5 * (m + m.T))

    def semiaxes(self) -> np.ndarray:
        """Semiaxis lengths of the ellipsoid inside its carrier."""
        if self.carrier.dim == 0:
            return np.zeros(0)
        return np.sqrt(self.level / self._carrier_eig()[0])

    def ball_radius(self) -> float:
        """Radius when the slice is a ball of its carrier (max semiaxis;
        0 for the degenerate point slice)."""
        ax = self.semiaxes()
        return float(np.max(ax)) if ax.size else 0.0

    def boundary_points(self, num=32, seed=0) -> list:
        """Points with z' form z = level exactly, spread over directions."""
        d = self.carrier.dim
        if d == 0 or self.level <= 0.0:
            return [self.center.copy()]
        b = self.carrier.basis
        w, q = self._carrier_eig()
        scale = q * np.sqrt(self.level / w)
        if d == 1:
            units = [np.array([1.0]), np.array([-1.0])]
        elif d == 2:
            angles = 2.0 * np.pi * np.arange(num) / num
            units = [np.array([np.cos(a), np.sin(a)]) for a in angles]
        else:
            rng = np.random.default_rng(seed)
            units = []
            while len(units) < num:
                u = rng.normal(size=d)
                nu = float(np.linalg.norm(u))
                if nu > 1e-12:
                    units.append(u / nu)
        return [self.center + b @ (scale @ u) for u in units]


def _range_subspace(a: ops.LinearMapOp) -> Subspace:
    """ran A_+ of a monotone map, from its kept carrier."""
    ops.require_monotone(a)
    return Subspace(a.dim, a.carrier.ran)


def enl_slice_linear(a: ops.LinearMapOp, x, eps) -> EllipsoidSlice:
    """Ellipsoid description of A_eps(x) for a monotone linear map:
    center A x, quadratic form pinv(A_+), level 4 eps, carrier ran A_+."""
    check_nonnegative(eps, "eps")
    x = as_vector(x, a.dim)
    ran = _range_subspace(a)
    return EllipsoidSlice(center=a.matrix @ x, form=a.carrier.p,
                          level=4.0 * float(eps), carrier=ran)


@dataclass(frozen=True, eq=False)
class ParametricSlice:
    """Generator form of the same slice:
    {base + gen z : (1/2) <z, A z> <= bound} with gen = A + A'."""

    base: np.ndarray
    gen: np.ndarray
    sym: np.ndarray   # A_+, the quadratic's matrix
    bound: float
    ran: Subspace     # ran A_+

    def image_contains(self, zs, tol=SLACK_TOL) -> bool:
        zs = as_vector(zs, self.base.shape[0])
        w = zs - self.base
        z, *_ = np.linalg.lstsq(self.gen, w, rcond=None)
        if float(np.linalg.norm(self.gen @ z - w)) > tol * (1.0 + np.linalg.norm(w)):
            return False
        return 0.5 * float(z @ self.sym @ z) <= self.bound + tol

    def boundary_points(self, num=32, seed=0) -> list:
        """Images of parameters with (1/2) z' A z = bound exactly."""
        inner = EllipsoidSlice(center=np.zeros(self.base.shape[0]),
                               form=self.sym, level=2.0 * self.bound,
                               carrier=self.ran)
        return [self.base + self.gen @ z for z in inner.boundary_points(num, seed)]


def enl_slice_param(a: ops.LinearMapOp, x, eps) -> ParametricSlice:
    """A_eps(x) = {Ax + (A + A') z : (1/2) <z, A z> <= eps / 2}; its image
    equals the ellipsoid of :func:`enl_slice_linear`."""
    check_nonnegative(eps, "eps")
    x = as_vector(x, a.dim)
    ran = _range_subspace(a)
    sym = ops.symmetric_part(a)
    return ParametricSlice(base=a.matrix @ x, gen=2.0 * sym, sym=sym,
                           bound=0.5 * float(eps), ran=ran)


# ---------------------------------------------------------------------------
# closed-form graph tests, each enl_member on one kind
# ---------------------------------------------------------------------------

def skew_relation_enl(r: ops.LinearRelationOp, x, xs, eps) -> bool:
    """Enlargement of a maximal skew relation: member iff (x, xs) in
    gra(-A*) and <x, xs> >= -eps, since F is 0 on gra(-A*) and +inf off it."""
    if not ops.is_skew(r):
        raise ops.NotSkewError("relation is not skew")
    return enl_member(r, x, xs, eps).member


def norm_subdiff_enl_member(n: ops.NormSubdiffOp, x, xs, eps) -> bool:
    """Graph of (d||.||)_eps: ||xs|| <= 1 and ||x|| <= <x, xs> + eps.
    For the sublinear f = ||.|| this is also the eps-subdifferential."""
    if n.p != 1.0:
        raise ops.UnsupportedOperatorError("closed form only for p = 1")
    return enl_member(n, x, xs, eps).member


def normal_cone_enl_member(nc: ops.NormalConeOp, x, xs, eps) -> bool:
    """Graph of (N_C)_eps: x in C and support_C(xs) <= <x, xs> + eps."""
    return enl_member(nc, x, xs, eps).member


# ---------------------------------------------------------------------------
# norm subdifferentials: the slice at 0
# ---------------------------------------------------------------------------

def eps_subdiff_slice(n: ops.NormSubdiffOp, eps) -> ops.BallValue:
    """The enlargement slice (df)_eps(0): the dual unit ball for p = 1,
    the ball of radius p^(1/p) (q eps)^(1/q) for p > 1 (1/p + 1/q = 1)."""
    check_nonnegative(eps, "eps")
    if n.p == 1.0:
        return ops.BallValue(np.zeros(n.dim), 1.0)
    q = n.p / (n.p - 1.0)
    radius = n.p ** (1.0 / n.p) * (q * float(eps)) ** (1.0 / q)
    return ops.BallValue(np.zeros(n.dim), radius)
