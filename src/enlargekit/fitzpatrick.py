"""Fitzpatrick functions: closed forms, a sampled-supremum oracle, and the
partial inf-convolution of two evaluators.

Closed forms implemented here:

* monotone linear relation with graph chart t -> (U t, V t):
  F(x, x*) = (1/4) c' W^+ c  with  c = V'x + U'x*  and the form
  W = (U'V + V'U)/2; the value is finite exactly when c lies in ran W.
  A linear map A is the relation charted by U = I, V = A, so there
  c = x* + A'x and W is the symmetric part ``(A + A')/2``.  Every
  evaluation reads the operator's kept :class:`operators.CarrierQuadratic`
  (W^+ and a basis of ker W), so nothing here decomposes W.
* normal cone of a bounded closed convex set C:  indicator(x in C) +
  support_C(x*).
* A + N_C for a maximally monotone linear A with domain D and a ball, box
  or polytope C:  for z in C cap D, the max over graph points (w, Mw) of A
  with w in C cap D of <z, Mw> + <w, z*> - <w, Mw> (the normal part is
  best at 0, and A(0) = D-perp adds nothing on D), one convex QP (an
  active-set method, or the More-Sorensen secular equation for a ball);
  +inf off C cap D.  Needs C cap D nonempty, for a ball D meeting int C.
* subdifferential of the Euclidean norm (p = 1):  ||x|| + indicator of the
  dual unit ball at x*.

The function value lives in ]-inf, +inf]; plain floats carry it, with
``math.inf`` for the infinite value.

Each closed form is one :class:`FitzEvaluator` subclass, picked by
:func:`fitz_evaluator` alone: :class:`LinearFitz` (maps, relations and
linear + linear sums, on the kept carrier), :class:`ConeSumFitz` (linear
+ N_C, on its kept :class:`ConeSumQP`), :class:`NormalConeFitz` and
:class:`NormGraphFitz` (p = 1).  Each gives its value and its maximiser.

The sampled oracle ``fitz_bruteforce`` maximizes the defining supremum
over one deterministic graph sample, the query pair when it is a graph
point, and the evaluator's maximiser (:meth:`FitzEvaluator.maximiser`),
or for p > 1, which has no evaluator, a 1-D radius search.  It always
returns a lower bound of the true value.  Its divergence check reads the
sups at twice and four times the radius off that sample, scaled as
``sample_scaling`` declares; translations and non-linear sums draw those
radii afresh.

The partial inf-convolution ``partial_inf_conv`` has three paths, picked
by the pair of evaluator classes.  A linear A with N_C, the pair of the
second sum theorem, reads its minimiser off the multiplier of the cone-sum
QP above, whose Fenchel dual it is.  Two linear pieces, the pair of the
first, meet in a linear solve whose point-independent factors
(:class:`CarrierPair`) the first slot's linear operator keeps per
second-slot one, with their sum relation, as it keeps its QP per set, so
that each point costs matrix-vector products and many points, as rows,
matrix products.  N_C with N_C runs Douglas-Rachford on the Moreau proxes
of the two support functions.  Every other pair (the p = 1 norm
subdifferential with anything, a linear + N_C sum evaluator in either
slot) is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import operators as ops
from .operators import CARRIER_TOL, CarrierQuadratic, SolverFailureError
from .linalg import as_vector, eig_pinv, rank_cutoff, sym_eig

# Largest duality gap of a cone-sum QP, relative to 1 + |F|, before the
# value is refused.
QP_GAP_TOL = 1e-9


def __getattr__(name):
    # Nothing here calls scipy; the benchmark tracer (perfbench/spans.py)
    # reads fitzpatrick.scipy.optimize, so scipy loads only when read.
    if name == "scipy":
        import scipy
        return scipy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# the closed form of linear + normal-cone sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConeSumQP:
    """F of A + N_C as one QP (see the module docstring).

    D = dom A has the orthonormal basis Q, and A maps Q s to M s + D-perp
    with M = V U^+ Q, both read off A's kept domain record.  For z in
    C cap D, F(z, z*) is the max over {s : Q s in C} of <b, s> - <s, H s>,
    b = M'z + Q'z*, H = (Q'M + M'Q)/2, which ``solve`` (the set's
    ``subspace_qp``, given A's domain record) finds.  When the set refuses
    the QP (C cap D empty, or a ball that D != {0} only touches), the
    record is kept all the same: ``solve`` is None and ``refusal`` the
    set's message.  Whether a point is off D is the domain record's
    question (:meth:`operators.LinearDomain.off`).  The record holds no
    reference to C, which weakly keys it on A."""

    q: np.ndarray        # (n, k)
    m: np.ndarray        # (n, k)
    solve: object
    refusal: str = ""

    @classmethod
    def build(cls, lin, c) -> "ConeSumQP":
        # +inf off C cap D needs A(0) = D-perp (A maximal)
        if not ops.require_monotone(lin).maximal:
            raise ops.UnsupportedOperatorError("cone-sum closed form needs a maximal A")
        dom = lin.domain
        q = dom.dom.basis
        m = dom.on_dom @ q
        try:
            return cls(q, m, c.subspace_qp(dom, 0.5 * (q.T @ m + m.T @ q)))
        except ops.UnsupportedOperatorError as exc:
            return cls(q, m, None, str(exc))

    def supported(self) -> "ConeSumQP":
        """This QP; raises UnsupportedOperatorError, with the set's message,
        when the set refused it."""
        if self.solve is None:
            raise ops.UnsupportedOperatorError(self.refusal)
        return self

    def maximiser(self, x, xs):
        """(value, pair, normal): the graph pair (Q s, M s) of A with Q s in
        C that maximises <x, a*> + <a, x*> - <a, a*>, with the zero normal a
        pair of A + N_C, its value, and the QP's multiplier, a normal v of C
        at Q s with Q'v = b - 2 H s; raises SolverFailureError when the
        QP's duality gap exceeds ``QP_GAP_TOL``, and UnsupportedOperatorError
        for a refused QP."""
        s, gap, normal = self.supported().solve(self.m.T @ x + self.q.T @ xs)
        pair = (self.q @ s, self.m @ s)
        value = _objective(x, xs)(*pair)
        if gap > QP_GAP_TOL * (1.0 + abs(value)):
            raise SolverFailureError(f"cone-sum QP duality gap {gap:.3e}")
        return value, pair, normal


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FitzEvaluator:
    """Closed-form Fitzpatrick function of one zoo operator: a per-call view
    over ``data``, what the descriptors keep for it.  Each closed form is a
    subclass with its value (``_value``, behind :meth:`evaluate`) and its
    maximiser (``_maximiser``)."""

    operator: ops.OperatorDescriptor
    data: object = None

    @property
    def dim(self) -> int:
        return self.operator.dim

    def evaluate(self, x, xs, tol=CARRIER_TOL) -> float:
        return self._value(as_vector(x, self.dim), as_vector(xs, self.dim), tol)

    def maximiser(self, x, xs):
        """The graph pair (a, a*) maximising <x, a*> + <a, x*> - <a, a*>, of
        value F(x, x*) where F is finite; None for a normal cone."""
        return self._maximiser(as_vector(x, self.dim), as_vector(xs, self.dim))


class LinearFitz(FitzEvaluator):
    """A monotone linear map or relation, or a linear + linear sum: ``data``
    is the kept carrier of its linear form."""

    def _value(self, x, xs, tol):
        return self.data.evaluate(x, xs, tol)

    def _maximiser(self, x, xs):
        # (U t, V t), t = P c / 2; c'Pc/4 bounds F below off the carrier
        t = 0.5 * (self.data.p @ self.data.c_of(x, xs))
        return self.data.u @ t, self.data.v @ t

    def cone_qp(self, c) -> ConeSumQP:
        """The :class:`ConeSumQP` of this operator plus N_C, kept by the
        operator for the set ``c`` even when the set refused it; raises
        UnsupportedOperatorError when the operator is not maximal."""
        lin = ops.linear_form(self.operator)
        return lin._kept("cone_qp", lambda: ConeSumQP.build(lin, c), c)

    def carrier_pair(self, other) -> "CarrierPair":
        """The :class:`CarrierPair` of this evaluator in the first slot and
        the linear ``other`` in the second, kept by the first linear form
        for the second."""
        return ops.linear_form(self.operator)._kept(
            "carriers", lambda: CarrierPair.build(self.data, other.data),
            ops.linear_form(other.operator))


class ConeSumFitz(FitzEvaluator):
    """A maximal linear A plus N_C: ``data`` is the kept :class:`ConeSumQP`;
    the maximiser is the QP's, and F is +inf off C cap dom A."""

    def _value(self, x, xs, tol):
        lin, cone = self.operator.linear_cone
        if lin.domain.off(x, tol) or not cone.set.contains(x, tol):
            return math.inf
        return self.data.maximiser(x, xs)[0]

    def _maximiser(self, x, xs):
        return self.data.maximiser(x, xs)[1]


class NormalConeFitz(FitzEvaluator):
    """N_C: the indicator of C at x plus its support function at x*;
    ``data`` is the set."""

    def _value(self, x, xs, tol):
        return self.data.support(xs) if self.data.contains(x, tol) else math.inf

    def _maximiser(self, x, xs):
        return None

    def _prox(self, w, t):
        # Moreau: the support function's prox through projection onto C
        return w - t * self.data.project(w / t)


class NormGraphFitz(FitzEvaluator):
    """The p = 1 norm subdifferential: ||x|| plus the indicator of the dual
    unit ball at x*; the maximiser is the kink pair (0, x/||x||)."""

    def _value(self, x, xs, tol):
        return math.inf if float(np.linalg.norm(xs)) > 1.0 + tol else float(np.linalg.norm(x))

    def _maximiser(self, x, xs):
        nx = float(np.linalg.norm(x))
        return np.zeros_like(x), x / nx if nx > 0 else np.zeros_like(x)


def fitz_evaluator(op: ops.OperatorDescriptor) -> FitzEvaluator:
    """The closed-form evaluator, a view over the data the descriptors keep;
    raises NotMonotoneError for a linear form that is not monotone and
    UnsupportedOperatorError when the zoo offers none (p > 1
    subdifferentials, sums other than linear + linear and linear + normal
    cone, and cone sums outside :class:`ConeSumQP`'s hypotheses)."""
    lin = ops.linear_form(op)
    if lin is not None:
        ops.require_monotone(lin)
        return LinearFitz(op, lin.carrier)
    if isinstance(op, ops.NormalConeOp):
        return NormalConeFitz(op, op.set)
    if isinstance(op, ops.NormSubdiffOp):
        if op.p == 1.0:
            return NormGraphFitz(op)
        raise ops.UnsupportedOperatorError(
            "no closed form for p > 1 norm subdifferentials; use fitz_bruteforce")
    if isinstance(op, ops.SumOp):
        lin, cone = ops.split_linear_cone(op)
        return ConeSumFitz(op, fitz_evaluator(lin).cone_qp(cone.set).supported())
    raise ops.UnsupportedOperatorError(f"no evaluator for {type(op).__name__}")


def fitz_linear_map(op: ops.LinearMapOp, x, xs) -> float:
    """F_A(x, x*) for a monotone linear map (see module docstring)."""
    return fitz_evaluator(op).evaluate(x, xs)


def fitz_linear_relation(op: ops.LinearRelationOp, x, xs) -> float:
    return fitz_evaluator(op).evaluate(x, xs)


def fitz_normal_cone(op: ops.NormalConeOp, x, xs, tol=CARRIER_TOL) -> float:
    return fitz_evaluator(op).evaluate(x, xs, tol)


def fitz_norm_subdiff(op: ops.NormSubdiffOp, x, xs, count=10000, radius=10.0,
                      seed=0) -> float:
    """F of the norm subdifferential.

    Exact for p = 1.  For p > 1 the value comes from the sampled oracle,
    whose polish solves the 1-D radius reduction (it matches a dense search
    to ~1e-14 relative), and is reported as +inf when the divergence
    detector fires.
    """
    if op.p == 1.0:
        return fitz_evaluator(op).evaluate(x, xs)
    res = fitz_bruteforce(op, x, xs, count=count, radius=radius, seed=seed)
    return math.inf if res.diverging else res.value


def fitz_closed_form(op, x, xs) -> Optional[float]:
    """Closed-form F when the zoo provides one, else None."""
    try:
        return fitz_evaluator(op).evaluate(x, xs)
    except ops.UnsupportedOperatorError:
        return None


def pairing(x, xs) -> float:
    return float(np.dot(np.asarray(x, float), np.asarray(xs, float)))


# ---------------------------------------------------------------------------
# sampled supremum oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BruteForceResult:
    value: float
    best_pair: tuple
    diverging: bool
    trend: tuple  # ((R, sup), (2R, sup), (4R, sup)): the raw sampled sups


def _objective(x, xs):
    def f(a, astar):
        return float(x @ astar + a @ xs - a @ astar)
    return f


def _sampled_sup(op, x, xs, count, radius, seed, scales=()):
    """Largest <x, a*> + <a, xs> - <a, a*> over one graph sample, the first
    pair that attains it, and the list of the sups at radius s * radius for
    each s in ``scales``.  A kind with a ``sample_scaling`` (alpha, beta)
    gives those off the same rows, each scaled to (s^alpha a, s^beta a*);
    any other kind draws each radius afresh."""
    pairs = ops.sample_graph(op, count, radius, seed)
    a, astar = pairs[:, 0], pairs[:, 1]
    t1, t2, t3 = astar @ x, a @ xs, np.einsum("ij,ij->i", a, astar)
    vals = t1 + t2 - t3
    k = int(np.argmax(vals))
    if op.sample_scaling is None:
        sups = [_sampled_sup(op, x, xs, count, s * radius, seed)[0] for s in scales]
    else:
        al, be = op.sample_scaling
        sups = [float(np.max(s ** be * t1 + s ** al * t2 - s ** (al + be) * t3))
                for s in scales]
    return float(vals[k]), (a[k].copy(), astar[k].copy()), sups


def golden_section(h, lo, hi):
    """Golden-section search for a minimiser of ``h`` on [lo, hi], 80 steps;
    returns (t, h(t)).  Exact for unimodal ``h``; elsewhere a local
    minimiser inside the bracket."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = h(c), h(d)
    for _ in range(80):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = h(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = h(d)
    t = 0.5 * (a + b)
    return t, h(t)


# The p > 1 radius search: a log-spaced grid of this many decades below the
# radius past which the objective is negative, at this many points a decade.
# The grid stops at 10^100 so that its squares stay finite; a maximiser
# beyond that (p near 1 with ||x*|| > 1/2) leaves a lower bound, as every
# candidate is.
_RADIUS_DECADES = 16
_RADIUS_PER_DECADE = 20
_RADIUS_LOG10_CAP = 100.0


def _power_chart_max(p, x, xs):
    """Maximiser over the graph {(y, ||y||^(p-2) y)}, p > 1.

    For ||y|| = r the best y is aligned with v(r) = r^(p-1) x + r x*, which
    leaves h(r) = ||v(r)|| - r^p (Bauschke-McLaren-Sendov, J. Convex Anal.
    2006).  h < 0 past r_max = max(2||x||, (2||x*||)^(1/(p-1))), so r = 0, a
    log grid on (0, r_max] and a golden-section search around its best
    point find the supremum.
    """
    nx2, ns2, cross = float(x @ x), float(xs @ xs), float(x @ xs)
    zero = (np.zeros_like(x), np.zeros_like(x))
    with np.errstate(divide="ignore"):
        top = min(max(np.log10(2.0 * math.sqrt(nx2)),
                      np.log10(2.0 * math.sqrt(ns2)) / (p - 1.0)), _RADIUS_LOG10_CAP)
    if not np.isfinite(top):
        return zero  # x = x* = 0

    def h(r):
        a = r ** (p - 1.0)
        return np.sqrt(np.maximum(a * a * nx2 + 2.0 * a * r * cross + r * r * ns2, 0.0)) - r ** p

    radii = np.concatenate([[0.0], np.logspace(
        top - _RADIUS_DECADES, top, _RADIUS_DECADES * _RADIUS_PER_DECADE + 1)])
    vals = h(radii)
    k = int(np.argmax(vals))
    r, _ = golden_section(lambda t: -h(t), radii[max(k - 1, 0)],
                          radii[min(k + 1, radii.size - 1)])
    if h(r) < vals[k]:
        r = radii[k]
    v = r ** (p - 1.0) * x + r * xs
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return zero
    u = v / nv
    return r * u, r ** (p - 1.0) * u


def _chart_polish(op, x, xs):
    """The exact maximiser of <x, a*> + <a, x*> - <a, a*> over the graph:
    :meth:`FitzEvaluator.maximiser`, or for p > 1 (no evaluator) the radius
    search.  Every candidate is a graph point, so the value remains a lower
    bound of the supremum; (-inf, None) when there is no candidate."""
    try:
        pair = fitz_evaluator(op).maximiser(x, xs)
    except (ops.NotMonotoneError, ops.UnsupportedOperatorError):
        pair = _power_chart_max(op.p, x, xs) if isinstance(op, ops.NormSubdiffOp) else None
    if pair is None:
        return -math.inf, None
    return _objective(x, xs)(*pair), pair


# Growth thresholds for the divergence heuristic: the sampled sup of an
# indicator-type F grows linearly in the sampling radius (factor ~2 per
# doubling), while a saturating sup flattens out once the maximizer is
# covered.
_DIV_FACTOR_TOTAL = 10.0
_DIV_FACTOR_STEP = 1.5
_DIV_FLOOR = 1e-6


def _diverging(trend) -> bool:
    s = [max(v, _DIV_FLOOR) for _, v in trend]
    if s[2] > _DIV_FACTOR_TOTAL * s[0]:
        return True
    return s[1] >= _DIV_FACTOR_STEP * s[0] and s[2] >= _DIV_FACTOR_STEP * s[1]


def fitz_bruteforce(op, x, xs, count=10000, radius=10.0, seed=0) -> BruteForceResult:
    """Sampled supremum defining the Fitzpatrick function.

    Deterministic for a fixed seed; nested in ``count`` (``sample_graph``
    is prefix-stable), so the sampled sup is nondecreasing in ``count``.
    The sample is ``count`` graph pairs drawn as one array, the objective's
    maximum taken in one vectorised expression.  Two more candidates join
    it: the query pair itself when it lies on the graph, which pins the
    value to the pairing there, and the exact chart maximiser
    (:func:`_chart_polish`, the evaluator's maximiser), so that a finite F
    of a linear map or relation, a sum with a closed form or a norm
    subdifferential is attained up to rounding.  ``value`` is always a
    lower bound of the true F.  ``trend`` holds the raw sampled sups at
    radius x1, x2 and x4, without those candidates, and ``diverging`` flags
    the indicator-type +inf suspicion from them.  The x2 and x4 sups are
    read off the x1 sample, scaled by the kind's ``sample_scaling``, so a
    call draws ``count`` pairs; translations and non-linear sums draw
    3 * ``count``.
    """
    x = as_vector(x, op.dim)
    xs = as_vector(xs, op.dim)
    best, best_pair, sups = _sampled_sup(op, x, xs, count, radius, seed, (2, 4))
    trend = ((radius, best), (2 * radius, sups[0]), (4 * radius, sups[1]))
    if ops.graph_member(op, x, xs):
        v = _objective(x, xs)(x, xs)
        if v > best:
            best, best_pair = v, (x, xs)
    pv, pp = _chart_polish(op, x, xs)
    if pp is not None and pv > best:
        best, best_pair = pv, pp
    return BruteForceResult(value=best, best_pair=best_pair,
                            diverging=_diverging(trend), trend=trend)


# ---------------------------------------------------------------------------
# partial inf-convolution
# ---------------------------------------------------------------------------

# Douglas-Rachford: residual to stop at, iterations before it raises, step.
DR_TOL = 1e-8
DR_MAX_ITER = 100000
DR_STEP = 1.0


@dataclass(frozen=True, eq=False)
class InfConvResult:
    """``witness`` is the minimising v (None where the value is +inf).
    ``inner_residual`` is the residual of the inner minimisation: for a
    linear + normal-cone pair the duality gap, the value less the cone-sum
    QP's value; for two linear pieces the reduced gradient at v; for
    N_C + N_C Douglas-Rachford's last step.  ``sum_value`` is set on every
    result of a linear + normal-cone pair: F of the sum A + N_C at the same
    point, the value of the QP that gave the minimiser (+inf off C cap
    dom A); None for the other pairs."""

    value: float
    witness: Optional[np.ndarray]
    inner_residual: float
    sum_value: Optional[float] = None


@dataclass(frozen=True, eq=False)
class CarrierPair:
    """The inner problem of (F1 box_2 F2)(x, y) for two carrier quadratics,
    factored once.  phi(v) = F1(x, y - v) + F2(x, v) is
    (1/4) c1' P1 c1 + (1/4) c2' P2 c2 with c1 = V1'x + U1'(y - v) and
    c2 = V2'x + U2'v, finite on the v that keep c1 and c2 on their carriers,
    E v = d with E = [-N1'U1'; N2'U2'] (N spans ker W).  The SVD of E, the
    basis Z of ker E, the products U P and the pseudoinverse of the reduced
    Hessian Z'(H1 + H2)Z, H = U P U'/2, do not depend on (x, y), so
    :meth:`solve` is matrix-vector products at one point, or matrix
    products over the rows of (m, n) arrays of points."""

    cq1: CarrierQuadratic
    cq2: CarrierQuadratic
    left: np.ndarray             # left singular vectors of E
    sing: np.ndarray             # its singular values above CARRIER_TOL
    rows: np.ndarray             # right singular vectors of those, as columns
    z: np.ndarray                # (n, r) orthonormal basis of ker E
    up1: np.ndarray              # U1 P1
    up2: np.ndarray              # U2 P2
    hr_pinv: np.ndarray          # pseudoinverse of Z'(H1 + H2)Z

    @classmethod
    def build(cls, cq1, cq2) -> "CarrierPair":
        e = np.vstack([-(cq1.null.T @ cq1.u.T), cq2.null.T @ cq2.u.T])
        # each block of e is a product of orthonormal bases (norm <= 1); a
        # direction that moves the carrier residual by at most CARRIER_TOL
        # per unit of v is rounding noise (a carrier block that vanishes in
        # exact arithmetic): drop it, and d must vanish on it.  With no
        # rows, vt is the identity and Z = I.
        left, sv, vt = np.linalg.svd(e)
        rank = int(np.sum(sv > CARRIER_TOL))
        z = vt[rank:].T
        hess = 0.5 * cq1.u @ cq1.p @ cq1.u.T + 0.5 * cq2.u @ cq2.p @ cq2.u.T
        hr = z.T @ hess @ z
        # Z'(H1 + H2)Z is PSD by construction: read a rounding-negative
        # eigenvalue as kernel, as the carriers do
        lam, q = sym_eig(0.5 * (hr + hr.T))
        return cls(cq1, cq2, left, sv[:rank], vt[:rank].T, z, cq1.u @ cq1.p, cq2.u @ cq2.p,
                   eig_pinv(lam, q, rank_cutoff(lam)))

    def _grad(self, a1, a2, v):
        """Gradient rows of phi at the rows of v: -U1 P1 c1 / 2 + U2 P2 c2 / 2."""
        return (-0.5 * ((a1 - v @ self.cq1.u) @ self.up1.T)
                + 0.5 * ((a2 + v @ self.cq2.u) @ self.up2.T))

    def solve(self, x, y):
        """(v*, residual, ok) at one point, x and y of shape (n,), or at the
        rows of (m, n) arrays: the minimiser, the norm of the reduced
        gradient there, and whether the carriers are compatible (where they
        are not, the inf-convolution is +inf and v* means nothing)."""
        cq1, cq2 = self.cq1, self.cq2
        a1 = x @ cq1.v + y @ cq1.u
        a2 = x @ cq2.v
        d = np.concatenate([-(a1 @ cq1.null), -(a2 @ cq2.null)], axis=-1)
        rank = self.sing.shape[0]
        dl = d @ self.left
        off = _norms(dl[..., rank:]) > CARRIER_TOL * (1.0 + _norms(d))
        v0 = (dl[..., :rank] / self.sing) @ self.rows.T
        if self.z.shape[1] == 0:
            return v0, np.zeros(off.shape), ~off
        gr = self._grad(a1, a2, v0) @ self.z
        vstar = v0 + (-(gr @ self.hr_pinv.T)) @ self.z.T
        return vstar, _norms(self._grad(a1, a2, vstar) @ self.z), ~off

    def inf_conv(self, x, y):
        """(value, v*, residual, ok) at one point or at rows: :meth:`solve`,
        and the value F1(x, y - v*) + F2(x, v*) where the carriers are
        compatible, +inf where they are not."""
        vstar, resid, ok = self.solve(x, y)
        value = self.cq1.evaluate(x, y - vstar, tol=1e-7) + self.cq2.evaluate(x, vstar, tol=1e-7)
        return np.where(ok, value, math.inf), vstar, resid, ok


def _norms(a):
    """Euclidean norms of the rows of a (of a vector: its norm), each
    rounded as np.linalg.norm rounds one vector."""
    return np.sqrt(np.vecdot(a, a))


def _douglas_rachford(prox_f, prox_g, y):
    """Douglas-Rachford on f + g, given their exact proxes (w, t) -> v;
    returns (v, residual)."""
    z = 0.5 * y
    v_f = z
    resid = math.inf
    for _ in range(DR_MAX_ITER):
        v_g = prox_g(z, DR_STEP)
        v_f = prox_f(2.0 * v_g - z, DR_STEP)
        z = z + v_f - v_g
        resid = float(np.linalg.norm(v_f - v_g))
        if resid <= DR_TOL:
            return v_f, resid
    raise SolverFailureError(
        f"inner minimization residual {resid:.3e} above {DR_TOL:.1e} "
        f"after {DR_MAX_ITER} iterations")


def _cone_sum_dual(f1: FitzEvaluator, f2: FitzEvaluator, x, y) -> InfConvResult:
    """The linear + normal-cone case of :func:`partial_inf_conv`, in either
    order: v* is the multiplier of the cone-sum QP at (x, y)."""
    lin_ev, cone_ev = (f1, f2) if isinstance(f1, LinearFitz) else (f2, f1)
    c, off = cone_ev.data, InfConvResult(math.inf, None, 0.0, math.inf)
    if not c.contains(x):
        return off
    # F_A(x, .) is +inf off dom A, since A(0) = dom A-perp: a refused QP
    # raises only at points of C cap dom A
    qp = lin_ev.cone_qp(c)
    if ops.linear_form(lin_ev.operator).domain.off(x):
        return off
    primal, _, normal = qp.maximiser(x, y)
    vstar = normal if cone_ev is f2 else y - normal
    value = f1.evaluate(x, y - vstar, tol=1e-7) + f2.evaluate(x, vstar, tol=1e-7)
    # weak duality puts value at or above primal; abs() only absorbs rounding
    return InfConvResult(float(value), vstar, abs(value - primal), primal)


def partial_inf_conv(f1: FitzEvaluator, f2: FitzEvaluator, x, y) -> InfConvResult:
    """(F1 box_2 F2)(x, y) = inf over v of F1(x, y - v) + F2(x, v).

    A linear A and a normal cone N_C, in either order: the inf-convolution
    is the Fenchel dual of the cone-sum QP of A + N_C (:class:`ConeSumQP`,
    Rockafellar 1970, Sec. 31), so its minimiser v* is the QP's multiplier
    for Q s in C, a normal of C at the QP maximiser.  The value is
    F_A(x, y - v*) + F_{N_C}(x, v*) from the two summands' own closed
    forms, and ``inner_residual`` is that value less the QP value, a
    duality gap that weak duality keeps >= 0.  It is +inf for x off C, and
    for x off dom A when A is maximal; A not maximal, or a QP the set
    refused (dom A != {0} only touching a ball) at a point of C cap dom A,
    raises UnsupportedOperatorError.

    Two linear pieces meet in an exact linear solve on the intersection
    of their carriers, :meth:`CarrierPair.inf_conv`, factored on the first
    call for the ordered pair of their linear forms and kept on the first,
    so that a point costs matrix-vector products (a linear + linear sum
    check calls the same method once over the rows of all its points).

    N_C1 with N_C2 is +inf for x off C1 or C2; elsewhere it is the least
    sigma_C1(y - v) + sigma_C2(v), which Douglas-Rachford finds from the
    exact proxes of the two support functions (deterministic start at
    v = y/2).  A +inf value (incompatible carriers, x outside a set) is
    reported with no witness; failure to converge raises
    :class:`SolverFailureError` instead of being passed off as infinite.

    Every other pair of evaluators, such as the p = 1 norm subdifferential
    with anything or a linear + normal-cone sum evaluator in either slot,
    raises UnsupportedOperatorError before any work.
    """
    if f1.dim != f2.dim:
        raise ops.DimensionMismatchError("evaluators live in different spaces")
    x = as_vector(x, f1.dim)
    y = as_vector(y, f1.dim)
    classes = {type(f1), type(f2)}
    if classes == {LinearFitz, NormalConeFitz}:
        return _cone_sum_dual(f1, f2, x, y)
    if classes == {LinearFitz}:
        value, vstar, resid, ok = f1.carrier_pair(f2).inf_conv(x, y)
        return InfConvResult(float(value), vstar, float(resid)) if ok else \
            InfConvResult(math.inf, None, 0.0)
    if classes != {NormalConeFitz}:
        raise ops.UnsupportedOperatorError(
            f"no partial inf-convolution of {type(f1.operator).__name__} "
            f"and {type(f2.operator).__name__}")
    if not (f1.data.contains(x) and f2.data.contains(x)):
        return InfConvResult(math.inf, None, 0.0)
    # v -> sigma_C1(y - v) and v -> sigma_C2(v)
    vstar, resid = _douglas_rachford(lambda w, t: y - f1._prox(y - w, t), f2._prox, y)
    value = f1.evaluate(x, y - vstar, tol=1e-7) + f2.evaluate(x, vstar, tol=1e-7)
    return InfConvResult(float(value), vstar, resid)
