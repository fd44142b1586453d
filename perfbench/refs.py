"""Independent reference values, in numpy alone, that the benchmark checks
the program's outputs against.

None of these call into ``enlargekit``: each one recomputes a quantity from
its definition by a different route than the program takes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

RANGE_TOL = 1e-9


def fitz_norm_power(x, xs, p, grid=4001):
    """F(x, x*) of the subdifferential of (1/p)||.||^p, p > 1, via the 1-D
    reduction F = sup_{r >= 0} r ||r^(p-2) x + x*|| - r^p.

    For fixed ||y|| = r the best y is aligned with r^(p-2) x + x*, which
    leaves a search over r alone.  Past r_max = max(4||x||, (4||x*||)^(1/(p-1)))
    the objective is negative, so a grid on [0, r_max] followed by a
    golden-section search around the best grid point finds the supremum.
    """
    x, xs = np.asarray(x, float), np.asarray(xs, float)
    if p <= 1.0:
        raise ValueError("the 1-D reduction needs p > 1")

    def h(r):
        r = np.asarray(r, float)
        pts = np.multiply.outer(r ** (p - 1.0), x) + np.multiply.outer(r, xs)
        return np.linalg.norm(pts, axis=-1) - r ** p

    r_max = max(4.0 * np.linalg.norm(x), (4.0 * np.linalg.norm(xs)) ** (1.0 / (p - 1.0)), 1e-12)
    rs = np.linspace(0.0, r_max, grid)
    vals = h(rs)
    k = int(np.argmax(vals))
    lo, hi = rs[max(k - 1, 0)], rs[min(k + 1, grid - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(200):
        a, b = hi - g * (hi - lo), lo + g * (hi - lo)
        if h(a) >= h(b):
            hi = b
        else:
            lo = a
    return float(max(vals[k], h(0.5 * (lo + hi)), 0.0))


def fitz_carrier(u, v, x, xs):
    """(1/4) c' W^+ c with c = V'x + U'x* and W = (U'V + V'U)/2, for the
    graph {(U t, V t)} of a linear map or relation; +inf off ran W.

    W^+ c comes from a least-squares solve, not an eigendecomposition.
    A linear map A is the graph with U = I, V = A.
    """
    u, v = np.asarray(u, float), np.asarray(v, float)
    c = v.T @ np.asarray(x, float) + u.T @ np.asarray(xs, float)
    w = 0.5 * (u.T @ v + v.T @ u)
    y, *_ = np.linalg.lstsq(w, c, rcond=1e-10)
    if np.linalg.norm(w @ y - c) > RANGE_TOL * (1.0 + np.linalg.norm(c)):
        return math.inf
    return 0.25 * float(c @ y)


def fitz_map(a, x, xs):
    """F of the monotone linear map ``a``; see :func:`fitz_carrier`."""
    a = np.asarray(a, float)
    return fitz_carrier(np.eye(a.shape[0]), a, x, xs)


def in_graph(u, v, x, xs, tol=1e-8):
    """Whether (x, x*) lies in the span of the graph columns (U; V)."""
    g = np.vstack([np.asarray(u, float), np.asarray(v, float)])
    z = np.concatenate([np.asarray(x, float), np.asarray(xs, float)])
    t, *_ = np.linalg.lstsq(g, z, rcond=None)
    return float(np.linalg.norm(g @ t - z)) <= tol * (1.0 + float(np.linalg.norm(z)))


def in_neg_adjoint(u, v, x, xs, tol=1e-8):
    """Whether (x, x*) lies in gra(-A*): <a*, x> + <a, x*> = 0 for every
    graph pair (a, a*) = (U t, V t), i.e. V'x + U'x* = 0."""
    r = np.asarray(v, float).T @ np.asarray(x, float) + np.asarray(u, float).T @ np.asarray(xs, float)
    scale = 1.0 + float(np.linalg.norm(x)) + float(np.linalg.norm(xs))
    return float(np.linalg.norm(r)) <= tol * scale


def _qp_objective(b, h, w):
    return float(b @ w - w @ h @ w)


def qp_box(b, h, lo, hi):
    """max over lo <= w <= hi of <b, w> - <w, H w>, H symmetric PSD.

    Active-set enumeration: every coordinate sits at its lower bound, its
    upper bound or is free; the free block solves its stationarity
    equation.  The maximiser is the stationary point of its own face, so
    the best feasible candidate over all 3^n patterns is the maximum.
    """
    b, h = np.asarray(b, float), np.asarray(h, float)
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    n = b.shape[0]
    best, arg = -math.inf, None
    for pattern in itertools.product((0, 1, 2), repeat=n):
        pattern = np.asarray(pattern)
        w = np.where(pattern == 0, lo, hi)
        free = pattern == 2
        if free.any():
            fixed = ~free
            rhs = b[free] - 2.0 * h[np.ix_(free, fixed)] @ w[fixed]
            sol, *_ = np.linalg.lstsq(2.0 * h[np.ix_(free, free)], rhs, rcond=None)
            w = w.copy()
            w[free] = sol
        if np.all(w >= lo - 1e-12) and np.all(w <= hi + 1e-12):
            val = _qp_objective(b, h, w)
            if val > best:
                best, arg = val, w
    return best, arg


def qp_ball(b, h, center, radius):
    """max over ||w - center|| <= radius of <b, w> - <w, H w>, H positive
    definite.

    KKT: b - 2 H w - 2 mu (w - center) = 0 with mu >= 0.  When the
    unconstrained maximiser lies in the ball mu = 0; otherwise
    ||w(mu) - center|| decreases in mu and bisection finds the mu that puts
    w(mu) on the sphere.
    """
    b, h = np.asarray(b, float), np.asarray(h, float)
    center = np.asarray(center, float)
    n = b.shape[0]

    def w_of(mu):
        return np.linalg.solve(2.0 * h + 2.0 * mu * np.eye(n), b + 2.0 * mu * center)

    w = w_of(0.0)
    if np.linalg.norm(w - center) <= radius:
        return _qp_objective(b, h, w), w
    lo, hi = 0.0, 1.0
    while np.linalg.norm(w_of(hi) - center) > radius:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(w_of(mid) - center) > radius:
            lo = mid
        else:
            hi = mid
    w = w_of(hi)
    return _qp_objective(b, h, w), w


def fitz_linear_plus_cone(a, z, zs, qp):
    """F of A + N_C at z in C: max over w in C of <A'z + z*, w> - <w, A_+ w>,
    with ``qp(b, H)`` the maximiser over C (see :func:`qp_box`, :func:`qp_ball`)."""
    a = np.asarray(a, float)
    return qp(a.T @ np.asarray(z, float) + np.asarray(zs, float), 0.5 * (a + a.T))[0]


def convex_hull(points):
    """Vertices of the convex hull of 2-D points in counter-clockwise order
    (Andrew's monotone chain)."""
    pts = sorted(map(tuple, np.asarray(points, float)))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.asarray(lower[:-1] + upper[:-1])


def polygon_margin(hull, x):
    """Signed distance from x to the nearest edge line of a counter-clockwise
    convex polygon: positive inside, negative outside."""
    hull = np.asarray(hull, float)
    nxt = np.roll(hull, -1, axis=0)
    edge = nxt - hull
    normal = np.stack([edge[:, 1], -edge[:, 0]], axis=1)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)  # outward
    return float(np.min(np.einsum("ij,ij->i", hull - np.asarray(x, float), normal)))


def polygon_contains(hull, x, tol=1e-12):
    return polygon_margin(hull, x) >= -tol


def support_vertices(vertices, u):
    """Support function of a polytope: the largest <vertex, u>."""
    return float(np.max(np.asarray(vertices, float) @ np.asarray(u, float)))
