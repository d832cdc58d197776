"""Affine invariant point evaluators.

Implemented points: centroid g, Santalo point s (minimizer of the polar
area), John point j and Loewner point l (ellipse centers), symmetric-core
point m (maximizer of the overlap area with the reflected body), and the
two-cap family built from the polar-centroid direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _polyops_py as kernels
from .ellipses import john_ellipse, loewner_ellipse
from .errors import BadParams, ConvergenceFailure
from .polygons import (
    EPS_GEOM,
    Halfplane,
    Polygon,
    area_centroid,
    canonicalize,
    clip_halfplane,
    edge_normals,
    intersect,
    interior_margin,
    support,
)

POINT_IDS = ("centroid", "santalo", "john", "loewner", "symcore", "capfamily")


@dataclass(frozen=True)
class PointFunction:
    """An identified affine invariant point, optionally parameterized."""

    id: str
    params: tuple = ()
    proper: bool = True

    def __post_init__(self) -> None:
        if self.id not in POINT_IDS:
            raise BadParams(f"unknown point id {self.id!r}")
        if self.id == "capfamily":
            if len(self.params) != 2 or min(self.params) <= 0.0:
                raise BadParams("capfamily needs parameters (eps, delta), both > 0")


@dataclass(frozen=True)
class PointResult:
    value: np.ndarray
    iterations: int = 0
    residual: float = 0.0


def eval_point(pf: PointFunction, P: Polygon) -> PointResult:
    if pf.id == "centroid":
        return PointResult(P.centroid)
    if pf.id == "santalo":
        return santalo_point(P)
    if pf.id in ("john", "loewner"):
        E = john_ellipse(P) if pf.id == "john" else loewner_ellipse(P)
        return PointResult(E.center, iterations=E.iterations, residual=E.residual)
    if pf.id == "symcore":
        return symcore_point(P)
    eps, delta = pf.params
    return PointResult(cap_point(P, eps, delta))


def _polar_centroid(Q: Polygon, x: np.ndarray) -> np.ndarray:
    dual = kernels.polar_vertices(Q.vertices, float(x[0]), float(x[1]))
    _, cx, cy = kernels.area_centroid(dual)
    return np.array([cx, cy])


def polar_root(F, C: Polygon, init=None, tol: float = 1e-9) -> PointResult:
    """A z in int(C) with F(Q, z) = 0, by damped Newton from ``init``
    (an interior point of C; default its centroid).

    F gets C moved to centroid 0 and diameter 1 as Q, and z in Q's
    coordinates, and returns an invariant point of the polar (Q - z)°,
    such as its centroid.  The solve stops when |F| is below ``tol``
    times the circumradius 1/margin(Q, z) of that polar, so the stop rule
    does not depend on the scale of the polar.
    """
    g = C.centroid
    d = C.diameter
    Q = Polygon((C.vertices - g) / d)
    z = np.zeros(2) if init is None else (np.asarray(init, dtype=float) - g) / d
    fz = F(Q, z)
    margin = interior_margin(Q, z)
    for it in range(120):
        nrm = float(np.linalg.norm(fz))
        if nrm * margin < tol:
            return PointResult(g + d * z, iterations=it, residual=nrm)
        h = 1e-6
        J = np.empty((2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            J[:, k] = (F(Q, z + e) - F(Q, z - e)) / (2.0 * h)
        try:
            step = np.linalg.solve(J, -fz)
        except np.linalg.LinAlgError:
            step = -fz
        if np.linalg.norm(step) > 0.25:
            step *= 0.25 / np.linalg.norm(step)
        alpha = 1.0
        while alpha > 1e-12:
            cand = z + alpha * step
            m = interior_margin(Q, cand)
            if m > 10.0 * EPS_GEOM:
                fc = F(Q, cand)
                if np.linalg.norm(fc) < nrm:
                    z, fz, margin = cand, fc, m
                    break
            alpha *= 0.5
        else:
            raise ConvergenceFailure(f"polar root stalled at |F|={nrm:.3e}")
    raise ConvergenceFailure("polar root: no convergence in 120 steps")


def santalo_point(P: Polygon) -> PointResult:
    """Unique interior x with g((P - x) polar) = 0: the polar preimage of
    the centroid.

    The zero of that centroid map is exactly the minimizer of the polar
    area, which is strictly log convex in x.
    """
    return polar_root(_polar_centroid, P, tol=1e-12)


def overlap_area(P: Polygon, x) -> float:
    """Area of P intersected with its reflection through x."""
    x = np.asarray(x, dtype=float)
    R = Polygon(canonicalize(2.0 * x - P.vertices).vertices)
    W = intersect(P, R)
    return 0.0 if W is None else W.area


def _overlap_model(Q: Polygon):
    """A(x) = |Q ∩ (2x - Q)| and its exact gradient, as one function of x.

    The overlap W is symmetric about x, so A = Σ l_i h_i, where l_i is the
    length of reflected edge i, 2x - [v_i, v_i+1], inside Q (the face of W
    on that edge's line) and h_i = b_i - n_i·x its distance from x; and
    grad A = -2 Σ l_i n_i.  On the midline of an antiparallel pair
    (n_j = -n_i) reflected edge j lies on the line of edge i and the two
    faces swap; there the pair's face is counted once, on the side of
    sigma = n_i·x - (b_i - b_j)/2 >= 0.

    Returns (f, lines): f(x) -> (A, grad A), and each midline as
    (u, c, lo, hi), its chord {c u + s t : lo < s < hi} in Q, with t the
    unit tangent u turned by 90 degrees.
    """
    V = Q.vertices
    N, b = edge_normals(Q)
    E = np.roll(V, -1, axis=0) - V
    lengths = np.linalg.norm(E, axis=1)
    # reflected edge i runs from 2x - v_i along -E_i; [i, k] pairs it with
    # halfplane k of Q
    beta = -E @ N.T
    base = b + V @ N.T
    i, j = np.nonzero(np.triu(N @ N.T < 0.0))
    anti = np.abs(N[i, 0] * N[j, 1] - N[i, 1] * N[j, 0]) <= 1e-10
    i, j = i[anti], j[anti]
    beta[j, i] = beta[i, j] = 0.0
    U = N[i] - N[j]
    U /= np.linalg.norm(U, axis=1)[:, None]
    C = 0.5 * (b[i] - b[j])
    lines = []
    for u, c in zip(U, C):
        nt = N @ np.array([-u[1], u[0]])
        with np.errstate(divide="ignore", invalid="ignore"):
            ends = (b - c * (N @ u)) / nt
        lines.append((u, c, float(np.max(ends[nt < 0.0], initial=-np.inf)),
                      float(np.min(ends[nt > 0.0], initial=np.inf))))

    def f(x):
        alpha = base - 2.0 * (N @ x)
        below = U @ x < C
        alpha[j, i] = np.where(below, 1.0, -1.0)
        alpha[i, j] = np.where(below, -1.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = alpha / beta
        lo = np.max(np.where(beta < 0.0, r, 0.0), axis=1)
        hi = np.min(np.where(beta > 0.0, r, 1.0), axis=1)
        span = np.maximum(hi - lo, 0.0)
        span[((beta == 0.0) & (alpha < 0.0)).any(axis=1)] = 0.0
        ell = span * lengths
        return float(ell @ (b - N @ x)), -2.0 * (ell @ N)

    return f, lines


def _newton_ascent(f, x: np.ndarray):
    """Damped Newton ascent of log A from x, with a central-difference
    Jacobian of the exact gradient; f(x) returns (A, grad A).

    Returns (x, steps, |grad A|, converged).  A step is taken only if it
    raises A, except a step shorter than 1e-7: A cannot resolve it, and
    the quadratic model is trusted there.  It has converged once the
    Newton step is below 1e-12, which it then takes.
    """
    # A is piecewise quadratic, and the stencil must stay in one piece: at
    # h = 1e-6 it straddled pieces on slivers, and Newton stalled there
    h = 1e-8
    a, g = f(x)
    for it in range(40):
        if not g.any():
            return x, it, 0.0, True
        H = np.column_stack([f(x + e)[1] - f(x - e)[1]
                             for e in np.eye(2) * h]) / (2.0 * h)
        Hf = 0.5 * (H + H.T) / a - np.outer(g, g) / a**2
        try:
            step = np.linalg.solve(Hf, -g / a)
        except np.linalg.LinAlgError:
            step = np.zeros(2)
        norm = float(np.linalg.norm(step))
        if not g @ step > 0.0:
            # not an ascent direction: fall back to the gradient
            step, norm = 0.1 * g / np.linalg.norm(g), 0.1
        elif norm < 1e-7:
            x = x + step
            a, g = f(x)
            if norm < 1e-12:
                return x, it + 1, float(np.linalg.norm(g)), True
            continue
        if norm > 0.25:
            step *= 0.25 / norm
        t = 1.0
        while t > 1e-9:
            ac, gc = f(x + t * step)
            if ac > a:
                x, a, g = x + t * step, ac, gc
                break
            t *= 0.5
        else:
            return x, it, float(np.linalg.norm(g)), False
    return x, 40, float(np.linalg.norm(g)), False


def _slope_root(slope, lo: float, hi: float, s: float):
    """Root of a decreasing slope on (lo, hi) by Newton steps safeguarded
    by bisection: a step that leaves the bracket, or is more than half the
    step before, is replaced by bisection, so a kink ends up bracketed to
    1e-15.  Returns (s, steps, |slope(s)|)."""
    h = 1e-7
    dx = hi - lo
    for it in range(200):
        fs = slope(s)
        if fs == 0.0:
            return s, it, 0.0
        if fs > 0.0:
            lo = s
        else:
            hi = s
        df = (slope(s + h) - slope(s - h)) / (2.0 * h)
        dxold, dx = dx, (-fs / df if df < 0.0 else np.inf)
        if not lo < s + dx < hi or abs(2.0 * dx) > abs(dxold):
            dx = 0.5 * (hi - lo)
            s = lo + dx
        else:
            s += dx
        if abs(dx) < 1e-15:
            return s, it + 1, abs(slope(s))
    return s, 200, abs(fs)


def symcore_point(P: Polygon) -> PointResult:
    """Maximizer of the overlap A(x) = |P ∩ (2x - P)|; unique because the
    square root of A is concave.

    A is not differentiable on the midline of an antiparallel edge pair
    (see ``_overlap_model``), and on trapezoids, squares and even n-gons
    the maximizer lies there.  So the candidates are the damped-Newton
    point (if it converged), the maximizer along each midline and each
    crossing of two midlines; the one with the largest A wins.  The
    residual is that of the winner's own solve: |grad A|, the slope along
    its midline, or the error of the crossing's 2x2 solve.  Runs on P
    moved to centroid 0 and diameter 1.
    """
    g = P.centroid
    d = P.diameter
    Q = Polygon((P.vertices - g) / d)
    f, lines = _overlap_model(Q)

    x, steps, res, converged = _newton_ascent(f, np.zeros(2))
    cands = [(f(x)[0], x, res)] if converged else []
    for u, c, lo, hi in lines:
        t = np.array([-u[1], u[0]])
        s0 = float(t @ x) if lo < t @ x < hi else 0.5 * (lo + hi)
        s, it, r = _slope_root(lambda s: float(t @ f(c * u + s * t)[1]),
                               lo, hi, s0)
        steps += it
        cands.append((f(c * u + s * t)[0], c * u + s * t, r))
    for k, (u1, c1, _, _) in enumerate(lines):
        for u2, c2, _, _ in lines[k + 1:]:
            M = np.array([u1, u2])
            y = np.linalg.solve(M, [c1, c2])
            cands.append((f(y)[0], y, float(np.linalg.norm(M @ y - [c1, c2]))))
    if cands:
        _, x, res = max(cands, key=lambda c: c[0])
    return PointResult(g + d * x, iterations=steps, residual=res)


def _caps(P: Polygon, eps: float, delta: float):
    """``caps``, plus the halfplane that cuts B from P (None when G
    vanishes)."""
    if eps <= 0.0 or delta <= 0.0:
        raise BadParams("cap widths must be positive")
    G = _polar_centroid(P, P.centroid)
    gn = float(np.linalg.norm(G))
    # G scales as 1 / length, so gn * diameter is a test of shape alone
    if gn * P.diameter <= EPS_GEOM:
        return P, P, G, None
    u = G / gn
    hi = support(P, u)
    lo = -support(P, -u)
    cut = Halfplane(u, lo + delta / gn)
    A = clip_halfplane(P, Halfplane(-u, -(hi - eps / gn)))
    B = clip_halfplane(P, cut)
    if A is None or B is None:
        raise BadParams("cap width exceeds the body extent")
    return A, B, G, cut


def caps(P: Polygon, eps: float, delta: float):
    """Two opposite caps of P in the polar-centroid direction.

    Returns (A, B, G) with G the centroid of (P - g(P)) polar, read off the
    polar vertices with no hull, A the cap where <x, G> is within eps of
    its maximum over P, and B the cap where it is within delta of its
    minimum.  When G vanishes (symmetric bodies) both caps degenerate to P
    itself.
    """
    return _caps(P, eps, delta)[:3]


def cap_point(P: Polygon, eps: float, delta: float) -> np.ndarray:
    """Centroid of the union of the two caps, by inclusion-exclusion.

    A ⊆ P, so the overlap A ∩ B is A clipped by the one halfplane that cuts
    B from P: one kernel clip, where ``intersect(A, B)`` clips by every
    edge of B.
    """
    A, B, G, cut = _caps(P, eps, delta)
    if cut is None:
        return P.centroid
    aA, gA = area_centroid(A)
    aB, gB = area_centroid(B)
    W = clip_halfplane(A, cut)
    if W is None:
        return (aA * gA + aB * gB) / (aA + aB)
    aW, gW = area_centroid(W)
    return (aA * gA + aB * gB - aW * gW) / (aA + aB - aW)
