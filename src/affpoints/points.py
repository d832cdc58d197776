"""Affine invariant point evaluators.

Implemented points: centroid g, Santalo point s (minimizer of the polar
area), John point j and Loewner point l (ellipse centers), symmetric-core
point m (maximizer of the overlap area with the reflected body), and the
two-cap family built from the polar-centroid direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import _polyops_py as kernels
from .ellipses import john_ellipse, loewner_ellipse
from .errors import BadParams, ConvergenceFailure
from .polygons import (
    EPS_GEOM,
    Halfplane,
    Polygon,
    area_centroid,
    canonicalize,
    intersect,
    interior_margin,
    polar_about,
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
    if pf.id == "john":
        return PointResult(john_ellipse(P).center)
    if pf.id == "loewner":
        return PointResult(loewner_ellipse(P).center)
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


def symcore_point(P: Polygon, tol: float = 1e-10) -> PointResult:
    """Maximizer of the reflected-overlap area; unique because the square
    root of the overlap function is concave."""
    g = P.centroid
    d = P.diameter
    Q = Polygon((P.vertices - g) / d)

    def neg(x):
        a = overlap_area(Q, x)
        return -a if a > 0.0 else 1.0

    res = minimize(neg, np.zeros(2), method="Nelder-Mead",
                   options={"xatol": tol, "fatol": 1e-14, "maxiter": 500})
    x = res.x
    # quadratic polish: a couple of finite-difference Newton steps
    h = 1e-5
    for _ in range(3):
        gx = np.array([
            (neg(x + [h, 0]) - neg(x - [h, 0])) / (2 * h),
            (neg(x + [0, h]) - neg(x - [0, h])) / (2 * h),
        ])
        H = np.empty((2, 2))
        f0 = neg(x)
        H[0, 0] = (neg(x + [h, 0]) - 2 * f0 + neg(x - [h, 0])) / h**2
        H[1, 1] = (neg(x + [0, h]) - 2 * f0 + neg(x - [0, h])) / h**2
        H[0, 1] = H[1, 0] = (
            neg(x + [h, h]) - neg(x + [h, -h]) - neg(x + [-h, h]) + neg(x + [-h, -h])
        ) / (4 * h**2)
        try:
            step = np.linalg.solve(H, -gx)
        except np.linalg.LinAlgError:
            break
        if np.linalg.norm(step) > 0.1:
            break
        cand = x + step
        if neg(cand) <= f0:
            x = cand
        if np.linalg.norm(step) < 1e-11:
            break
    return PointResult(g + d * x, iterations=int(res.nit),
                       residual=float(np.linalg.norm(gx)))


def caps(P: Polygon, eps: float, delta: float):
    """Two opposite caps of P in the polar-centroid direction.

    Returns (A, B, G) with G the centroid of (P - g(P)) polar, A the cap
    where <x, G> is within eps of its maximum over P, and B the cap where
    it is within delta of its minimum.  When G vanishes (symmetric bodies)
    both caps degenerate to P itself.
    """
    if eps <= 0.0 or delta <= 0.0:
        raise BadParams("cap widths must be positive")
    g = P.centroid
    G = polar_about(P, g).centroid
    scale = P.diameter
    gn = float(np.linalg.norm(G))
    if gn <= EPS_GEOM * scale:
        return P, P, G
    u = G / gn
    hi = support(P, u)
    lo = -support(P, -u)
    from .polygons import clip_halfplane

    A = clip_halfplane(P, Halfplane(-u, -(hi - eps / gn)))
    B = clip_halfplane(P, Halfplane(u, lo + delta / gn))
    if A is None or B is None:
        raise BadParams("cap width exceeds the body extent")
    return A, B, G


def cap_point(P: Polygon, eps: float, delta: float) -> np.ndarray:
    """Centroid of the union of the two caps."""
    A, B, G = caps(P, eps, delta)
    if A is B:
        return P.centroid
    aA, gA = area_centroid(A)
    aB, gB = area_centroid(B)
    W = intersect(A, B)
    if W is None:
        return (aA * gA + aB * gB) / (aA + aB)
    aW, gW = area_centroid(W)
    return (aA * gA + aB * gB - aW * gW) / (aA + aB - aW)
