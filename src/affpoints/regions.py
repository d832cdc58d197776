"""Affine invariant set mappings, approximated on direction/ray grids.

Floating body (chord cuts of fixed relative area), illumination body
(sublevel set of the added-hull area), and the sublevel regions of the
Santalo, John, and symmetric-core objective functions.  Every map returns
a polygon built from m directions or rays; errors scale like O(1/m).  The
last three find their ray crossings with one batched root-finder: each map
gives its level function and its slope along the rays, and safeguarded
Newton runs on all rays at once.  Each crossing is within 1e-10 diam of
the level set of the field as computed; the John field is solved to a
barrier gap of 1e-8, so there log f is within 1e-8 of its level.
"""

from __future__ import annotations

import numpy as np

from . import _polyops_py as kernels
from .ellipses import _centered_john, _normalize, john_ellipse
from .errors import BadParams, EmptyResult
from .points import _overlap_model, santalo_point, symcore_point
from .polygons import Polygon, canonicalize, edge_normals

DEFAULT_RAYS = 256
# the ray root-finder: ray-vertex pairs per block (a block's (k, n) arrays
# take 0.5 MB however many rays there are), the step that freezes a ray,
# relative to the diameter, and the step budget (bisection alone needs
# about 35)
RAY_BLOCK = 1 << 16
RAY_TOL = 1e-10
RAY_STEPS = 100
# the John field's barrier stops at this gap, where its envelope gradient
# is still accurate
JOHN_FIELD_GAP = 1e-8


def _unit_grid(m: int) -> np.ndarray:
    t = 2.0 * np.pi * np.arange(m) / m
    return np.column_stack([np.cos(t), np.sin(t)])


def _ray_exit(P: Polygon, x: np.ndarray, u: np.ndarray) -> float:
    """Distance from interior x to the boundary along direction u."""
    normals, offsets = edge_normals(P)
    num = offsets - normals @ x
    den = normals @ u
    mask = den > 1e-14
    return float(np.min(num[mask] / den[mask]))


def floating_body(P: Polygon, delta: float, m: int = DEFAULT_RAYS) -> Polygon:
    """Intersection over m directions of halfplanes whose chords cut off
    exactly delta * area(P); an outer approximation of the floating body."""
    if not 0.0 <= delta < 4.0 / 9.0:
        raise BadParams(f"floating body needs 0 <= delta < 4/9, got {delta}")
    if m < 64:
        raise BadParams("need at least 64 directions")
    if delta == 0.0:
        return P
    target = delta * P.area
    tol = 1e-12 * P.diameter
    verts = P.vertices
    pv = P.vertices
    for ux, uy in _unit_grid(m):
        lo = -kernels.support(pv, -ux, -uy)
        hi = kernels.support(pv, ux, uy)
        # cap {<u, x> >= beta} shrinks as beta grows; find the delta-area chord
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if kernels.cap_area(pv, ux, uy, mid) > target:
                lo = mid
            else:
                hi = mid
        verts = kernels.clip_halfplane(verts, ux, uy, 0.5 * (lo + hi))
        if len(verts) < 3:
            raise EmptyResult(f"floating body empty at delta={delta}")
    try:
        return canonicalize(verts)
    except Exception as exc:
        raise EmptyResult(f"floating body degenerate at delta={delta}") from exc


def illumination_body(P: Polygon, delta: float, m: int = DEFAULT_RAYS) -> Polygon:
    """Hull of the m ray crossings of |conv(x, P)| = (1 + delta) area(P)."""
    if delta < 0.0:
        raise BadParams(f"illumination body needs delta >= 0, got {delta}")
    if m < 64:
        raise BadParams("need at least 64 rays")
    if delta == 0.0:
        return P
    g = P.centroid
    area = P.area
    target = (1.0 + delta) * area
    tol = 1e-12 * P.diameter
    pv = P.vertices
    nxt = np.roll(pv, -1, axis=0)
    normals, offsets = edge_normals(P)

    def hull_area(x):
        # area added by an outside apex: triangles over the visible edges
        vis = normals @ x > offsets
        tri = 0.5 * ((pv[vis, 0] - x[0]) * (nxt[vis, 1] - x[1])
                     - (nxt[vis, 0] - x[0]) * (pv[vis, 1] - x[1]))
        return area + float(np.abs(tri).sum())

    # rays through the vertices guarantee K inside the output hull
    vdirs = pv - g
    vdirs /= np.linalg.norm(vdirs, axis=1)[:, None]
    dirs = np.vstack([_unit_grid(m), vdirs])
    out = np.empty((len(dirs), 2))
    for i, u in enumerate(dirs):
        lo = _ray_exit(P, g, u)
        hi = lo + P.diameter
        while hull_area(g + hi * u) < target:
            hi += P.diameter
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if hull_area(g + mid * u) < target:
                lo = mid
            else:
                hi = mid
        out[i] = g + 0.5 * (lo + hi) * u
    return canonicalize(out)


def _ray_roots(field, origin: np.ndarray, dirs: np.ndarray,
               exits: np.ndarray) -> np.ndarray:
    """Per-ray roots of a level function, by safeguarded Newton on all rays
    of a block at once.

    ``field(X, U)`` gets a (k, 2) batch of points X on rays with unit
    directions U and returns (phi, slope): a level function that is
    negative at ``origin``, increases along each ray and is positive (or
    inf) at its exit, and its derivative along the ray.  Each ray keeps
    its own bracket, starting at (0, exit).  A Newton step that leaves the
    bracket, or is more than half the step before, becomes bisection, so
    a ray converges at least as fast as bisection; a ray whose step is
    below RAY_TOL is frozen.  Returns the distance along each ray.
    """
    k = len(dirs)
    lo, hi = np.zeros(k), exits.copy()
    tau = 0.5 * hi
    dx = hi.copy()
    live = np.arange(k)
    for _ in range(RAY_STEPS):
        t = tau[live]
        phi, slope = field(origin + t[:, None] * dirs[live], dirs[live])
        below = phi < 0.0
        lo[live] = np.where(below, t, lo[live])
        hi[live] = np.where(below, hi[live], t)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(phi == 0.0, 0.0, -phi / slope)
        a, b = lo[live], hi[live]
        newton = (t + step >= a) & (t + step <= b) & (np.abs(2.0 * step) <= dx[live])
        step = np.where(newton, step, 0.5 * (a + b) - t)
        tau[live] = t + step
        dx[live] = np.abs(step)
        live = live[np.abs(step) > RAY_TOL]
        if not live.size:
            break
    return tau


def _ray_crossings(Q: Polygon, origin: np.ndarray, m: int, field) -> np.ndarray:
    """The m ray crossings of ``field``'s level set about ``origin`` in Q
    (see ``_ray_roots``), over blocks of at most RAY_BLOCK ray-vertex pairs."""
    dirs = _unit_grid(m)
    normals, offsets = edge_normals(Q)
    room = offsets - normals @ origin
    rows = max(1, RAY_BLOCK // Q.n)
    out = np.empty((m, 2))
    for i in range(0, m, rows):
        U = dirs[i:i + rows]
        den = U[:, :1] * normals[:, 0] + U[:, 1:] * normals[:, 1]
        with np.errstate(divide="ignore"):
            exits = np.where(den > 1e-14, room / den, np.inf).min(axis=1)
        tau = _ray_roots(field, origin, U, exits)
        out[i:i + rows] = origin + tau[:, None] * U
    return out


def santalo_region(P: Polygon, c: float, m: int = DEFAULT_RAYS) -> Polygon:
    """Sublevel region of the polar area at (1 + c) times its minimum.

    Each ray's crossing is the root of log V - log target, from the closed
    form of the polar area V and its gradient (``kernels.polar_areas``).
    """
    if c <= 0.0:
        raise BadParams(f"need c > 0, got {c}")
    verts, d, g = _normalize(P)
    Q = Polygon(verts)
    s = (santalo_point(P).value - g) / d
    log_target = np.log1p(c) + np.log(kernels.polar_areas(Q.vertices, s[None])[0][0])

    def field(X, U):
        V, grad = kernels.polar_areas(Q.vertices, X)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(V) - log_target, (grad * U).sum(axis=1) / V

    return canonicalize(g + d * _ray_crossings(Q, s, m, field))


def john_region(P: Polygon, c: float, m: int = DEFAULT_RAYS) -> Polygon:
    """Superlevel region of the inscribed-ellipse area field at c times max.

    Each ray's crossing is the root of log target - log f, with f from the
    batched fixed-center John barrier stopped at a gap of 1e-8, where its
    envelope-theorem gradient is accurate.
    """
    if not 0.0 < c < 1.0:
        raise BadParams(f"need 0 < c < 1, got {c}")
    verts, d, g = _normalize(P)
    Q = Polygon(verts)
    A, b = edge_normals(Q)
    j = (john_ellipse(P).center - g) / d
    log_target = np.log(c * _centered_john(A, b, j)[0][0])

    def field(X, U):
        det, grad = _centered_john(A, b, X, gap=JOHN_FIELD_GAP)
        with np.errstate(divide="ignore"):
            return log_target - np.log(det), -(grad * U).sum(axis=1)

    return canonicalize(g + d * _ray_crossings(Q, j, m, field))


def symcore_region(P: Polygon, c: float, m: int = DEFAULT_RAYS) -> Polygon:
    """Superlevel region of the reflected-overlap area at c times max.

    Each ray's crossing is the root of log target - log A, with A and its
    exact gradient from ``points._overlap_model``, one point at a time.
    """
    if not 0.0 < c < 1.0:
        raise BadParams(f"need 0 < c < 1, got {c}")
    # the overlap model of P moved to centroid 0 and diameter 1, built once:
    # A and the target scale alike, so the comparison is that of P's areas
    verts, d, g = _normalize(P)
    Q = Polygon(verts)
    f, _ = _overlap_model(Q)
    m0 = (symcore_point(P).value - g) / d
    log_target = np.log(c * f(m0)[0])

    def field(X, U):
        phi = np.full(len(X), np.inf)
        slope = np.full(len(X), np.nan)
        for i, (x, u) in enumerate(zip(X, U)):
            area, grad = f(x)
            if area > 0.0:
                phi[i] = log_target - np.log(area)
                slope[i] = -(grad @ u) / area
        return phi, slope

    return canonicalize(g + d * _ray_crossings(Q, m0, m, field))
