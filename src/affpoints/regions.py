"""Affine invariant set mappings, approximated on direction/ray grids.

Floating body (chord cuts of fixed relative area), illumination body
(sublevel set of the added-hull area), and the sublevel regions of the
Santalo, John, and symmetric-core objective functions.  Every map returns
a polygon built from m directions or rays; errors scale like O(1/m).
"""

from __future__ import annotations

import numpy as np

from . import _polyops_py as kernels
from .ellipses import max_area_reaches, max_centered_area
from .errors import BadParams, EmptyResult
from .points import overlap_area, santalo_point, symcore_point
from .polygons import (
    Polygon,
    canonicalize,
    edge_normals,
    interior_margin,
    polar_about,
    support,
)
from .ellipses import john_ellipse

DEFAULT_RAYS = 256


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


def _ray_region(P: Polygon, origin: np.ndarray, m: int, crossed, t_tol: float,
                t_max=None) -> Polygon:
    """Hull of per-ray bisection roots of a monotone level predicate.

    ``crossed(x)`` is False at the origin and True past the region boundary.
    """
    out = np.empty((m, 2))
    prev = None
    for i, u in enumerate(_unit_grid(m)):
        exit_t = _ray_exit(P, origin, u) if t_max is None else t_max(u)
        lo, hi = 0.0, exit_t
        if prev is not None:
            # the boundary moves slowly between adjacent rays; try a narrow
            # bracket around the previous root before the full range
            a = max(0.0, prev * 0.8)
            b = min(exit_t, prev * 1.25 + t_tol)
            if b > a and crossed(origin + b * u) and not (a > 0.0 and crossed(origin + a * u)):
                lo, hi = a, b
        if hi == exit_t and not crossed(origin + hi * u):
            out[i] = origin + hi * u
            prev = hi
            continue
        while hi - lo > t_tol:
            mid = 0.5 * (lo + hi)
            if crossed(origin + mid * u):
                hi = mid
            else:
                lo = mid
        prev = 0.5 * (lo + hi)
        out[i] = origin + prev * u
    return canonicalize(out)


def santalo_region(P: Polygon, c: float, m: int = DEFAULT_RAYS) -> Polygon:
    """Sublevel region of the polar area at (1 + c) times its minimum."""
    if c <= 0.0:
        raise BadParams(f"need c > 0, got {c}")
    s = santalo_point(P).value
    target = (1.0 + c) * polar_about(P, s).area
    d = P.diameter

    def crossed(x):
        if interior_margin(P, x) <= 1e-9 * d:
            return True
        return polar_about(P, x).area > target

    def t_max(u):
        return _ray_exit(P, s, u) * (1.0 - 1e-8)

    return _ray_region(P, s, m, crossed, 1e-10 * d, t_max)


def john_region(P: Polygon, c: float, m: int = DEFAULT_RAYS) -> Polygon:
    """Superlevel region of the inscribed-ellipse area field at c times max."""
    if not 0.0 < c < 1.0:
        raise BadParams(f"need 0 < c < 1, got {c}")
    j = john_ellipse(P).center
    target = c * max_centered_area(P, j)
    d = P.diameter
    warm = {"theta": None}

    def crossed(x):
        reaches, theta = max_area_reaches(P, x, target, warm=warm["theta"])
        if theta is not None:
            warm["theta"] = theta
        return not reaches

    return _ray_region(P, j, m, crossed, 1e-4 * d)


def symcore_region(P: Polygon, c: float, m: int = DEFAULT_RAYS) -> Polygon:
    """Superlevel region of the reflected-overlap area at c times max."""
    if not 0.0 < c < 1.0:
        raise BadParams(f"need 0 < c < 1, got {c}")
    m0 = symcore_point(P).value
    target = c * overlap_area(P, m0)
    d = P.diameter

    def crossed(x):
        return overlap_area(P, x) < target

    return _ray_region(P, m0, m, crossed, 1e-9 * d)
