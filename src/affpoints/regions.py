"""Affine invariant set mappings, approximated on direction/ray grids.

Floating body (chord cuts of fixed relative area), illumination body
(sublevel set of the added-hull area), and the sublevel regions of the
Santalo, John, and symmetric-core objective functions.  Every map returns
a polygon built from m directions or rays; errors scale like O(1/m).  All
five find their roots with one batched root-finder, ``points._ray_roots``:
each map gives its level function and its slope along the rays, and
safeguarded Newton runs on all rays of a block at once.  Each root is
within 1e-10 diam of the level set of the field as computed, and the
John field is the optimum of a pair or triple of contacts that meets
John's conditions, so exact to rounding.
"""

from __future__ import annotations

import numpy as np

from . import _polyops_py as kernels
from .ellipses import FIELD_POOL, _centered_john, _field_sets, _normalize
from .errors import BadParams, DegenerateInput, EmptyResult
from .points import PointFunction, _overlap_model, _ray_roots, eval_point
from .polygons import Polygon, canonicalize, edge_normals

DEFAULT_RAYS = 256


def _unit_grid(m: int) -> np.ndarray:
    t = 2.0 * np.pi * np.arange(m) / m
    return np.column_stack([np.cos(t), np.sin(t)])


def floating_body(P: Polygon, delta: float, m: int = DEFAULT_RAYS) -> Polygon:
    """Intersection of P and the m halfplanes {<u, x> <= beta} whose chords
    cut off delta * area(P); an outer approximation of the floating body.

    On P moved to centroid 0 and diameter 1, beta is the root on (0, h(u))
    of delta * area - C, with C the area of the cap {<u, x> >= beta} by
    Green's formula and the chord length as the slope.  The halfplanes meet
    in the polar of the hull of the points u / beta and of P's polar.
    """
    if not 0.0 <= delta < 4.0 / 9.0:
        raise BadParams(f"floating body needs 0 <= delta < 4/9, got {delta}")
    if m < 64:
        raise BadParams("need at least 64 directions")
    if delta == 0.0:
        return P
    verts, d, g = _normalize(P)
    vx, vy = verts.T
    ex, ey = (kernels._successors(verts) - verts).T
    # edge i adds cross(v_i, v_i+1) times its share in the cap
    cross = vx * ey - vy * ex
    target = delta * 0.5 * cross.sum()

    def field(X, U):
        ux, uy = U[:, :1], U[:, 1:]
        beta = X[:, :1] * ux + X[:, 1:] * uy
        h = vx * ux + vy * uy - beta
        inside = h >= 0.0
        into = np.concatenate((inside[:, 1:], inside[:, :1]), axis=1)
        # the chord runs from where the boundary leaves the cap to where it
        # enters, along -u turned by 90 degrees, and adds -beta * L
        with np.errstate(divide="ignore", invalid="ignore"):
            t = h / (h - np.concatenate((h[:, 1:], h[:, :1]), axis=1))
            share = np.where(inside, np.where(into, 1.0, t), np.where(into, 1.0 - t, 0.0))
            s = np.where(inside != into, (vy + t * ey) * ux - (vx + t * ex) * uy, 0.0)
        L = np.where(inside, s, -s).sum(axis=1)
        return target - 0.5 * ((cross * share).sum(axis=1) - beta[:, 0] * L), L

    dirs = _unit_grid(m)
    beta, _ = _ray_roots(field, np.zeros_like(dirs), dirs,
                         lambda s: (vx * dirs[s, :1] + vy * dirs[s, 1:]).max(axis=1),
                         len(verts))
    try:
        hull = canonicalize(np.vstack([dirs / beta[:, None],
                                       kernels.polar_vertices(verts, 0.0, 0.0)]))
        return canonicalize(g + d * kernels.polar_vertices(hull.vertices, 0.0, 0.0))
    except DegenerateInput as exc:
        raise EmptyResult(f"floating body degenerate at delta={delta}") from exc


def illumination_body(P: Polygon, delta: float, m: int = DEFAULT_RAYS) -> Polygon:
    """Hull of the ray crossings of |conv(x, P)| = (1 + delta) area(P), on m
    grid rays and one ray through each vertex from the centroid.

    On P moved to centroid 0 and diameter 1, x adds a triangle of area
    s_i / 2 over each edge i it sees, s_i = <a_i, x> - b_i > 0, a_i the
    edge turned by -90 degrees: affine in x while the seen edges stay.
    """
    if not 0.0 <= delta < np.inf:
        raise BadParams(f"illumination body needs a finite delta >= 0, got {delta}")
    if m < 64:
        raise BadParams("need at least 64 rays")
    if delta == 0.0:
        return P
    verts, d, g = _normalize(P)
    ex, ey = (kernels._successors(verts) - verts).T
    b = ey * verts[:, 0] - ex * verts[:, 1]
    target = delta * 0.5 * b.sum()

    def field(X, U):
        s = X[:, :1] * ey - X[:, 1:] * ex - b
        slope = np.where(s > 0.0, U[:, :1] * ey - U[:, 1:] * ex, 0.0)
        return 0.5 * np.maximum(s, 0.0).sum(axis=1) - target, 0.5 * slope.sum(axis=1)

    def upper(s):
        # the diameter reaches past the boundary; double it past the root
        U = dirs[s]
        hi = np.ones(len(U))
        while (low := field(hi[:, None] * U, U)[0] < 0.0).any():
            hi[low] *= 2.0
        return hi

    # rays through the vertices keep P inside the output hull
    dirs = np.vstack([_unit_grid(m), verts / np.hypot(verts[:, :1], verts[:, 1:])])
    tau, _ = _ray_roots(field, np.zeros_like(dirs), dirs, upper, len(verts))
    return canonicalize(g + d * (tau[:, None] * dirs))


def _region(Q: Polygon, origin: np.ndarray, m: int, field, per_ray: int) -> np.ndarray:
    """The m ray crossings of ``field``'s level set about ``origin`` in Q,
    each bracketed by the boundary of Q; ``field``'s arrays hold
    ``per_ray`` entries per ray (see ``points._ray_roots``)."""
    normals, offsets = edge_normals(Q)
    room = offsets - normals @ origin

    def exits(s):
        den = dirs[s, :1] * normals[:, 0] + dirs[s, 1:] * normals[:, 1]
        with np.errstate(divide="ignore"):
            return np.where(den > 1e-14, room / den, np.inf).min(axis=1)

    dirs = _unit_grid(m)
    tau, _ = _ray_roots(field, np.broadcast_to(origin, dirs.shape), dirs, exits, per_ray)
    return origin + tau[:, None] * dirs


def santalo_region(P: Polygon, c: float, m: int = DEFAULT_RAYS) -> Polygon:
    """Sublevel region of the polar area at (1 + c) times its minimum.

    Each ray's crossing is the root of log V - log target, from the closed
    form of the polar area V and its gradient (``kernels.polar_areas``).
    """
    if not 0.0 < c < np.inf:
        raise BadParams(f"need a finite c > 0, got {c}")
    verts, d, g = _normalize(P)
    Q = Polygon(verts)
    s = (eval_point(PointFunction("santalo"), P).value - g) / d
    log_target = np.log1p(c) + np.log(kernels.polar_areas(Q.vertices, s[None])[0][0])

    def field(X, U):
        V, grad = kernels.polar_areas(Q.vertices, X)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(V) - log_target, (grad * U).sum(axis=1) / V

    return canonicalize(g + d * _region(Q, s, m, field, Q.n))


def john_region(P: Polygon, c: float, m: int = DEFAULT_RAYS) -> Polygon:
    """Superlevel region of the inscribed-ellipse area field at c times max.

    Each ray's crossing is the root of log target - log f, with f and its
    exact envelope-theorem slope from the batched fixed-center John field
    (``ellipses._centered_john``), which solves each ray's pools of
    FIELD_POOL constraints from their pairs and triples.
    """
    if not 0.0 < c < 1.0:
        raise BadParams(f"need 0 < c < 1, got {c}")
    verts, d, g = _normalize(P)
    Q = Polygon(verts)
    A, b = edge_normals(Q)
    j = (eval_point(PointFunction("john"), P).value - g) / d
    log_target = np.log(c * _centered_john(A, b, j)[0][0])

    def field(X, U):
        det, grad = _centered_john(A, b, X)
        with np.errstate(divide="ignore"):
            return log_target - np.log(det), -(grad * U).sum(axis=1)

    # per ray, the field's arrays hold n slacks, and FIELD_POOL pool slacks
    # of each of its candidates, the pool's pairs and triples
    per_ray = max(Q.n, len(_field_sets(FIELD_POOL)[0]) * FIELD_POOL)
    return canonicalize(g + d * _region(Q, j, m, field, per_ray))


def symcore_region(P: Polygon, c: float, m: int = DEFAULT_RAYS) -> Polygon:
    """Superlevel region of the reflected-overlap area at c times max.

    Each ray's crossing is the root of log target - log A, with A and its
    exact gradient from ``points._overlap_model``, whose arrays hold n^2
    entries per ray.
    """
    if not 0.0 < c < 1.0:
        raise BadParams(f"need 0 < c < 1, got {c}")
    # the overlap model of P moved to centroid 0 and diameter 1, built once:
    # A and the target scale alike, so the comparison is that of P's areas
    verts, d, g = _normalize(P)
    Q = Polygon(verts)
    f, _ = _overlap_model(Q)
    m0 = (eval_point(PointFunction("symcore"), P).value - g) / d
    log_target = np.log(c * f(m0[None])[0][0])

    def field(X, U):
        area, grad, _ = f(X)
        with np.errstate(divide="ignore", invalid="ignore"):
            return log_target - np.log(area), -(grad * U).sum(axis=1) / area

    return canonicalize(g + d * _region(Q, m0, m, field, Q.n ** 2))
