"""Exact 2D convex polygon algebra.

Polygons are immutable vertex lists in canonical form: strictly convex,
counter-clockwise, first vertex lexicographically smallest.  All operations
are pure functions; the hot kernels live in ``_polyops_py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _polyops_py as kernels
from .errors import DegenerateInput, PointNotInterior, ShiftOutOfRange, SingularMap

EPS_GEOM = 1e-10
# Empty-polygon threshold, scaled by diam^2 at the call sites that need it.
EPS_AREA = 1e-14
HAUSDORFF_GRID = 4096


@dataclass(frozen=True)
class Polygon:
    """Convex polygon in canonical CCW vertex form."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "vertices", v)
        v.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def area(self) -> float:
        return kernels.area_centroid(self.vertices)[0]

    @property
    def centroid(self) -> np.ndarray:
        _, cx, cy = kernels.area_centroid(self.vertices)
        return np.array([cx, cy])

    @property
    def diameter(self) -> float:
        v = self.vertices
        d = v[:, None, :] - v[None, :, :]
        return float(np.sqrt((d * d).sum(axis=2)).max())

    def contains(self, x, tol: float = 0.0) -> bool:
        normals, offsets = edge_normals(self)
        return bool(np.all(normals @ np.asarray(x, dtype=float) <= offsets + tol))

    def translate(self, b) -> "Polygon":
        return Polygon(self.vertices + np.asarray(b, dtype=float))


@dataclass(frozen=True)
class AffineMap:
    """Nonsingular affine map x -> matrix @ x + translation."""

    matrix: np.ndarray
    translation: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))
        if abs(np.linalg.det(self.matrix)) <= EPS_GEOM:
            raise SingularMap(f"determinant {np.linalg.det(self.matrix)!r} too small")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return x @ self.matrix.T + self.translation

    def inverse(self) -> "AffineMap":
        inv = np.linalg.inv(self.matrix)
        return AffineMap(inv, -inv @ self.translation)

    def adjoint_inverse(self) -> "AffineMap":
        """Linear map T*^-1 (translation dropped), as in the polar adjoint law."""
        return AffineMap(np.linalg.inv(self.matrix.T))

    @staticmethod
    def identity() -> "AffineMap":
        return AffineMap(np.eye(2))


@dataclass(frozen=True)
class Halfplane:
    """The set {x : <normal, x> <= offset} with a unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self) -> None:
        a = np.asarray(self.normal, dtype=float)
        object.__setattr__(self, "normal", a)
        if abs(np.linalg.norm(a) - 1.0) > 1e-7:
            raise DegenerateInput(f"halfplane normal {a} is not unit length")


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew monotone chain; returns CCW hull without the repeated endpoint."""
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(np.diff(pts, axis=0) != 0.0, axis=1)
    pts = pts[keep]
    if len(pts) < 3:
        return pts

    def half(seq):
        out: list[np.ndarray] = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0.0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.asarray(lower[:-1] + upper[:-1])


def _drop_collinear(verts: np.ndarray, scale: float) -> np.ndarray:
    tol = EPS_GEOM * scale * scale
    n = len(verts)
    prev = np.roll(verts, 1, axis=0)
    nxt = np.roll(verts, -1, axis=0)
    a = verts - prev
    b = nxt - verts
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    keep = cross > tol
    return verts[keep] if keep.sum() >= 3 else verts


def canonicalize(points) -> Polygon:
    """Convex hull in canonical form; idempotent on canonical polygons."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 3:
        raise DegenerateInput("need at least 3 points")
    scale = max(float(np.abs(pts).max()), 1e-300)
    hull = _convex_hull(pts)
    if len(hull) >= 3:
        hull = _drop_collinear(hull, scale)
    if len(hull) < 3 or abs(kernels.area_centroid(hull)[0]) <= EPS_AREA * scale * scale:
        raise DegenerateInput("points are collinear or coincident")
    start = int(np.lexsort((hull[:, 1], hull[:, 0]))[0])
    return Polygon(np.roll(hull, -start, axis=0))


def area_centroid(P: Polygon) -> tuple[float, np.ndarray]:
    a, cx, cy = kernels.area_centroid(P.vertices)
    return a, np.array([cx, cy])


def support(P: Polygon, u) -> float:
    u = np.asarray(u, dtype=float)
    return kernels.support(P.vertices, float(u[0]), float(u[1]))


def edge_normals(P: Polygon) -> tuple[np.ndarray, np.ndarray]:
    """Unit outward normals and offsets: P = {x : normals @ x <= offsets}."""
    v = P.vertices
    e = np.roll(v, -1, axis=0) - v
    normals = np.column_stack([e[:, 1], -e[:, 0]])
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    offsets = np.einsum("ij,ij->i", normals, v)
    return normals, offsets


def interior_margin(P: Polygon, z) -> float:
    """Signed distance from z to the boundary (positive inside)."""
    normals, offsets = edge_normals(P)
    return float(np.min(offsets - normals @ np.asarray(z, dtype=float)))


def polar_about(P: Polygon, z, translate: bool = False) -> Polygon:
    """The polar (P - z)°; with ``translate=True`` returns P^z = (P - z)° + z."""
    z = np.asarray(z, dtype=float)
    if interior_margin(P, z) <= EPS_GEOM:
        raise PointNotInterior(f"point {z} not interior to polygon with margin")
    dual = kernels.polar_vertices(P.vertices, float(z[0]), float(z[1]))
    Q = canonicalize(dual)
    return Q.translate(z) if translate else Q


def clip_halfplane(P: Polygon, h: Halfplane) -> Polygon | None:
    """P intersected with {<a, x> <= beta}; None when (numerically) empty."""
    clipped = kernels.clip_halfplane(
        P.vertices, float(h.normal[0]), float(h.normal[1]), float(h.offset)
    )
    if len(clipped) < 3:
        return None
    scale = P.diameter
    try:
        Q = canonicalize(clipped)
    except DegenerateInput:
        return None
    if Q.area <= EPS_AREA * scale * scale:
        return None
    return Q


def intersect(P: Polygon, Q: Polygon) -> Polygon | None:
    verts = P.vertices
    normals, offsets = edge_normals(Q)
    for (nx, ny), off in zip(normals, offsets):
        verts = kernels.clip_halfplane(verts, float(nx), float(ny), float(off))
        if len(verts) < 3:
            return None
    scale = max(P.diameter, Q.diameter)
    try:
        R = canonicalize(verts)
    except DegenerateInput:
        return None
    if R.area <= EPS_AREA * scale * scale:
        return None
    return R


def affine_apply(T: AffineMap, P: Polygon) -> Polygon:
    return canonicalize(T(P.vertices))


def _hausdorff_directions(P: Polygon, Q: Polygon) -> np.ndarray:
    angles = np.linspace(0.0, 2.0 * np.pi, HAUSDORFF_GRID, endpoint=False)
    grid = np.column_stack([np.cos(angles), np.sin(angles)])
    parts = [grid]
    for body in (P, Q):
        normals, _ = edge_normals(body)
        parts.append(normals)
        v = body.vertices
        norms = np.linalg.norm(v, axis=1)
        good = norms > EPS_GEOM
        if good.any():
            parts.append(v[good] / norms[good, None])
    return np.vstack(parts)


def hausdorff(P: Polygon, Q: Polygon) -> float:
    dirs = _hausdorff_directions(P, Q)
    hp = kernels.supports(P.vertices, dirs)
    hq = kernels.supports(Q.vertices, dirs)
    return float(np.abs(hp - hq).max())


def k_sub_z(P: Polygon, z) -> Polygon:
    """Projective shift {x / (1 - <x, z>) : x in P}; requires z in int(P°)."""
    z = np.asarray(z, dtype=float)
    if interior_margin(P, np.zeros(2)) <= EPS_GEOM:
        raise PointNotInterior("origin must be interior to the polygon")
    if support(P, z) >= 1.0 - EPS_GEOM:
        raise ShiftOutOfRange(f"<x, z> reaches {support(P, z)} on the polygon")
    shifted = kernels.shift_vertices(P.vertices, float(z[0]), float(z[1]))
    return canonicalize(shifted)
