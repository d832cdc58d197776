"""Exact 2D convex polygon algebra.

Polygons are immutable vertex lists in canonical form: strictly convex,
counter-clockwise, first vertex lexicographically smallest.  All operations
are pure functions; the hot kernels live in ``_polyops_py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _polyops_py as kernels
from .errors import DegenerateInput, PointNotInterior, ShiftOutOfRange, SingularMap

EPS_GEOM = 1e-10
# Empty-polygon threshold, scaled by diam^2 at the call sites that need it.
EPS_AREA = 1e-14


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
        return self._area_centroid()[0]

    @property
    def centroid(self) -> np.ndarray:
        """The centroid, computed once per polygon with the area (the
        vertices are read-only), and read-only itself."""
        return self._area_centroid()[1]

    def _area_centroid(self) -> tuple[float, np.ndarray]:
        ac = self.__dict__.get("_ac")
        if ac is None:
            a, cx, cy = kernels.area_centroid(self.vertices)
            g = np.array([cx, cy])
            g.setflags(write=False)
            ac = (a, g)
            object.__setattr__(self, "_ac", ac)
        return ac

    @property
    def diameter(self) -> float:
        """Largest vertex distance, computed once per polygon (the vertices
        are read-only), as the largest antipodal pair (rotating calipers,
        Shamos 1978).

        A farthest pair (p, q) is antipodal: u = (p - q)/|p - q| lies in p's
        normal cone and -u in q's, and the directions where both hold form
        an arc that begins at a normal of p's or of q's incoming edge.  So
        the pairs to test are, for each edge i, its end v[i+1] and the
        supporting vertex in -a_i.  Were u within delta of a cone's edge at
        edge e, p's neighbour along e would lie farther from q unless
        sin delta >= |e| / (2 diam): ``canonicalize``'s keep floor puts that
        margin near 1e-10 rad, far above arctan2's rounding.  Where edges i
        and j are antiparallel to rounding, one of a_i -+ pi and a_j -+ pi
        is exact (Sterbenz) and the other correctly rounded, so the tests
        from edge i and from edge j cannot both miss.  Each pair is computed
        as a scan of all pairs computes it: the result is that scan's to the
        bit.
        """
        d = self.__dict__.get("_diameter")
        if d is None:
            v = self.vertices
            w = np.concatenate((v[1:], v[:1]))  # edge i ends at w[i]
            e = w - v
            a = np.arctan2(-e[:, 0], e[:, 1])  # outward normal angles
            b = np.where(a > 0.0, a - np.pi, a + np.pi)  # -P's normals
            e = w - _supporting(v, b, a)
            # sqrt is correctly rounded, so monotone: the root of the largest
            # square is the largest root
            d = math.sqrt(float((e * e).sum(axis=1).max()))
            object.__setattr__(self, "_diameter", d)
        return d

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
        # |det M| / ||M||_F^2 lies in [1/(2 cond M), 1/cond M]: a test of shape, not scale
        det = np.linalg.det(self.matrix)
        if abs(det) <= EPS_GEOM * float(np.sum(self.matrix * self.matrix)):
            raise SingularMap(f"determinant {det!r} too small")

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
    # the loop runs on Python floats, which round as float64 does, but
    # without numpy's cost per scalar
    pts = pts.tolist()

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


def _turns(verts: np.ndarray):
    """Edges e_i = v_i+1 - v_i, and the cross product of e_i-1 and e_i at
    each vertex."""
    e = np.concatenate((verts[1:], verts[:1])) - verts
    a = np.concatenate((e[-1:], e[:-1]))
    return e, a[:, 0] * e[:, 1] - a[:, 1] * e[:, 0]


def _keep_bound(e: np.ndarray, floor: float) -> np.ndarray:
    """The keep test's bound on the cross at each vertex, floor times the
    summed length of its two edges.

    The cross over |e_i-1| + |e_i| is the height of the vertex over the
    chord of its neighbours to within a factor sqrt(2), for turns up to 90
    degrees: the test keeps a vertex that stands off that chord by more
    than about ``floor``, whatever the placement of the body or the number
    of its edges.  A turn at an edge a few ulps long, as a clip through a
    vertex leaves, fails it.
    """
    lengths = np.hypot(e[:, 0], e[:, 1])
    return floor * (np.concatenate((lengths[-1:], lengths[:-1])) + lengths)


def _drop_collinear(verts: np.ndarray, floor: float) -> np.ndarray:
    # a clip through a vertex leaves an edge a few ulps long, and both its
    # ends would fail the turn test: first merge each vertex that lies
    # within the floor of its predecessor into it
    e, _ = _turns(verts)
    near = np.hypot(e[:, 0], e[:, 1]) <= floor
    if len(verts) - near.sum() >= 3:
        verts = verts[~np.roll(near, 1)]
    e, cross = _turns(verts)
    keep = cross > _keep_bound(e, floor)
    return verts[keep] if keep.sum() >= 3 else verts


def _convex_cycle(pts: np.ndarray, floor: float) -> np.ndarray | None:
    """pts in CCW order if they are a cycle whose every turn passes the
    keep test, all one way, and that winds once; otherwise None.

    Reversing the cycle negates each cross product exactly, so a clockwise
    cycle passes the test as its reversal would.
    """
    e, cross = _turns(pts)
    if cross.max() < 0.0:
        cross, pts = -cross, pts[::-1]
    elif not cross.min() > 0.0:
        return None
    if not (cross > _keep_bound(e, floor)).all():
        return None
    a = np.concatenate((e[-1:], e[:-1]))
    # the turns, all one way and each below pi, add up to 2 pi times the
    # winding number
    if np.arctan2(cross, a[:, 0] * e[:, 0] + a[:, 1] * e[:, 1]).sum() >= 3.0 * np.pi:
        return None
    return pts


def canonicalize(points) -> Polygon:
    """Convex hull in canonical form; idempotent on canonical polygons.

    A strictly convex cycle that winds once, in either orientation, is only
    reversed if clockwise and rolled to its first vertex; ``affine_apply``
    and the polar, clip and shift kernels give such cycles.  Each turn of
    it passes the keep test, whose bound lies some 1e5 times above the
    rounding of the monotone chain's cross products, so the chain would
    keep every vertex in the same order: the result is the chain's to the
    bit.  Any other input goes through the monotone chain; then each vertex
    within the floor of its predecessor merges into it, and each vertex
    that fails the keep test is dropped.  The keep test's floor is
    EPS_GEOM of the extent of the points, and a hull whose area is at most
    EPS_AREA times the squared extent is degenerate.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 3:
        raise DegenerateInput("need at least 3 points")
    if not np.isfinite(pts).all():
        raise DegenerateInput("coordinates must be finite")
    # the hull has the extent of pts; the keep and degeneracy tests are
    # relative to it, so neither depends on where the points lie
    extent = float(np.ptp(pts, axis=0).max())
    floor = EPS_GEOM * extent
    hull = _convex_cycle(pts, floor)
    if hull is None:
        hull = _convex_hull(pts)
        if len(hull) >= 3:
            hull = _drop_collinear(hull, floor)
    if len(hull) < 3:
        raise DegenerateInput("points are collinear or coincident")
    start = int(np.lexsort((hull[:, 1], hull[:, 0]))[0])
    P = Polygon(np.roll(hull, -start, axis=0))
    # the area that the polygon keeps, so the kernel runs once per hull
    if abs(P.area) <= EPS_AREA * extent * extent:
        raise DegenerateInput("points are collinear or coincident")
    return P


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
    if interior_margin(P, z) <= EPS_GEOM * P.diameter:
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


def _supporting(v: np.ndarray, a: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The supporting vertex, among v, on each arc of a normal fan whose
    arcs begin at the angles ``start``: the end of the edge whose normal
    angle in a comes last at or before the arc's start.
    Index -1 wraps round to the edge of largest angle."""
    e = np.argsort(a)
    return v[(e[np.searchsorted(a[e], start, side="right") - 1] + 1) % len(v)]


def hausdorff(P: Polygon, Q: Polygon) -> float:
    """Exact Hausdorff distance, the largest |h_P - h_Q| over unit u
    (Schneider, *Convex Bodies*, Lemma 1.8.14), by merging the two normal
    fans (Atallah 1983).

    On each arc between consecutive edge normals of either polygon, P has
    one supporting vertex p and Q one q (``_supporting``), and
    h_P - h_Q = <p - q, u>.  Its modulus peaks at |p - q| if +-(p - q)
    points into the arc (arcs are shorter than pi), else at an end of the
    arc.  The ends are the unit normals themselves, so axis-aligned edges
    stay exact; identical polygons give exactly 0.
    """
    fans = [edge_normals(B)[0] for B in (P, Q)]
    angles = [np.arctan2(N[:, 1], N[:, 0]) for N in fans]
    start = np.concatenate(angles)
    order = np.argsort(start)
    start, U = start[order], np.vstack(fans)[order]
    d = (_supporting(P.vertices, angles[0], start)
         - _supporting(Q.vertices, angles[1], start))
    U1 = np.roll(U, -1, axis=0)
    c0 = U[:, 0] * d[:, 1] - U[:, 1] * d[:, 0]
    c1 = d[:, 0] * U1[:, 1] - d[:, 1] * U1[:, 0]
    inside = ((c0 >= 0.0) & (c1 >= 0.0)) | ((c0 <= 0.0) & (c1 <= 0.0))
    ends = np.maximum(np.abs((d * U).sum(axis=1)), np.abs((d * U1).sum(axis=1)))
    return float(np.where(inside, np.hypot(d[:, 0], d[:, 1]), ends).max())


def k_sub_z(P: Polygon, z) -> Polygon:
    """Projective shift {x / (1 - <x, z>) : x in P}; requires z in int(P°)."""
    z = np.asarray(z, dtype=float)
    if interior_margin(P, np.zeros(2)) <= EPS_GEOM * P.diameter:
        raise PointNotInterior("origin must be interior to the polygon")
    if support(P, z) >= 1.0 - EPS_GEOM:
        raise ShiftOutOfRange(f"<x, z> reaches {support(P, z)} on the polygon")
    shifted = kernels.shift_vertices(P.vertices, float(z[0]), float(z[1]))
    return canonicalize(shifted)
