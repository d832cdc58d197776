import numpy as np
import pytest

from affpoints import _polyops_py as kernels
from affpoints import duality, points
from affpoints.bodies import random_body, random_map
from affpoints.ellipses import john_ellipse, max_centered_area
from affpoints.errors import BadParams, EmptyResult
from affpoints.points import _overlap_model, santalo_point, symcore_point
from affpoints.regions import (
    DEFAULT_RAYS,
    _unit_grid,
    floating_body,
    illumination_body,
    john_region,
    santalo_region,
    symcore_region,
)
from affpoints.polygons import (
    Polygon,
    affine_apply,
    canonicalize,
    edge_normals,
    hausdorff,
    support,
)
from conftest import overlap_area, random_bodies


# the per-ray loops the batched root-finder replaced, kept as oracles
def _cap_area(verts: np.ndarray, nx: float, ny: float, off: float) -> float:
    """Area of {x : <n, x> >= off} intersected with the polygon."""
    cap = kernels.clip_halfplane(verts, -nx, -ny, -off)
    if len(cap) == 0:
        return 0.0
    return kernels.area_centroid(cap)[0]


def _ray_exit(P: Polygon, x: np.ndarray, u: np.ndarray) -> float:
    """Distance from interior x to the boundary along direction u."""
    normals, offsets = edge_normals(P)
    num = offsets - normals @ x
    den = normals @ u
    mask = den > 1e-14
    return float(np.min(num[mask] / den[mask]))


def _floating_loop(P: Polygon, delta: float, m: int = DEFAULT_RAYS) -> Polygon:
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
            if _cap_area(pv, ux, uy, mid) > target:
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


def _illumination_loop(P: Polygon, delta: float, m: int = DEFAULT_RAYS) -> Polygon:
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


class TestFloating:
    def test_zero_delta(self, square):
        assert floating_body(square, 0.0) is square

    def test_square_chord_offset(self, square):
        F = floating_body(square, 1 / 8, 256)
        # along an axis the cutting chord sits at 1 - 2*delta
        assert support(F, (1.0, 0.0)) <= 1 - 2 * (1 / 8) + 1e-10
        assert F.contains((0.0, 0.0))
        assert all(square.contains(v, tol=1e-10) for v in F.vertices)

    def test_monotone_in_delta(self, triangle):
        F1 = floating_body(triangle, 0.02, 128)
        F2 = floating_body(triangle, 0.08, 128)
        assert all(F1.contains(v, tol=1e-9) for v in F2.vertices)

    def test_bad_delta(self, square):
        with pytest.raises(BadParams):
            floating_body(square, 0.5)


class TestIllumination:
    def test_zero_delta(self, square):
        assert illumination_body(square, 0.0) is square

    def test_square_axis_point(self, square):
        I = illumination_body(square, 0.07, 256)
        # apex at (1 + t, 0) adds a triangle of area t, so t = 4 * delta
        assert support(I, (1.0, 0.0)) == pytest.approx(1 + 4 * 0.07, abs=1e-3)

    def test_contains_body(self):
        for P in random_bodies(5, 81):
            I = illumination_body(P, 0.05, 128)
            assert all(I.contains(v, tol=1e-9 * P.diameter) for v in P.vertices)

    def test_monotone_in_delta(self, triangle):
        I1 = illumination_body(triangle, 0.02, 128)
        I2 = illumination_body(triangle, 0.08, 128)
        assert all(I2.contains(v, tol=1e-9) for v in I1.vertices)


class TestSandwich:
    def test_floating_inside_illumination(self):
        for P in random_bodies(5, 82):
            F = floating_body(P, 0.05, 128)
            I = illumination_body(P, 0.05, 128)
            tol = 1e-9 * P.diameter
            assert all(P.contains(v, tol=tol) for v in F.vertices)
            assert all(I.contains(v, tol=tol) for v in P.vertices)


class TestSantaloRegion:
    def test_contains_center_and_shrinks(self, square):
        S = santalo_region(square, 1e-4, 128)
        assert S.contains(santalo_point(square).value)
        assert S.diameter < 0.1 * square.diameter

    def test_convexity_probe(self, triangle):
        S = santalo_region(triangle, 0.5, 64)
        v = S.vertices
        mids = 0.5 * (v + np.roll(v, -1, axis=0))
        from affpoints.polygons import polar_about
        s = santalo_point(triangle).value
        target = (1 + 0.5) * polar_about(triangle, s).area
        for x in mids:
            assert polar_about(triangle, x).area <= target * (1 + 1e-6)

    def test_scale_relative(self):
        # ray points of a small body are interior points, not boundary ones
        P = random_body(8, 3)
        R = santalo_region(P, 1.2, 16)
        for s in (1e-4, 1e4):
            Rs = santalo_region(Polygon(P.vertices * s), 1.2, 16)
            assert hausdorff(canonicalize(Rs.vertices / s), R) <= 1e-9 * P.diameter


class TestJohnRegion:
    def test_square_symmetric(self, square):
        J = john_region(square, 0.5, 64)
        Jr = canonicalize(-J.vertices)
        assert hausdorff(J, Jr) < 2 * np.pi / 64 * square.diameter

    def test_collapse_near_one(self, square):
        J = john_region(square, 0.999, 64)
        assert J.diameter < 0.1 * square.diameter

    def test_vertices_on_level_set(self):
        # every ray crossing lies on {f = c f(j)}, with f evaluated in full
        for P in random_bodies(2, 84):
            target = 0.5 * max_centered_area(P, john_ellipse(P).center)
            J = john_region(P, 0.5, 16)
            for v in J.vertices:
                assert abs(max_centered_area(P, v) / target - 1.0) <= 1e-6

    def test_scale_relative(self):
        P = random_body(8, 3)
        R = john_region(P, 0.5, 16)
        for s in (1e-4, 1e4):
            Rs = john_region(Polygon(P.vertices * s), 0.5, 16)
            assert hausdorff(canonicalize(Rs.vertices / s), R) <= 1e-9 * P.diameter


class TestSymcoreRegion:
    def test_square_symmetric(self, square):
        M = symcore_region(square, 0.5, 128)
        Mr = canonicalize(-M.vertices)
        assert hausdorff(M, Mr) < 2 * np.pi / 128 * square.diameter

    def test_collapse_near_one(self, triangle):
        M = symcore_region(triangle, 0.999, 64)
        m0 = symcore_point(triangle).value
        assert M.contains(m0, tol=1e-6)
        assert M.diameter < 0.15 * triangle.diameter

    def test_scale_relative(self):
        P = random_body(8, 3)
        R = symcore_region(P, 0.5, 16)
        for s in (1e-4, 1e4):
            Rs = symcore_region(Polygon(P.vertices * s), 0.5, 16)
            assert hausdorff(canonicalize(Rs.vertices / s), R) <= 1e-9 * P.diameter

    def test_predicate_matches_clipping(self):
        # the region's overlap model against the clipping overlap_area: the
        # areas at its ray points, and the region the clipping predicate gives
        for P in random_bodies(3, 91):
            g, d = P.centroid, P.diameter
            f, _ = _overlap_model(Polygon((P.vertices - g) / d))
            m0 = symcore_point(P).value
            R = symcore_region(P, 0.5, 16)
            for x in np.vstack([R.vertices, m0]):
                assert abs(f(((x - g) / d)[None])[0][0] * d * d - overlap_area(P, x)) \
                    <= 1e-12 * P.area
            target = 0.5 * overlap_area(P, m0)
            ref = _ray_region(P, m0, 16, lambda x: overlap_area(P, x) < target,
                              1e-9 * d)
            assert hausdorff(R, ref) <= 1e-8 * d


class TestRayRoots:
    def test_blocks_match_one_block(self, monkeypatch):
        # each ray's root depends on that ray alone: blocks of 1 and 5 rays
        # give the very output of one block
        P = random_body(9, 85)
        # each map with its field's array entries per ray
        maps = [(lambda: santalo_region(P, 0.3, 12), P.n),
                (lambda: john_region(P, 0.5, 12), P.n),
                (lambda: symcore_region(P, 0.5, 12), P.n ** 2),
                (lambda: floating_body(P, 0.1, 64), P.n),
                # at delta = 1, 20 of the 64 grid rays double their bracket
                (lambda: illumination_body(P, 1.0, 64), P.n)]
        whole = [fn().vertices for fn, _ in maps]
        for rows in (1, 5):
            for (fn, per_ray), ref in zip(maps, whole):
                monkeypatch.setattr(points, "RAY_BLOCK", rows * per_ray)
                assert np.array_equal(fn().vertices, ref)


# the two regions roster shapes, at the workload's parameters, and the
# 20 bodies of acceptance criterion 8
ORACLE_CASES = ([(P, 0.1, 64) for P in duality.random_polygons(2, 2013)]
                + [(random_body(int(5 + i % 12), 2000 + i), 0.05, 128) for i in range(20)])


class TestOracles:
    @pytest.mark.parametrize("new, loop", [(floating_body, _floating_loop),
                                           (illumination_body, _illumination_loop)],
                             ids=["floating", "illumination"])
    def test_matches_per_ray_loop(self, new, loop):
        # the loops bisect to 1e-12 diam; Newton lands at rounding
        for P, delta, m in ORACLE_CASES:
            R, ref = new(P, delta, m), loop(P, delta, m)
            assert R.n == ref.n
            assert hausdorff(R, ref) <= 1e-11 * P.diameter


class TestEquivariance:
    # full-resolution equivariance is covered by the acceptance suite;
    # here a coarse grid keeps the unit tests quick
    def test_all_maps(self):
        rng = np.random.default_rng(83)
        P = random_body(8, 12, affine=False)
        T = random_map(rng)
        Q = affine_apply(T, P)
        budget = 2 * (2 * np.pi / 64) * Q.diameter
        cases = [
            (lambda B: floating_body(B, 0.05, 64), 1.0),
            (lambda B: illumination_body(B, 0.1, 64), 1.0),
            (lambda B: santalo_region(B, 0.3, 64), 1.0),
            (lambda B: john_region(B, 0.5, 64), 1.0),
            (lambda B: symcore_region(B, 0.5, 64), 1.0),
        ]
        for fn, scale in cases:
            d = hausdorff(fn(Q), affine_apply(T, fn(P)))
            assert d < budget * scale
