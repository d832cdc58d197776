import numpy as np
import pytest

from affpoints import _polyops_py as kernels
from affpoints.bodies import b_eta, body_kab, ngon, random_body, random_map
from affpoints.duality import random_polygons
from affpoints.ellipses import _whiten
from affpoints.errors import (
    DegenerateInput,
    PointNotInterior,
    ShiftOutOfRange,
    SingularMap,
)
from affpoints.polygons import (
    EPS_GEOM,
    AffineMap,
    Halfplane,
    Polygon,
    _convex_cycle,
    _convex_hull,
    _drop_collinear,
    affine_apply,
    canonicalize,
    clip_halfplane,
    hausdorff,
    interior_margin,
    intersect,
    k_sub_z,
    polar_about,
    support,
)
from conftest import limacon, random_bodies


class TestCanonicalize:
    def test_square_relabeling(self):
        P = canonicalize([(1, 1), (-1, 1), (-1, -1), (1, -1)])
        assert P.n == 4
        assert np.allclose(P.vertices[0], (-1, -1))

    def test_collinear_midpoint_dropped(self):
        P = canonicalize([(1, 1), (-1, 1), (-1, -1), (1, -1), (1, 0)])
        assert P.n == 4

    def test_idempotent(self):
        P = canonicalize(np.random.default_rng(0).random((10, 2)))
        Q = canonicalize(P.vertices)
        assert np.allclose(P.vertices, Q.vertices)

    def test_hull_vertices_extreme(self):
        rng = np.random.default_rng(7)
        r = np.sqrt(rng.random(50))
        t = 2 * np.pi * rng.random(50)
        pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
        P = canonicalize(pts)
        v = P.vertices
        # every retained vertex is strictly outside the hull of the others
        for i in range(P.n):
            rest = canonicalize(np.delete(v, i, axis=0)) if P.n > 3 else None
            if rest is not None:
                assert not rest.contains(v[i], tol=-1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInput):
            canonicalize([(0, 0), (1, 1), (2, 2)])

    def test_far_from_the_origin(self):
        # the degeneracy test is relative to the extent of the points, not
        # to their largest coordinate
        P = random_body(8, 3, affine=False)
        for off in (1e4, 1e5, 1e6, 1e7):
            shifted = P.vertices + off
            assert np.array_equal(canonicalize(shifted).vertices, shifted)
            with pytest.raises(DegenerateInput):
                canonicalize(off + np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]))

    def test_clip_through_a_vertex_keeps_its_corner(self):
        # the clip leaves an edge a few ulps long; its ends merge into one
        # vertex before the turn test, which dropped both and cut off 1.2%
        rng = np.random.default_rng(54)
        v = affine_apply(random_map(rng), canonicalize(limacon(256))).vertices
        u = np.array([0.6, 0.8])
        clipped = kernels.clip_halfplane(v, *u, float(v[7] @ u) * (1.0 + 2e-16))
        assert len(clipped) == 161
        Q = canonicalize(clipped)
        assert Q.n == 160
        assert Q.area == pytest.approx(kernels.area_centroid(clipped)[0], rel=1e-14)

    def test_keeps_vertices_of_a_squashed_limacon(self):
        # the fifth map has singular values 0.59 and 0.0124; an absolute
        # collinearity tolerance kept 515 of the 1024 vertices here
        rng = np.random.default_rng(53)
        T = [random_map(rng) for _ in range(5)][-1]
        assert canonicalize(T(limacon(1024))).n == 1024

    @staticmethod
    def _floor(pts):
        return EPS_GEOM * np.ptp(pts, axis=0).max()

    def _chain(self, pts):
        hull = _drop_collinear(_convex_hull(pts), self._floor(pts))
        return np.roll(hull, -int(np.lexsort((hull[:, 1], hull[:, 0]))[0]), axis=0)

    def test_convex_cycle_matches_monotone_chain(self):
        rng = np.random.default_rng(54)
        v = affine_apply(random_map(rng), canonicalize(limacon(256))).vertices
        e = v[1] - v[0]
        bent = [np.insert(v, 1, v[0] + 0.5 * e + h * np.array([e[1], -e[0]]), axis=0)
                for h in (1e-6, 1e-11)]
        # a clip through a vertex leaves an edge a few ulps long
        u = np.array([0.6, 0.8])
        clipped = kernels.clip_halfplane(v, *u, float(v[7] @ u) * (1.0 + 2e-16))
        cases = [(v[::-1], True), (np.roll(v, 77, axis=0), True),
                 (np.roll(v[::-1], 5, axis=0), True), (bent[0], True),
                 (bent[1], False), (clipped, False)]
        for pts, fast in cases:
            assert (_convex_cycle(pts, self._floor(pts)) is not None) == fast
            got = canonicalize(pts).vertices
            assert np.array_equal(got, self._chain(pts))
        assert canonicalize(bent[0]).n == 257
        assert canonicalize(bent[1]).n == 256

    def test_stream_producers_match_monotone_chain(self):
        rng = np.random.default_rng(55)
        for P in random_polygons(200, 56):
            g = P.centroid
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            outputs = [random_map(rng)(P.vertices),
                       kernels.polar_vertices(P.vertices, *g),
                       kernels.clip_halfplane(P.vertices, *u, float(g @ u)),
                       kernels.shift_vertices(P.vertices - g, *(0.2 * u / P.diameter))]
            for pts in outputs:
                assert np.array_equal(canonicalize(pts).vertices, self._chain(pts))

    def test_doubly_wound_star_falls_back_to_hull(self):
        t = 2.0 * np.pi * np.arange(5) / 5
        pentagon = np.column_stack([np.cos(t), np.sin(t)])
        for pts in (pentagon[[0, 2, 4, 1, 3]], np.vstack([pentagon, pentagon])):
            assert _convex_cycle(pts, self._floor(pts)) is None
            assert np.array_equal(canonicalize(pts).vertices,
                                  canonicalize(pentagon).vertices)


class TestAreaCentroid:
    def test_unit_square(self):
        P = canonicalize([(0, 0), (1, 0), (1, 1), (0, 1)])
        a, g = P.area, P.centroid
        assert a == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(g, (0.5, 0.5))

    def test_trapezoid_centered(self):
        g = body_kab(1.0, 2.0).centroid
        assert np.linalg.norm(g) < 1e-14

    def test_shifted_square_centroid(self):
        # projective shift of the square by (1/2, 0): centroid (8/9, 0)
        P = k_sub_z(canonicalize([(1, 1), (-1, 1), (-1, -1), (1, -1)]),
                    (0.5, 0.0))
        g = P.centroid
        assert np.allclose(g, (8.0 / 9.0, 0.0), atol=1e-13)


    def test_far_from_the_origin(self):
        # the sums run about the centre of the bounding box, so a move by
        # 1e7 changes the area only by the rounding of the moved coordinates
        # (a few 1e-9 apart): the area is that of the same vertices moved
        # back, whose differences are exact
        P = random_body(8, 3, affine=False)
        for off in (1e7, 1e8):
            moved = Polygon(P.vertices + off)
            back = Polygon(moved.vertices - off)
            assert moved.area == pytest.approx(back.area, rel=1e-12)
            # the centroid, rounded to the spacing of the floats there
            assert np.allclose(moved.centroid - off, back.centroid, rtol=0,
                               atol=np.spacing(off))
            assert canonicalize(moved.vertices).n == P.n
        assert Polygon(P.vertices + 1e7).area == pytest.approx(P.area, rel=1e-9)

    def test_mirror_symmetric_centroid_on_the_axis(self):
        # about the bounding-box centre, the terms of mirrored edges cancel
        # exactly; about the first vertex they did not, and the cap point of
        # the non-injectivity certificate moved off zero by 3e-13
        for eta in (0.25, 0.5, 0.7):
            assert b_eta(eta).centroid[1] == 0.0

    def test_scale_exact(self):
        # a scaling by 2^k is exact, and the kernel's sums run at unit
        # scale: the centroid of 2^k V is 2^k times V's to the bit for every
        # k that keeps V's coordinates and centroid normal (with a factor 4
        # to spare, for the bounding-box centre), and so is the area (4^k)
        # while it is representable.  Before, the cubic sums overflowed
        # past 1e102 (to -inf) and underflowed below 1e-102 (to the
        # bounding-box centre)
        bodies = [P.vertices for P in random_polygons(6, 3)]
        bodies += [np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), limacon(64)]
        for V in bodies:
            a, cx, cy = kernels.area_centroid(V)
            x = np.abs(np.append(V, (cx, cy)))
            _, e = np.frexp(x[x != 0.0])
            for k in range(-1019 - int(e.min()), 1023 - int(e.max())):
                a2, cx2, cy2 = kernels.area_centroid(np.ldexp(V, k))
                assert (cx2, cy2) == (np.ldexp(cx, k), np.ldexp(cy, k))
                if abs(2 * k) < 1000:
                    assert a2 == np.ldexp(a, 2 * k)


class TestPolar:
    def test_square_cross(self, square, cross):
        assert hausdorff(polar_about(square, (0, 0)), cross) < 1e-14

    def test_trapezoid_polar_vertices(self):
        Q = polar_about(body_kab(1.0, 2.0), (0, 0))
        expect = canonicalize([(-9 / 5, 0), (9 / 4, 0),
                               (-9 / 14, 9 / 14), (-9 / 14, -9 / 14)])
        assert hausdorff(Q, expect) < 1e-12

    def test_bipolar_roundtrip(self):
        rng = np.random.default_rng(11)
        for P in random_bodies(100, 13):
            g = P.centroid
            z = g + 0.3 * (P.vertices[int(rng.integers(P.n))] - g)
            R = polar_about(polar_about(P, z, translate=True), z, translate=True)
            assert hausdorff(R, P) <= 1e-9 * P.diameter

    def test_margin_required(self, square):
        with pytest.raises(PointNotInterior):
            polar_about(square, (1.0, 0.0))

    def test_closed_form_area(self):
        # kernels.polar_areas on a batch of points, a third of them at 1e-3
        # to 1e-2 of the way from the boundary, against the area of the
        # polar polygon, and its gradient against grad V = 3 V g((P - x)°).
        # Both sides lose digits like 1 / margin (at 1e-4 of the way they
        # differ by about 1e-12)
        rng = np.random.default_rng(17)
        for P in random_bodies(20, 18):
            g = P.centroid
            w = rng.uniform(0.0, 1.0, size=12)
            w[:4] = 1.0 - 10.0 ** rng.uniform(-3, -2, size=4)
            X = g + w[:, None] * (P.vertices[rng.integers(P.n, size=12)] - g)
            V, grad = kernels.polar_areas(P.vertices, X)
            for x, v, dv in zip(X, V, grad):
                D = polar_about(P, x)
                assert abs(v - D.area) <= 1e-12 * D.area
                expect = 3.0 * D.area * D.centroid
                assert np.linalg.norm(dv - expect) <= 1e-10 * np.linalg.norm(expect)

    def test_closed_form_area_outside(self, square):
        V, _ = kernels.polar_areas(square.vertices, np.array([[0.0, 0.0], [1.0, 0.0],
                                                             [2.0, 0.5]]))
        assert V[0] == pytest.approx(2.0, rel=1e-15)
        assert np.isinf(V[1:]).all()


class TestPolarCalculus:
    # kernels.polar_calculus in the frame the Santalo solve runs in
    # (ellipses._whiten), on stream bodies and on the trapezoid under the
    # condition-1e3 map of test_points.TestSantalo, at points on segments
    # from the centroid to a vertex, a third of them 1e-3 short of it

    @staticmethod
    def _cases():
        T = AffineMap(np.array([[0.540302306, -8.41470985e-4],
                                [0.841470985, 5.40302306e-4]]), np.zeros(2))
        rng = np.random.default_rng(20)
        for P in [*random_polygons(100, 19), affine_apply(T, body_kab(0.25, 0.375))]:
            Q = Polygon(_whiten(P)[0])
            w = rng.uniform(0.0, 1.0, size=12)
            w[:4] = 1.0 - 1e-3
            yield Q, w[:, None] * Q.vertices[rng.integers(Q.n, size=12)]

    def test_derivatives_match_central_differences(self):
        for Q, X in self._cases():
            terms = kernels.polar_terms(Q.vertices)
            _, grad, H, _ = kernels.polar_calculus(terms, X, hessian=True)
            for x, dv, hv in zip(X, grad, H):
                h = 1e-4 * interior_margin(Q, x)
                Vp, gp, _, _ = kernels.polar_calculus(terms, x + h * np.eye(2))
                Vm, gm, _, _ = kernels.polar_calculus(terms, x - h * np.eye(2))
                assert np.linalg.norm(dv - (Vp - Vm) / (2 * h)) <= 1e-6 * np.linalg.norm(dv)
                assert np.linalg.norm(hv - (gp - gm).T / (2 * h)) <= 1e-6 * np.linalg.norm(hv)

    def test_polar_centroid_and_log_convexity(self):
        for Q, X in self._cases():
            V, grad, H, _ = kernels.polar_calculus(kernels.polar_terms(Q.vertices), X,
                                                   hessian=True)
            for x, v, dv, hv in zip(X, V, grad, H):
                _, cx, cy = kernels.area_centroid(kernels.polar_vertices(Q.vertices, *x))
                g = np.array([cx, cy])
                assert np.linalg.norm(dv / (3.0 * v) - g) <= 1e-12 * np.linalg.norm(g)
                L = hv / v - np.outer(dv, dv) / v**2  # Hessian of log V
                assert abs(L[0, 1] - L[1, 0]) <= 1e-14 * np.abs(L).max()
                assert np.linalg.eigvalsh(L)[0] > 0.0


class TestClipIntersect:
    def test_half_square(self, square):
        Q = clip_halfplane(square, Halfplane((1.0, 0.0), 0.0))
        assert Q.area == pytest.approx(2.0, abs=1e-14)

    def test_noop_clip(self, square):
        Q = clip_halfplane(square, Halfplane((1.0, 0.0), 2.0))
        assert hausdorff(Q, square) == 0.0

    def test_additivity(self):
        rng = np.random.default_rng(5)
        for P in random_bodies(30, 6):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            beta = float(rng.normal(scale=0.5))
            lo = clip_halfplane(P, Halfplane(u, beta))
            hi = clip_halfplane(P, Halfplane(-u, -beta))
            total = (lo.area if lo else 0.0) + (hi.area if hi else 0.0)
            assert total == pytest.approx(P.area, abs=1e-12 * P.area)

    def test_intersect_self(self, square):
        assert hausdorff(intersect(square, square), square) < 1e-14

    def test_intersect_shifted(self, square):
        Q = intersect(square, square.translate((1.0, 0.0)))
        assert Q.area == pytest.approx(2.0, abs=1e-13)

    def test_intersect_monte_carlo(self):
        rng = np.random.default_rng(21)
        P = random_body(10, 1, affine=False)
        Q = random_body(14, 2, affine=False)
        R = intersect(P, Q)
        pts = rng.random((200000, 2)) * 2.0 - 1.0
        from affpoints.polygons import edge_normals

        def _in(R):
            normals, offsets = edge_normals(R)
            return np.all(pts @ normals.T <= offsets, axis=1)

        inside = _in(P) & _in(Q)
        est = inside.mean() * 4.0
        sigma = 4.0 * np.sqrt(inside.mean() * (1 - inside.mean()) / len(pts))
        area = R.area if R is not None else 0.0
        assert abs(area - est) < 3.0 * sigma + 1e-12
        assert area <= min(P.area, Q.area) + 1e-12


class TestAffine:
    def test_identity(self, square):
        assert hausdorff(affine_apply(AffineMap.identity(), square), square) == 0.0

    def test_scaling_area(self):
        P = canonicalize([(0, 0), (1, 0), (1, 1), (0, 1)])
        Q = affine_apply(AffineMap(2.0 * np.eye(2)), P)
        assert Q.area == pytest.approx(4.0, abs=1e-14)

    def test_singularity_is_relative_to_scale(self):
        for s in (1e-5, 1e5):
            AffineMap(s * np.eye(2))
        with pytest.raises(SingularMap):
            AffineMap([[1.0, 1.0], [1.0, 1.0]])

    def test_polar_adjoint_law(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            P = random_body(int(rng.integers(5, 20)), int(rng.integers(1e6)),
                            affine=False)
            g = P.centroid
            P = Polygon(P.vertices - g)  # put 0 strictly inside
            M = rng.normal(size=(2, 2))
            if abs(np.linalg.det(M)) < 0.1:
                continue
            T = AffineMap(M)
            lhs = polar_about(affine_apply(T, P), (0, 0))
            rhs = affine_apply(T.adjoint_inverse(), polar_about(P, (0, 0)))
            assert hausdorff(lhs, rhs) <= 1e-9 * lhs.diameter


class TestSupportHausdorff:
    def test_square_axis(self, square):
        assert support(square, (1.0, 0.0)) == 1.0
        assert support(square, np.array([1.0, 1.0]) / np.sqrt(2)) == \
            pytest.approx(np.sqrt(2), abs=1e-15)

    def test_sublinear(self, square):
        rng = np.random.default_rng(3)
        for P in random_bodies(10, 4):
            u, v = rng.normal(size=2), rng.normal(size=2)
            assert support(P, u + v) <= support(P, u) + support(P, v) + 1e-12

    def test_hausdorff_self_and_shift(self, square):
        assert hausdorff(square, square) == 0.0
        t = 0.37
        assert hausdorff(square, square.translate((t, 0))) == \
            pytest.approx(t, abs=1e-12)

    def test_square_vs_cross(self, square, cross):
        assert hausdorff(square, cross) == pytest.approx(1 / np.sqrt(2), abs=1e-6)

    def test_hausdorff_scale_equivariant(self):
        # each body has a vertex 1e-3 of its diameter from the origin, whose
        # direction must count at every scale
        for P, Q in zip(random_bodies(4, 57), random_bodies(4, 58)):
            P, Q = P.translate(-P.vertices[0] * (1.0 - 1e-3)), Q.translate(-Q.centroid)
            h = hausdorff(P, Q)
            for s in 10.0 ** np.arange(-12, 13, 3):
                hs = hausdorff(Polygon(s * P.vertices), Polygon(s * Q.vertices))
                assert abs(hs / s - h) <= 1e-12 * max(P.diameter, Q.diameter)

    def test_matches_vertex_distances(self):
        # the distance to a convex body is convex, so on a polygon it peaks
        # at a vertex: the exact distance is the largest distance from a
        # vertex of either body to the other
        def dist(Q, x):
            V = Q.vertices
            e = np.roll(V, -1, axis=0) - V
            if ((x - V) * np.column_stack([e[:, 1], -e[:, 0]])).sum(axis=1).max() <= 0.0:
                return 0.0
            t = np.clip(((x - V) * e).sum(axis=1) / (e * e).sum(axis=1), 0.0, 1.0)
            return np.hypot(*(V + t[:, None] * e - x).T).min()

        def vertex_distance(P, Q):
            return max(max(dist(Q, v) for v in P.vertices),
                       max(dist(P, v) for v in Q.vertices))

        stream = list(random_polygons(120, 69))
        for i, (P, Q) in enumerate(zip(stream[::2], stream[1::2])):
            if i % 2:
                Q = Polygon(0.3 * Q.vertices + P.centroid)  # inside P or nearly
            assert hausdorff(P, Q) == pytest.approx(vertex_distance(P, Q), rel=1e-14, abs=0.0)
        # K and K°° agree to rounding, so both values are rounding of the
        # vertices: the bound is an absolute 4 eps diam
        for P in random_polygons(60, 66):
            g = P.centroid
            Pp = polar_about(polar_about(P, g, translate=True), g, translate=True)
            h = hausdorff(P, Pp)
            assert abs(h - vertex_distance(P, Pp)) <= 4.0 * np.finfo(float).eps * P.diameter
            assert h <= 1e-12 * P.diameter

    def test_translate_is_exact(self):
        # the sampled distance fell short of |d| by up to 2.8e-7 |d| here
        rng = np.random.default_rng(67)
        for P in random_polygons(100, 68):
            d = rng.normal(size=2) * P.diameter
            assert hausdorff(P, P) == 0.0
            assert hausdorff(P, P.translate(d)) == \
                pytest.approx(np.hypot(*d), rel=1e-14, abs=0.0)


class TestDiameterSupports:
    @staticmethod
    def _brute_diameter(v, rows=None):
        rows = v if rows is None else rows
        d = rows[:, None, :] - v[None, :, :]
        return float(np.sqrt((d * d).sum(axis=2)).max())

    def test_diameter_matches_brute_force(self):
        rng = np.random.default_rng(61)
        lim = canonicalize(limacon(1024))
        bodies = [*random_polygons(20, 62), ngon(4), ngon(6), ngon(8)]
        bodies += [affine_apply(random_map(rng), lim) for _ in range(3)]
        for P in bodies:
            d = P.diameter
            assert d == self._brute_diameter(P.vertices)
            assert P.diameter is d  # computed once per polygon

    def test_pruned_diameter_is_exact(self):
        # the diameter comes from the antipodal pairs of the normal fan; on
        # large bodies too it must be the full scan's to the bit
        rng = np.random.default_rng(64)
        sliver = canonicalize(limacon(512))
        bodies = [ngon(4096)]
        for _ in range(3):
            U, _, Vt = np.linalg.svd(rng.normal(size=(2, 2)))
            T = AffineMap(U @ np.diag([1.0, 1e-3]) @ Vt, rng.normal(size=2))
            bodies.append(affine_apply(T, sliver))
        lim = canonicalize(limacon(1024))
        bodies.append(polar_about(lim, lim.centroid))
        for P in bodies:
            v = P.vertices
            brute = max(self._brute_diameter(v, v[i:i + 256])
                        for i in range(0, P.n, 256))
            assert P.diameter == brute


class TestShift:
    def test_zero_shift(self, square):
        assert hausdorff(k_sub_z(square, (0, 0)), square) == 0.0

    def test_square_shift_half(self, square):
        Q = k_sub_z(square, (0.5, 0.0))
        expect = canonicalize([(-2 / 3, 2 / 3), (-2 / 3, -2 / 3), (2, 2), (2, -2)])
        assert hausdorff(Q, expect) < 1e-13

    def test_out_of_range(self, square):
        with pytest.raises(ShiftOutOfRange):
            k_sub_z(square, (1.0, 0.0))

    def test_scale_relative(self):
        # K_z of s K with z / s is s K_z: the interiority test of the origin
        # must not depend on s
        P = random_body(8, 3, affine=False)
        P = Polygon(P.vertices - P.centroid)
        z = np.array([0.1, -0.05])
        Q = k_sub_z(P, z)
        for s in (1e-12, 1e12):
            Qs = k_sub_z(Polygon(P.vertices * s), z / s)
            assert hausdorff(Polygon(Qs.vertices / s), Q) <= 1e-12 * Q.diameter

    def test_semigroup(self):
        rng = np.random.default_rng(9)
        for P in random_bodies(20, 10, affine=False):
            P = Polygon(P.vertices - P.centroid)
            z1 = rng.normal(scale=0.05, size=2)
            z2 = rng.normal(scale=0.05, size=2)
            try:
                lhs = k_sub_z(k_sub_z(P, z1), z2)
                rhs = k_sub_z(P, z1 + z2)
            except ShiftOutOfRange:
                continue
            assert hausdorff(lhs, rhs) <= 1e-10 * rhs.diameter

    def test_area_integral(self, square):
        # area of the shifted body equals the integral of (1 - <x,z>)^-3
        rng = np.random.default_rng(33)
        z = np.array([0.3, 0.1])
        Q = k_sub_z(square, z)
        pts = rng.random((400000, 2)) * 2.0 - 1.0
        w = (1.0 - pts @ z) ** -3
        est = w.mean() * 4.0
        sigma = 4.0 * w.std() / np.sqrt(len(pts))
        assert abs(Q.area - est) < 3.0 * sigma

    def test_centroid_equivariance(self):
        rng = np.random.default_rng(15)
        for P in random_bodies(20, 16):
            M = rng.normal(size=(2, 2))
            if abs(np.linalg.det(M)) < 0.1:
                continue
            T = AffineMap(M, rng.normal(size=2))
            g1 = affine_apply(T, P).centroid
            g2 = T(P.centroid)
            assert np.linalg.norm(g1 - g2) <= 1e-12 * (1 + np.linalg.norm(g2))
