import numpy as np
import pytest

from affpoints.bodies import b_eta, parse_spec, random_body, random_map
from affpoints.errors import BadParams
from affpoints.points import (
    PointFunction,
    _overlap_model,
    cap_point,
    caps,
    eval_point,
    overlap_area,
    santalo_point,
    symcore_point,
)
from affpoints.polygons import (
    Halfplane,
    Polygon,
    affine_apply,
    area_centroid,
    canonicalize,
    clip_halfplane,
    hausdorff,
    intersect,
    polar_about,
)
from conftest import random_bodies

ALL_IDS = ["centroid", "santalo", "john", "loewner", "symcore"]


def test_eval_dispatch(square, triangle):
    unit = canonicalize([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert np.allclose(eval_point(PointFunction("centroid"), unit).value,
                       (0.5, 0.5))
    assert np.allclose(eval_point(PointFunction("santalo"), square).value,
                       (0, 0), atol=1e-12)
    assert np.allclose(eval_point(PointFunction("john"), triangle).value,
                       (1 / 3, 1 / 3), atol=1e-7)


def test_ellipse_points_report_the_solve(triangle):
    for pid in ("john", "loewner"):
        res = eval_point(PointFunction(pid), triangle)
        assert res.iterations > 0
        assert 0.0 < res.residual < 1e-10


def test_bad_point_function():
    with pytest.raises(BadParams):
        PointFunction("frobnicate")
    with pytest.raises(BadParams):
        PointFunction("capfamily", (0.1,))


class TestSantalo:
    def test_symmetric_center(self, square):
        assert np.linalg.norm(santalo_point(square).value) < 1e-12

    def test_triangle(self, triangle):
        assert np.allclose(santalo_point(triangle).value, (1 / 3, 1 / 3),
                           atol=1e-8)

    def test_polar_centroid_vanishes(self):
        for P in random_bodies(100, 61):
            s = santalo_point(P).value
            g = polar_about(P, s).centroid
            assert np.linalg.norm(g) < 1e-10 * polar_about(P, s).diameter

    def test_gradient_matches_finite_differences(self):
        # direction of the polar centroid = gradient of log polar area
        rng = np.random.default_rng(62)
        for P in random_bodies(10, 63):
            g0 = P.centroid
            x = g0 + 0.2 * (P.vertices[0] - g0)
            h = 1e-6 * P.diameter
            grad = np.array([
                (np.log(polar_about(P, x + [h, 0]).area)
                 - np.log(polar_about(P, x - [h, 0]).area)) / (2 * h),
                (np.log(polar_about(P, x + [0, h]).area)
                 - np.log(polar_about(P, x - [0, h]).area)) / (2 * h),
            ])
            gc = polar_about(P, x).centroid
            # proportionality constant is the space dimension plus one
            assert np.allclose(grad, 3.0 * gc, rtol=1e-6,
                               atol=1e-6 * np.linalg.norm(grad))


class TestSymcore:
    def test_symmetric_center(self, square):
        r = symcore_point(square)
        assert np.linalg.norm(r.value) < 1e-9
        assert overlap_area(square, r.value) == pytest.approx(square.area,
                                                              abs=1e-12)

    def test_triangle_centroid(self, triangle):
        r = symcore_point(triangle)
        assert np.allclose(r.value, (1 / 3, 1 / 3), atol=1e-7)
        assert overlap_area(triangle, r.value) == \
            pytest.approx((2 / 3) * triangle.area, abs=1e-9)

    def test_equivariance(self):
        rng = np.random.default_rng(64)
        for P in random_bodies(8, 65, affine=False):
            T = random_map(rng)
            m1 = symcore_point(affine_apply(T, P)).value
            m2 = T(symcore_point(P).value)
            assert np.linalg.norm(m1 - m2) < 1e-7 * affine_apply(T, P).diameter

    def test_equivariance_to_rounding(self):
        rng = np.random.default_rng(76)
        for P in random_bodies(10, 77, affine=False):
            m = symcore_point(P).value
            T = random_map(rng)
            Q = affine_apply(T, P)
            assert np.linalg.norm(symcore_point(Q).value - T(m)) <= 1e-10 * Q.diameter
            for s in (1e-8, 1e8):
                ms = symcore_point(Polygon(s * P.vertices)).value
                assert np.linalg.norm(ms / s - m) <= 1e-12 * P.diameter


    def test_overlap_model_matches_clipping(self):
        # A and its exact gradient against the clipped overlap
        rng = np.random.default_rng(72)
        for P in random_bodies(10, 73, affine=False):
            f, _ = _overlap_model(P)
            g = P.centroid
            h = 1e-6 * P.diameter
            for _ in range(3):
                x = g + 0.1 * P.diameter * rng.normal(size=2)
                if not P.contains(x, tol=-0.01 * P.diameter):
                    continue
                a, grad = f(x)
                assert a == pytest.approx(overlap_area(P, x), rel=1e-12)
                fd = [(overlap_area(P, x + e) - overlap_area(P, x - e)) / (2 * h)
                      for e in np.eye(2) * h]
                assert np.allclose(grad, fd, atol=1e-6 * P.diameter)

    def test_converges_on_random_bodies(self):
        for P in random_bodies(20, 74):
            r = symcore_point(P)
            assert 0 < r.iterations <= 12
            assert r.residual < 1e-12


# Bodies with antiparallel edges: the overlap has a kink on each pair's
# midline, and the maximizer lies on it.
PARALLEL_EDGE_BODIES = ["kab:0.4,0.9", "kab:1,2", "square", "ngon:6", "ngon:8"]


@pytest.mark.parametrize("spec", PARALLEL_EDGE_BODIES)
class TestSymcoreOnMidlines:
    def test_equivariance(self, spec):
        P = parse_spec(spec)
        m = symcore_point(P).value
        rng = np.random.default_rng(75)
        for _ in range(5):
            T = random_map(rng)
            Q = affine_apply(T, P)
            dev = np.linalg.norm(symcore_point(Q).value - T(m))
            assert dev <= 1e-10 * Q.diameter

    def test_rescaling(self, spec):
        P = parse_spec(spec)
        m = symcore_point(P).value
        for s in (1e-8, 1e-4, 1e4, 1e8):
            ms = symcore_point(Polygon(s * P.vertices)).value
            assert np.linalg.norm(ms / s - m) <= 1e-12 * P.diameter


class TestCaps:
    def test_symmetric_body_degenerates(self, square):
        A, B, G = caps(square, 0.1, 0.1)
        assert np.linalg.norm(G) < 1e-12
        assert A is square and B is square

    def test_beta_cap_halfplane(self):
        eta = 0.5
        al = -27.0 / 910.0
        P = b_eta(eta)
        eps = abs(al) / 10
        A, B, G = caps(P, eps, eps / 2)
        assert G[0] == pytest.approx(al, abs=1e-14)
        # the eps-cap is the slab next to the short side
        assert A.vertices[:, 0].max() == pytest.approx(-2 / 3 + eps / abs(al),
                                                       abs=1e-12)

    def test_beta_cap_areas(self):
        for eta in (0.25, 0.5, 0.75):
            P = b_eta(eta)
            al = abs(polar_about(P, P.centroid).centroid[0])
            eps = al / 10
            delta = al / 20
            A, B, _ = caps(P, eps, delta)
            expA = (eps / al) * (2 / (1 + eta) + eps * eta / al)
            expB = (delta / al) * (2 / (1 - eta) - delta * eta / al)
            assert A.area == pytest.approx(expA, abs=1e-10)
            assert B.area == pytest.approx(expB, abs=1e-10)


class TestCapPoint:
    def test_symmetric_zero(self, square):
        for eps, delta in [(0.1, 0.1), (0.5, 0.02)]:
            assert np.linalg.norm(cap_point(square, eps, delta)) < 1e-14

    def test_matches_union_centroid_oracle(self):
        rng = np.random.default_rng(66)
        for _ in range(10):
            P = random_body(int(rng.integers(5, 12)), int(rng.integers(1e6)),
                            affine=False)
            eps = delta = 0.1
            A, B, G = caps(P, eps, delta)
            if A is B:
                continue
            got = cap_point(P, eps, delta)
            # recompute the union centroid from scratch with Monte Carlo
            lo = P.vertices.min(axis=0)
            hi = P.vertices.max(axis=0)
            pts = lo + rng.random((200000, 2)) * (hi - lo)

            def inside(R):
                from affpoints.polygons import edge_normals
                normals, offsets = edge_normals(R)
                return np.all(pts @ normals.T <= offsets, axis=1)

            sel = pts[inside(A) | inside(B)]
            assert np.linalg.norm(got - sel.mean(axis=0)) < 0.02 * P.diameter

    def test_inclusion_exclusion_exact(self):
        # with wide overlapping caps the union is the whole body
        P = canonicalize([(0, 0), (2, 0), (2, 1), (0, 1)])
        val = cap_point(P, 10.0, 10.0)
        A, B, G = caps(P, 10.0, 10.0)
        if A is not B:
            assert intersect(A, B) is not None
        assert np.allclose(val, P.centroid, atol=1e-12)


class TestPointInvariants:
    def test_properness(self):
        for P in random_bodies(10, 67):
            for pid in ALL_IDS:
                x = eval_point(PointFunction(pid), P).value
                assert P.contains(x, tol=-1e-9 * P.diameter)

    def test_equivariance_all_ids(self):
        rng = np.random.default_rng(68)
        for P in random_bodies(5, 69, affine=False):
            T = random_map(rng)
            Q = affine_apply(T, P)
            for pid in ALL_IDS:
                pf = PointFunction(pid)
                v1 = eval_point(pf, Q).value
                v2 = T(eval_point(pf, P).value)
                assert np.linalg.norm(v1 - v2) <= 1e-6 * Q.diameter, pid

    def test_continuity_probe(self):
        rng = np.random.default_rng(70)
        for P in random_bodies(5, 71, affine=False):
            d = P.diameter
            Q = canonicalize(P.vertices
                             + rng.normal(scale=1e-5 * d, size=P.vertices.shape))
            if hausdorff(P, Q) > 1e-4 * d:
                continue
            for pid in ALL_IDS:
                pf = PointFunction(pid)
                dev = np.linalg.norm(eval_point(pf, P).value
                                     - eval_point(pf, Q).value)
                assert dev <= 1e-2 * d, pid
