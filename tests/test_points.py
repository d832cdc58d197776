import numpy as np
import pytest

from affpoints import points
from affpoints.bodies import b_eta, body_kab, ngon, parse_spec, random_body, random_map
from affpoints.ellipses import BASIS_MAX_N
from affpoints.errors import BadParams
from affpoints.points import (
    PointFunction,
    _newton_ascent,
    _overlap_model,
    _polar_centroid,
    cap_point,
    caps,
    central_differences,
    eval_point,
    polar_root,
    santalo_point,
    symcore_point,
)
from affpoints.duality import invariance_check, random_polygons
from affpoints.polygons import (
    AffineMap,
    Halfplane,
    Polygon,
    affine_apply,
    canonicalize,
    clip_halfplane,
    hausdorff,
    intersect,
    polar_about,
    support,
)
from conftest import limacon, overlap_area, random_bodies

ALL_IDS = ["centroid", "santalo", "john", "loewner", "symcore"]


def _rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def test_eval_dispatch(square, triangle):
    unit = canonicalize([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert np.allclose(eval_point(PointFunction("centroid"), unit).value,
                       (0.5, 0.5))
    assert np.allclose(eval_point(PointFunction("santalo"), square).value,
                       (0, 0), atol=1e-12)
    assert np.allclose(eval_point(PointFunction("john"), triangle).value,
                       (1 / 3, 1 / 3), atol=1e-7)


def test_ellipse_points_report_the_solve(triangle):
    # a closed-form basis solve (at most BASIS_MAX_N vertices) takes no
    # steps and leaves the rounding unit; the barrier, past that, reports its
    # Newton steps and the size of its last one
    big = ngon(BASIS_MAX_N + 1)
    for pid in ("john", "loewner"):
        res = eval_point(PointFunction(pid), triangle)
        assert res.iterations == 0
        assert res.residual == np.finfo(float).eps
        res = eval_point(PointFunction(pid), big)
        assert res.iterations > 0
        assert 0.0 < res.residual < 1e-10


def test_bad_point_function():
    with pytest.raises(BadParams):
        PointFunction("frobnicate")
    with pytest.raises(BadParams):
        PointFunction("capfamily", (0.1,))
    for widths in ((0.1, np.inf), (np.nan, 0.05)):
        with pytest.raises(BadParams):
            PointFunction("capfamily", widths)
        with pytest.raises(BadParams):
            cap_point(random_body(9, 4), *widths)


class TestMemo:
    def test_second_call_is_the_cached_result(self):
        P = random_body(9, 81)
        for pid in ALL_IDS:
            pf = PointFunction(pid)
            assert eval_point(pf, P) is eval_point(PointFunction(pid), P)

    def test_value_is_read_only(self):
        P = random_body(9, 82)
        for pid in ALL_IDS:
            res = eval_point(PointFunction(pid), P)
            assert not res.value.flags.writeable
            with pytest.raises(ValueError):
                res.value[0] = 0.0

    def test_cap_params_are_not_conflated(self):
        P = random_body(9, 83)
        values = []
        for eps, delta in ((0.01, 0.005), (0.02, 0.005), (0.01, 0.01)):
            res = eval_point(PointFunction("capfamily", (eps, delta)), P)
            assert np.array_equal(res.value, cap_point(P, eps, delta))
            values.append(tuple(res.value))
        assert len(set(values)) == 3
        # params given as a list key the same entry as the tuple
        pf = PointFunction("capfamily", [0.02, 0.005])
        assert eval_point(pf, P) is eval_point(PointFunction("capfamily", (0.02, 0.005)), P)

    def test_cached_equals_fresh(self):
        for P in random_bodies(4, 84):
            for pf in [PointFunction(pid) for pid in ALL_IDS] + \
                    [PointFunction("capfamily", (0.1, 0.05))]:
                first = eval_point(pf, P)
                again = eval_point(pf, P)
                fresh = eval_point(pf, Polygon(P.vertices.copy()))
                assert fresh is not again
                assert np.array_equal(again.value, fresh.value)
                assert (again.iterations, again.residual) == \
                    (fresh.iterations, fresh.residual)
                assert again is first


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

    def test_trapezoid_under_a_map_of_condition_1e3(self):
        # solved in the trapezoid's own frame, the polar root stalled here
        # at |F| = 4.1e-2
        T = AffineMap(np.array([[0.540302306, -8.41470985e-4],
                                [0.841470985, 5.40302306e-4]]), np.zeros(2))
        P = body_kab(0.25, 0.375)
        Q = affine_apply(T, P)
        dev = np.linalg.norm(santalo_point(Q).value - T(santalo_point(P).value))
        assert dev <= 1e-10 * Q.diameter

    def test_matches_the_finite_difference_oracle(self):
        # the same driver on the polar centroid read off the polar vertices,
        # with the Jacobian by central differences
        rng = np.random.default_rng(64)
        ngons = [affine_apply(AffineMap(_rotation(rng.uniform(0, np.pi)) @ np.diag([1.0, 1e-3])
                                        @ _rotation(rng.uniform(0, np.pi)), rng.normal(size=2)),
                              ngon(m)) for m in (4, 6, 8, 12, 32, 200)]
        for P in [*random_polygons(200, 65), *ngons]:
            res = santalo_point(P)
            z, steps, _ = polar_root(central_differences(_polar_centroid), P, P.centroid, 1e-12)
            assert np.linalg.norm(res.value - z) <= 1e-12 * P.diameter
            assert res.iterations <= steps

    def test_invariance_on_stream_bodies(self):
        # the five maps of invariance_check stacked on the stream's own map
        # reach condition numbers near 2500, where the solve once stalled
        # just above its residual tolerance
        S = PointFunction("santalo")
        for i, P in enumerate(random_polygons(600, 1)):
            assert invariance_check(S, P, 5, i) <= 1e-10


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
        # A and its exact gradient against the clipped overlap, and the
        # exact Hessian against central differences of the exact gradient
        rng = np.random.default_rng(72)
        for P in random_bodies(10, 73, affine=False):
            f, _ = _overlap_model(P)
            g = P.centroid
            h = 1e-6 * P.diameter
            k = 1e-7 * P.diameter
            for _ in range(3):
                x = g + 0.1 * P.diameter * rng.normal(size=2)
                if not P.contains(x, tol=-0.01 * P.diameter):
                    continue
                a, grad, hess = (v[0] for v in f(x[None]))
                assert a == pytest.approx(overlap_area(P, x), rel=1e-12)
                fd = [(overlap_area(P, x + e) - overlap_area(P, x - e)) / (2 * h)
                      for e in np.eye(2) * h]
                assert np.allclose(grad, fd, atol=1e-6 * P.diameter)
                fd = np.column_stack([(f((x + e)[None])[1][0] - f((x - e)[None])[1][0])
                                      / (2 * k) for e in np.eye(2) * k])
                assert np.allclose(hess, fd, rtol=0.0, atol=1e-8)

    def test_converges_on_random_bodies(self):
        for P in random_bodies(20, 74):
            r = symcore_point(P)
            assert 0 < r.iterations <= 12
            assert r.residual < 1e-12


def test_failing_line_search_stops_at_resolution():
    # on the square, Newton's last line search finds no rise in A: it halves
    # its step only while the step is at least 1e-7, the resolution of A
    # (halving on to t = 1e-9 took 31 model calls)
    P = parse_spec("square")
    f, lines = _overlap_model(Polygon((P.vertices - P.centroid) / P.diameter))
    calls = []

    def counted(X):
        calls.append(X)
        return f(X)

    _, _, _, converged = _newton_ascent(counted, np.zeros(2), *lines[:2])
    assert not converged
    assert len(calls) <= 23


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

    def test_newton_phase_hands_over_at_the_kink(self, spec):
        # Newton zigzags across the kink of a midline; it stops once it has
        # crossed one twice (it ran all 40 of its steps here), and the
        # midline search finds the maximizer, so no step raises A
        P = parse_spec(spec)
        Q = Polygon((P.vertices - P.centroid) / P.diameter)
        f, lines = _overlap_model(Q)
        _, steps, _, _ = _newton_ascent(f, np.zeros(2), *lines[:2])
        assert steps <= 8
        m = symcore_point(P)
        if spec.startswith("kab"):
            assert m.iterations <= 10
        top = overlap_area(P, m.value)
        for t in np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False):
            x = m.value + 1e-6 * P.diameter * np.array([np.cos(t), np.sin(t)])
            assert overlap_area(P, x) <= top

    def test_rescaling(self, spec):
        P = parse_spec(spec)
        m = symcore_point(P).value
        for s in (1e-8, 1e-4, 1e4, 1e8):
            ms = symcore_point(Polygon(s * P.vertices)).value
            assert np.linalg.norm(ms / s - m) <= 1e-12 * P.diameter


@pytest.mark.parametrize("spec", ["kab:1,2", "ngon:12", "ngon:16"])
def test_symcore_blocks_match_one_block(spec, monkeypatch):
    # a row of the overlap model holds n^2 entries, so the midline search
    # and the scoring of the candidates run in blocks of rows; blocks of 1
    # and 5 rows give the very result of one block
    P = affine_apply(random_map(np.random.default_rng(91)), parse_spec(spec))
    whole = symcore_point(P)
    for rows in (1, 5):
        monkeypatch.setattr(points, "RAY_BLOCK", rows * P.n ** 2)
        r = symcore_point(Polygon(P.vertices))
        assert np.array_equal(r.value, whole.value)
        assert (r.iterations, r.residual) == (whole.iterations, whole.residual)


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

    def test_symmetry_test_is_scale_free(self):
        # G scales as 1 / length: tested against an absolute multiple of the
        # diameter, a body at scale 1e6 passed for symmetric
        P = random_body(8, 3, affine=False)
        x = cap_point(P, 0.1, 0.05)
        for s in (1e-6, 1e6):
            A, B, _ = caps(Polygon(s * P.vertices), 0.1, 0.05)
            assert A is not B
            xs = cap_point(Polygon(s * P.vertices), 0.1, 0.05)
            assert np.linalg.norm(xs / s - x) <= 1e-13 * P.diameter


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


def _cap_point_by_intersect(P, eps, delta):
    # the two-cap point as first written: G from the polar's hull, and the
    # overlap of the caps by clipping A with every edge of B
    G = polar_about(P, P.centroid).centroid
    gn = np.linalg.norm(G)
    u = G / gn
    A = clip_halfplane(P, Halfplane(-u, -(support(P, u) - eps / gn)))
    B = clip_halfplane(P, Halfplane(u, -support(P, -u) + delta / gn))
    aA, gA = A.area, A.centroid
    aB, gB = B.area, B.centroid
    W = intersect(A, B)
    if W is None:
        return (aA * gA + aB * gB) / (aA + aB)
    aW, gW = W.area, W.centroid
    return (aA * gA + aB * gB - aW * gW) / (aA + aB - aW)


class TestCapOverlap:
    PARAMS = [(0.1, 0.05), (0.02, 0.3), (0.5, 0.5)]

    def test_matches_intersect_on_stream_bodies(self):
        for P in random_polygons(100, 72):
            for eps, delta in self.PARAMS:
                got = cap_point(P, eps, delta)
                expect = _cap_point_by_intersect(P, eps, delta)
                assert np.linalg.norm(got - expect) <= 1e-13 * P.diameter

    def test_matches_intersect_on_a_1024_gon(self):
        rng = np.random.default_rng(73)
        base = canonicalize(limacon(1024))
        for _ in range(2):
            P = affine_apply(random_map(rng), base)
            for eps, delta in self.PARAMS:
                got = cap_point(P, eps, delta)
                expect = _cap_point_by_intersect(P, eps, delta)
                assert np.linalg.norm(got - expect) <= 1e-13 * P.diameter

    def test_overlap_is_one_clip(self, monkeypatch):
        from affpoints import _polyops_py as kernels

        calls = []
        clip = kernels.clip_halfplane

        def counted(*args):
            calls.append(args)
            return clip(*args)

        monkeypatch.setattr(kernels, "clip_halfplane", counted)
        cap_point(canonicalize(limacon(1024)), 0.5, 0.5)
        # the two caps, and their overlap
        assert len(calls) == 3


def test_squashed_limacon_points_are_equivariant():
    # maps of condition number up to 50, among them one with singular values
    # 0.59 and 0.0124 under which the hull once lost half its vertices
    base = canonicalize(limacon(1024))
    ids = [PointFunction(i) for i in ("santalo", "john", "loewner")]
    ids.append(PointFunction("capfamily", (0.1, 0.05)))
    ref = [eval_point(pf, base).value for pf in ids]
    rng = np.random.default_rng(53)
    for _ in range(5):
        T = random_map(rng)
        K = affine_apply(T, base)
        assert K.n == 1024
        for pf, x in zip(ids, ref):
            back = T.inverse()(eval_point(pf, K).value)
            assert np.linalg.norm(back - x) <= 1e-8 * base.diameter, pf.id


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
