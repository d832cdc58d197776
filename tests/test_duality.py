import numpy as np
import pytest

from affpoints.bodies import body_kab, ngon, random_body, random_map
from affpoints.duality import (
    dual_residual,
    invariance_check,
    phi,
    polar_preimage,
    product_apply,
    product_iterates,
    random_polygons,
)
from affpoints.errors import PointNotInterior
from affpoints.points import PointFunction, eval_point, santalo_point
from affpoints.polygons import (
    AffineMap,
    Polygon,
    affine_apply,
    hausdorff,
    k_sub_z,
    polar_about,
)

G = PointFunction("centroid")
S = PointFunction("santalo")
J = PointFunction("john")
L = PointFunction("loewner")
M = PointFunction("symcore")


class TestPhi:
    def test_square_to_cross(self, square, cross):
        assert hausdorff(phi(G, square), cross) < 1e-13

    def test_trapezoid(self):
        K = body_kab(1.0, 2.0)
        Q = phi(G, K)
        assert np.allclose(Q.centroid, (-9 / 140, 0), atol=1e-12)

    def test_round_trip(self):
        for P in random_polygons(20, 91):
            assert hausdorff(phi(S, phi(G, P)), P) <= 1e-8 * P.diameter


class TestDualResidual:
    def test_centroid_santalo(self):
        rep = dual_residual(G, S, random_polygons(50, 92))
        assert rep.max_residual < 1e-6
        assert not rep.failures

    def test_santalo_centroid(self):
        rep = dual_residual(S, G, random_polygons(50, 93))
        assert rep.max_residual < 1e-6

    def test_john_loewner(self):
        rep = dual_residual(J, L, random_polygons(20, 94))
        assert rep.max_residual < 1e-5

    def test_john_loewner_at_rounding(self):
        # acceptance criterion 5's bodies: L(K^{J(K)}) = J(K) holds to
        # rounding once both ellipses solve John's conditions (7.3e-10 when
        # they came from a log-det barrier stopped at a gap of 1e-10)
        rep = dual_residual(J, L, random_polygons(50, 1003))
        assert rep.max_residual <= 1e-12

    def test_centroid_not_self_dual(self):
        rep = dual_residual(G, G, [body_kab(1.0, 2.0)])
        assert rep.max_residual_abs == pytest.approx(9 / 140, abs=1e-9)

    def test_failures_recorded_not_raised(self):
        class Boom(Polygon):
            @property
            def centroid(self):
                raise RuntimeError("boom")

        bodies = [body_kab(1.0, 2.0),
                  Boom(body_kab(1.0, 2.0).vertices)]
        rep = dual_residual(G, S, bodies)
        assert rep.bodies_tested == 2
        assert len(rep.failures) == 1


class TestProduct:
    def test_identity_when_dual(self):
        for r in (G, J, M):
            for P in random_polygons(5, 95):
                dev = np.linalg.norm(product_apply(G, S, r, P)
                                     - eval_point(r, P).value)
                assert dev < 1e-6 * P.diameter

    def test_symmetric_body_zero(self, square):
        assert np.linalg.norm(product_apply(G, S, G, square)) < 1e-12

    def test_composition_inverse(self):
        # applying the reversed product undoes the product
        for P in random_polygons(3, 96):
            w = product_apply(G, S, J, phi(G, phi(S, P)))  # [g,s](j) at shifted
            A = phi(S, P)
            val = w - eval_point(G, A).value + eval_point(S, P).value
            assert np.linalg.norm(val - eval_point(J, P).value) < 1e-5 * P.diameter

    def test_not_identity_when_not_dual(self):
        K = body_kab(1.0, 2.0)
        dev = np.linalg.norm(product_apply(G, G, G, K)
                             - eval_point(G, K).value)
        assert dev > 1e-3

    def test_iterate_linear_cost(self):
        K = body_kab(1.0, 2.0)
        v1 = product_iterates(G, G, K, 1)[1]
        direct = product_apply(G, G, G, K)
        assert np.allclose(v1, direct, atol=1e-12)


class TestInvariance:
    def test_centroid_exact(self, triangle):
        assert invariance_check(G, triangle, 20, 1) < 1e-12

    def test_santalo(self, triangle):
        assert invariance_check(S, triangle, 10, 2) < 1e-6

    def test_capfamily(self, triangle):
        pf = PointFunction("capfamily", (0.1, 0.05))
        assert invariance_check(pf, triangle, 10, 3) < 1e-8

    def test_santalo_on_ill_conditioned_image(self):
        # an absolute 1e-12 stop rule on the Santalo residual stalled on
        # one of these five maps of an affine image
        P = list(random_polygons(50, 4))[49]
        assert invariance_check(S, P, 5, 4049) < 1e-6


class TestBatched:
    # dual_residual and invariance_check solve their Santalo points in
    # batches; each must return the floats of a solve body by body
    def test_dual_residual_matches_body_by_body(self):
        bodies = list(random_polygons(50, 92))
        worst = max(float(np.linalg.norm(
            santalo_point(polar_about(P, P.centroid, translate=True)).value - P.centroid))
            / P.diameter for P in bodies)
        assert dual_residual(G, S, bodies).max_residual == worst
        bodies = list(random_polygons(50, 93))
        worst = 0.0
        for P in bodies:
            s = santalo_point(P).value
            worst = max(worst, float(np.linalg.norm(
                polar_about(P, s, translate=True).centroid - s)) / P.diameter)
        assert dual_residual(S, G, bodies).max_residual == worst

    def test_invariance_matches_body_by_body(self):
        for P, seed in [(list(random_polygons(50, 4))[49], 4049),
                        *((P, i) for i, P in enumerate(random_polygons(20, 1)))]:
            rng = np.random.default_rng(seed)
            base = santalo_point(P).value
            worst = 0.0
            for _ in range(5):
                T = random_map(rng)
                Q = affine_apply(T, P)
                worst = max(worst, float(np.linalg.norm(santalo_point(Q).value - T(base)))
                            / Q.diameter)
            assert invariance_check(S, P, 5, seed) == worst

    def test_phi_is_kept(self):
        P = body_kab(1.0, 2.0)
        A = phi(G, P)
        assert phi(G, P) is A and phi(S, P) is not A
        # the product reads the polar that dual_residual solved on
        dual_residual(G, S, [P])
        res = eval_point(S, A)
        product_apply(G, S, G, P)
        assert eval_point(S, phi(G, P)) is res


class TestPreimage:
    def test_symmetric_zero(self, square):
        z = polar_preimage(G, square)
        assert np.linalg.norm(z) < 1e-8

    def test_equals_santalo(self):
        for P in random_polygons(10, 97):
            z = polar_preimage(G, P)
            s = santalo_point(P).value
            assert np.linalg.norm(z - s) < 1e-7 * P.diameter

    def test_two_roots_for_cap_point(self, cross):
        from affpoints.noninjective import cap_function

        pf = cap_function(0.5)
        z1 = polar_preimage(pf, cross, init=(0.0, 0.0))
        z2 = polar_preimage(pf, cross, init=(0.45, 0.0))
        assert np.linalg.norm(z1) < 1e-6
        assert np.linalg.norm(z2 - (0.5, 0.0)) < 1e-6
        assert np.linalg.norm(z1 - z2) > 0.4

    def test_start_must_be_interior(self, square):
        for init in ((2.0, 0.0), (1.0, 0.5)):
            with pytest.raises(PointNotInterior):
                polar_preimage(G, square, init=init)

    @pytest.mark.parametrize("seed, t1, t2, shift", [
        (1153838077, 5.536746214766893, 0.3331952739149466,
         (-0.47642974385981746, -0.8191201803277345)),
        (1204804355, 1.1957069855112938, 3.1511537778272736,
         (0.8365259894445134, 0.5936032404079788)),
    ])
    def test_ill_conditioned_map(self, seed, t1, t2, shift):
        # T = R(t1) diag(1, 1e-3) R(t2) + shift: solved at diameter 1, the
        # root stalled at |F| = 70.7 and 5.9
        def rot(t):
            return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

        P = random_body(14, seed, affine=False)
        T = AffineMap(rot(t1) @ np.diag([1.0, 1e-3]) @ rot(t2), shift)
        Q = affine_apply(T, P)
        z = polar_preimage(J, Q)
        assert np.linalg.norm(z - T(polar_preimage(J, P))) < 1e-10 * Q.diameter


class TestBallBlowup:
    def test_shift_centroid_rate(self):
        P = ngon(512)
        for lam in (0.9, 0.99):
            Q = k_sub_z(P, (lam, 0.0))
            expect = lam / (1.0 - lam**2)
            got = np.linalg.norm(Q.centroid)
            assert got == pytest.approx(expect, rel=0.05)
