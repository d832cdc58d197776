from fractions import Fraction

import numpy as np
import pytest

from affpoints.bodies import b_eta, body_kab, cross, random_map, square
from affpoints.errors import BadParams, NoRoot
from affpoints.noninjective import (
    alpha,
    cap_function,
    certify,
    default_eps,
    f_eps,
    solve_delta,
)
from affpoints.points import cap_point, caps
from affpoints.polygons import (
    affine_apply,
    hausdorff,
    k_sub_z,
    polar_about,
)


class TestTrapezoid:
    def test_kab_vertices(self):
        K = body_kab(1.0, 2.0)
        expect = {(-5 / 9, 1), (-5 / 9, -1), (4 / 9, 2), (4 / 9, -2)}
        got = {tuple(np.round(v, 12)) for v in K.vertices}
        assert got == {tuple(np.round(v, 12)) for v in expect}

    def test_kab_centered(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            a = 0.2 + rng.random()
            b = a + 0.1 + rng.random()
            assert np.linalg.norm(body_kab(a, b).centroid) < 1e-13

    def test_polar_centroid_closed_form(self):
        g = polar_about(body_kab(1.0, 2.0), (0, 0)).centroid
        assert g[0] == pytest.approx(-9 / 140, abs=1e-13)
        assert abs(g[1]) < 1e-13

    def test_bad_params(self):
        with pytest.raises(BadParams):
            body_kab(2.0, 1.0)


class TestBEta:
    def test_half(self):
        B = b_eta(0.5)
        expect = {(-2 / 3, 2 / 3), (-2 / 3, -2 / 3), (2, 2), (2, -2)}
        got = {tuple(np.round(v, 12)) for v in B.vertices}
        assert got == {tuple(np.round(v, 12)) for v in expect}

    def test_matches_projective_shift(self):
        for eta in np.arange(0.1, 0.95, 0.1):
            lhs = b_eta(eta)
            rhs = k_sub_z(square(), (eta, 0.0))
            assert hausdorff(lhs, rhs) < 1e-12

    def test_small_eta_limit(self):
        assert hausdorff(b_eta(1e-9), square()) < 1e-8

    def test_polar_is_shifted_cross(self):
        eta = 0.4
        Q = polar_about(b_eta(eta), (0, 0))
        expect = cross().translate((-eta, 0.0))
        assert hausdorff(Q, expect) < 1e-12


class TestAlpha:
    def test_rational_value(self):
        e = Fraction(1, 2)
        val = -3 * e * (1 - e**2) ** 2 / ((3 + e**2) * (9 - e**2))
        assert val == Fraction(-27, 910)
        assert alpha(0.5) == pytest.approx(float(Fraction(-27, 910)), abs=1e-16)

    def test_small_eta_limit(self):
        assert abs(alpha(1e-9)) < 1e-9

    def test_geometric_cross_validation(self):
        for eta in (0.1, 0.25, 0.5, 0.75):
            B = b_eta(eta)
            G = polar_about(B, B.centroid).centroid
            assert G[0] == pytest.approx(alpha(eta), abs=1e-10)
            assert abs(G[1]) < 1e-12
            assert alpha(eta) < 0.0


class TestCapBalance:
    def test_sign_conditions(self):
        for eta in (0.25, 0.5):
            eps = default_eps(eta)
            assert f_eps(eps, eta, eps) > 0.0
            assert f_eps(eps**2, eta, eps) < 0.0

    def test_sign_matches_geometry(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            eta = float(rng.uniform(0.2, 0.6))
            eps = default_eps(eta) * float(rng.uniform(0.5, 1.0))
            delta = float(rng.uniform(eps**2, eps))
            B = b_eta(eta)
            A, Bc, _ = caps(B, eps, delta)
            aA, gA = A.area, A.centroid
            aB, gB = Bc.area, Bc.centroid
            geom = aA * gA[0] + aB * gB[0]
            assert np.sign(geom) == np.sign(f_eps(delta, eta, eps))

    def test_solve_delta_contract(self):
        for eta in (0.25, 0.5):
            eps = default_eps(eta)
            delta = solve_delta(eta, eps)
            assert eps**2 < delta < eps
            assert abs(f_eps(delta, eta, eps)) < 1e-13
            assert eps + delta < 2 * abs(alpha(eta)) / (1 - eta**2)

    @pytest.mark.parametrize("eta", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_solve_delta_to_a_double(self, eta):
        # f_eps changes sign between the neighbouring doubles of delta
        for eps in (default_eps(eta), default_eps(eta) / 3):
            delta = solve_delta(eta, eps)
            assert f_eps(np.nextafter(delta, 0.0), eta, eps) <= 0.0
            assert f_eps(np.nextafter(delta, 1.0), eta, eps) >= 0.0

    def test_no_root_when_eps_large(self):
        with pytest.raises(NoRoot):
            solve_delta(0.5, 10.0)


class TestCertify:
    @pytest.mark.parametrize("eta", [0.25, 0.5])
    def test_passes(self, eta):
        cert = certify(eta)
        assert cert.residual_sym < 1e-9
        assert cert.residual_eta < 1e-9
        assert cert.disjoint
        assert all(r < 1e-9 for _, r in cert.witnesses)

    def test_sabotaged_delta_fails(self):
        eta = 0.5
        eps = default_eps(eta)
        delta = solve_delta(eta, eps) * 1.1
        r = np.linalg.norm(cap_point(b_eta(eta), eps, delta))
        assert r > 1e-6

    def test_affine_image_of_configuration(self):
        # every ingredient is equivariant, so the residuals survive a map
        eta = 0.5
        pf = cap_function(eta)
        rng = np.random.default_rng(103)
        T = random_map(rng)
        for P in (square(), b_eta(eta)):
            Q = affine_apply(T, P)
            from affpoints.points import eval_point

            v = eval_point(pf, Q).value - T(eval_point(pf, P).value)
            assert np.linalg.norm(v) < 1e-7 * Q.diameter
