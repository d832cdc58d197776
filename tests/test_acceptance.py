"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with pytest; each test prints its verdict to the real stdout even
under capture, then asserts it.
"""

from fractions import Fraction

import numpy as np

from affpoints import regions
from affpoints.bodies import b_eta, body_kab, ngon, random_body, random_map
from affpoints.duality import (
    dual_residual,
    phi,
    polar_preimage,
    product_apply,
    random_polygons,
)
from affpoints.ellipses import (
    john_ellipse,
    loewner_ellipse,
    max_centered_area,
    verify_john_conditions,
)
from affpoints.noninjective import alpha, certify
from affpoints.points import PointFunction, eval_point, santalo_point
from affpoints.polygons import (
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


def verdict(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_trapezoid_polar_centroid(capsys):
    g = polar_about(body_kab(1.0, 2.0), (0.0, 0.0)).centroid
    err = np.abs(g - np.array([-9 / 140, 0.0])).max()
    verdict(capsys, 1, err < 1e-12,
            f"polar centroid of the (1,2)-trapezoid, error {err:.2e} (tol 1e-12)")


def test_criterion_02_alpha_cross_validation(capsys):
    worst = 0.0
    for eta in (0.1, 0.25, 0.5, 0.75):
        B = b_eta(eta)
        G0 = polar_about(B, B.centroid).centroid
        worst = max(worst, abs(G0[0] - alpha(eta)))
    e = Fraction(1, 2)
    rational = -3 * e * (1 - e**2) ** 2 / ((3 + e**2) * (9 - e**2))
    ok = worst < 1e-10 and rational == Fraction(-27, 910)
    verdict(capsys, 2, ok,
            f"geometric vs closed-form alpha, error {worst:.2e} (tol 1e-10); "
            f"alpha(1/2) = {rational} exactly")


def test_criterion_03_noninjectivity_certificates(capsys):
    details = []
    ok = True
    for eta in (0.25, 0.5):
        cert = certify(eta)
        eps = cert.eps
        in_range = eps**2 < cert.delta < eps
        budget = eps + cert.delta < 2 * abs(alpha(eta)) / (1 - eta**2)
        wit = max(r for _, r in cert.witnesses)
        res = max(cert.residual_sym, cert.residual_eta)
        ok &= in_range and budget and cert.disjoint and res < 1e-9 and wit < 1e-9
        details.append(f"eta={eta}: residuals {res:.1e}, witnesses {wit:.1e}")
    verdict(capsys, 3, ok, "; ".join(details) + " (tol 1e-9)")


def test_criterion_04_centroid_santalo_duality(capsys):
    r1 = dual_residual(G, S, random_polygons(100, 1001))
    r2 = dual_residual(S, G, random_polygons(100, 1002))
    worst = max(r1.max_residual, r2.max_residual)
    ok = worst < 1e-6 and not r1.failures and not r2.failures
    verdict(capsys, 4, ok,
            f"centroid/Santalo dual residual over 200 bodies: {worst:.2e} (tol 1e-6)")


def test_criterion_05_john_loewner_duality(capsys):
    bodies = list(random_polygons(50, 1003))
    rep = dual_residual(J, L, bodies)
    cert_ok = True
    for P in bodies:
        try:
            verify_john_conditions(P, john_ellipse(P), "inscribed")
            verify_john_conditions(P, loewner_ellipse(P), "enclosing")
        except Exception:
            cert_ok = False
            break
    ok = rep.max_residual < 1e-5 and not rep.failures and cert_ok
    verdict(capsys, 5, ok,
            f"John/Loewner dual residual over 50 bodies: {rep.max_residual:.2e} "
            f"(tol 1e-5), certificates {'all pass' if cert_ok else 'FAILED'}")


def test_criterion_06_product_laws(capsys):
    worst_id = 0.0
    bodies = list(random_polygons(25, 1004))
    for r in (G, J, M):
        for P in bodies:
            dev = np.linalg.norm(product_apply(G, S, r, P)
                                 - eval_point(r, P).value) / P.diameter
            worst_id = max(worst_id, dev)
    worst_comp = 0.0
    for P in bodies[:25]:
        w = product_apply(G, S, J, phi(G, phi(S, P)))
        val = w - eval_point(G, phi(S, P)).value + eval_point(S, P).value
        dev = np.linalg.norm(val - eval_point(J, P).value) / P.diameter
        worst_comp = max(worst_comp, dev)
    ok = worst_id < 1e-5 and worst_comp < 1e-5
    verdict(capsys, 6, ok,
            f"product identity {worst_id:.2e}, composition {worst_comp:.2e} (tol 1e-5)")


def test_criterion_07_shift_identities(capsys):
    rng = np.random.default_rng(1005)
    worst = 0.0
    for P in random_polygons(50, 1006, k_range=(5, 20)):
        from affpoints.polygons import Polygon

        Q = Polygon(P.vertices - P.centroid)
        pol = polar_about(Q, (0.0, 0.0))
        gp = pol.centroid
        z = gp + 0.1 * rng.normal(size=2) * pol.diameter / 10
        from affpoints.polygons import interior_margin, support

        if support(Q, z) >= 0.9 or interior_margin(pol, z) < 1e-6:
            continue
        lhs = k_sub_z(Q, z)
        rhs = polar_about(Q.__class__(pol.vertices - z), (0.0, 0.0))
        worst = max(worst, hausdorff(lhs, rhs) / lhs.diameter)
    ball = ngon(512)
    worst_area = 0.0
    for r in (0.3, 0.6):
        Q = k_sub_z(ball, (r, 0.0))
        expect = np.pi / (1 - r**2) ** 1.5
        worst_area = max(worst_area, abs(Q.area - expect) / expect)
    ok = worst < 1e-9 and worst_area < 1e-3
    verdict(capsys, 7, ok,
            f"shift-polar identity {worst:.2e} (tol 1e-9), "
            f"disk shift area {worst_area:.2e} (tol 1e-3)")


def test_criterion_08_set_mapping_sandwich_equivariance(capsys):
    tol_detail = []
    sandwich_ok = True
    for P in [random_body(int(5 + i % 12), 2000 + i) for i in range(20)]:
        F = regions.floating_body(P, 0.05, 128)
        I = regions.illumination_body(P, 0.05, 128)
        tol = 1e-9 * P.diameter
        sandwich_ok &= all(P.contains(v, tol=tol) for v in F.vertices)
        sandwich_ok &= all(I.contains(v, tol=tol) for v in P.vertices)
    rng = np.random.default_rng(1007)
    P = random_body(8, 12, affine=False)
    T = random_map(rng)
    Q = affine_apply(T, P)
    m = 256
    budget = 2 * (2 * np.pi / m) * Q.diameter
    maps = [
        ("floating", lambda B: regions.floating_body(B, 0.05, m)),
        ("illumination", lambda B: regions.illumination_body(B, 0.1, m)),
        ("santalo", lambda B: regions.santalo_region(B, 0.3, m)),
        ("john", lambda B: regions.john_region(B, 0.5, m)),
        ("symcore", lambda B: regions.symcore_region(B, 0.5, m)),
    ]
    equiv_ok = True
    worst = 0.0
    for name, fn in maps:
        d = hausdorff(fn(Q), affine_apply(T, fn(P)))
        worst = max(worst, d / budget)
        equiv_ok &= d < budget
    ok = sandwich_ok and equiv_ok
    verdict(capsys, 8, ok,
            f"sandwich on 20 bodies {'ok' if sandwich_ok else 'FAILED'}; "
            f"five-map equivariance at m=256, worst {worst:.2f}x budget")


def test_criterion_09_solver_hygiene(capsys):
    rng = np.random.default_rng(1008)
    worst_grad = 0.0
    pts = 0
    for P in random_polygons(20, 1009):
        g0 = P.centroid
        d = P.diameter
        for _ in range(5):
            x = g0 + 0.3 * rng.normal(size=2) * d / 10
            from affpoints.polygons import interior_margin

            if interior_margin(P, x) < 0.05 * d:
                continue
            pts += 1
            h = 1e-6 * d
            fd = np.array([
                (np.log(polar_about(P, x + [h, 0]).area)
                 - np.log(polar_about(P, x - [h, 0]).area)) / (2 * h),
                (np.log(polar_about(P, x + [0, h]).area)
                 - np.log(polar_about(P, x - [0, h]).area)) / (2 * h),
            ])
            an = 3.0 * polar_about(P, x).centroid
            worst_grad = max(worst_grad,
                             np.linalg.norm(fd - an) / (1 + np.linalg.norm(an)))
    tri = random_body(3, 7, affine=False)
    conc_viol = 0.0
    for _ in range(40):
        lam = rng.random((2, 3))
        lam /= lam.sum(axis=1, keepdims=True)
        x, y = lam @ tri.vertices
        t = rng.random()
        lhs = np.sqrt(max_centered_area(tri, t * x + (1 - t) * y))
        rhs = t * np.sqrt(max_centered_area(tri, x)) \
            + (1 - t) * np.sqrt(max_centered_area(tri, y))
        conc_viol = max(conc_viol, rhs - lhs)
    worst_bip = 0.0
    for P in random_polygons(200, 1010):
        z = P.centroid
        R = polar_about(polar_about(P, z, translate=True), z, translate=True)
        worst_bip = max(worst_bip, hausdorff(R, P) / P.diameter)
    ok = worst_grad < 1e-6 and conc_viol <= 1e-8 and worst_bip < 1e-9
    verdict(capsys, 9, ok,
            f"gradient check {worst_grad:.2e} at {pts} points (tol 1e-6), "
            f"concavity violation {conc_viol:.2e} (tol 1e-8), "
            f"bipolar {worst_bip:.2e} on 200 bodies (tol 1e-9)")


def test_criterion_10_surjectivity_realization(capsys):
    worst = 0.0
    for P in random_polygons(25, 1011):
        z = polar_preimage(G, P)
        s = santalo_point(P).value
        worst = max(worst, np.linalg.norm(z - s) / P.diameter)
    verdict(capsys, 10, worst < 1e-7,
            f"preimage of centroid vs Santalo point on 25 bodies: "
            f"{worst:.2e} (tol 1e-7)")
