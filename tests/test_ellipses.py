import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from affpoints.bodies import ngon, parse_spec, random_map
from affpoints.duality import random_polygons
from affpoints.ellipses import (
    BASIS_MAX_N,
    CONTACT_TOL,
    FINISH_POOL,
    FINISH_SLACK,
    Ellipse,
    WEIGHT_TOL,
    _basis_optimum,
    _basis_weights,
    _candidates,
    _centered_john,
    _contact_dirs,
    _field_optimum,
    _normalize,
    _next_pool,
    _nnls,
    _slacks,
    _subsets,
    _terms,
    _to_ellipse,
    _whiten,
    john_ellipse,
    loewner_ellipse,
    max_centered_area,
    min_centered_inverse_area,
    verify_john_conditions,
)
from affpoints.errors import BadParams, CertificationFailure, ConvergenceFailure, NoContacts
from affpoints.polygons import (
    AffineMap,
    Polygon,
    affine_apply,
    canonicalize,
    edge_normals,
    polar_about,
)
from conftest import limacon, random_bodies


class TestJohn:
    def test_square_unit_disk(self, square):
        E = john_ellipse(square)
        assert np.linalg.norm(E.center) < 1e-9
        assert np.allclose(E.shape, np.eye(2), atol=1e-9)

    def test_triangle_steiner(self, triangle):
        E = john_ellipse(triangle)
        assert np.allclose(E.center, (1 / 3, 1 / 3), atol=1e-9)
        assert E.area == pytest.approx(np.pi / (6 * np.sqrt(3)), abs=1e-9)

    def test_edges_respected(self):
        for P in random_bodies(20, 51):
            E = john_ellipse(P)
            A, b = edge_normals(P)
            slack = b - A @ E.center - np.linalg.norm(A @ E.shape, axis=1)
            assert slack.min() > -1e-9 * P.diameter

    def test_equivariance(self):
        rng = np.random.default_rng(52)
        for P in random_bodies(15, 53):
            T = random_map(rng)
            E1 = john_ellipse(affine_apply(T, P))
            E2 = john_ellipse(P).affine_image(T)
            assert np.linalg.norm(E1.center - E2.center) < 1e-7 * P.diameter
            assert np.allclose(E1.shape @ E1.shape.T, E2.shape @ E2.shape.T,
                               rtol=1e-7, atol=1e-9)


@functools.cache
def _stream(count, seed):
    return list(random_polygons(count, seed))


def _indefinite_cases():
    cases = [pytest.param(*c, False, id=f"{c[0]}-{c[1]}-{c[2]}")
             for c in ((300, 11, 277), (400, 13, 38), (500, 14, 259), (500, 15, 291))]
    # b is a body of random_polygons(400, seed), p its polar
    for seed, bodies in ((13, "4b 108p 167b 261b 280p 367b 391b"),
                         (14, "17p 86b 140b 256p 296p"),
                         (15, "57p 115b 115p 238b 286p 287p"),
                         (71, "6b 97p 118b 279b 287b 288b 293p 308b 348b")):
        cases += [pytest.param(400, seed, int(b[:-1]), b[-1] == "p", id=f"400-{seed}-{b}")
                  for b in bodies.split()]
    return cases


class TestLoewner:
    def test_square_circle(self, square):
        E = loewner_ellipse(square)
        assert np.linalg.norm(E.center) < 1e-9
        assert np.allclose(E.shape, np.sqrt(2) * np.eye(2), atol=1e-9)

    def test_cross_unit_circle(self, cross):
        E = loewner_ellipse(cross)
        assert np.allclose(E.shape, np.eye(2), atol=1e-9)
        assert np.linalg.norm(E.center) < 1e-9

    def test_vertices_inside(self):
        for P in random_bodies(20, 54):
            E = loewner_ellipse(P)
            Minv = np.linalg.inv(E.shape)
            y = (P.vertices - E.center) @ Minv.T
            assert np.linalg.norm(y, axis=1).max() <= 1.0 + 1e-9

    def test_equivariance_under_ill_conditioned_maps(self):
        # maps of condition 1e3: solved at a similarity's scale, the center
        # was off by up to 3e-4 of the diameter here
        rng = np.random.default_rng(63)
        for P in random_bodies(12, 64, affine=False):
            t1, t2 = rng.uniform(0.0, 2.0 * np.pi, 2)
            R1 = np.array([[np.cos(t1), -np.sin(t1)], [np.sin(t1), np.cos(t1)]])
            R2 = np.array([[np.cos(t2), -np.sin(t2)], [np.sin(t2), np.cos(t2)]])
            T = AffineMap(R1 @ np.diag([1.0, 1e-3]) @ R2, rng.normal(size=2))
            Q = affine_apply(T, P)
            E1, E2 = loewner_ellipse(Q), loewner_ellipse(P).affine_image(T)
            assert np.linalg.norm(E1.center - E2.center) <= 1e-10 * Q.diameter
            assert np.abs(E1.shape @ E1.shape.T - E2.shape @ E2.shape.T).max() \
                <= 1e-10 * Q.diameter ** 2

    def test_certified_on_stream_bodies(self):
        for seed in (1, 7, 11):
            for P in random_polygons(50, seed):
                # raises unless the contact conditions hold to CERT_RESIDUAL_TOL
                verify_john_conditions(P, loewner_ellipse(P), "enclosing")

    @pytest.mark.parametrize("count, seed, index, polar", _indefinite_cases())
    def test_indefinite_newton_matrix(self, count, seed, index, polar):
        # the barrier in the center and the matrix M of (y - c)^T M (y - c)
        # <= 1 is not convex: on these bodies (or their polars about the
        # centroid) its Newton matrix turned indefinite.  Solved so, the
        # first four failed their certificates (sums 1e-4 to 9e-3), and the
        # others needed steps down the gradient
        P = _stream(count, seed)[index]
        if polar:
            P = polar_about(P, P.centroid)
        cert = verify_john_conditions(P, loewner_ellipse(P), "enclosing")
        assert np.linalg.norm(cert.residual_sum) <= 1e-12
        assert cert.residual_identity <= 1e-12

    def test_random_triangle_certified(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            P = canonicalize(rng.random((3, 2)) * 2.0)
            E = loewner_ellipse(P)
            cert = verify_john_conditions(P, E, "enclosing")
            assert cert.residual_identity < 1e-7
            assert np.linalg.norm(cert.residual_sum) < 1e-7


class TestCertificates:
    def test_square_inscribed(self, square):
        cert = verify_john_conditions(square, Ellipse((0, 0), np.eye(2)),
                                      "inscribed")
        assert len(cert.contacts) == 4
        assert cert.residual_identity < 1e-12

    def test_loose_disk_fails(self, square):
        with pytest.raises((NoContacts, CertificationFailure)):
            verify_john_conditions(square, Ellipse((0, 0), 0.9 * np.eye(2)),
                                   "inscribed")

    def test_unknown_mode(self, square):
        with pytest.raises(BadParams):
            verify_john_conditions(square, Ellipse((0, 0), np.eye(2)), "bogus")

    def test_triangle_steiner_contacts(self, triangle):
        cert = verify_john_conditions(triangle, john_ellipse(triangle),
                                      "inscribed")
        assert len(cert.contacts) == 3
        assert cert.residual_identity < 1e-9

    def test_contact_scan_matches_loop(self):
        # the masked scan against a loop over the edges (vertices): the same
        # contacts in the same order, to the bit, so the same certificate;
        # a vertex's radius is np.hypot of its coordinates, as in the scan
        def loop(P, E, mode):
            verts = np.linalg.solve(E.shape, (P.vertices - E.center).T).T
            dirs = []
            if mode == "inscribed":
                for a, b in zip(*edge_normals(Polygon(verts))):
                    if abs(b - 1.0) < CONTACT_TOL:
                        dirs.append(a)
            else:
                for v in verts:
                    if abs(np.hypot(*v) - 1.0) < CONTACT_TOL:
                        dirs.append(v / np.hypot(*v))
            return np.asarray(dirs).reshape(-1, 2)

        rng = np.random.default_rng(65)
        bodies = [ngon(6), ngon(200), canonicalize(limacon(256))] + random_bodies(6, 66)
        bodies += [affine_apply(random_map(rng, max_cond=1e3), P) for P in bodies[:4]]
        for P in bodies:
            for solve, mode in ((john_ellipse, "inscribed"), (loewner_ellipse, "enclosing")):
                E = solve(P)
                U = _contact_dirs(P, E, mode)
                assert len(U) >= 3
                assert np.array_equal(U, loop(P, E, mode))
                # a loose ellipse touches nothing
                assert len(_contact_dirs(P, Ellipse(E.center, 0.5 * E.shape), mode)) == 0


def _exact_field(A, b, x):
    """det L and grad_x log det L of the fixed-center John problem of
    {y : A y <= b} at x, max log det M over u_i^T M u_i <= 1 with M = L^2
    and u_i = a_i / (b_i - a_i.x), by brute force over every pair and
    triple of constraints.

    A float screen keeps the sets whose M (from the contact equations)
    leaves no slack and no weight lam of M^-1 = sum lam_i u_i u_i^T below
    -1e-6.  The first of them whose M, lam and slacks, recomputed in
    exact rational arithmetic on the float data, meet John's conditions
    exactly gives the optimum; det L is the square root of its det M,
    rounded once, and the slope -sum lam_i u_i.  Also returns
    sum lam_i |u_i|_1, the scale of the slope's terms, and how many sets
    passed the screen: more than one marks tied contacts, where the slope
    is not unique.
    """
    r = [Fraction(bi) - Fraction(a0) * Fraction(x[0]) - Fraction(a1) * Fraction(x[1])
         for (a0, a1), bi in zip(A.tolist(), b.tolist())]
    u = [(Fraction(a0) / ri, Fraction(a1) / ri) for (a0, a1), ri in zip(A.tolist(), r)]
    uf = np.array([[float(ux), float(uy)] for ux, uy in u])
    rows = np.column_stack([uf[:, 0] ** 2, 2.0 * uf[:, 0] * uf[:, 1], uf[:, 1] ** 2])

    def det3(R):
        return (R[0][0] * (R[1][1] * R[2][2] - R[1][2] * R[2][1])
                - R[0][1] * (R[1][0] * R[2][2] - R[1][2] * R[2][0])
                + R[0][2] * (R[1][0] * R[2][1] - R[1][1] * R[2][0]))

    def cramer(R, rhs):
        d = det3(R)
        return [det3([row[:j] + [c] + row[j + 1:] for row, c in zip(R, rhs)]) / d
                for j in range(3)]

    def screen(S):
        if len(S) == 2:
            (x0, y0), (x1, y1) = uf[list(S)]
            m = np.array([y0 * y0 + y1 * y1, -(x0 * y0 + x1 * y1), x0 * x0 + x1 * x1])
            lam = np.ones(2)
            m /= (x0 * y1 - y0 * x1) ** 2
        else:
            C = rows[list(S)]
            m = np.linalg.solve(C, np.ones(3))
            v = np.array([m[2], -2.0 * m[1], m[0]]) / (m[0] * m[2] - m[1] ** 2)
            lam = np.linalg.solve(C.T, v)
        return (1.0 - rows @ m).min() >= -1e-6 and lam.min() >= -1e-6

    def exact(S):
        if len(S) == 2:
            (x0, y0), (x1, y1) = (u[i] for i in S)
            cr2 = (x0 * y1 - y0 * x1) ** 2
            m = [(y0 * y0 + y1 * y1) / cr2, -(x0 * y0 + x1 * y1) / cr2,
                 (x0 * x0 + x1 * x1) / cr2]
            lam = [1, 1]
        else:
            C = [[ux * ux, 2 * ux * uy, uy * uy] for ux, uy in (u[i] for i in S)]
            m = cramer(C, [1, 1, 1])
            d = m[0] * m[2] - m[1] ** 2
            lam = cramer([list(col) for col in zip(*C)],
                         [m[2] / d, -2 * m[1] / d, m[0] / d])
        return m, lam

    screened, found = 0, None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sets = [S for size in (2, 3) for S in itertools.combinations(range(len(u)), size)]
        for S in sets:
            try:
                if not screen(S):
                    continue
            except np.linalg.LinAlgError:
                continue
            screened += 1
            if found is not None:
                continue
            m, lam = exact(S)
            if min(lam) >= 0 and m[0] > 0 and all(
                    m[0] * ux * ux + 2 * m[1] * ux * uy + m[2] * uy * uy <= 1 for ux, uy in u):
                g = [-sum(l * u[i][c] for l, i in zip(lam, S)) for c in (0, 1)]
                scale = sum(l * (abs(u[i][0]) + abs(u[i][1])) for l, i in zip(lam, S))
                found = (math.sqrt(float(m[0] * m[2] - m[1] ** 2)),
                         np.array([float(g[0]), float(g[1])]), float(scale))
    assert found is not None
    return found + (screened,)


def _field_cases():
    """Fixed centers for the field oracle, in the frame of ``_normalize``:
    on 20 stream bodies, three random interior points each and one 1e-3 of
    the diameter inside an edge, where the ellipse is thin; and the
    regular 3- to 16-gons at their centers, plain and under a map of
    condition 1e3, whose contacts tie and whose antiparallel edges repeat
    directions."""
    rng = np.random.default_rng(67)
    cases = []
    for P in _stream(20, 5):
        verts, _, _ = _normalize(P)
        A, b = edge_normals(Polygon(verts))
        X = rng.dirichlet(np.ones(len(b)), size=3) @ verts
        i, t = int(rng.integers(len(b))), rng.uniform(0.2, 0.8)
        edge = (1.0 - t) * verts[i] + t * verts[(i + 1) % len(b)]
        cases.append((Polygon(verts), np.vstack([X, edge - 1e-3 * A[i]])))
    # the center of a regular polygon is its centroid, 0 in that frame
    T = AffineMap(_rotation(0.7) @ np.diag([1.0, 1e-3]) @ _rotation(2.9))
    for n in range(3, 17):
        for P in (ngon(n), affine_apply(T, ngon(n))):
            cases.append((Polygon(_normalize(P)[0]), np.zeros((1, 2))))
    return cases


class TestCenteredFields:
    def test_square_center(self, square):
        assert max_centered_area(square, (0, 0)) == pytest.approx(np.pi, abs=1e-8)

    def test_square_offset(self, square):
        assert max_centered_area(square, (0.5, 0.0)) == \
            pytest.approx(np.pi / 2, abs=1e-8)

    def test_boundary_zero(self, square):
        assert max_centered_area(square, (1.0, 0.0)) == 0.0

    def test_lambda_square(self, square):
        # at the center, at a vertex and outside: H = conv((P - x) u (x - P))
        # is the square, an affine-regular hexagon whose smallest ellipse has
        # area 8 pi / sqrt(3), and a 6 x 2 rectangle.  Each field value is
        # certified by John's conditions, so exact to rounding
        for x, expect in (((0, 0), 1.0 / (2 * np.pi)),
                          ((1, 1), np.sqrt(3) / (8 * np.pi)),
                          ((2, 0), 1.0 / (6 * np.pi))):
            assert min_centered_inverse_area(square, x) == \
                pytest.approx(expect, rel=1e-12)

    def test_lambda_positive_and_scaling(self, triangle):
        rng = np.random.default_rng(56)
        T = random_map(rng)
        det = abs(np.linalg.det(T.matrix))
        for x in [(0.3, 0.3), (0.1, 0.2), (0.5, 0.1)]:
            v = min_centered_inverse_area(triangle, x)
            assert v > 0.0
            w = min_centered_inverse_area(affine_apply(T, triangle),
                                          T(np.asarray(x)))
            assert w * det == pytest.approx(v, rel=1e-7)

    def test_one_row_call_matches_the_exact_oracle(self):
        # max_centered_area is the one-row call of the batched solver, and
        # the exact oracle its reference; measured 1.4e-15
        for P in random_polygons(100, 5):
            x = P.centroid
            verts, d, g = _normalize(P)
            A, b = edge_normals(Polygon(verts))
            expect = np.pi * _exact_field(A, b, (x - g) / d)[0] * d * d
            assert abs(max_centered_area(P, x) - expect) <= 1e-12 * expect

    def test_matches_exact_oracle(self):
        # f_K / pi and its slope against the brute-force oracle: f to 1e-12
        # relative, and, where one contact set alone meets John's conditions,
        # the slope to 1e-12 of the scale of its terms.  Measured: 4.8e-14
        # and 2.2e-14; 26 of the 108 rows, the polygons' centers among
        # them, have tied sets
        for Q, X in _field_cases():
            A, b = edge_normals(Q)
            det, grad = _centered_john(A, b, X)
            for x, f, slope in zip(X, det, grad):
                f_exact, slope_exact, scale, sets = _exact_field(A, b, x)
                assert abs(f - f_exact) <= 1e-12 * f_exact
                if sets == 1:
                    assert np.abs(slope - slope_exact).max() <= 1e-12 * scale

    def test_affine_regular_polygons_at_their_centers(self):
        # f_K = |det T| pi cos^2(pi / n) at the center of T(ngon(n)), the
        # image of the incircle, and all n contacts tie.  On parallelograms
        # (n = 4 under 200 random maps) the four contacts lie on two lines
        # through the center, so every triple's contact equations are
        # dependent to rounding: 10 of them read a triple's rounding as a
        # certificate, off by up to 20%, before such triples were set
        # aside.  Past FIELD_POOL vertices a pool can miss every pair and
        # triple of the tied contacts that meets John's conditions, and the
        # basis iteration must reach one.  Measured: at most 1.5e-13
        # (ngon(16))
        rng = np.random.default_rng(68)
        T = AffineMap(_rotation(0.7) @ np.diag([1.0, 1e-3]) @ _rotation(2.9),
                      np.array([3.0, -2.0]))
        cases = [(4, random_map(rng)) for _ in range(200)]
        cases += [(n, M) for n in (9, 12, 16, 32, 64, 128, 200)
                  for M in (AffineMap.identity(), T)]
        for n, M in cases:
            f = max_centered_area(affine_apply(M, ngon(n)), M.translation)
            exact = abs(np.linalg.det(M.matrix)) * np.pi * np.cos(np.pi / n) ** 2
            assert abs(f / exact - 1.0) <= 1e-12

    def test_envelope_slope(self):
        # the batched solver's gradient of log f along a random direction,
        # against the Richardson extrapolate (4 D(h) - D(2 h)) / 3 of central
        # differences D of log f at h = 1e-4 diam, whose error is O(h^4):
        # 3.4e-10 at worst here, where D(h) alone is off by up to 8.9e-6
        rng = np.random.default_rng(61)
        for P in random_bodies(6, 62):
            verts, d, g = _normalize(P)
            A, b = edge_normals(Polygon(verts))
            X = g + 0.5 * (P.vertices[:3] - g)
            U = rng.normal(size=(3, 2))
            U /= np.linalg.norm(U, axis=1)[:, None]
            _, grad = _centered_john(A, b, (X - g) / d)
            h = 1e-4 * d
            for x, u, gr in zip(X, U, grad):
                fd = [(np.log(max_centered_area(P, x + s * u))
                       - np.log(max_centered_area(P, x - s * u))) / (2.0 * s)
                      for s in (h, 2.0 * h)]
                rich = (4.0 * fd[0] - fd[1]) / 3.0
                assert abs(gr @ u / d - rich) <= 1e-9 * abs(rich)

    def test_sqrt_concavity(self, triangle):
        rng = np.random.default_rng(57)
        for _ in range(25):
            lam = rng.random(3)
            lam /= lam.sum()
            x = lam @ triangle.vertices
            lam = rng.random(3)
            lam /= lam.sum()
            y = lam @ triangle.vertices
            t = rng.random()
            mid = t * x + (1 - t) * y
            lhs = np.sqrt(max_centered_area(triangle, mid))
            rhs = t * np.sqrt(max_centered_area(triangle, x)) + \
                (1 - t) * np.sqrt(max_centered_area(triangle, y))
            assert lhs >= rhs - 1e-8


class TestEllipseDuality:
    def test_loewner_is_polar_of_john(self):
        # the inscribed ellipse of P, recentred, is polar-dual to the
        # enclosing ellipse of the polar body about the same point
        for P in random_bodies(10, 58):
            J = john_ellipse(P)
            Q = polar_about(P, J.center)
            L = loewner_ellipse(Q)
            polar = Ellipse(np.zeros(2), J.shape).polar()
            assert np.linalg.norm(L.center) < 1e-6
            assert np.allclose(L.shape @ L.shape.T, polar.shape @ polar.shape.T,
                               rtol=1e-6, atol=1e-8)

    def test_polar_center_test_scales_with_the_ellipse(self):
        # 1e-7 off the origin is centered at size 1e3; 1e-12 off is not at
        # size 1e-6
        E = Ellipse((1e-7, 0.0), 1e3 * np.eye(2)).polar()
        assert np.allclose(E.shape, 1e-3 * np.eye(2), rtol=1e-15, atol=0.0)
        with pytest.raises(BadParams):
            Ellipse((1e-12, 0.0), 1e-6 * np.eye(2)).polar()

    def test_monotone_in_nesting(self, square):
        inner = canonicalize(square.vertices * 0.7)
        assert john_ellipse(inner).area <= john_ellipse(square).area + 1e-9


class TestNNLS:
    @staticmethod
    def _contact_system(U):
        return np.vstack([U[:, 0], U[:, 1], U[:, 0] ** 2, U[:, 0] * U[:, 1],
                          U[:, 1] ** 2])

    @staticmethod
    def _assert_kkt(A, b, w, tol=1e-12):
        grad = A.T @ (b - A @ w)
        assert w.min() >= 0.0
        assert np.all(grad[w == 0.0] <= tol)
        assert np.all(np.abs(grad[w > 0.0]) <= tol)

    def test_random_contact_systems(self):
        rng = np.random.default_rng(104)
        for trial in range(300):
            k = int(rng.integers(1, 13))
            t = rng.uniform(0.0, 2.0 * np.pi, k)
            if trial % 3 == 0:
                t[-1] = t[0]  # the contact set repeats a direction
            A = self._contact_system(np.column_stack([np.cos(t), np.sin(t)]))
            b = np.array([0.0, 0.0, 1.0, 0.0, 1.0]) if trial % 2 else \
                rng.normal(size=5)
            self._assert_kkt(A, b, _nnls(A, b))

    def test_square_contacts_repeated(self):
        # the square's four contacts, each listed twice: any split of the
        # weight 1/2 between the copies solves the John system exactly
        U = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]] * 2)
        A = self._contact_system(U)
        b = np.array([0.0, 0.0, 1.0, 0.0, 1.0])
        w = _nnls(A, b)
        self._assert_kkt(A, b, w)
        assert np.linalg.norm(A @ w - b) < 1e-14
        assert np.allclose(w[:4] + w[4:], 0.5, atol=1e-14)


# The oracle, a log-det barrier independent of the library's solvers: a
# generic driver over separate slack, Jacobian and Hessian-sum closures,
# with the log-det terms as arrays, and both problems at the diameter's
# scale, the Loewner problem in the center c and the matrix M of
# (y - c)^T M (y - c) <= 1.  It stops at a gap of 1e-10, some 5e-10 of the
# diameter from the optimum, so the John and Loewner references are its end
# point refined by Newton on John's conditions.

def _sym(t3):
    return np.array([[t3[0], t3[1]], [t3[1], t3[2]]])


# the oracle's barrier stops at this duality gap n / t
_ORACLE_GAP = 1e-10


def _oracle_barrier(theta0, slack_fn, slack_jac, slack_hess, ss, n_con):
    def logdet(t3):
        return np.log(t3[0] * t3[2] - t3[1] ** 2)

    def is_pd(t3):
        return t3[0] > 0.0 and t3[0] * t3[2] - t3[1] ** 2 > 0.0

    theta = np.asarray(theta0, dtype=float).copy()
    s = slack_fn(theta)
    log_s = float(np.log(s).sum())
    M = np.array([[0.0, 0.0, 1.0], [0.0, -2.0, 0.0], [1.0, 0.0, 0.0]])
    t = 1.0
    while True:
        for _ in range(60):
            l3 = theta[ss]
            det = l3[0] * l3[2] - l3[1] ** 2
            v = np.array([l3[2], -2.0 * l3[1], l3[0]])
            Js = slack_jac(theta) / s[:, None]
            g = -Js.sum(axis=0)
            g[ss] -= t * v / det
            H = Js.T @ Js - slack_hess(theta, 1.0 / s)
            H[ss, ss] -= t * (M / det - np.outer(v, v) / det**2)
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                step = -g
            lam2 = float(-g @ step)
            if not np.all(np.isfinite(step)) or lam2 <= 2.0 * t * 1e-13:
                break
            base = -t * logdet(l3) - log_s
            alpha = 1.0
            while alpha > 1e-14:
                cand = theta + alpha * step
                if is_pd(cand[ss]):
                    sc = slack_fn(cand)
                    if np.all(sc > 0.0):
                        lc = float(np.log(sc).sum())
                        if -t * logdet(cand[ss]) - lc < base:
                            theta, s, log_s = cand, sc, lc
                            break
                alpha *= 0.5
            else:
                break
        if n_con / t < _ORACLE_GAP:
            return theta
        t *= 10.0


def _kkt_refine(theta, slack_fn, slack_jac, slack_hess, ss):
    """Newton on John's conditions, grad logdet + sum_i lam_i grad s_i = 0
    and s_i = 0, over the contacts of a barrier end point (slack below
    1e-7; there the barrier's slacks are about 1e-11 / lam_i), from the
    least-squares multipliers.  The result must have lam > 0 and no slack
    below -1e-13: it is then the optimum, whatever the path."""
    theta = theta.copy()
    S = np.flatnonzero(slack_fn(theta) < 1e-7)
    k, m = len(theta), len(S)

    def grad_logdet(theta):
        l3 = theta[ss]
        det = l3[0] * l3[2] - l3[1] ** 2
        g = np.zeros(k)
        g[ss] = np.array([l3[2], -2.0 * l3[1], l3[0]]) / det
        return g, det

    g, _ = grad_logdet(theta)
    lam = np.linalg.lstsq(slack_jac(theta)[S].T, -g, rcond=None)[0]
    M = np.array([[0.0, 0.0, 1.0], [0.0, -2.0, 0.0], [1.0, 0.0, 0.0]])
    for _ in range(20):
        g, det = grad_logdet(theta)
        J = slack_jac(theta)[S]
        wts = np.zeros(len(slack_fn(theta)))
        wts[S] = lam
        K = np.zeros((k + m, k + m))
        K[:k, :k] = slack_hess(theta, wts)
        K[ss, ss] += M / det - np.outer(g[ss], g[ss])
        K[:k, k:], K[k:, :k] = J.T, J
        F = np.concatenate([g + J.T @ lam, slack_fn(theta)[S]])
        d = np.linalg.solve(K, -F)
        theta, lam = theta + d[:k], lam + d[k:]
        if np.abs(d[:k]).max() <= 1e-15 * np.abs(theta).max():
            break
    assert lam.min() > 0.0 and slack_fn(theta).min() >= -1e-13
    return theta


def _oracle_john(P):
    verts, d, g = _normalize(P)
    Q = Polygon(verts)
    A, b = edge_normals(Q)

    def slacks(theta):
        return b - A @ theta[:2] - np.linalg.norm(A @ _sym(theta[2:]), axis=1)

    def jac(theta):
        w = A @ _sym(theta[2:])
        wn = w / np.linalg.norm(w, axis=1)[:, None]
        return np.hstack([-A, -np.column_stack([
            wn[:, 0] * A[:, 0], wn[:, 0] * A[:, 1] + wn[:, 1] * A[:, 0], wn[:, 1] * A[:, 1]])])

    def hess(theta, wts):
        w = A @ _sym(theta[2:])
        wl = np.linalg.norm(w, axis=1)
        t1, t2 = -w[:, 1] / wl, w[:, 0] / wl
        q = np.column_stack([A[:, 0] * t1, A[:, 1] * t1 + A[:, 0] * t2, A[:, 1] * t2])
        out = np.zeros((5, 5))
        out[2:, 2:] = -(q.T * (wts / wl)) @ q
        return out

    c0 = Q.centroid
    r0 = 0.45 * min(b - A @ c0)
    theta = _oracle_barrier([c0[0], c0[1], r0, 0.0, r0], slacks, jac, hess,
                            slice(2, 5), len(b))
    theta = _kkt_refine(theta, slacks, jac, hess, slice(2, 5))
    L = d * _sym(theta[2:])
    return g + d * theta[:2], L


def _oracle_loewner(P):
    verts, d, g = _normalize(P)

    def slacks(theta):
        y = verts - theta[:2]
        return 1.0 - ((y @ _sym(theta[2:])) * y).sum(axis=1)

    def jac(theta):
        y = verts - theta[:2]
        dm = np.column_stack([-y[:, 0] ** 2, -2.0 * y[:, 0] * y[:, 1], -y[:, 1] ** 2])
        return np.hstack([2.0 * (y @ _sym(theta[2:])), dm])

    def hess(theta, wts):
        y0, y1 = wts @ (verts - theta[:2])
        out = np.zeros((5, 5))
        out[:2, :2] = -2.0 * wts.sum() * _sym(theta[2:])
        out[:2, 2:] = [[2.0 * y0, 2.0 * y1, 0.0], [0.0, 2.0 * y0, 2.0 * y1]]
        out[2:, :2] = out[:2, 2:].T
        return out

    m0 = 1.0 / (2.0 * np.linalg.norm(verts, axis=1).max()) ** 2
    theta = _oracle_barrier([0.0, 0.0, m0, 0.0, m0], slacks, jac, hess,
                            slice(2, 5), len(verts))
    theta = _kkt_refine(theta, slacks, jac, hess, slice(2, 5))
    w, V = np.linalg.eigh(_sym(theta[2:]))
    return g + d * theta[:2], d * (V / np.sqrt(w)) @ V.T


def _oracle_bodies():
    stream = list(random_polygons(300, 71))
    return stream + [polar_about(P, P.centroid) for P in stream[:100]]


class TestBasisSolveAgainstBarrierOracle:
    @pytest.mark.parametrize("solve, oracle, tol", [
        (john_ellipse, _oracle_john, 1e-12),
        (loewner_ellipse, _oracle_loewner, 1e-9),
    ], ids=["john", "loewner"])
    def test_matches_oracle(self, solve, oracle, tol):
        # the basis solve against the optimum that the test's own log-det
        # barrier and KKT refinement lead to, on 300 stream bodies and the
        # polars of 100 of them
        for P in _oracle_bodies():
            E = solve(P)
            c, S = oracle(P)
            assert np.linalg.norm(E.center - c) <= tol * P.diameter
            assert np.abs(E.shape - S).max() <= tol * P.diameter

    @pytest.mark.parametrize("solve, mode", [
        (john_ellipse, "inscribed"), (loewner_ellipse, "enclosing")],
        ids=["john", "loewner"])
    def test_certified_to_rounding(self, solve, mode):
        # the basis solve's ellipses certify to rounding on the same bodies,
        # with at most 40 pools after the first per solve on average (a
        # barrier took 67 Newton steps per solve on them, and its end points
        # read certificates up to 1.2e-7 for john and 2.0e-8 for loewner)
        steps = []
        for P in _oracle_bodies():
            E = solve(P)
            cert = verify_john_conditions(P, E, mode)
            assert np.linalg.norm(cert.residual_sum) <= 1e-12
            assert cert.residual_identity <= 1e-12
            steps.append(E.iterations)
        assert np.mean(steps) <= 40


def _rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


# a map of condition 1e3
_T1E3 = AffineMap(_rotation(0.7) @ np.diag([1.0, 1e-3]) @ _rotation(2.9), np.array([3.0, -2.0]))


@pytest.mark.parametrize("mapped", [False, True], ids=["plain", "mapped"])
@pytest.mark.parametrize("spec", ["square", "kab:0.4,0.9", "kab:1,2", "simplex", "ngon:5",
                                  "ngon:6", "ngon:8", "ngon:12", f"ngon:{BASIS_MAX_N}",
                                  f"ngon:{BASIS_MAX_N + 1}"])
def test_basis_solve_against_reference(spec, mapped):
    # bodies where a first basis solve failed: on quadrilaterals a Loewner
    # cubic in another pencil lost its leading coefficient, and solved in
    # the frame of _normalize, John read 4.6e-12 of the diameter under the
    # map; and regular polygons either side of BASIS_MAX_N.  The reference
    # is the oracle's optimum of the plain body, or the in- and circumcircle
    # of a regular one, where contacts tie and the oracle's Newton matrix
    # is singular, carried by the map; against a long-double basis solve
    # it reads up to 3e-14 of the diameter on these bodies
    P = parse_spec(spec)
    T = _T1E3 if mapped else AffineMap.identity()
    for solve, oracle, mode, r in ((john_ellipse, _oracle_john, "inscribed", np.cos(np.pi / P.n)),
                                   (loewner_ellipse, _oracle_loewner, "enclosing", 1.0)):
        ref = Ellipse(np.zeros(2), r * np.eye(2)) if spec.startswith("ngon") else \
            Ellipse(*oracle(P))
        ref = ref.affine_image(T)
        Q = affine_apply(T, P) if mapped else P
        E = solve(Q)
        assert np.linalg.norm(E.center - ref.center) <= 1e-13 * Q.diameter
        assert np.abs(E.shape - ref.shape).max() <= 1e-13 * Q.diameter
        cert = verify_john_conditions(Q, E, mode)
        assert np.linalg.norm(cert.residual_sum) <= 1e-12
        assert cert.residual_identity <= 1e-12


def _finish_cases():
    # regular polygons, whose contacts tie, plain and under a map of
    # condition 1e3; and the benchmark's 1024-vertex limacon, whose John
    # ellipse has six near-active edges, under three maps.  Each with the
    # bounds on the John and the Loewner pools solved after the first.
    # ngon(200)'s first pool of nine constraints spread over all directions
    # is certified (the smaller ones are solved on all constraints), and the
    # limacon takes 6, 6, 6 (John) and 7, 7, 5 (Loewner) more pools; with
    # the least slack alone filling each pool, 12-15 and 11-14
    T = _T1E3
    cases = []
    for m in (6, 8, 200):
        cases.append(pytest.param(ngon(m), 0, 0, id=f"ngon{m}"))
        cases.append(pytest.param(affine_apply(T, ngon(m)), 0, 0, id=f"ngon{m}-mapped"))
    rng = np.random.default_rng(2101)
    base = canonicalize(limacon(1024))
    for i in range(3):
        cases.append(pytest.param(affine_apply(random_map(rng), base), 10, 10, id=f"limacon-{i}"))
    return cases


@pytest.mark.parametrize("P, john_pools, loewner_pools", _finish_cases())
def test_finish_past_five_contacts(P, john_pools, loewner_pools):
    for solve, mode, bound in ((john_ellipse, "inscribed", john_pools),
                               (loewner_ellipse, "enclosing", loewner_pools)):
        E = solve(P)
        assert E.residual <= 1e-12
        cert = verify_john_conditions(P, E, mode)
        assert np.linalg.norm(cert.residual_sum) <= 1e-12
        assert cert.residual_identity <= 1e-12
        assert E.iterations <= bound


def test_pools_on_the_benchmark_maps():
    # the benchmark's limacon under its 12 maps of seed 1, each scaled so
    # that its smaller singular value is 1.  Measured: 6.5 (John) and 6.6
    # (Loewner) pools after the first on average, at most 8 each; with the
    # least slack alone filling each pool, 12.4 and 13.1, at most 14 and 16
    rng = np.random.default_rng(1)
    base = canonicalize(limacon(1024))
    pools = {"inscribed": [], "enclosing": []}
    for _ in range(12):
        T = random_map(rng)
        T = AffineMap(T.matrix / np.linalg.svd(T.matrix, compute_uv=False)[-1], T.translation)
        P = affine_apply(T, base)
        for solve, mode in ((john_ellipse, "inscribed"), (loewner_ellipse, "enclosing")):
            E = solve(P)
            cert = verify_john_conditions(P, E, mode)
            assert np.linalg.norm(cert.residual_sum) <= 1e-12
            assert cert.residual_identity <= 1e-12
            pools[mode].append(E.iterations)
    for steps in pools.values():
        assert np.mean(steps) <= 8 and max(steps) <= 12


def test_field_pools_on_the_benchmark_maps(monkeypatch):
    # the fixed-center John field at 64 centers of the benchmark's limacon
    # under its 12 maps of seed 1, from the centroid out to 0.99 of the way
    # to a vertex.  Each round after the first calls _next_pool once on the
    # rows left.  Measured: 4.5 pools after the first per center on
    # average, and 7 rounds in every batch
    rows = []
    next_pool = _next_pool

    def spy(s, basis, size, tol):
        rows.append(len(s))
        return next_pool(s, basis, size, tol)

    monkeypatch.setattr("affpoints.ellipses._next_pool", spy)
    rng = np.random.default_rng(1)
    base = canonicalize(limacon(1024))
    for _ in range(12):
        T = random_map(rng)
        T = AffineMap(T.matrix / np.linalg.svd(T.matrix, compute_uv=False)[-1], T.translation)
        P = affine_apply(T, base)
        verts, d, g = _normalize(P)
        A, b = edge_normals(Polygon(verts))
        X = np.linspace(0.0, 0.99, 64)[:, None] * verts[::16]
        rows.clear()
        det, grad = _centered_john(A, b, X)
        assert (det > 0.0).all() and np.isfinite(grad).all()
        assert sum(rows) / len(X) <= 5.5 and len(rows) <= 9


def test_field_failure_reports_the_rows_and_the_least_slack(monkeypatch):
    # a pool rule that returns the first six edges and the next six by
    # turns, whose optima at the centroid of a 64-vertex limacon leave
    # other edges violated: no pool is the one just solved, and after 100
    # rounds the failure says how many centers were left and how far their
    # optima were infeasible
    calls = []

    def two_pools(s, basis, size, tol):
        calls.append(len(s))
        return np.tile(np.arange(size) + size * (len(calls) % 2), (len(s), 1))

    monkeypatch.setattr("affpoints.ellipses._next_pool", two_pools)
    with pytest.raises(ConvergenceFailure,
                       match=r"ran 100 pools: 1 of 1 centers left, least slack -\d"):
        max_centered_area(canonicalize(limacon(64)), (0.0, 0.0))


def test_field_stops_a_center_whose_pool_repeats(monkeypatch):
    # a center whose pools fix no M (its M reads nan, as on a pool of one
    # line) takes the basis and the first constraints as its next pool,
    # which here in the second round is the pool it just solved: the field
    # stops there and names it, rather than solve that pool again until its
    # 100-round failure
    rounds = []
    field_optimum = _field_optimum

    def nan_first_row(x, y):
        rounds.append(len(x))
        sets, m, g = field_optimum(x, y)
        m[0] = np.nan
        return sets, m, g

    monkeypatch.setattr("affpoints.ellipses._field_optimum", nan_first_row)
    verts, _, _ = _normalize(canonicalize(limacon(64)))
    A, b = edge_normals(Polygon(verts))
    with pytest.raises(ConvergenceFailure,
                       match=r"repeated a pool in round 2: centers \[0\] of 4, least slack nan"):
        _centered_john(A, b, 0.1 * verts[::16])
    assert len(rounds) == 2


def _slack_profile(n, dips):
    s = np.full(n, 0.5)
    for i, v in dips.items():
        s[i] = v
    return s


def _next_pools(s, basis):
    # the rows of s with their bases, given as index lists, at the free
    # center's pool size and slack
    mask = np.zeros(s.shape, dtype=bool)
    for row, b in zip(mask, basis):
        row[b] = True
    return _next_pool(s, mask, FINISH_POOL, FINISH_SLACK).tolist()


def test_next_pool_takes_each_violated_arc():
    # a basis of five tight constraints (one feasible to rounding) and two
    # violated arcs; the four constraints of least slack are all on the
    # deeper arc, so the next pool holds the deepest of the other only as an
    # arc's deepest violation.  Row two: five single-constraint arcs and
    # room for four, so the deepest four, the least slack of all among them.
    # Each row's pool depends on that row alone
    s = np.stack([_slack_profile(30, {3: -0.1, 4: -0.4, 5: -0.2, 6: -0.05,
                                      16: -0.5, 17: -0.6, 18: -0.7, 19: -0.8, 20: -0.75,
                                      21: -0.65, 22: -0.55, 23: -0.45,
                                      9: 0.0, 11: -1e-13, 12: 1e-10, 26: 0.0, 28: 0.0,
                                      13: 1e-8}),
                  _slack_profile(30, {2: -0.3, 6: -0.1, 14: -0.5, 20: -0.2, 24: -0.4,
                                      9: 0.0, 11: 0.0, 12: 0.0, 26: 0.0, 28: 0.0})])
    basis = [[9, 11, 12, 26, 28]] * 2
    expect = [[4, 9, 11, 12, 18, 19, 20, 26, 28], [2, 9, 11, 12, 14, 20, 24, 26, 28]]
    assert _next_pools(s, basis) == expect
    assert [_next_pools(row[None], basis[:1])[0] for row in s] == expect


def test_next_pool_takes_a_plateau_once():
    # a plateau of three equal minima, a violated arc through index 0 whose
    # two deepest tie, and a one-constraint arc: each arc gives the first of
    # its deepest, in cyclic order, and the one free place goes to the least
    # slack left, index 0.  Counting every member of a plateau would fill
    # the four places before the arc at 19
    s = _slack_profile(24, {3: -0.1, 4: -0.4, 5: -0.4, 6: -0.4, 7: -0.1,
                            22: -0.2, 23: -0.5, 0: -0.5, 1: -0.2, 19: -0.3,
                            9: 0.0, 11: 0.0, 13: 0.0, 15: 0.0, 17: 0.0})
    assert _next_pools(s[None], [[9, 11, 13, 15, 17]]) == [[0, 4, 9, 11, 13, 15, 17, 19, 23]]


def test_failure_reports_the_pools_and_the_least_slack(monkeypatch):
    # a solver that always returns the unit disk about (5, 5) in the frame
    # of _whiten, which holds no vertex: the pools repeat, and the failure
    # says how many were solved and how far the last optimum was infeasible
    monkeypatch.setattr("affpoints.ellipses._basis_optimum",
                        lambda V, T, lines: (np.array([5.0, 5.0]), np.array([1.0, 0.0, 1.0]),
                                             np.arange(3), np.full(3, 2.0 / 3.0), 0.0))
    with pytest.raises(ConvergenceFailure,
                       match=r"repeated a pool: \d+ pools solved, least slack -\d"):
        loewner_ellipse(canonicalize(limacon(64)))


def _count_weighings(monkeypatch):
    # the number of candidates of each _basis_weights call, in order: a
    # pool solve weighs its candidate of largest det, and every feasible
    # candidate after that only where that one fails
    calls = []
    weights = _basis_weights

    def spy(V, sets, *args):
        calls.append(sets.shape[1])
        return weights(V, sets, *args)

    monkeypatch.setattr("affpoints.ellipses._basis_weights", spy)
    return calls


def _weigh_every_candidate(V, T, lines):
    # the pool optimum by the rule that weighs every feasible candidate: of
    # those whose weights are >= -WEIGHT_TOL, the one of largest least
    # slack, else of them all
    c, X, det, least, sets, i3, i4 = _candidates(V, T, lines)
    w, _ = _basis_weights(V, sets, c, X, det, i3, i4, lines)
    i = int(np.argmax(least - ~(w >= -WEIGHT_TOL).all(axis=1)))
    return c[:, i], X[:, i]


def test_pool_optima_match_weighing_every_candidate(monkeypatch):
    # every pool that the basis iteration solves, on the limacons of
    # _finish_cases, the uneven bodies and 100 stream bodies: the candidate
    # of largest det X that its own weights certify is the ellipse that
    # weighing every candidate picks.  Where contacts tie the two rules may
    # take different candidates of the same optimum
    pools = []
    basis_optimum = _basis_optimum

    def spy(V, T, lines):
        out = basis_optimum(V, T, lines)
        pools.append((V, T, lines, out[0], out[1]))
        return out

    monkeypatch.setattr("affpoints.ellipses._basis_optimum", spy)
    limacons = [case.values[0] for case in _finish_cases() if case.id.startswith("limacon")]
    bodies = limacons + [case.values[0] for case in _uneven_cases()] + _stream(100, 5)
    for P in bodies:
        _, S, g = _whiten(P)
        pools.clear()
        john_ellipse(P)
        loewner_ellipse(P)
        assert pools
        for V, T, lines, c, X in pools:
            E = _to_ellipse(c, X, S, g, lines)
            ref = _to_ellipse(*_weigh_every_candidate(V, T, lines), S, g, lines)
            assert np.linalg.norm(E.center - ref.center) <= 1e-12 * P.diameter
            assert np.abs(E.shape - ref.shape).max() <= 1e-12 * P.diameter


def test_one_subset_table_serves_john_and_loewner():
    # one candidate per set of 3 to 5 constraints for both problems: John's
    # 4-set takes only its pencil's root in (-1, 0).  A nine-constraint
    # pool has C(9, 3) + C(9, 4) + C(9, 5) = 336 candidates (John had 462,
    # two per 4-set), and twelve constraints 1,507 (John had 2,002)
    _subsets.cache_clear()
    P = canonicalize(limacon(9))
    assert P.n == 9
    john_ellipse(P)
    loewner_ellipse(P)
    info = _subsets.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert _subsets(9)[-1].shape == (5, 336)
    assert _subsets(12)[-1].shape == (5, 1507)


def test_partial_pool_candidate_off_the_optimum_is_rejected(monkeypatch):
    # five consecutive vertices of the benchmark's limacon under its fourth
    # map at seed 1: their own problem is near degenerate, and its best
    # candidate encloses every vertex, yet is 1.1% larger than the optimum
    # and 5.1e-3 of the diameter off it.  Its basis weights, one of them
    # -7.4e8, and John's conditions both reject it, and the basis iteration,
    # which takes only a candidate of weights >= 0, ends at the optimum
    rng = np.random.default_rng(1)
    for _ in range(4):
        T = random_map(rng)
    T = AffineMap(T.matrix / np.linalg.svd(T.matrix, compute_uv=False)[-1], T.translation)
    P = affine_apply(T, canonicalize(limacon(1024)))
    Y, S, g = _whiten(P)
    V = np.column_stack([Y, np.ones(len(Y))])
    calls = _count_weighings(monkeypatch)
    c, X, basis, w, _ = _basis_optimum(V[978:983], _terms(V[978:983], False), lines=False)
    # its one feasible candidate fails its weights, so the pool weighs
    # every feasible candidate: that one again
    assert calls == [1, 1]
    assert _slacks(V, _terms(V, False), c[:, None], X[:, None], lines=False).min() >= -FINISH_SLACK
    assert w.min() < -1e8
    E, opt = _to_ellipse(c, X, S, g, lines=False), loewner_ellipse(P)
    assert np.linalg.norm(E.center - opt.center) > 1e-3 * P.diameter
    with pytest.raises(CertificationFailure):
        verify_john_conditions(P, E, "enclosing")
    assert opt.residual <= 1e-12
    cert = verify_john_conditions(P, opt, "enclosing")
    assert np.linalg.norm(cert.residual_sum) <= 1e-12
    assert cert.residual_identity <= 1e-12


@pytest.mark.parametrize("polar", [False, True], ids=["circle", "polar"])
@pytest.mark.parametrize("m", [20, 40, 60, 100, 150, 200, 250, 300])
def test_pool_finish_on_contacts_that_do_not_tie(m, polar, monkeypatch):
    # m vertices at random angles on the unit circle: each touches the
    # Loewner ellipse, the circle, with its own weight, and each edge of the
    # polar about 0 touches the incircle.  The barrier that the basis
    # iteration replaced ended at its gap on the 300 tangent lines, where
    # every pool it tried read a slack of -2.3e-12.  The 5-sets of a pool
    # of nine contacts give the circle to rounding, and on the 200 tangent
    # lines the one of largest det fails its weights, so John's one pool
    # weighs every candidate
    calls = _count_weighings(monkeypatch)
    t = np.sort(np.random.default_rng(11).uniform(0.0, 2.0 * np.pi, m))
    P = canonicalize(np.column_stack([np.cos(t), np.sin(t)]))
    if polar:
        P = polar_about(P, (0.0, 0.0))
    for solve, mode in ((john_ellipse, "inscribed"), (loewner_ellipse, "enclosing")):
        calls.clear()
        E = solve(P)
        if (m, polar, mode) == (200, True, "inscribed"):
            assert len(calls) == 2 and calls[0] == 1 and E.iterations == 0
        assert E.residual <= 1e-12
        cert = verify_john_conditions(P, E, mode)
        assert np.linalg.norm(cert.residual_sum) <= 1e-12
        assert cert.residual_identity <= 1e-12
        if polar == (mode == "inscribed"):
            # John on the 200-gon's polar reads 2.0e-14, every other case
            # at most 6.7e-15
            assert np.abs(E.center).max() <= (3e-14 if (m, polar) == (200, True) else 1e-14)
            assert np.abs(E.shape - np.eye(2)).max() <= 1e-13


def _arc(m, angle):
    # m vertices evenly spaced on an arc of the unit circle, closed by its
    # chord, symmetric about the x-axis
    t = np.linspace(-0.5 * angle, 0.5 * angle, m)
    return canonicalize(np.column_stack([np.cos(t), np.sin(t)]))


def _uneven_cases():
    # bodies whose vertices crowd on one part of the boundary: a half-disk,
    # a square with one corner rounded by 100 vertices, and sectors of 90
    # and 20 degrees.  Nine edges evenly spaced in cyclic order have their
    # normals in a half-plane on all but the half-disk
    t = np.linspace(0.0, 0.5 * np.pi, 100)
    corner = np.column_stack([0.7 + 0.3 * np.cos(t), 0.7 + 0.3 * np.sin(t)])
    bodies = {
        "halfdisk": canonicalize(np.column_stack([np.cos(2.0 * t), np.sin(2.0 * t)])),
        "rounded": canonicalize(np.vstack([corner, [[-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]])),
    }
    for deg in (90, 20):
        u = np.linspace(0.0, math.radians(deg), 100)
        bodies[f"sector{deg}"] = canonicalize(np.vstack([[[0.0, 0.0]],
                                                         np.column_stack([np.cos(u), np.sin(u)])]))
    cases = []
    for name, P in bodies.items():
        cases.append(pytest.param(P, id=name))
        cases.append(pytest.param(polar_about(P, P.centroid), id=f"{name}-polar"))
        cases.append(pytest.param(affine_apply(_T1E3, P), id=f"{name}-mapped"))
    # with 1000 corner vertices and under this map, Loewner's third pool
    # had a candidate of weights -9.41 and 9.89 that won on log det, and
    # the next pool repeated it: the solve raised ConvergenceFailure
    t = np.linspace(0.0, 0.5 * np.pi, 1000)
    corner = np.column_stack([0.7 + 0.3 * np.cos(t), 0.7 + 0.3 * np.sin(t)])
    P = canonicalize(np.vstack([corner, [[-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]]))
    cases.append(pytest.param(affine_apply(random_map(np.random.default_rng(2)), P),
                              id="rounded1000-map2"))
    return cases


@pytest.mark.parametrize("P", _uneven_cases())
def test_unevenly_spread_bodies_certify(P):
    # measured: certificates at most 2.1e-13, under the map of condition 1e3
    for solve, mode in ((john_ellipse, "inscribed"), (loewner_ellipse, "enclosing")):
        E = solve(P)
        assert E.residual <= 1e-12
        cert = verify_john_conditions(P, E, mode)
        assert np.linalg.norm(cert.residual_sum) <= 1e-12
        assert cert.residual_identity <= 1e-12


def _sector(m, deg):
    # the apex and m vertices evenly spaced on an arc of deg degrees of the
    # unit circle, symmetric about the x-axis
    u = np.linspace(-0.5 * math.radians(deg), 0.5 * math.radians(deg), m)
    return canonicalize(np.vstack([[[0.0, 0.0]], np.column_stack([np.cos(u), np.sin(u)])]))


@pytest.mark.parametrize("P, solve, mode, bound, cert_bound", [
    (_arc(200, 1.0), loewner_ellipse, "enclosing", 1e-11, 1e-11),
    (_arc(1000, 0.5), loewner_ellipse, "enclosing", 1e-9, 1e-9),
    (_arc(200, 1.0), john_ellipse, "inscribed", 1e-12, 1e-12),
    (_sector(1000, 20), john_ellipse, "inscribed", 1e-12, 1e-7),
], ids=["arc200-loewner", "arc1000-loewner", "arc200-john", "sector20-john"])
def test_crowded_contacts_certify_by_their_basis(P, solve, mode, bound, cert_bound):
    # contacts a few 1e-3 apart: the Loewner ellipses of 200 vertices on an
    # arc of one radian and of 1000 on half a radian touch the two ends and
    # two middle vertices, and their basis residuals, 5.1e-12 and 2.1e-10,
    # are the certificate's: the ellipse carries them.  John's ellipses read
    # at most 3.1e-16 on their basis; on a 20 degree sector of 1000 arc
    # vertices the certificate's weights read 2.1e-8.  Loewner's were
    # solved to a stall before, past FINISH_SLACK, and so was the sector's.
    # By symmetry each is centered on the x-axis and aligned with it
    E = solve(P)
    assert E.residual <= bound
    cert = verify_john_conditions(P, E, mode)
    res = max(np.linalg.norm(cert.residual_sum), cert.residual_identity)
    assert res <= cert_bound
    if mode == "enclosing":
        assert E.residual == pytest.approx(res, rel=1e-3)
    assert abs(E.center[1]) <= 1e-14
    assert abs(E.shape[0, 1]) <= 1e-14


def test_free_center_solves_agree_with_the_fields():
    # the fixed-center fields at the free-center optima: f_K(c_J) is the
    # John ellipse's area, and lambda_K(c_L) its inverse for Loewner's.
    # The free-center basis iteration and the batched field are separate
    # solvers on separate candidates; measured 1.2e-13 and 3.9e-13
    bodies = [case.values[0] for case in _finish_cases()] + _stream(100, 5)
    for P in bodies:
        J, L = john_ellipse(P), loewner_ellipse(P)
        assert abs(max_centered_area(P, J.center) / J.area - 1.0) <= 1e-12
        assert abs(min_centered_inverse_area(P, L.center) * L.area - 1.0) <= 1e-11


@pytest.mark.parametrize("m", [8, 12, 32])
def test_certificate_stable_on_tied_contacts(m):
    # the contacts of a regular polygon tie, so the certificate's weights
    # are not unique; a move of the ellipse by a few units in the last place
    # must not pick other contacts or other weights (with the largest
    # gradient alone, 3 to 10 certificates came out of 30 such moves)
    P = ngon(m)
    rng = np.random.default_rng(67)
    for E, mode in ((john_ellipse(P), "inscribed"), (loewner_ellipse(P), "enclosing")):
        ref = verify_john_conditions(P, E, mode).contacts
        for _ in range(10):
            shape = E.shape * (1.0 + 4e-16 * rng.normal(size=(2, 2)))
            moved = Ellipse(E.center + 1e-17 * rng.normal(size=2), 0.5 * (shape + shape.T))
            cert = verify_john_conditions(P, moved, mode).contacts
            assert len(cert) == len(ref)
            for (u, w), (u0, w0) in zip(cert, ref):
                assert np.abs(u - u0).max() <= 1e-12 and abs(w - w0) <= 1e-12
