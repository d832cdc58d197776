"""Property tests: affine equivariance of the santalo, john, loewner,
symcore and capfamily points, and of the floating and illumination
bodies; the polar preimage of the centroid as the Santalo point; the
scaling of the fixed-center John and Loewner fields under T; the
Hausdorff distance as a metric that commutes with similarities; the
diameter as the full scan over all vertex pairs; and John's contact
conditions, to rounding, for the John and Loewner ellipses.

The spec of an affine invariant point is p(T K) = T p(K) for every
nonsingular affine T.  Hypothesis draws the body, the scale (1e-8 to 1e8),
the conditioning of T (up to 1e3) and a placement, and the point of the
image must be the image of the point, to a tolerance relative to the
image's diameter.  A set mapping on m rays must commute with T to within
acceptance criterion 8's budget of 2 (2 pi / m) diam, and the floating and
illumination bodies must sandwich the body.  The santalo and symcore
points are also drawn on trapezoids and centrally symmetric hulls, whose
antiparallel edges put kinks into the symcore objective, and the john and
loewner points on 16 to 300 points of a circle or a limacon, past the
vertex count that one basis solve takes.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from affpoints.bodies import body_kab, ngon, random_body
from affpoints.duality import polar_preimage, random_polygons
from affpoints.ellipses import (
    john_ellipse,
    loewner_ellipse,
    max_centered_area,
    min_centered_inverse_area,
    verify_john_conditions,
)
from affpoints.points import PointFunction, eval_point
from affpoints.polygons import (
    AffineMap,
    affine_apply,
    canonicalize,
    hausdorff,
    polar_about,
)
from affpoints.regions import floating_body, illumination_body
from conftest import limacon

TOL = 1e-8


def _rotation(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


@st.composite
def maps(draw):
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    cond = 10.0 ** draw(st.floats(0.0, 3.0))
    t1, t2 = (draw(st.floats(0.0, 2.0 * math.pi)) for _ in range(2))
    shift = [draw(st.floats(-10.0, 10.0)) for _ in range(2)]
    # T = R1 diag(scale, scale / cond) R2, placed within ten scales of 0
    M = _rotation(t1) @ np.diag([scale, scale / cond]) @ _rotation(t2)
    return AffineMap(M, scale * np.array(shift))


@st.composite
def bodies_and_maps(draw):
    k = draw(st.integers(4, 14))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_body(k, seed, affine=False), draw(maps())


@st.composite
def midline_bodies_and_maps(draw):
    # a hull of bodies_and_maps, a trapezoid, or the hull of its points and
    # their negatives
    P, T = draw(bodies_and_maps())
    kind = draw(st.sampled_from(["hull", "trapezoid", "symmetric"]))
    if kind == "trapezoid":
        a = draw(st.floats(0.05, 1.0))
        P = body_kab(a, a * (1.0 + draw(st.floats(0.05, 3.0))))
    elif kind == "symmetric":
        P = canonicalize(np.vstack([P.vertices, -P.vertices]))
    return P, T


PROPERTY = settings(max_examples=30, derandomize=True, deadline=None)


def _deviation(spec, P, T):
    """|p(T P) - T p(P)| over the diameter of T P, for the point that
    ``spec`` names."""
    Q = affine_apply(T, P)
    pf = PointFunction.parse(spec)
    return np.linalg.norm(eval_point(pf, Q).value - T(eval_point(pf, P).value)) / Q.diameter


@PROPERTY
@given(bodies_and_maps())
def test_john_point_is_affine_equivariant(case):
    P, T = case
    Q = affine_apply(T, P)
    pf = PointFunction("john")
    dev = np.linalg.norm(eval_point(pf, Q).value - T(eval_point(pf, P).value))
    assert dev <= TOL * Q.diameter


@PROPERTY
@given(bodies_and_maps())
def test_loewner_point_is_affine_equivariant(case):
    P, T = case
    Q = affine_apply(T, P)
    pf = PointFunction("loewner")
    dev = np.linalg.norm(eval_point(pf, Q).value - T(eval_point(pf, P).value))
    assert dev <= TOL * Q.diameter


def _polar_of_stream_body_87():
    P = list(random_polygons(100, 71))[87]
    return polar_about(P, P.centroid)


@PROPERTY
@given(bodies_and_maps())
# three contacts and a fourth vertex at slack 4e-6: a finish on all four
# puts a negative weight on it
@example((_polar_of_stream_body_87(), AffineMap(np.eye(2), np.zeros(2))))
def test_john_and_loewner_meet_johns_conditions_to_rounding(case):
    _assert_johns_conditions(*case)


def _assert_johns_conditions(P, T):
    Q = affine_apply(T, P)
    for solve, mode in ((john_ellipse, "inscribed"), (loewner_ellipse, "enclosing")):
        cert = verify_john_conditions(Q, solve(Q), mode)
        assert np.linalg.norm(cert.residual_sum) <= 1e-12
        assert cert.residual_identity <= 1e-12


@st.composite
def large_bodies_and_maps(draw):
    # 16 to 300 points at sorted random angles on the unit circle or on the
    # limacon r = 1 + 0.2 cos t, past BASIS_MAX_N, where the John and
    # Loewner solves run the basis iteration; under a map of maps()
    n = draw(st.integers(16, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
    r = 1.0 + 0.2 * np.cos(t) if draw(st.booleans()) else 1.0
    return canonicalize(np.column_stack([r * np.cos(t), r * np.sin(t)])), draw(maps())


@PROPERTY
@given(large_bodies_and_maps())
def test_john_and_loewner_points_past_basis_max_n_are_affine_equivariant(case):
    assert _deviation("john", *case) <= TOL
    assert _deviation("loewner", *case) <= TOL


@PROPERTY
@given(large_bodies_and_maps())
def test_john_and_loewner_past_basis_max_n_meet_johns_conditions(case):
    _assert_johns_conditions(*case)


@settings(PROPERTY, max_examples=60)
@given(st.one_of(bodies_and_maps(), large_bodies_and_maps()), st.floats(0.0, 0.9),
       st.integers(0, 13))
def test_centered_fields_scale_with_the_map(case, s, j):
    # f_TK(T x) = |det T| f_K(x) and lambda_TK(T x) |det T| = lambda_K(x),
    # at x on the segment from the centroid to a vertex, on 4 to 14
    # vertices and, past the field's pool size, on 16 to 300.  Over 2,530
    # draws of the small bodies (30 derandomized, the rest random) the
    # worst were 1.6e-11 for f and 1.3e-12 for lambda; over 500 random
    # draws of the large ones, 5.9e-12 and 3.9e-11
    P, T = case
    Q = affine_apply(T, P)
    g = P.centroid
    x = g + s * (P.vertices[j % P.n] - g)
    det = abs(np.linalg.det(T.matrix))
    f = max_centered_area(Q, T(x)) / (det * max_centered_area(P, x))
    lam = min_centered_inverse_area(Q, T(x)) * det / min_centered_inverse_area(P, x)
    assert abs(f - 1.0) <= 1e-10
    assert abs(lam - 1.0) <= 1e-10


@PROPERTY
@given(midline_bodies_and_maps())
# condition 1e3: the polar root stalled here when it ran in the body's frame
@example((body_kab(0.25, 0.375),
          AffineMap(np.array([[0.540302306, -8.41470985e-4],
                              [0.841470985, 5.40302306e-4]]), np.zeros(2))))
def test_santalo_point_is_affine_equivariant(case):
    assert _deviation("santalo", *case) <= TOL


@PROPERTY
@given(midline_bodies_and_maps())
def test_symcore_point_is_affine_equivariant(case):
    assert _deviation("symcore", *case) <= TOL


@PROPERTY
@given(bodies_and_maps())
def test_capfamily_point_is_affine_equivariant(case):
    assert _deviation("capfamily:0.1,0.05", *case) <= TOL


@PROPERTY
@given(bodies_and_maps())
def test_preimage_of_the_centroid_is_the_santalo_point(case):
    # dual(centroid) = santalo: polar_preimage's solve, with its Jacobian
    # by central differences, against santalo_point's closed-form one, at
    # acceptance criterion 10's tolerance
    P, T = case
    Q = affine_apply(T, P)
    z = polar_preimage(PointFunction("centroid"), Q)
    s = eval_point(PointFunction("santalo"), Q).value
    assert np.linalg.norm(z - s) <= 1e-7 * Q.diameter


RAYS = 64
SET_MAPS = {"floating": lambda B: floating_body(B, 0.05, RAYS),
            "illumination": lambda B: illumination_body(B, 0.05, RAYS)}


@PROPERTY
@given(bodies_and_maps())
def test_floating_and_illumination_sandwich_the_body(case):
    P, T = case
    Q = affine_apply(T, P)
    tol = 1e-9 * Q.diameter
    assert all(Q.contains(v, tol=tol) for v in SET_MAPS["floating"](Q).vertices)
    I = SET_MAPS["illumination"](Q)
    assert all(I.contains(v, tol=tol) for v in Q.vertices)


@PROPERTY
@given(bodies_and_maps())
def test_floating_and_illumination_are_affine_equivariant(case):
    P, T = case
    Q = affine_apply(T, P)
    budget = 2 * (2 * math.pi / RAYS) * Q.diameter
    for fn in SET_MAPS.values():
        assert hausdorff(fn(Q), affine_apply(T, fn(P))) < budget


@st.composite
def body_triples(draw):
    # three bodies in the unit disk; the second is at times a translate of
    # the first, whose normal fan then matches the first's to rounding
    P, Q, R = (random_body(draw(st.integers(3, 14)), draw(st.integers(0, 2**32 - 1)),
                           affine=False) for _ in range(3))
    if draw(st.booleans()):
        Q = P.translate([draw(st.floats(-1.0, 1.0)) for _ in range(2)])
    return P, Q, R


# the bodies lie in the unit disk (translates within 3 of the origin), so
# their coordinates round by at most 4 eps; a distance takes a few such
# roundings
ROUNDING = 1e-14


@PROPERTY
@given(body_triples())
def test_hausdorff_is_symmetric(case):
    P, Q, _ = case
    assert abs(hausdorff(P, Q) - hausdorff(Q, P)) <= ROUNDING


@PROPERTY
@given(body_triples())
def test_hausdorff_triangle_inequality(case):
    P, Q, R = case
    assert hausdorff(P, R) <= hausdorff(P, Q) + hausdorff(Q, R) + ROUNDING


@PROPERTY
@given(body_triples(), st.floats(-8.0, 8.0), st.floats(0.0, 2.0 * math.pi),
       st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2))
def test_hausdorff_commutes_with_similarities(case, log_scale, angle, shift):
    # h(sRP + b, sRQ + b) = s h(P, Q); the image's coordinates reach
    # s (3 + |b / s|), and round relative to that
    P, Q, _ = case
    s = 10.0 ** log_scale
    T = AffineMap(s * _rotation(angle), s * np.array(shift))
    h = hausdorff(affine_apply(T, P), affine_apply(T, Q))
    assert abs(h - s * hausdorff(P, Q)) <= ROUNDING * s * (3.0 + np.abs(shift).sum())


@st.composite
def fan_bodies_and_maps(draw):
    # 4 to 4096 vertices: a regular n-gon, an even one (its edges come in
    # antiparallel pairs), the hull of points on a circle, or a limacon;
    # under a map of maps()
    T = draw(maps())
    kind = draw(st.sampled_from(["ngon", "even ngon", "circle", "limacon"]))
    n = draw(st.integers(4, 4096))
    if kind == "ngon":
        P = ngon(n)
    elif kind == "even ngon":
        P = ngon(n + n % 2)
    elif kind == "circle":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        t = 2.0 * math.pi * rng.random(n)
        P = canonicalize(np.column_stack([np.cos(t), np.sin(t)]))
    else:
        P = canonicalize(limacon(n))
    return P, T


@PROPERTY
@given(fan_bodies_and_maps())
def test_diameter_is_the_full_scan(case):
    # the antipodal pairs hold a farthest pair, computed as the n x n scan
    # computes it: the two agree to the bit
    P, T = case
    for B in (P, affine_apply(T, P)):
        v = B.vertices
        sq = max(float((e * e).sum(axis=2).max())
                 for e in (v[i:i + 256, None, :] - v[None, :, :]
                           for i in range(0, B.n, 256)))
        assert B.diameter == math.sqrt(sq)
