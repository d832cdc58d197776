"""Deterministic polygon generators used by the CLI and the test suites."""

from __future__ import annotations

import numpy as np

from .errors import BadParams, DegenerateInput
from .polygons import AffineMap, Polygon, affine_apply, canonicalize


def square() -> Polygon:
    return canonicalize([(1, 1), (-1, 1), (-1, -1), (1, -1)])


def cross() -> Polygon:
    return canonicalize([(1, 0), (0, 1), (-1, 0), (0, -1)])


def ngon(m: int) -> Polygon:
    """Regular m-gon inscribed in the unit circle."""
    if m < 3:
        raise BadParams(f"ngon needs m >= 3, got {m}")
    t = 2.0 * np.pi * np.arange(m) / m
    return canonicalize(np.column_stack([np.cos(t), np.sin(t)]))


def simplex() -> Polygon:
    return canonicalize([(0, 0), (1, 0), (0, 1)])


def body_kab(a: float, b: float) -> Polygon:
    """Trapezoid with parallel vertical sides of half-heights a < b, centroid 0."""
    if not 0.0 < a < b:
        raise BadParams(f"need 0 < a < b, got a={a}, b={b}")
    xl = -(2.0 * b / 3.0 + a / 3.0) / (a + b)
    xr = (2.0 * a / 3.0 + b / 3.0) / (a + b)
    return canonicalize([(xl, -a), (xr, -b), (xr, b), (xl, a)])


def b_eta(eta: float) -> Polygon:
    """Projective shift of the square by (eta, 0): a symmetric trapezoid."""
    if not 0.0 < eta < 1.0:
        raise BadParams(f"need 0 < eta < 1, got {eta}")
    u = 1.0 / (1.0 + eta)
    v = 1.0 / (1.0 - eta)
    return canonicalize([(-u, -u), (v, -v), (v, v), (-u, u)])


def random_body(k: int, seed: int, affine: bool = True) -> Polygon:
    """Hull of k uniform points in the unit disk, optionally pushed through a
    random well-conditioned affine map."""
    if k < 3:
        raise BadParams(f"need k >= 3 points, got {k}")
    rng = np.random.default_rng(seed)
    while True:
        r = np.sqrt(rng.random(k))
        t = 2.0 * np.pi * rng.random(k)
        pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
        try:
            P = canonicalize(pts)
        except DegenerateInput:
            continue
        break
    if not affine:
        return P
    return affine_apply(random_map(rng), P)


def random_map(rng: np.random.Generator, max_cond: float = 50.0) -> AffineMap:
    """Random nonsingular affine map with condition number <= max_cond."""
    while True:
        M = rng.normal(size=(2, 2))
        s = np.linalg.svd(M, compute_uv=False)
        if s[1] > 1e-3 and s[0] / s[1] <= max_cond:
            break
    return AffineMap(M, rng.normal(size=2))


# upper bound of the vertex or point count of an ngon or random spec (the
# bound of region --rays), checked before anything is allocated
MAX_SPEC_VERTICES = 65536


def _spec_count(n: int) -> int:
    if n > MAX_SPEC_VERTICES:
        raise BadParams(f"at most {MAX_SPEC_VERTICES} vertices, got {n}")
    return n


def parse_spec(text: str):
    """Parse a body spec string like 'square', 'ngon:64', 'kab:1,2',
    'random:12,7', 'file:/path/to/body.json'. Returns a Polygon.

    A malformed argument, a vertex count above MAX_SPEC_VERTICES, or a file
    that cannot be read as polygon JSON, raises BadParams.
    """
    from .serialize import load_polygon

    name, _, arg = text.partition(":")
    name = name.strip().lower()
    try:
        if name == "square":
            return square()
        if name == "cross":
            return cross()
        if name == "simplex":
            return simplex()
        if name == "ngon":
            return ngon(_spec_count(int(arg)))
        if name == "kab":
            a, b = (float(s) for s in arg.split(","))
            return body_kab(a, b)
        if name == "beta":
            return b_eta(float(arg))
        if name == "random":
            k, seed = arg.split(",") if "," in arg else (arg, 0)
            return random_body(_spec_count(int(k)), int(seed))
        if name == "file":
            return load_polygon(arg)
    except (ValueError, TypeError, OSError) as exc:
        raise BadParams(f"bad body spec {text!r}: {exc}") from exc
    raise BadParams(f"unknown body spec {text!r}")
