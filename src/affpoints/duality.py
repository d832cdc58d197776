"""Duality algebra for affine invariant points.

phi_p sends a body to the polar about its p-point (in the convention that
keeps the base point fixed).  A point q is dual to p when q recovers p(K)
from that polar; dual_residual measures the worst violation over a body
collection.  The [p,q] product combines two points into a map on points,
and polar_preimage realizes surjectivity of K -> K^{p(K)} by root-finding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import random_body, random_map
from .errors import GeometryError
from .points import (
    PointFunction,
    _eval_points,
    central_differences,
    eval_point,
    eval_points,
    polar_root,
)
from .polygons import Polygon, affine_apply, polar_about


@dataclass(frozen=True)
class DualityReport:
    pair: tuple
    bodies_tested: int
    max_residual: float          # relative to the body diameter
    max_residual_abs: float
    worst_body: str = ""
    failures: tuple = ()


def phi(pf: PointFunction, P: Polygon) -> Polygon:
    """The body K^{p(K)}: polar about the p-point, kept at the same spot.

    Built once per polygon object and ``pf``, and kept on P as
    ``points.eval_point`` keeps points, so the duality checks and the
    products that meet the same polar share it, and its own points.
    """
    memo = P.__dict__.setdefault("_phi", {})
    Q = memo.get(pf)
    if Q is None:
        Q = memo[pf] = polar_about(P, eval_point(pf, P).value, translate=True)
    return Q


def dual_residual(p: PointFunction, q: PointFunction, bodies) -> DualityReport:
    """Worst-case |q(K^{p(K)}) - p(K)| over the given bodies.

    p runs over all bodies, then q over all their polars, each as one
    ``points.eval_points`` call.  Per-body evaluation errors are recorded
    in the report rather than raised, so one degenerate sample cannot hide
    the aggregate.
    """
    bodies = list(bodies)
    ps = _eval_points(p, bodies)
    polars = {}
    for i, (P, res) in enumerate(zip(bodies, ps)):
        if not isinstance(res, Exception):
            try:
                polars[i] = phi(p, P)
            except Exception as exc:
                ps[i] = exc
    qs = dict(zip(polars, _eval_points(q, polars.values())))
    worst_rel = 0.0
    worst_abs = 0.0
    worst = ""
    failures = []
    for i, (P, px) in enumerate(zip(bodies, ps)):
        # q's point, or the error that stopped the body before it
        qx = qs.get(i, px)
        if isinstance(qx, Exception):
            failures.append((i, repr(qx)))
            continue
        r_abs = float(np.linalg.norm(qx.value - px.value))
        r_rel = r_abs / P.diameter
        if r_rel > worst_rel:
            worst_rel, worst_abs, worst = r_rel, r_abs, f"body[{i}]"
    return DualityReport(pair=(p.id, q.id), bodies_tested=len(bodies),
                         max_residual=worst_rel, max_residual_abs=worst_abs,
                         worst_body=worst, failures=tuple(failures))


def product_apply(p: PointFunction, q: PointFunction, r: PointFunction,
                  P: Polygon) -> np.ndarray:
    """[p,q](r) evaluated at P: r(phi_q(phi_p(P))) - q(phi_p(P)) + p(P)."""
    A = phi(p, P)
    B = phi(q, A)
    return eval_point(r, B).value - eval_point(q, A).value + eval_point(p, P).value


def product_iterates(p: PointFunction, r: PointFunction, P: Polygon,
                     k: int) -> list[np.ndarray]:
    """The iterates 0 to k of [p,p] applied to r, evaluated at P.

    Each application of [p,p] shifts the evaluation body through phi_p
    twice, so all k + 1 iterates read one chain of 2k bodies, and the cost
    is linear in k.
    """
    chain = [P]
    for _ in range(2 * k):
        chain.append(phi(p, chain[-1]))
    pv = [eval_point(p, Q).value for Q in chain[:-1]]
    out = []
    for m in range(k + 1):
        # value of the i-times-produced point at chain[2*(m-i)]
        val = eval_point(r, chain[2 * m]).value
        for base in range(2 * m - 2, -1, -2):
            val = val - pv[base + 1] + pv[base]
        out.append(val)
    return out


def invariance_check(pf: PointFunction, P: Polygon, trials: int,
                     seed: int) -> float:
    """Max relative deviation of p(T(P)) from T(p(P)) over random maps.

    P and its ``trials`` images go through one ``points.eval_points`` call.
    """
    rng = np.random.default_rng(seed)
    maps = [random_map(rng) for _ in range(trials)]
    images = [affine_apply(T, P) for T in maps]
    base, *mapped = eval_points(pf, [P, *images])
    worst = 0.0
    for T, Q, res in zip(maps, images, mapped):
        dev = float(np.linalg.norm(res.value - T(base.value)))
        worst = max(worst, dev / Q.diameter)
    return worst


def polar_preimage(pf: PointFunction, C: Polygon, init=None) -> np.ndarray:
    """A z in int(C) with p((C - z) polar) = 0, by ``points.polar_root``
    from ``init`` (default: the centroid).

    Existence holds for every proper point; uniqueness does not, so the
    starting point selects which root is found.
    """
    F = central_differences(lambda Q, z: eval_point(pf, polar_about(Q, z)).value)
    root, = polar_root(F, [C], [init], 1e-9)
    if isinstance(root, GeometryError):
        raise root
    return root[0]


def random_polygons(count: int, seed: int, k_range=(5, 30)):
    """Seeded stream of random hull-of-disk-points bodies under random maps."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(k_range[0], k_range[1] + 1))
        yield random_body(k, int(rng.integers(0, 2**32)))
