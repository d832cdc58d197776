"""A proper, affine invariant, non-injective point, built end to end.

The construction: shift the square projectively by (eta, 0) to get the
trapezoid B_eta, read off the polar-centroid direction coefficient
alpha(eta), and tune the cap widths (eps, delta) so that the two-cap point
vanishes on B_eta as well as on the square.  The polar of the cross body
then has two distinct preimage roots, so the cap point cannot be injective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import b_eta, cross, square
from .errors import BadParams, CertificationFailure, NoRoot
from .points import PointFunction, cap_point, caps
from .polygons import intersect, polar_about


@dataclass(frozen=True)
class NonInjectivityCertificate:
    eta: float
    eps: float
    delta: float
    residual_sym: float
    residual_eta: float
    disjoint: bool
    witnesses: tuple  # ((z, |F(z)|), ...) for the cross body

    def to_dict(self) -> dict:
        return {
            "eta": self.eta,
            "eps": self.eps,
            "delta": self.delta,
            "residual_sym": self.residual_sym,
            "residual_eta": self.residual_eta,
            "disjoint": self.disjoint,
            "witnesses": [
                {"z": list(z), "residual": r} for z, r in self.witnesses
            ],
            "passed": True,
        }


def alpha(eta: float) -> float:
    """First coordinate of the polar centroid of the centered B_eta."""
    if not 0.0 < eta < 1.0:
        raise BadParams(f"need 0 < eta < 1, got {eta}")
    return -3.0 * eta * (1.0 - eta**2) ** 2 / ((3.0 + eta**2) * (9.0 - eta**2))


def default_eps(eta: float) -> float:
    return abs(alpha(eta)) / 10.0


def f_eps(delta: float, eta: float, eps: float) -> float:
    """Signed cap imbalance of B_eta along the first axis, as a polynomial.

    Proportional (by 2/|alpha|) to |A| g(A)_1 + |B| g(B)_1 for the two
    caps of widths eps and delta; its root balances the cap centroids.
    """
    if not 0.0 < eta < 1.0 or eps <= 0.0:
        raise BadParams("need 0 < eta < 1 and eps > 0")
    aa = abs(alpha(eta))
    eblock = -1.0 / (1.0 + eta) ** 2 + (eps / (2.0 * aa)) * (
        (1.0 - eta) / (1.0 + eta) + 2.0 * eps * eta / (3.0 * aa)
    )
    dblock = 1.0 / (1.0 - eta) ** 2 - (delta / (2.0 * aa)) * (
        (1.0 + eta) / (1.0 - eta) - 2.0 * delta * eta / (3.0 * aa)
    )
    return eps * eblock + delta * dblock


def solve_delta(eta: float, eps: float) -> float:
    """Root of the cap imbalance in (eps^2, eps), by bisection until the
    bracket ends are neighbouring doubles; returns the end nearer the root.
    """
    lo, hi = eps**2, eps
    f_lo, f_hi = f_eps(lo, eta, eps), f_eps(hi, eta, eps)
    if f_hi <= 0.0 or f_lo >= 0.0:
        raise NoRoot(f"no sign change on (eps^2, eps) for eta={eta}, eps={eps}")
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        f_mid = f_eps(mid, eta, eps)
        if f_mid == 0.0:
            lo = hi = mid
            break
        if f_mid < 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
        mid = 0.5 * (lo + hi)
    delta = lo if -f_lo <= f_hi else hi
    if eps + delta >= 2.0 * abs(alpha(eta)) / (1.0 - eta**2):
        raise NoRoot("cap widths violate the disjointness budget")
    return delta


def certify(eta: float, eps: float | None = None) -> NonInjectivityCertificate:
    """Build the full certificate that the cap point is not injective.

    Everything is recomputed geometrically (clipping and centroids, no
    closed forms): the cap point must vanish on the square and on B_eta,
    the caps must be disjoint, and the cross body must admit both z = 0
    and z = (eta, 0) as preimage roots.
    """
    if eps is None:
        eps = default_eps(eta)
    if not 0.0 < eps < np.inf:
        raise BadParams(f"need a finite eps > 0, got {eps}")
    delta = solve_delta(eta, eps)

    sq = square()
    Beta = b_eta(eta)
    residual_sym = float(np.linalg.norm(cap_point(sq, eps, delta)))
    residual_eta = float(np.linalg.norm(cap_point(Beta, eps, delta)))

    A, B, _ = caps(Beta, eps, delta)
    disjoint = (A is not B) and intersect(A, B) is None
    if not disjoint:
        raise CertificationFailure("caps of B_eta are not disjoint")

    C = cross()
    witnesses = []
    for z in (np.zeros(2), np.array([eta, 0.0])):
        F = cap_point(polar_about(C, z), eps, delta)
        witnesses.append((tuple(float(v) for v in z), float(np.linalg.norm(F))))

    for name, r in (("residual_sym", residual_sym),
                    ("residual_eta", residual_eta),
                    ("witness z1", witnesses[0][1]),
                    ("witness z2", witnesses[1][1])):
        if r >= 1e-9:
            raise CertificationFailure(f"{name} too large: {r:.3e}")
    return NonInjectivityCertificate(eta=eta, eps=eps, delta=delta,
                                     residual_sym=residual_sym,
                                     residual_eta=residual_eta,
                                     disjoint=disjoint,
                                     witnesses=tuple(witnesses))


def cap_function(eta: float, eps: float | None = None) -> PointFunction:
    """The non-injective point function itself, with tuned parameters."""
    if eps is None:
        eps = default_eps(eta)
    return PointFunction("capfamily", (eps, solve_delta(eta, eps)))
