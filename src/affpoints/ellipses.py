"""Analytic ellipses plus the John (max inscribed) and Loewner (min enclosing)
ellipse solvers for convex polygons.

A body of at most BASIS_MAX_N vertices gets both ellipses in closed form
(``_basis_optimum``): in the plane each problem is LP-type with at most five
contacts, so its optimum is the best feasible ellipse over all sets of 3 to
5 constraints, each a Steiner ellipse or a pencil member from a root of a
quadratic or cubic, found in one numpy batch without iterating.
Larger bodies run one damped-Newton log-barrier driver on five parameters:
a center (John's c + L (unit disk)) or offset (Loewner's {y : |A y - b| <= 1})
and a symmetric 2x2 shape, whose log det they maximize over concave slacks,
so each barrier is convex.  Each problem gives its slacks, their Jacobian
and the closed-form sum of their Hessians from one pass over its
constraints, and the Loewner problem (like both basis solves) runs on the
vertices whitened to unit scatter, so its conditioning does not depend on
the body's.  The path starts at t = max(1, n_con / 10), a gap of at most
10, and from t = 1e2 on each stage ends with an attempt to leave it
(``_finish``): the slacks and barrier multipliers name a contact set,
reduced to at most five positive weights where more touch, and Newton on
John's conditions restricted to it lands on the optimum to rounding, or the
barrier goes on from where it stopped.  The results are
certificate-checkable via the John contact conditions.
The fixed-center John field f_K has constraints linear in M = L^2, so one
barrier runs over many centers at once (``_centered_john``), and after
each stage every center tries the pairs and triples of contacts that its
multipliers name against John's conditions: a certified set gives f_K and
its gradient exactly.  ``max_centered_area`` is its one-row call.  By
polarity, the fixed-center Loewner field lambda_K is f_K of a polar body.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, CertificationFailure, ConvergenceFailure, NoContacts
from .polygons import (
    AffineMap,
    Polygon,
    canonicalize,
    edge_normals,
    polar_about,
)

CONTACT_TOL = 1e-6
CERT_RESIDUAL_TOL = 1e-6
# the log-det barriers stop at this duality gap n_con / t
BARRIER_GAP = 1e-10
# from the stage at t = FINISH_FROM on, the barriers try to finish by
# Newton on John's conditions (see _finish), on at most MAX_CONTACTS
# contacts (one per parameter), for at most FINISH_STEPS steps
FINISH_FROM = 1e2
MAX_CONTACTS = 5
FINISH_STEPS = 10
# a finish leaves no slack below -FINISH_SLACK, the rounding of the frame:
# under a map of condition 1e3, a regular polygon's tied vertices read
# slacks down to -1.0e-12 there, and a wrong contact set one below -2.5e-8
FINISH_SLACK = 1e-12
# past MAX_CONTACTS candidates, the contact set ends at the last place where
# the next slack is this many times the one before (not tied to it)
CUT_RATIO = 1.2
# the fixed-center John field finishes on the pairs and triples of the
# FIELD_POOL largest barrier multipliers of a row, and accepts a set that
# leaves no slack 1 - u^T M u below -FIELD_SLACK (see _field_finish): the
# sets accepted read down to -1e-13, at the tied contacts of a regular
# polygon under a map of condition 1e3
FIELD_POOL = 5
FIELD_SLACK = 1e-10
# bodies of at most BASIS_MAX_N vertices take their John and Loewner
# ellipses from _basis_optimum, larger ones from the barrier: the time of a
# John solve crosses between 15 and 16 vertices, as the candidates grow like
# C(n, 5) and the barrier's steps do not (Loewner's between 16 and 17)
BASIS_MAX_N = 15
# _basis_optimum's tie-break weight on a candidate's least slack, where it is
# negative: above the sum of the multipliers, which in the frame of _whiten
# is 2 for Loewner and 4 / r for John, r about the inradius (1 on a square)
BASIS_PENALTY = 10.0
# the residual of a closed-form solve: the rounding unit
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Ellipse:
    """The set {center + shape @ u : |u| <= 1} with shape symmetric PD.

    A solved ellipse records its solve.  A closed-form basis solve (at most
    BASIS_MAX_N vertices) has ``iterations`` 0 and ``residual`` the
    rounding unit, the floor of a finish.  Past that, ``iterations`` counts
    the Newton steps of the barrier and of every attempt to finish on
    John's conditions, and ``residual`` is, after an accepted finish, the
    size of its last Newton step in the solver's normalized frame (at least
    the rounding unit); only where no finish was accepted is it the
    barrier's final duality gap n_con / t.  Both are 0 for an ellipse built
    any other way.
    """

    center: np.ndarray
    shape: np.ndarray
    iterations: int = 0
    residual: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "shape", np.asarray(self.shape, dtype=float))

    @property
    def area(self) -> float:
        return math.pi * float(np.linalg.det(self.shape))

    def affine_image(self, T: AffineMap) -> "Ellipse":
        A = T.matrix @ self.shape
        return Ellipse(T(self.center), _gram_root(A))

    def polar(self) -> "Ellipse":
        """Polar of a 0-centered ellipse; shape inverts.  The center must be
        within 1e-9 of the ellipse's largest semi-axis of the origin."""
        if np.linalg.norm(self.center) > 1e-9 * np.linalg.norm(self.shape, 2):
            raise BadParams("polar() expects an origin-centered ellipse")
        return Ellipse(np.zeros(2), np.linalg.inv(self.shape))


@dataclass(frozen=True)
class JohnCertificate:
    contacts: list  # (unit direction, positive weight) pairs
    residual_sum: np.ndarray
    residual_identity: float


def _gram_root(B: np.ndarray) -> np.ndarray:
    """The symmetric PD square root of B B^T, from the SVD of B: its small
    singular value keeps the relative accuracy that forming B B^T, of
    squared condition, would lose."""
    W, sig, _ = np.linalg.svd(B)
    return (W * sig) @ W.T


def _sym(t3: np.ndarray) -> np.ndarray:
    return np.array([[t3[0], t3[1]], [t3[1], t3[2]]])


# logdet over l = (l11, l12, l22) has the gradient v = (l22, -2 l12, l11) / det
# and the Hessian _LOGDET3_M / det - v v^T
_LOGDET3_M = np.array([[0.0, 0.0, 1.0], [0.0, -2.0, 0.0], [1.0, 0.0, 0.0]])


def _kkt_newton(theta, lam, S, slack_fn, slack_terms):
    """Newton on John's conditions restricted to the contact set S: the
    contact equations s_i = 0 for i in S and stationarity
    grad logdet + sum_S lam_i grad s_i = 0, in the 5 + |S| unknowns theta
    and lam.  The sum of lam_i hess(s_i) comes from the problem's
    ``slack_terms``, with weight 0 off S.

    Returns (theta, lam, slacks, size of the last step, steps taken), with
    theta None unless the steps shrank every time and the last one fell to
    1e-13 of theta (so the next would be below rounding), within
    FINISH_STEPS.
    """
    theta, lam = theta.copy(), lam.copy()
    k, m = len(theta), len(S)
    K = np.zeros((k + m, k + m))
    r = np.empty(k + m)
    s, aux = slack_fn(theta)
    wts = np.zeros(len(s))
    prev = np.inf
    for it in range(1, FINISH_STEPS + 1):
        l11, l12, l22 = theta[2:].tolist()
        det = l11 * l22 - l12 * l12
        if not (l11 > 0.0 and det > 0.0):
            break
        v = np.array([l22, -2.0 * l12, l11]) / det
        wts[S] = lam
        J, Hs = slack_terms(theta, aux, wts)
        JS = J[S]
        r[:k] = lam @ JS
        r[2:k] += v
        r[k:] = s[S]
        K[:k, :k] = Hs
        K[2:k, 2:k] += _LOGDET3_M / det - np.outer(v, v)
        K[:k, k:] = JS.T
        K[k:, :k] = JS
        try:
            step = np.linalg.solve(K, -r)
        except np.linalg.LinAlgError:
            break
        size = float(np.abs(step[:k]).max())
        if not size < prev:
            break
        prev = size
        theta += step[:k]
        lam += step[k:]
        s, aux = slack_fn(theta)
        if size <= 1e-13 * float(np.abs(theta).max()):
            return theta, lam, s, size, it
    return None, lam, s, prev, it


def _finish(theta, s, aux, t, slack_fn, slack_terms, rejected, last):
    """Leave the barrier at its point theta (slacks s, their ``aux``) of the
    stage at t, by ``_kkt_newton`` on a contact set S read off the slacks.

    The barrier multipliers are mu_i = 1 / (t s_i).  Up to MAX_CONTACTS
    constraints with mu_i > s_i make S, with weights mu.  Past that, S is
    the 2 * MAX_CONTACTS smallest slacks, cut at the last place where one
    is CUT_RATIO times the one before, so that no group of tied slacks is
    split, and keeping at least 3.  The mu > s set itself is S if it is
    ``last``, the one of the stage before, and either has at most
    2 * MAX_CONTACTS members or no such cut exists: tied contacts, as on a
    regular polygon, whose multipliers an affine map can spread some
    fourfold.  A set of more than MAX_CONTACTS is reduced to the positive
    weights of ``_nnls`` on stationarity, min |J_S^T lam + grad logdet| over
    lam >= 0, solved in lam / mu so that of tied weights the larger
    multipliers are kept: more contacts than parameters make Newton's
    system singular, and fewer than 3 cannot meet John's conditions.

    Newton's result is the optimum if every lam_i > 0 and no slack is below
    -FINISH_SLACK, since John's conditions then hold to rounding.
    Otherwise, if it converged, its set is recorded in ``rejected`` and the
    next set is tried, with weights mu: without the contacts of negative
    lam; or, if there are none, with the most violated constraint added, in
    place of the contact whose weight first falls to 0 as the new one's
    grows if S is full (a simplex pivot).  A set Newton did not converge on
    is tried again at the next stage, from a point nearer the optimum.

    Returns (theta or None, size of Newton's last step, Newton steps taken,
    the mu > s set).
    """
    mu = 1.0 / (t * s)
    S = np.flatnonzero(mu > s)
    touching = frozenset(S.tolist())
    if len(S) <= MAX_CONTACTS:
        S = S[np.argsort(-mu[S], kind="stable")]
        lam = mu[S]
    else:
        stable = touching == last
        near = np.argsort(s, kind="stable")[:2 * MAX_CONTACTS]
        cut = np.flatnonzero(s[near[1:]] >= CUT_RATIO * s[near[:-1]])
        if not (stable and len(S) <= 2 * MAX_CONTACTS) and cut.size and cut[-1] >= 2:
            S = near[:cut[-1] + 1]
        elif not stable:
            return None, 0.0, 0, touching
        lam = mu[S]
        if len(S) > MAX_CONTACTS:
            l11, l12, l22 = theta[2:].tolist()
            det = l11 * l22 - l12 * l12
            grad = np.zeros(len(theta))
            grad[2:] = (l22 / det, -2.0 * l12 / det, l11 / det)
            J, _ = slack_terms(theta, aux, np.zeros(len(s)))
            w = _nnls(J[S].T * lam, -grad) * lam
            S, lam = S[w > 0.0], w[w > 0.0]
    steps = 0
    while 3 <= len(S) <= MAX_CONTACTS and frozenset(S.tolist()) not in rejected:
        done, lam, sc, size, k = _kkt_newton(theta, lam, S, slack_fn, slack_terms)
        steps += k
        if done is None:
            break
        j = int(np.argmin(sc))
        if lam.min() > 0.0 and sc[j] >= -FINISH_SLACK:
            return done, max(size, EPS), steps, touching
        rejected.add(frozenset(S.tolist()))
        if lam.min() <= 0.0:
            S = S[lam > 0.0]
        elif len(S) < MAX_CONTACTS:
            S = np.append(S, j)
        else:
            # j's weight grows with J_S^T lam + lam_j grad s_j held fixed
            J, _ = slack_terms(done, slack_fn(done)[1], np.zeros(len(s)))
            try:
                c = np.linalg.solve(J[S].T, J[j])
            except np.linalg.LinAlgError:
                break
            out = np.flatnonzero(c > 0.0)
            if not out.size:
                break
            out = out[np.argmin(lam[out] / c[out])]
            S = np.append(np.delete(S, out), j)
        lam = mu[S]
    return None, 0.0, steps, touching


def _barrier_maxlogdet(theta0, slack_fn, slack_terms, n_con):
    """Minimize -t*logdet(shape) - sum log(slacks) along an increasing-t path
    that starts at t = max(1, n_con / 10), a first duality gap n_con / t of
    at most 10, and goes up by tenfold steps until the gap is below
    BARRIER_GAP.  Both problems are convex, so each Newton matrix is
    positive definite and its step a descent direction.

    theta holds two center or offset entries, then the shape entries
    (l11, l12, l22).  A problem evaluates its constraints in one pass,
    split over two calls: ``slack_fn(theta)`` returns the slacks and an
    ``aux`` of what their derivatives reuse, and
    ``slack_terms(theta, aux, wts)`` returns the slack Jacobian (n_con, 5)
    and the weighted sum of the constraint Hessians, sum_i wts_i * hess(s_i),
    as one (5, 5) matrix, both in buffers that its next call overwrites.
    The log-det terms are added from Python scalars.  Each stage from
    t = FINISH_FROM on ends with ``_finish``, which may return the optimum
    instead.  Returns (theta, Newton steps taken, residual): after an
    accepted finish the size of its last Newton step, and otherwise the
    final gap n_con / t.
    """
    theta = np.array(theta0, dtype=float)
    s, aux = slack_fn(theta)
    l11, l12, l22 = theta[2:].tolist()
    if not (s.min() > 0.0 and l11 > 0.0 and l11 * l22 - l12 * l12 > 0.0):
        raise ConvergenceFailure("infeasible barrier start")
    # the accepted iterate carries its slacks, their log sum and aux, so
    # neither the next Newton step nor its line search evaluates them again
    log_s = float(np.log(s).sum())
    steps = 0
    rejected = set()
    t = max(1.0, n_con / 10.0)
    last = None
    while True:
        for _ in range(60):
            l11, l12, l22 = theta[2:].tolist()
            det = l11 * l22 - l12 * l12
            wts = 1.0 / s
            J, Hs = slack_terms(theta, aux, wts)
            Js = J * wts[:, None]
            g = -(wts @ J)
            H = Js.T @ Js
            H -= Hs
            v0, v1, v2 = l22 / det, -2.0 * l12 / det, l11 / det
            h02, h11 = v0 * v2 - 1.0 / det, v1 * v1 + 2.0 / det
            g[2:] -= (t * v0, t * v1, t * v2)
            H[2:, 2:] += ((t * v0 * v0, t * v0 * v1, t * h02),
                          (t * v0 * v1, t * h11, t * v1 * v2),
                          (t * h02, t * v1 * v2, t * v2 * v2))
            step = np.linalg.solve(H, -g)
            # lam2 is finite only if the step is
            lam2 = float(-g @ step)
            if not (math.isfinite(lam2) and lam2 > 2.0 * t * 1e-13):
                break
            base = -t * math.log(det) - log_s
            alpha = 1.0
            while alpha > 1e-14:
                cand = theta + alpha * step
                c11, c12, c22 = cand[2:].tolist()
                dc = c11 * c22 - c12 * c12
                if c11 > 0.0 and dc > 0.0:
                    sc, ac = slack_fn(cand)
                    if sc.min() > 0.0:
                        lc = float(np.log(sc).sum())
                        if -t * math.log(dc) - lc < base:
                            theta, s, aux, log_s = cand, sc, ac, lc
                            steps += 1
                            break
                alpha *= 0.5
            else:
                break
        if t >= FINISH_FROM:
            done, res, k, last = _finish(theta, s, aux, t, slack_fn, slack_terms,
                                         rejected, last)
            steps += k
            if done is not None:
                return done, steps, res
        if n_con / t < BARRIER_GAP:
            return theta, steps, n_con / t
        t *= 10.0


@functools.cache
def _subsets(n: int):
    """Index arrays of the 3-, 4- and 5-subsets of range(n) for
    ``_basis_optimum``: the triples (i, j, k) as a (3, m3) array, and as
    their pairs (j, k), (k, i), (i, j), flat in the n x n grid; the pairs
    (i, j), (k, l), (i, k), (j, l) of each 4-subset, flat in that grid; and
    each 5-subset as the index of its first four, and as its fifth and that
    index flat in the grid of constraints by 4-subsets."""
    comb = itertools.combinations
    i, j, k = np.array(list(comb(range(n), 3)), dtype=np.intp).reshape(-1, 3).T
    a, b, c, d = np.array(list(comb(range(n), 4)), dtype=np.intp).reshape(-1, 4).T
    first, fifth = np.array([(q, e) for q, last in enumerate(d.tolist())
                             for e in range(last + 1, n)], dtype=np.intp).reshape(-1, 2).T
    return (np.stack([i, j, k]), np.stack([j * n + k, k * n + i, i * n + j]),
            np.stack([a * n + b, c * n + d, a * n + c, b * n + d]), first,
            fifth * len(a) + first)


def _pair(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The entries (00, 01, 02, 11, 12, 22) of p q^T + q p^T, as rows, for
    the columns p and q of two (3, m) arrays."""
    return np.stack([2.0 * p[0] * q[0], p[0] * q[1] + p[1] * q[0], p[0] * q[2] + p[2] * q[0],
                     2.0 * p[1] * q[1], p[1] * q[2] + p[2] * q[1], 2.0 * p[2] * q[2]])


def _basis_optimum(V: np.ndarray, lines: bool) -> tuple[np.ndarray, np.ndarray]:
    """The John (``lines``) or Loewner ellipse of a small body, as the best
    feasible candidate over all sets of 3 to 5 of its constraints.

    The rows of V are the constraints in homogeneous coordinates and in the
    body's cyclic order: the edge lines (a, -b) of {a.x <= b}, or the
    vertices (y, 1).  The ellipse {c + L u : |u| <= 1} has the point conic
    C (x^T C x <= 0 for x = (y, 1)) and the line conic C* ~ C^-1; it
    touches a vertex v where v^T C v = 0 and an edge line v where
    v^T C* v = 0.  Write Q for C (Loewner) or C* (John); v^T Q v = 0 is
    linear in Q, so by projective duality both problems take the same
    candidates:
    - 3 constraints: the Steiner ellipse of the triangle, with center the
      mean g of its vertices x_i and M = L^2 = sum (x_i - g)(x_i - g)^T / 6
      (inscribed) or 2 / 3 of that sum (circumscribed);
    - 4 constraints v_i, v_j, v_k, v_l: the pencil Q(s) = A + s C of the
      two line pairs A = sym(v_i x v_j, v_k x v_l) and
      C = sym(v_i x v_k, v_j x v_l), sym(p, q) = p q^T + q p^T.  Its
      degenerate members are A, A - C and C, so det Q(s) ~ s (1 + s).
      John maximizes det M = det Q / h^3, h = Q_22 = h0 + h1 s, at a root
      of -h1 s^2 + 2 (h0 - h1) s + h0; Loewner maximizes
      det L^-2 = det(Q')^3 / det(Q)^2, with Q' the 2x2 block of Q and
      det Q' = d0 + d1 s + d2 s^2, at a root of
      2 d2 s^3 + (4 d2 - d1) s^2 + (d1 - 4 d0) s - 2 d0.  Its leading
      coefficient is not 0, as d2 = -|n_ik x n_jl|^2 for the normals n of
      the two diagonals, which cross; and it is <= 0 at s = -1 (the line
      pair A - C) and >= 0 at s = 0, so the ellipses, between those two,
      hold its middle root, given by Viete's trigonometric form;
    - 5 constraints: the member of the first four's pencil through the
      fifth, v^T (A + s C) v = 0.
    Both problems are LP-type of combinatorial dimension 5 (Welzl 1991;
    Gaertner and Schoenherr 1998): the optimum is the optimum over some 3
    to 5 constraints, all tight there, and so a candidate, and no feasible
    ellipse is better.  A candidate is feasible when no slack is below
    -FINISH_SLACK (distances to the edges, or 1 - |L^-1 (y - c)|^2).  Where
    contacts tie, as on a regular polygon, many candidates give the
    optimum to rounding, and one a little outside has a little larger
    det; so the best is the one of largest
    log det X + BASIS_PENALTY * min(least slack, 0).

    Expects the frame of ``_whiten``.  Returns (c, X) with X = M (John) or
    X = M^-1 (Loewner), the entries (x11, x12, x22).  Each candidate is a
    column of (2, m) and (3, m) arrays, so that every reduction over the
    constraints runs along the long axis.
    """
    n = len(V)
    tri, tri_pairs, (ij, kl, ik, jl), first, fifth = _subsets(n)
    v = V.T
    # the cross products of every pair of constraints
    W = np.stack([np.outer(v[1], v[2]) - np.outer(v[2], v[1]),
                  np.outer(v[2], v[0]) - np.outer(v[0], v[2]),
                  np.outer(v[0], v[1]) - np.outer(v[1], v[0])]).reshape(3, -1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = W[:, tri_pairs] if lines else v[:, tri]
        x = x[:2] / x[2]
        g = x.mean(axis=1)
        y = x - g[:, None]
        m = np.stack([(y[0] * y[0]).sum(axis=0), (y[0] * y[1]).sum(axis=0),
                      (y[1] * y[1]).sum(axis=0)])
        X3 = m / 6.0 if lines else m[::-1] * [[1.5], [-1.5], [1.5]] / (m[0] * m[2] - m[1] ** 2)
        p, q, r, t = W[:, ij], W[:, kl], W[:, ik], W[:, jl]
        A, C = _pair(p, q), _pair(r, t)
        if lines:
            h0, h1 = A[5], C[5]
            e = h0 - h1
            f = -(e + np.copysign(np.sqrt(e * e + h0 * h1), e))
            s = np.stack([-f / h1, h0 / f])
        else:
            d0 = A[0] * A[3] - A[1] ** 2
            d1 = A[0] * C[3] + A[3] * C[0] - 2.0 * A[1] * C[1]
            d2 = C[0] * C[3] - C[1] ** 2
            b2, b1, b0 = (4.0 * d2 - d1) / (2.0 * d2), (d1 - 4.0 * d0) / (2.0 * d2), -d0 / d2
            # the middle root of s^3 + b2 s^2 + b1 s + b0, by Viete
            rad = np.sqrt(np.maximum(b2 * b2 / 9.0 - b1 / 3.0, 0.0))
            cos3 = (b2 * (b1 / 6.0 - b2 * b2 / 27.0) - 0.5 * b0) / rad ** 3
            s = (2.0 * rad * np.cos((np.arccos(np.clip(cos3, -1.0, 1.0)) - 2.0 * np.pi) / 3.0)
                 - b2 / 3.0)[None]
        s5 = -((V @ p) * (V @ q) / ((V @ r) * (V @ t))).reshape(-1)[fifth]
        Q = np.concatenate([(A[:, None] + s * C[:, None]).reshape(6, -1),
                            A[:, first] + s5 * C[:, first]], axis=1)
        if lines:
            # C* = h [[c c^T - M, c], [c^T, 1]]
            c = Q[[2, 4]] / Q[5]
            X = np.stack([c[0] * c[0], c[0] * c[1], c[1] * c[1]]) - Q[[0, 1, 3]] / Q[5]
        else:
            # C = kappa [[X, -X c], [-c^T X, c^T X c - 1]]
            c = np.stack([Q[1] * Q[4] - Q[3] * Q[2], Q[1] * Q[2] - Q[0] * Q[4]]) \
                / (Q[0] * Q[3] - Q[1] ** 2)
            X = Q[[0, 1, 3]] / -(Q[5] + Q[2] * c[0] + Q[4] * c[1])
        c, X = np.concatenate([g, c], axis=1), np.concatenate([X3, X], axis=1)
        det = X[0] * X[2] - X[1] ** 2
        keep = np.flatnonzero((X[0] > 0.0) & (det > 0.0) & (det < np.inf))
        c, X, det = c[:, keep], X[:, keep], det[keep]
        a0, a1 = v[0], v[1]
        if lines:
            # b - a.c - |L a| for b = -v2, in place: (n, m) arrays dominate
            # the memory of a solve
            w = np.column_stack([a0 * a0, 2.0 * a0 * a1, a1 * a1]) @ X
            np.sqrt(w, out=w)
            w += V[:, :2] @ c
            w += v[2][:, None]
            least = -w.max(axis=0)
        else:
            Xc = np.stack([X[0] * c[0] + X[1] * c[1], X[1] * c[0] + X[2] * c[1]])
            coef = np.concatenate([X[:1], 2.0 * X[1:2], X[2:], -2.0 * Xc, (Xc * c).sum(axis=0)[None]])
            least = 1.0 - (np.column_stack([a0 * a0, a0 * a1, a1 * a1, a0, a1, v[2]]) @ coef).max(axis=0)
    ok = least >= -FINISH_SLACK
    if not ok.any():
        raise ConvergenceFailure("no feasible basis")
    best = np.argmax(np.where(ok, np.log(det) + BASIS_PENALTY * np.minimum(least, 0.0), -np.inf))
    return c[:, best], X[:, best]


def _sqrtm(x: np.ndarray) -> np.ndarray:
    """The symmetric PD square root of the 2x2 matrix (x11, x12, x22)."""
    d = math.sqrt(x[0] * x[2] - x[1] * x[1])
    return np.array([[x[0] + d, x[1]], [x[1], x[2] + d]]) / math.sqrt(x[0] + x[2] + 2.0 * d)


def _normalize(P: Polygon) -> tuple[np.ndarray, float, np.ndarray]:
    g = P.centroid
    d = P.diameter
    return (P.vertices - g) / d, d, g


def _whiten(P: Polygon) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P's vertices as S^-1 (v - g), with g the centroid and S S^T the
    scatter of the vertices about it, so that their scatter is the
    identity; returns (vertices, S, g).

    The vertices of an affine image T P come out as those of P under an
    orthogonal map, so an affine invariant solve in this frame does not see
    how T is conditioned.
    """
    g = P.centroid
    Y = P.vertices - g
    S = np.linalg.cholesky(Y.T @ Y / len(Y))
    return np.linalg.solve(S, Y.T).T, S, g


# ---------------------------------------------------------------------------
# Inscribed (John) side: variables (cx, cy, l11, l12, l22), constraints per edge
# <a_i, c> + |L a_i| <= b_i.


def _john_problem(P: Polygon):
    verts, d, g = _normalize(P)
    Q = Polygon(verts)
    A, b = edge_normals(Q)
    n = len(b)
    # w_i = L a_i = B_i l with B_i = [[a0, a1, 0], [0, a0, a1]] for the
    # normal a_i = (a0, a1) and l = (l11, l12, l22)
    a0, a1 = A[:, 0], A[:, 1]
    J = np.empty((n, 5))
    J[:, :2] = -A
    q = np.empty((n, 3))
    Hs = np.zeros((5, 5))

    def slacks(theta):
        # one product gives a_i.c and w_i
        cx, cy, l11, l12, l22 = theta.tolist()
        W = A @ np.array([[cx, l11, l12], [cy, l12, l22]])
        wl = np.hypot(W[:, 1], W[:, 2])
        return b - W[:, 0] - wl, (W, wl)

    def terms(theta, aux, wts):
        # with nu the unit w_i and tau = (-nu1, nu0), grad s_i is
        # -(a_i, B_i^T nu); and in 2D the Hessian of |w| over w is
        # tau tau^T / |w|, so hess s_i = -q q^T / |w_i| with q = B_i^T tau
        W, wl = aux
        nu0, nu1 = W[:, 1] / wl, W[:, 2] / wl
        J[:, 2] = -(nu0 * a0)
        J[:, 3] = -(nu0 * a1) - nu1 * a0
        J[:, 4] = -(nu1 * a1)
        q[:, 0] = nu1 * a0
        q[:, 1] = nu1 * a1 - nu0 * a0
        q[:, 2] = -(nu0 * a1)
        Hs[2:, 2:] = -(q.T * (wts / wl)) @ q
        return J, Hs

    c0 = Q.centroid
    r0 = 0.45 * float(np.min(b - A @ c0))
    if r0 <= 0.0:
        raise ConvergenceFailure("center not interior")
    theta0 = np.array([c0[0], c0[1], r0, 0.0, r0])
    return theta0, slacks, terms, n, d, g


def john_ellipse(P: Polygon) -> Ellipse:
    """Maximum-area ellipse inscribed in the polygon: the best feasible
    basis candidate up to BASIS_MAX_N vertices, else the barrier's."""
    if P.n <= BASIS_MAX_N:
        Y, S, g = _whiten(P)
        A, b = edge_normals(Polygon(Y))
        c, M = _basis_optimum(np.column_stack([A, -b]), lines=True)
        return Ellipse(g + S @ c, _gram_root(S @ _sqrtm(M)), residual=EPS)
    theta0, slacks, terms, m, d, g = _john_problem(P)
    theta, steps, gap = _barrier_maxlogdet(theta0, slacks, terms, m)
    c = g + d * theta[:2]
    L = d * _sym(theta[2:])
    return Ellipse(c, L, iterations=steps, residual=gap)


def _spread_sets(u0, u1, mu, m):
    """Per row, a pair and a triple of constraints for ``_field_finish``
    that the largest multipliers can miss where many contacts tie, as on a
    regular polygon at its center.

    In the frame where M (rows m = (m11, m12, m22)) is the identity,
    John's conditions put the origin in the hull of a set's directions at
    doubled angles.  Both sets hold the constraint i of largest multiplier;
    of those with at least half its multiplier, the pair adds the one
    nearest to the point opposite i's, and the triple the nearest on each
    side of it.
    """
    rows = np.arange(len(mu))
    i = np.argmax(mu, axis=1)
    # R u with R^T R = m11 M: u in that frame, up to a rotation and a scale
    det = m[:, 0] * m[:, 2] - m[:, 1] ** 2
    with np.errstate(invalid="ignore"):
        phi = 2.0 * np.arctan2(np.sqrt(det)[:, None] * u1, m[:, :1] * u0 + m[:, 1:2] * u1)
    off = np.remainder(phi - phi[rows, i][:, None], 2.0 * np.pi) - np.pi
    near = mu >= 0.5 * mu[rows, i][:, None]
    near[rows, i] = False
    a = np.argmax(np.where(near & (off < 0.0), off, -np.inf), axis=1)
    b = np.argmin(np.where(near & (off >= 0.0), off, np.inf), axis=1)
    c = np.argmin(np.where(near, np.abs(off), np.inf), axis=1)
    return np.stack([i, c, i], axis=1), np.stack([i, a, b], axis=1)


def _field_finish(u0: np.ndarray, u1: np.ndarray, mu: np.ndarray, m_bar: np.ndarray):
    """John's conditions for max log det M over u_i^T M u_i <= 1, tried on
    each pair and triple of constraints among the FIELD_POOL largest
    multipliers mu of each row, and on the sets of ``_spread_sets`` at
    the barrier's point m_bar (u_i = (u0_i, u1_i); all (k, n) arrays).

    A set S gives the optimum M if u_i^T M u_i = 1 on S, no slack
    1 - u^T M u is below -FIELD_SLACK (relative, as u^T M u is about 1), and
    M^-1 = sum_S lam_i u_i u_i^T with every lam_i >= 0: these are the KKT
    conditions of a concave problem.  For a pair, M^-1 = u_1 u_1^T +
    u_2 u_2^T and both weights are 1.  For a triple, the contact equations
    are linear in (m11, m12, m22), with rows c_i = (u0^2, 2 u0 u1, u1^2),
    and stationarity is C^T lam = v(M), the gradient of log det M; both
    come from the cofactors of C.  Each row's result depends on that row
    alone.

    Returns (certified, det M, sum_S lam_i u_i) per row, from the certified
    set whose least slack is largest.
    """
    k, n = mu.shape
    pool = min(FIELD_POOL, n)
    top = np.argsort(-mu, axis=1, kind="stable")[:, :pool]
    pair, triple = _spread_sets(u0, u1, mu, m_bar)
    # each set in three slots, the pairs first: a pair's third slot is its
    # first, of weight 0
    pairs = [s + s[:1] for s in itertools.combinations(range(pool), 2)]
    sets = np.concatenate([top[:, pairs], pair[:, None], triple[:, None],
                           top[:, list(itertools.combinations(range(pool), 3))]], axis=1)
    xs = np.take_along_axis(u0, sets.reshape(k, -1), axis=1).reshape(sets.shape)
    ys = np.take_along_axis(u1, sets.reshape(k, -1), axis=1).reshape(sets.shape)
    p = len(pairs) + 1
    x0, y0, x1, y1 = xs[:, :p, 0], ys[:, :p, 0], xs[:, :p, 1], ys[:, :p, 1]
    c = np.stack([xs * xs, 2.0 * xs * ys, ys * ys], axis=3)[:, p:]
    cof = np.stack([np.cross(c[:, :, 1], c[:, :, 2]), np.cross(c[:, :, 2], c[:, :, 0]),
                    np.cross(c[:, :, 0], c[:, :, 1])], axis=2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cr2 = ((x0 * y1 - y0 * x1) ** 2)[:, :, None]
        det_c = (c[:, :, 0] * cof[:, :, 0]).sum(axis=2)
        # rows dependent to rounding, as antiparallel edges make them, fix no
        # M and let rounding pick one; independent rows give
        # |det C| / prod |c_i| >= 1e-2 in practice
        det_c = np.where(np.abs(det_c) > 1e-8 * np.abs(c).max(axis=3).prod(axis=2),
                         det_c, np.nan)[:, :, None]
        m = np.concatenate([np.stack([y0 * y0 + y1 * y1, -(x0 * y0 + x1 * y1),
                                      x0 * x0 + x1 * x1], axis=2) / cr2,
                            cof.sum(axis=2) / det_c], axis=1)
        det_m = m[:, :, 0] * m[:, :, 2] - m[:, :, 1] ** 2
        v = np.stack([m[:, p:, 2], -2.0 * m[:, p:, 1], m[:, p:, 0]], axis=2) \
            / det_m[:, p:, None]
        lam = np.concatenate([np.broadcast_to([1.0, 1.0, 0.0], (k, p, 3)),
                              (cof * v[:, :, None]).sum(axis=3) / det_c], axis=1)
        least = (1.0 - (m[:, :, :1] * (u0 * u0)[:, None]
                        + 2.0 * m[:, :, 1:2] * (u0 * u1)[:, None]
                        + m[:, :, 2:] * (u1 * u1)[:, None])).min(axis=2)
        ok = (least >= -FIELD_SLACK) & (lam >= 0.0).all(axis=2) & (det_m > 0.0) \
            & (det_m < np.inf)
    best = np.argmax(np.where(ok, least, -np.inf), axis=1)[:, None]
    g = np.stack([(lam * xs).sum(axis=2), (lam * ys).sum(axis=2)], axis=2)
    pick = np.take_along_axis
    return (pick(ok, best, axis=1)[:, 0], pick(det_m, best, axis=1)[:, 0],
            pick(g, best[:, :, None], axis=1)[:, 0])


def _centered_john(A: np.ndarray, b: np.ndarray, X):
    """The fixed-center John field of {y : A y <= b} at every row x of X.

    For each x the ellipse is x + L (unit disk), L symmetric, and with
    M = L^2 and u_i = a_i / r_i, r_i = b_i - a_i.x, the constraint
    |L a_i| <= r_i is u_i^T M u_i <= 1 (A has unit rows): linear in
    m = (m11, m12, m22), and log det L = log det M / 2.  Each row is
    solved in the frame where its u_i have unit second moment, so that M
    is well conditioned there even 1e-7 of the diameter from an edge.
    One log-det barrier path, from t = max(1, n / 10), runs for all rows
    at once: params (k, 3), slacks (k, n) and (k, 3, 3) Newton systems.
    The line search starts short of the first slack's zero, which is
    linear along the step, and inside the quadratic region
    (lambda^2 < 1/16) a row takes the full step.  A row leaves a t-stage
    after its first full step; in the last stage, after the full step at
    which its decrement no longer falls fourfold, so that stage is
    centered as well as rounding allows.

    After every stage each row tries to finish (``_field_finish``) on the
    contact sets that its multipliers mu_i = 1 / (t s_i) name; a row whose
    set meets John's conditions leaves the path with the optimum.  There
    det L = sqrt(det M), and by the envelope theorem
    grad_x log det L = -sum_S lam_i a_i / r_i exactly.  The rows never
    certified run on to a gap n / t below BARRIER_GAP and take the
    multipliers mu as their lam.  Expects a body of diameter about 1; a
    row whose center has margin at most 1e-13 gets det 0.  Each row's
    result depends on that row alone.

    Returns (det L, grad_x log det L) per row.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    k, n = len(X), len(b)
    r = b - (X[:, :1] * A[:, 0] + X[:, 1:] * A[:, 1])
    rows = np.flatnonzero(r.min(axis=1) > 1e-13)
    # per row, sqrt(det M') and sum lam_i u'_i in the row's frame
    root_det, lam_u = np.zeros(len(rows)), np.zeros((len(rows), 2))
    r = r[rows]
    u0, u1 = A[:, 0] / r, A[:, 1] / r
    # each row runs in the frame where its u_i have unit second moment:
    # u = R^T u' with R from the QR factorization of the (n, 2) matrix of
    # the u_i, by two Gram-Schmidt steps that do not square its condition.
    # There M' = R M R^T is well conditioned however near an edge x lies
    r00 = np.sqrt((u0 * u0).sum(axis=1))
    u0 = u0 / r00[:, None]
    r01 = (u0 * u1).sum(axis=1)
    u1 = u1 - r01[:, None] * u0
    r11 = np.sqrt((u1 * u1).sum(axis=1))
    u1 = u1 / r11[:, None]
    # the constraint rows (p, 2 q, w) and the products that the slack part
    # of the Hessian, sum_i (p, 2 q, w)^T (p, 2 q, w) / s_i^2, sums
    p, q, w = u0 * u0, u0 * u1, u1 * u1
    pp, pq, pw, qw, ww = p * p, p * q, p * w, q * w, w * w
    # start at the disk of 0.45 times the nearest constraint's distance:
    # every slack is at least 1 - 0.45^2
    m = np.zeros((len(rows), 3))
    m[:, 0] = m[:, 2] = 0.2025 / (p + w).max(axis=1)
    s = 1.0 - (m[:, :1] * p + m[:, 2:] * w)
    log_s = np.log(s).sum(axis=1)
    act = np.arange(len(rows))
    t = max(1.0, n / 10.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while act.size:
            last = n / t < BARRIER_GAP
            live = act
            prev = np.full(len(rows), np.inf)
            for _ in range(60):
                if not live.size:
                    break
                mm, e = m[live], 1.0 / s[live]
                dd = mm[:, 0] * mm[:, 2] - mm[:, 1] ** 2
                v = np.stack([mm[:, 2], -2.0 * mm[:, 1], mm[:, 0]], axis=1) / dd[:, None]
                e2 = e * e
                h = [(e2 * z[live]).sum(axis=1) for z in (pp, pq, pw, qw, ww)]
                H = np.stack([h[0], 2.0 * h[1], h[2], 2.0 * h[1], 4.0 * h[2], 2.0 * h[3],
                              h[2], 2.0 * h[3], h[4]], axis=1).reshape(-1, 3, 3)
                H += t * (v[:, :, None] * v[:, None, :] - _LOGDET3_M / dd[:, None, None])
                g = np.stack([(e * p[live]).sum(axis=1), 2.0 * (e * q[live]).sum(axis=1),
                              (e * w[live]).sum(axis=1)], axis=1) - t * v
                try:
                    step = np.linalg.solve(H, -g[:, :, None])[:, :, 0]
                except np.linalg.LinAlgError:
                    step = np.full_like(g, np.nan)
                lam2 = -(g * step).sum(axis=1)
                go = np.isfinite(step).all(axis=1) & (lam2 >= 0.0)
                live, step, lam2 = live[go], step[go], lam2[go]
                # a row leaves the stage after a full step (in the last
                # stage, one whose decrement no longer falls fourfold)
                full = lam2 < 1.0 / 16.0
                more = ~full | (lam2 < 0.25 * prev[live]) if last else ~full
                prev[live] = lam2
                # the slacks fall by alpha d along the step: the line search
                # starts short of where the first reaches 0
                d = step[:, :1] * p[live] + 2.0 * step[:, 1:2] * q[live] + step[:, 2:] * w[live]
                room = np.where(d > 0.0, s[live] / d, np.inf).min(axis=1)
                alpha = np.where(full, 1.0, np.minimum(1.0, 0.99 * room))
                base = -t * np.log(dd[go]) - log_s[live]
                pend = np.arange(len(live))
                while pend.size and alpha[pend].max() > 1e-14:
                    a, lp = alpha[pend][:, None], live[pend]
                    mc = m[lp] + a * step[pend]
                    sc = 1.0 - (mc[:, :1] * p[lp] + 2.0 * mc[:, 1:2] * q[lp] + mc[:, 2:] * w[lp])
                    dc = mc[:, 0] * mc[:, 2] - mc[:, 1] ** 2
                    lc = np.log(sc).sum(axis=1)
                    fc = -t * np.log(dc) - lc
                    ok = (sc.min(axis=1) > 0.0) & (mc[:, 0] > 0.0) & (dc > 0.0) & np.isfinite(fc)
                    ok &= (full[pend] & (a[:, 0] == 1.0)) | (fc < base[pend])
                    hit = live[pend[ok]]
                    m[hit], s[hit], log_s[hit] = mc[ok], sc[ok], lc[ok]
                    pend = pend[~ok]
                    alpha[pend] *= 0.5
                # so does a row whose line search found no step
                more[pend] = False
                live = live[more]
            mu = 1.0 / (t * s[act])
            ok, det_m, lu = _field_finish(u0[act], u1[act], mu, m[act])
            root_det[act[ok]] = np.sqrt(det_m[ok])
            lam_u[act[ok]] = lu[ok]
            if last:
                act, mu = act[~ok], mu[~ok]
                mm = m[act]
                root_det[act] = np.sqrt(mm[:, 0] * mm[:, 2] - mm[:, 1] ** 2)
                lam_u[act] = np.stack([(mu * u0[act]).sum(axis=1),
                                       (mu * u1[act]).sum(axis=1)], axis=1)
                break
            act = act[~ok]
            t *= 10.0
        # back to x's frame: det M = det M' / (r00 r11)^2, and
        # -sum lam_i u_i = -R^T sum lam_i u'_i
        det, grad = np.zeros(k), np.full((k, 2), np.nan)
        det[rows] = root_det / (r00 * r11)
        grad[rows, 0] = -r00 * lam_u[:, 0]
        grad[rows, 1] = -(r01 * lam_u[:, 0] + r11 * lam_u[:, 1])
    return det, grad


def max_centered_area(P: Polygon, x) -> float:
    """f_K(x): largest area of a centrally placed ellipse x + E inside P."""
    verts, d, g = _normalize(P)
    A, b = edge_normals(Polygon(verts))
    det, _ = _centered_john(A, b, (np.asarray(x, dtype=float) - g) / d)
    return math.pi * float(det[0]) * d * d


# ---------------------------------------------------------------------------
# Enclosing (Loewner) side: variables (b0, b1, a11, a12, a22) of the ellipse
# {y : |A y - b| <= 1}, A symmetric PD, constraints per vertex
# |A y_i - b| <= 1; area is pi / det A.  Each w_i = A y_i - b is G_i theta,
# with G_i = [[-1, 0, y0, y1, 0], [0, -1, 0, y0, y1]], so the slack
# 1 - |G_i theta|^2 is concave and the barrier convex, as John's.


def _loewner_problem(P: Polygon):
    # in the frame of _whiten: at a similarity's scale, the barrier's
    # centring error grew with the body's conditioning, up to 3e-4 of the
    # diameter in the equivariance of the center under maps of condition 1e3
    verts, S, g = _whiten(P)
    n = len(verts)
    y0, y1 = verts.T
    mono = np.column_stack([np.ones(n), y0, y1, y0 * y0, y0 * y1, y1 * y1])
    J = np.empty((n, 5))
    Hs = np.empty((5, 5))

    def slacks(theta):
        b0, b1, a11, a12, a22 = theta.tolist()
        w = verts @ np.array([[a11, a12], [a12, a22]]) - (b0, b1)
        return 1.0 - (w * w).sum(axis=1), w

    def terms(theta, w, wts):
        # grad s_i = -2 G_i^T w_i, and hess s_i = -2 G_i^T G_i does not
        # depend on theta: its weighted sum is linear in the weighted moments
        w0, w1 = w.T
        J[:, :2] = 2.0 * w
        J[:, 2] = -2.0 * w0 * y0
        J[:, 3] = -2.0 * (w0 * y1 + w1 * y0)
        J[:, 4] = -2.0 * w1 * y1
        k, m0, m1, m00, m01, m11 = (-2.0 * (wts @ mono)).tolist()
        Hs[:] = ((k, 0.0, -m0, -m1, 0.0), (0.0, k, 0.0, -m0, -m1),
                 (-m0, 0.0, m00, m01, 0.0), (-m1, -m0, m01, m00 + m11, m01),
                 (0.0, -m1, 0.0, m01, m11))
        return J, Hs

    # a disk twice the circumradius about the centroid: every slack is >= 3/4
    a0 = 0.5 / float(np.linalg.norm(verts, axis=1).max())
    return np.array([0.0, 0.0, a0, 0.0, a0]), slacks, terms, n, S, g


def loewner_ellipse(P: Polygon) -> Ellipse:
    """Minimum-area ellipse enclosing the polygon: the best feasible basis
    candidate up to BASIS_MAX_N vertices, else the barrier's."""
    if P.n <= BASIS_MAX_N:
        Y, S, g = _whiten(P)
        c, X = _basis_optimum(np.column_stack([Y, np.ones(len(Y))]), lines=False)
        # {S y : |X^1/2 (y - c)| <= 1} = {S (c + X^-1/2 u) : |u| <= 1}
        B = np.linalg.solve(_sqrtm(X), S.T).T
        return Ellipse(g + S @ c, _gram_root(B), residual=EPS)
    theta0, slacks, terms, m, S, g = _loewner_problem(P)
    theta, steps, gap = _barrier_maxlogdet(theta0, slacks, terms, m)
    # {S y : |A y - b| <= 1} = {S A^-1 (b + u) : |u| <= 1}
    B = np.linalg.solve(_sym(theta[2:]), S.T).T
    return Ellipse(g + B @ theta[:2], _gram_root(B), iterations=steps, residual=gap)


def min_centered_inverse_area(P: Polygon, x) -> float:
    """lambda_K(x): inverse area of the smallest ellipse x + E containing P,
    for any x.

    A centered ellipse E contains P - x iff it contains
    H = conv((P - x) u (x - P)), iff its polar lies in the polar H* of H,
    and |E| |E polar| = pi^2: so lambda_K(x) is f_H*(0) / pi^2.
    """
    Y = P.vertices - np.asarray(x, dtype=float)
    H = canonicalize(np.vstack([Y, -Y]))
    return max_centered_area(polar_about(H, (0.0, 0.0)), (0.0, 0.0)) / math.pi ** 2


# ---------------------------------------------------------------------------
# John condition certificates.


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin |A w - b| over w >= 0, by the Lawson-Hanson active-set method.

    The passive set holds the weights that may be positive; each outer step
    frees the zero weight with the largest gradient, the first of those
    tied to it within rounding, and each inner step solves least squares on
    the passive set, stepping back to the last feasible point and dropping
    the weights that reach zero.  Where columns tie, as the contacts of a
    regular polygon do, the solution is not unique, and the first of the
    tied gradients picks the same one after a last-bit move of A.
    """
    k = A.shape[1]
    # the rounding of the gradient A^T (b - A w) scales with |A| |b|
    tol = 10.0 * max(A.shape) * np.finfo(float).eps * np.abs(A).sum(axis=0).max() \
        * np.abs(b).max()
    w = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    for _ in range(3 * k):
        grad = np.where(passive, -np.inf, A.T @ (b - A @ w))
        j = int(np.argmax(grad >= grad.max() - tol))
        if grad[j] <= tol:
            break
        passive[j] = True
        while True:
            z = np.zeros(k)
            z[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
            if np.all(z[passive] > 0.0):
                w = z
                break
            neg = passive & (z <= 0.0)
            ratio = w[neg] / (w[neg] - z[neg])
            w += ratio.min() * (z - w)
            w[np.flatnonzero(neg)[np.argmin(ratio)]] = 0.0
            passive &= w > 0.0
            w[~passive] = 0.0
    return w


def _contact_dirs(P: Polygon, E: Ellipse, mode: str) -> np.ndarray:
    """The contacts of P with E in the frame where E is the unit disk, in
    edge (vertex) order: the unit normals of the edges at distance 1 for
    "inscribed", or the unit directions of the vertices at radius 1 for
    "enclosing", each within CONTACT_TOL."""
    # translate first: far from the origin, N(v) = E^-1 v - E^-1 c would
    # cancel two large terms
    verts = np.linalg.solve(E.shape, (P.vertices - E.center).T).T
    if mode == "inscribed":
        U, r = edge_normals(Polygon(verts))
    else:
        # each radius as np.linalg.norm of one vertex takes it, by a dot
        # product (matmul of two vectors calls the same one)
        r = np.sqrt(verts[:, None] @ verts[:, :, None])[:, 0, 0]
        U = verts / r[:, None]
    return U[np.abs(r - 1.0) < CONTACT_TOL]


def verify_john_conditions(P: Polygon, E: Ellipse, mode: str) -> JohnCertificate:
    """Checks F. John's contact conditions after normalizing E to the unit disk.

    Raises NoContacts / CertificationFailure when the configuration fails.
    """
    if mode not in ("inscribed", "enclosing"):
        raise BadParams(f"unknown mode {mode!r}")
    U = _contact_dirs(P, E, mode)
    if not len(U):
        raise NoContacts(f"no {mode} boundary contacts within {CONTACT_TOL}")
    A = np.vstack([
        U[:, 0],
        U[:, 1],
        U[:, 0] ** 2,
        U[:, 0] * U[:, 1],
        U[:, 1] ** 2,
    ])
    rhs = np.array([0.0, 0.0, 1.0, 0.0, 1.0])
    w = _nnls(A, rhs)
    res_sum = U.T @ w
    S = (U.T * w) @ U
    res_id = float(np.linalg.norm(S - np.eye(2)))
    if np.linalg.norm(res_sum) > CERT_RESIDUAL_TOL or res_id > CERT_RESIDUAL_TOL:
        raise CertificationFailure(
            f"John residuals too large: sum={np.linalg.norm(res_sum):.3g} id={res_id:.3g}"
        )
    contacts = [(U[i], float(w[i])) for i in range(len(w)) if w[i] > 1e-12]
    return JohnCertificate(contacts, res_sum, res_id)
