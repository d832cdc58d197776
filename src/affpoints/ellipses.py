"""Analytic ellipses plus the John (max inscribed) and Loewner (min enclosing)
ellipse solvers for convex polygons.

Both solvers run one damped-Newton log-barrier driver on a small parameter
vector (center + symmetric 2x2 shape).  Each problem gives its slacks, their
Jacobian and the closed-form sum of their Hessians from one pass over its
constraints, and the Loewner problem runs on the vertices whitened to unit
scatter, so its conditioning does not depend on the body's.  The path
starts at t = max(1, n_con / 10), a gap of at most 10, and from t = 1e2 on
each stage ends with an attempt to leave it (``_finish``): the slacks and
barrier multipliers name a contact set, reduced to at most five positive
weights where more touch, and Newton on John's conditions restricted to it
lands on the optimum to rounding, or the barrier goes on from where it
stopped.  The results are certificate-checkable via the John contact
conditions.
The fixed-center John field f_K runs one barrier over many centers at once
(``_centered_john``, which also gives its gradient); ``max_centered_area`` is
its one-row call.  A fixed-center Loewner variant backs
``min_centered_inverse_area``.  The fixed-center solves run the barrier to
its end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, CertificationFailure, ConvergenceFailure, NoContacts
from .polygons import AffineMap, Polygon, edge_normals, interior_margin

CONTACT_TOL = 1e-6
CERT_RESIDUAL_TOL = 1e-6
# the log-det barriers stop at this duality gap n_con / t
BARRIER_GAP = 1e-10
# from the stage at t = FINISH_FROM on, the free-center barriers try to
# finish by Newton on John's conditions (see _finish), on at most
# MAX_CONTACTS contacts (one per parameter), for at most FINISH_STEPS steps
FINISH_FROM = 1e2
MAX_CONTACTS = 5
FINISH_STEPS = 10
# past MAX_CONTACTS candidates, the contact set ends at the last place where
# the next slack is this many times the one before (not tied to it)
CUT_RATIO = 1.2


@dataclass(frozen=True)
class Ellipse:
    """The set {center + shape @ u : |u| <= 1} with shape symmetric PD.

    A solved ellipse records its solve.  ``iterations`` counts the Newton
    steps of the barrier and of every attempt to finish on John's
    conditions.  ``residual`` is, after an accepted finish, the size of its
    last Newton step in the solver's normalized frame (at least the
    rounding unit).  Only where no finish was accepted is it the barrier's
    final duality gap n_con / t.  Both are 0 for an ellipse built any other
    way.
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


def _kkt_newton(theta, lam, S, slack_fn, slack_terms, ss):
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
        l11, l12, l22 = theta[ss].tolist()
        det = l11 * l22 - l12 * l12
        if not (l11 > 0.0 and det > 0.0):
            break
        v = np.array([l22, -2.0 * l12, l11]) / det
        wts[S] = lam
        J, Hs = slack_terms(theta, aux, wts)
        JS = J[S]
        r[:k] = lam @ JS
        r[ss] += v
        r[k:] = s[S]
        K[:k, :k] = Hs
        K[ss, ss] += _LOGDET3_M / det - np.outer(v, v)
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


def _finish(theta, s, aux, t, slack_fn, slack_terms, ss, rejected, last):
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
    -1e-13, since John's conditions then hold.  Otherwise, if it converged,
    its set is recorded in ``rejected`` and the next set is tried, with
    weights mu: without the contacts of negative lam; or, if there are none,
    with the most violated constraint added, in place of the contact whose
    weight first falls to 0 as the new one's grows if S is full (a simplex
    pivot; under a map of condition 1e3 the whitened vertices of a regular
    polygon are tied only to about 1e-13).  A set Newton did not converge on
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
            l11, l12, l22 = theta[ss].tolist()
            det = l11 * l22 - l12 * l12
            grad = np.zeros(len(theta))
            grad[ss] = (l22 / det, -2.0 * l12 / det, l11 / det)
            J, _ = slack_terms(theta, aux, np.zeros(len(s)))
            w = _nnls(J[S].T * lam, -grad) * lam
            S, lam = S[w > 0.0], w[w > 0.0]
    steps = 0
    while 3 <= len(S) <= MAX_CONTACTS and frozenset(S.tolist()) not in rejected:
        done, lam, sc, size, k = _kkt_newton(theta, lam, S, slack_fn, slack_terms, ss)
        steps += k
        if done is None:
            break
        j = int(np.argmin(sc))
        if lam.min() > 0.0 and sc[j] >= -1e-13:
            return done, max(size, np.finfo(float).eps), steps, touching
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


def _barrier_maxlogdet(theta0, slack_fn, slack_terms, shape_slice, n_con, finish=False):
    """Minimize -t*logdet(shape) - sum log(slacks) along an increasing-t path,
    up by tenfold steps until the gap n_con / t is below BARRIER_GAP.  With
    ``finish`` the path starts at t = max(1, n_con / 10), so the first gap
    is at most 10 (the stages before it only center the start); without,
    it starts at t = 1, so its end gap is that of ``_centered_john``.

    ``shape_slice`` picks the (l11, l12, l22) entries out of theta.  A
    problem evaluates its constraints in one pass, split over two calls:
    ``slack_fn(theta)`` returns the slacks and an ``aux`` of what their
    derivatives reuse, and ``slack_terms(theta, aux, wts)`` returns the
    slack Jacobian (n_con, k) and the weighted sum of the constraint
    Hessians, sum_i wts_i * hess(s_i), as one (k, k) matrix, both in
    buffers that its next call overwrites.  The log-det terms are added
    from Python scalars.  With ``finish``, each stage from t = FINISH_FROM
    on ends with ``_finish``, which may return the optimum instead.
    Returns (theta, Newton steps taken, residual): after an accepted finish
    the size of its last Newton step, and otherwise the final gap n_con / t.
    """
    theta = np.array(theta0, dtype=float)
    s, aux = slack_fn(theta)
    l11, l12, l22 = theta[shape_slice].tolist()
    if not (s.min() > 0.0 and l11 > 0.0 and l11 * l22 - l12 * l12 > 0.0):
        raise ConvergenceFailure("infeasible barrier start")
    # the accepted iterate carries its slacks, their log sum and aux, so
    # neither the next Newton step nor its line search evaluates them again
    log_s = float(np.log(s).sum())
    steps = 0
    rejected = set()
    t = max(1.0, n_con / 10.0) if finish else 1.0
    last = None
    while True:
        for _ in range(60):
            l11, l12, l22 = theta[shape_slice].tolist()
            det = l11 * l22 - l12 * l12
            wts = 1.0 / s
            J, Hs = slack_terms(theta, aux, wts)
            Js = J * wts[:, None]
            g = -(wts @ J)
            H = Js.T @ Js
            H -= Hs
            v0, v1, v2 = l22 / det, -2.0 * l12 / det, l11 / det
            h02, h11 = v0 * v2 - 1.0 / det, v1 * v1 + 2.0 / det
            g[shape_slice] -= (t * v0, t * v1, t * v2)
            H[shape_slice, shape_slice] += ((t * v0 * v0, t * v0 * v1, t * h02),
                                            (t * v0 * v1, t * h11, t * v1 * v2),
                                            (t * h02, t * v1 * v2, t * v2 * v2))
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                step = -g
            # lam2 is finite only if the step is
            lam2 = float(-g @ step)
            if lam2 < 0.0:
                # the Loewner barrier in (c, M) is not convex: descend the gradient
                step, lam2 = -g, float(g @ g)
            if not (math.isfinite(lam2) and lam2 > 2.0 * t * 1e-13):
                break
            base = -t * math.log(det) - log_s
            alpha = 1.0
            while alpha > 1e-14:
                cand = theta + alpha * step
                c11, c12, c22 = cand[shape_slice].tolist()
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
        if finish and t >= FINISH_FROM:
            done, res, k, last = _finish(theta, s, aux, t, slack_fn, slack_terms,
                                         shape_slice, rejected, last)
            steps += k
            if done is not None:
                return done, steps, res
        if n_con / t < BARRIER_GAP:
            return theta, steps, n_con / t
        t *= 10.0


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
    # w_i = L a_i = B_i l with B_i = [[a0, a1, 0], [0, a0, a1]] (see
    # _sum_btcb); NB holds -B_i
    NB = np.zeros((n, 2, 3))
    NB[:, 0, :2] = NB[:, 1, 1:] = -A
    J = np.empty((n, 5))
    J[:, :2] = -A
    Hs = np.zeros((5, 5))

    def slacks(theta):
        # one product gives a_i.c, w_i and w_i turned by 90 degrees
        cx, cy, l11, l12, l22 = theta.tolist()
        W = A @ np.array([[cx, l11, l12, -l12, l11], [cy, l12, l22, -l22, l12]])
        wl = np.hypot(W[:, 1], W[:, 2])
        return b - W[:, 0] - wl, (W, wl)

    def terms(theta, aux, wts):
        # with nu the unit w_i and tau = (-nu1, nu0), grad s_i is
        # -(a_i, B_i^T nu); and in 2D the Hessian of |w| over w is
        # tau tau^T / |w|, so hess s_i = -q q^T / |w_i| with q = B_i^T tau
        W, wl = aux
        V = (W[:, 1:] / wl[:, None]).reshape(n, 2, 2) @ NB
        J[:, 2:] = V[:, 0]
        q = V[:, 1]
        Hs[2:, 2:] = -(q.T * (wts / wl)) @ q
        return J, Hs

    c0 = Q.centroid
    r0 = 0.45 * interior_margin(Q, c0)
    if r0 <= 0.0:
        raise ConvergenceFailure("center not interior")
    theta0 = np.array([c0[0], c0[1], r0, 0.0, r0])
    return theta0, slacks, terms, slice(2, 5), n, d, g


def john_ellipse(P: Polygon) -> Ellipse:
    """Maximum-area ellipse inscribed in the polygon."""
    theta0, slacks, terms, ss, m, d, g = _john_problem(P)
    theta, steps, gap = _barrier_maxlogdet(theta0, slacks, terms, ss, m, finish=True)
    c = g + d * theta[:2]
    L = d * _sym(theta[2:])
    return Ellipse(c, L, iterations=steps, residual=gap)


def _sum_btcb(aa: np.ndarray, c00, c01, c11) -> np.ndarray:
    """sum_i B_i^T C_i B_i as a (k, 3, 3) stack.

    B_i = [[a0, a1, 0], [0, a0, a1]] maps l = (l11, l12, l22) to L a_i for
    the edge normal a_i = (a0, a1), and C_i is the symmetric 2 x 2 matrix
    [[c00, c01], [c01, c11]], each entry a (k, n) array.  ``aa`` (3, n)
    holds a0^2, a0 a1 and a1^2 per edge, and each entry of the sum
    combines sums over i of an entry of C_i times one of them.  Those are
    row sums of elementwise products, not matrix products, so a row's
    result does not depend on how many rows there are.
    """
    p0, p1, p2 = ((c[:, None, :] * aa).sum(axis=2) for c in (c00, c01, c11))
    H = np.empty((len(p0), 3, 3))
    H[:, 0, 0] = p0[:, 0]
    H[:, 0, 1] = H[:, 1, 0] = p0[:, 1] + p1[:, 0]
    H[:, 0, 2] = H[:, 2, 0] = p1[:, 1]
    H[:, 1, 1] = p0[:, 2] + 2.0 * p1[:, 1] + p2[:, 0]
    H[:, 1, 2] = H[:, 2, 1] = p1[:, 2] + p2[:, 1]
    H[:, 2, 2] = p2[:, 2]
    return H


def _centered_john(A: np.ndarray, b: np.ndarray, X, gap: float = BARRIER_GAP):
    """The fixed-center John field of {y : A y <= b} at every row x of X.

    For each x the unknowns are l = (l11, l12, l22), the shape L of the
    ellipse x + L (unit disk), under the constraints
    s_i = b_i - a_i.x - |L a_i| >= 0 (A has unit rows).  One log-det barrier
    path runs for all rows at once: params (k, 3), slacks (k, n) and
    (k, 3, 3) Newton systems.  Inside the quadratic region
    (lambda^2 < 1/16) a row takes the full step once it is feasible,
    because at large t rounding hides the decrease the line search looks
    for.  A row leaves a t-stage after its first full step; in the last
    stage, after the full step at which its decrement no longer falls
    fourfold (there it falls far faster until rounding stops it), so the
    last stage is centered as well as rounding allows.  Expects a body of
    diameter about 1; a row whose center has margin at most 1e-13 gets
    det 0.  Each row's result depends on that row alone.

    Returns (det L, grad_x log det L) per row at the final gap n / t.  The
    gradient is the envelope theorem's -sum_i mu_i a_i, with the barrier
    multipliers mu_i = 1 / (t s_i).  How well rounding lets the last stage
    center falls as t grows: at a gap of 1e-8 the gradient matched central
    differences of log f to 1e-5 relative on bodies of 6 to 256 edges, at
    1e-10 only to 9e-2.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    k, n = len(X), len(b)
    det = np.zeros(k)
    grad = np.full((k, 2), np.nan)
    a0, a1 = A[:, 0], A[:, 1]
    r = b - (X[:, :1] * a0 + X[:, 1:] * a1)
    rows = np.flatnonzero(r.min(axis=1) > 1e-13)
    r = r[rows]
    # w_i = L a_i = B_i l (see _sum_btcb); grad s_i is -B_i^T n and hess s_i
    # is -B_i^T tau tau^T B_i / |w_i|, with n the unit w_i and
    # tau = (-n1, n0).  So the slack part of the barrier Hessian is
    # sum_i B_i^T C_i B_i with C_i = n n^T / s^2 + (I - n n^T) / (s |w|)
    aa = np.array([a0 * a0, a0 * a1, a1 * a1])

    def norm_w(l):
        w0 = l[:, :1] * a0 + l[:, 1:2] * a1
        w1 = l[:, 1:2] * a0 + l[:, 2:] * a1
        return w0, w1, np.sqrt(w0 * w0 + w1 * w1)

    l = np.zeros((len(rows), 3))
    l[:, 0] = l[:, 2] = 0.45 * r.min(axis=1)
    s = r - norm_w(l)[2]
    log_s = np.log(s).sum(axis=1)
    t = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            last = n / t < gap
            live = np.arange(len(rows))
            prev = np.full(len(rows), np.inf)
            for _ in range(60):
                if not live.size:
                    break
                ll, sl = l[live], s[live]
                w0, w1, wl = norm_w(ll)
                n0, n1 = w0 / wl, w1 / wl
                e0, e1 = n0 / sl, n1 / sl
                isw = 1.0 / (sl * wl)
                cn = e0 * e0 + e1 * e1 - isw
                dd = ll[:, 0] * ll[:, 2] - ll[:, 1] ** 2
                v = np.column_stack([ll[:, 2], -2.0 * ll[:, 1], ll[:, 0]]) / dd[:, None]
                H = _sum_btcb(aa, cn * n0 * n0 + isw, cn * n0 * n1, cn * n1 * n1 + isw)
                H += t * (v[:, :, None] * v[:, None, :] - _LOGDET3_M / dd[:, None, None])
                g = np.column_stack([(e0 * a0).sum(axis=1), (e0 * a1 + e1 * a0).sum(axis=1),
                                     (e1 * a1).sum(axis=1)]) - t * v
                try:
                    step = np.linalg.solve(H, -g[:, :, None])[:, :, 0]
                except np.linalg.LinAlgError:
                    step = -g
                lam2 = -(g * step).sum(axis=1)
                go = np.isfinite(step).all(axis=1)
                live, step, lam2 = live[go], step[go], lam2[go]
                # a row takes this step, and leaves the stage if it is a full
                # step (in the last stage, one whose decrement no longer
                # falls fourfold)
                full = lam2 < 1.0 / 16.0
                more = ~full | ((lam2 > 0.0) & (lam2 < 0.25 * prev[live])) if last else ~full
                prev[live] = lam2
                base = -t * np.log(dd[go]) - log_s[live]
                pend = np.arange(len(live))
                alpha = 1.0
                while pend.size and alpha > 1e-14:
                    cand = l[live[pend]] + alpha * step[pend]
                    sc = r[live[pend]] - norm_w(cand)[2]
                    lc = np.log(sc).sum(axis=1)
                    fc = -t * np.log(cand[:, 0] * cand[:, 2] - cand[:, 1] ** 2) - lc
                    ok = (cand[:, 0] > 0.0) & np.isfinite(fc) & (sc > 0.0).all(axis=1)
                    ok &= (full[pend] & (alpha == 1.0)) | (fc < base[pend])
                    hit = live[pend[ok]]
                    l[hit], s[hit], log_s[hit] = cand[ok], sc[ok], lc[ok]
                    pend = pend[~ok]
                    alpha *= 0.5
                # so does a row whose line search found no step
                more[pend] = False
                live = live[more]
            if last:
                break
            t *= 10.0
    det[rows] = l[:, 0] * l[:, 2] - l[:, 1] ** 2
    mu = 1.0 / (t * s)
    grad[rows] = -np.column_stack([(mu * a0).sum(axis=1), (mu * a1).sum(axis=1)])
    return det, grad


def max_centered_area(P: Polygon, x) -> float:
    """f_K(x): largest area of a centrally placed ellipse x + E inside P."""
    verts, d, g = _normalize(P)
    A, b = edge_normals(Polygon(verts))
    det, _ = _centered_john(A, b, (np.asarray(x, dtype=float) - g) / d)
    return math.pi * float(det[0]) * d * d


# ---------------------------------------------------------------------------
# Enclosing (Loewner) side: variables (cx, cy, m11, m12, m22), constraints per
# vertex (v_i - c)^T M (v_i - c) <= 1; area is pi / sqrt(det M).


# y[:, _YY[0]] * y[:, _YY[1]] is (y0^2, y0 y1, y1^2), and times _YY[2] it
# is the shape part of the Jacobian of the Loewner slack 1 - y^T M y
_YY = (np.array([0, 0, 1]), np.array([0, 1, 1]), np.array([-1.0, -2.0, -1.0]))


def _loewner_problem(P: Polygon, center=None):
    # in the frame of _whiten: at a similarity's scale, the barrier's
    # centring error grew with the body's conditioning, up to 3e-4 of the
    # diameter in the equivariance of the center under maps of condition 1e3
    verts, S, g = _whiten(P)
    n = len(verts)
    if center is None:
        J = np.empty((n, 5))
        Hs = np.zeros((5, 5))

        def slacks(theta):
            cx, cy, m11, m12, m22 = theta.tolist()
            y = verts - (cx, cy)
            z = y @ np.array([[m11, m12], [m12, m22]])
            return 1.0 - (z * y).sum(axis=1), (y, z)

        def terms(theta, aux, wts):
            # s is linear in M, its centre block is -2M, and its cross terms
            # d2s / (dc dm_a) = 2 E_a y are linear in y, so they sum to 2 E_a Y
            y, z = aux
            J[:, :2] = 2.0 * z
            J[:, 2:] = y[:, _YY[0]] * y[:, _YY[1]] * _YY[2]
            sw = -2.0 * float(wts.sum())
            y0, y1 = (2.0 * (wts @ y)).tolist()
            _, _, m11, m12, m22 = theta.tolist()
            Hs[:2] = ((sw * m11, sw * m12, y0, y1, 0.0),
                      (sw * m12, sw * m22, 0.0, y0, y1))
            Hs[2:, :2] = Hs[:2, 2:].T
            return J, Hs

        c0 = np.zeros(2)
    else:
        # at a fixed center c0, s = 1 - y^T M y is linear in (m11, m12, m22)
        c0 = np.linalg.solve(S, np.asarray(center, dtype=float) - g)
        y = verts - c0
        J = y[:, _YY[0]] * y[:, _YY[1]] * _YY[2]
        Hs = np.zeros((3, 3))

        def slacks(theta):
            return 1.0 + J @ theta, None

        def terms(theta, aux, wts):
            return J, Hs

    # a disk twice the circumradius about c0: every slack is >= 3/4
    R = float(np.linalg.norm(verts - c0, axis=1).max())
    m0 = 1.0 / (2.0 * R) ** 2
    if center is None:
        return np.array([0.0, 0.0, m0, 0.0, m0]), slacks, terms, slice(2, 5), n, S, g
    return np.array([m0, 0.0, m0]), slacks, terms, slice(0, 3), n, S, g


def loewner_ellipse(P: Polygon) -> Ellipse:
    """Minimum-area ellipse enclosing the polygon."""
    theta0, slacks, terms, ss, m, S, g = _loewner_problem(P)
    theta, steps, gap = _barrier_maxlogdet(theta0, slacks, terms, ss, m, finish=True)
    # {S y : y^T M y <= 1} has the shape factor of S M^-1 S^T
    L = _gram_root(np.linalg.solve(np.linalg.cholesky(_sym(theta[2:])), S.T).T)
    return Ellipse(g + S @ theta[:2], L, iterations=steps, residual=gap)


def min_centered_inverse_area(P: Polygon, x) -> float:
    """lambda_K(x): inverse area of the smallest ellipse x + E containing P."""
    theta0, slacks, terms, ss, m, S, g = _loewner_problem(P, center=x)
    theta, _, _ = _barrier_maxlogdet(theta0, slacks, terms, ss, m)
    det_m = theta[0] * theta[2] - theta[1] ** 2
    # area = pi |det S| / sqrt(det M)
    return math.sqrt(det_m) / (math.pi * abs(float(np.linalg.det(S))))


# ---------------------------------------------------------------------------
# John condition certificates.


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin |A w - b| over w >= 0, by the Lawson-Hanson active-set method.

    The passive set holds the weights that may be positive; each outer step
    frees the zero weight with the largest gradient, and each inner step
    solves least squares on the passive set, stepping back to the last
    feasible point and dropping the weights that reach zero.
    """
    k = A.shape[1]
    # the rounding of the gradient A^T (b - A w) scales with |A| |b|
    tol = 10.0 * max(A.shape) * np.finfo(float).eps * np.abs(A).sum(axis=0).max() \
        * np.abs(b).max()
    w = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    for _ in range(3 * k):
        grad = np.where(passive, -np.inf, A.T @ (b - A @ w))
        j = int(np.argmax(grad))
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
