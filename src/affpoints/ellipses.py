"""Analytic ellipses plus the John (max inscribed) and Loewner (min enclosing)
ellipse solvers for convex polygons.

Both solvers run a damped-Newton log-barrier path on a small parameter vector
(center + symmetric 2x2 shape), with the constraint Hessians summed in closed
form, which keeps them certificate-checkable via the John contact conditions.
Fixed-center variants back the scalar fields ``max_centered_area`` and
``min_centered_inverse_area``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationFailure, ConvergenceFailure, NoContacts
from .polygons import AffineMap, Polygon, edge_normals, interior_margin

CONTACT_TOL = 1e-6
CERT_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class Ellipse:
    """The set {center + shape @ u : |u| <= 1} with shape symmetric PD.

    A solved ellipse records its solve: ``iterations`` counts the barrier's
    Newton steps and ``residual`` is its final duality gap n_con / t.  Both
    are 0 for an ellipse built any other way.
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

    def boundary(self, m: int = 256) -> np.ndarray:
        t = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
        u = np.column_stack([np.cos(t), np.sin(t)])
        return self.center + u @ self.shape.T

    def affine_image(self, T: AffineMap) -> "Ellipse":
        A = T.matrix @ self.shape
        return Ellipse(T(self.center), _spd_factor(A @ A.T))

    def polar(self) -> "Ellipse":
        """Polar of a 0-centered ellipse; shape inverts."""
        if np.linalg.norm(self.center) > 1e-9:
            raise ValueError("polar() expects an origin-centered ellipse")
        return Ellipse(np.zeros(2), np.linalg.inv(self.shape))


@dataclass(frozen=True)
class JohnCertificate:
    contacts: list  # (unit direction, positive weight) pairs
    residual_sum: np.ndarray
    residual_identity: float


def _spd_factor(S: np.ndarray) -> np.ndarray:
    """Symmetric PD square root of a symmetric PD matrix."""
    w, V = np.linalg.eigh(S)
    return V @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ V.T


def _sym(t3: np.ndarray) -> np.ndarray:
    return np.array([[t3[0], t3[1]], [t3[1], t3[2]]])


def _is_pd(t3: np.ndarray) -> bool:
    return t3[0] > 0.0 and t3[0] * t3[2] - t3[1] ** 2 > 0.0


def _logdet3(t3: np.ndarray) -> float:
    return math.log(t3[0] * t3[2] - t3[1] ** 2)


def _logdet3_grad(t3: np.ndarray) -> np.ndarray:
    det = t3[0] * t3[2] - t3[1] ** 2
    return np.array([t3[2], -2.0 * t3[1], t3[0]]) / det


_LOGDET3_M = np.array([[0.0, 0.0, 1.0], [0.0, -2.0, 0.0], [1.0, 0.0, 0.0]])


def _logdet3_hess(t3: np.ndarray) -> np.ndarray:
    """Hessian of logdet over the (l11, l12, l22) parameterization."""
    det = t3[0] * t3[2] - t3[1] ** 2
    v = np.array([t3[2], -2.0 * t3[1], t3[0]])
    return _LOGDET3_M / det - np.outer(v, v) / det**2


def _barrier_maxlogdet(theta0, slack_fn, slack_jac, slack_hess, shape_slice,
                       n_con, gap=1e-10, t_start=1.0, dec_tol=1e-13):
    """Minimize -t*logdet(shape) - sum log(slacks) along an increasing-t path.

    ``shape_slice`` picks the (l11, l12, l22) entries out of theta;
    ``slack_hess(theta, wts)`` returns the weighted sum of the constraint
    Hessians, sum_i wts_i * hess(s_i), as one (k, k) matrix.  Returns
    (theta, Newton steps taken, final gap n_con / t).
    """
    theta = np.asarray(theta0, dtype=float).copy()
    s = slack_fn(theta)
    if np.any(s <= 0.0) or not _is_pd(theta[shape_slice]):
        raise ConvergenceFailure("infeasible barrier start")
    # the accepted iterate carries its slacks and their log sum, so neither
    # the next Newton step nor its line search evaluates them again
    log_s = float(np.log(s).sum())
    steps = 0
    t = t_start
    while True:
        for _ in range(60):
            l3 = theta[shape_slice]
            Js = slack_jac(theta) / s[:, None]
            g = -Js.sum(axis=0)
            g[shape_slice] -= t * _logdet3_grad(l3)
            H = Js.T @ Js - slack_hess(theta, 1.0 / s)
            H[shape_slice, shape_slice] -= t * _logdet3_hess(l3)
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                step = -g
            lam2 = float(-g @ step)
            if not np.all(np.isfinite(step)) or lam2 <= 2.0 * t * dec_tol:
                break
            base = -t * _logdet3(l3) - log_s
            alpha = 1.0
            while alpha > 1e-14:
                cand = theta + alpha * step
                if _is_pd(cand[shape_slice]):
                    sc = slack_fn(cand)
                    if np.all(sc > 0.0):
                        lc = float(np.log(sc).sum())
                        if -t * _logdet3(cand[shape_slice]) - lc < base:
                            theta, s, log_s = cand, sc, lc
                            steps += 1
                            break
                alpha *= 0.5
            else:
                break
        if n_con / t < gap:
            return theta, steps, n_con / t
        t *= 10.0


def max_area_reaches(P: Polygon, x, target: float, warm=None):
    """Decide whether f_K(x) >= target without solving to optimality.

    Walks the same barrier path as ``max_centered_area`` but stops as soon
    as the current inscribed area passes the target, or the duality bound
    area * exp(n_con / t) falls below it.  Returns (decision, shape params).
    """
    x = np.asarray(x, dtype=float)
    if interior_margin(P, x) <= 1e-13 * P.diameter:
        return target <= 0.0, None
    theta0, slacks, jac, hess, ss, m, d, g = _john_theta(P, center=x)
    theta = np.asarray(theta0, dtype=float).copy()
    if warm is not None:
        cand = np.asarray(warm, dtype=float).copy()
        for _ in range(40):
            if _is_pd(cand) and np.all(slacks(cand) > 0.0):
                theta = cand
                break
            cand = cand * 0.8
    t = 10.0
    while True:
        theta, _, _ = _barrier_maxlogdet(theta, slacks, jac, hess, ss, m,
                                         gap=m / t * 1.01, t_start=t, dec_tol=1e-7)
        det = theta[0] * theta[2] - theta[1] ** 2
        area = math.pi * det * d * d
        if area >= target:
            return True, theta.copy()
        if area * math.exp(m / t) < target:
            return False, theta.copy()
        if m / t < 1e-12:
            return area >= target, theta.copy()
        t *= 10.0


def _normalize(P: Polygon) -> tuple[np.ndarray, float, np.ndarray]:
    g = P.centroid
    d = P.diameter
    return (P.vertices - g) / d, d, g


# ---------------------------------------------------------------------------
# Inscribed (John) side: variables (cx, cy, l11, l12, l22), constraints per edge
# <a_i, c> + |L a_i| <= b_i.


def _john_theta(P: Polygon, center=None):
    verts, d, g = _normalize(P)
    Q = Polygon(verts)
    A, b = edge_normals(Q)

    fixed = None
    if center is not None:
        fixed = (np.asarray(center, dtype=float) - g) / d

    def parts(theta):
        return (theta[:2], theta[2:]) if fixed is None else (fixed, theta)

    def slacks(theta):
        c, l3 = parts(theta)
        return b - A @ c - np.linalg.norm(A @ _sym(l3), axis=1)

    def jac(theta):
        c, l3 = parts(theta)
        w = A @ _sym(l3)
        wn = w / np.linalg.norm(w, axis=1)[:, None]
        dl = np.column_stack([
            -wn[:, 0] * A[:, 0],
            -(wn[:, 0] * A[:, 1] + wn[:, 1] * A[:, 0]),
            -wn[:, 1] * A[:, 1],
        ])
        if fixed is None:
            return np.hstack([-A, dl])
        return dl

    def hess(theta, wts):
        # w = L a is linear in (l11, l12, l22), and in 2D the Hessian of |w|
        # over w is tau tau^T / |w|, with tau the unit w turned by 90 degrees;
        # so the Hessian of s = ... - |w| is -q q^T / |w|, with q = dw^T tau
        _, l3 = parts(theta)
        w = A @ _sym(l3)
        wl = np.linalg.norm(w, axis=1)
        t1, t2 = -w[:, 1] / wl, w[:, 0] / wl
        q = np.column_stack([A[:, 0] * t1, A[:, 1] * t1 + A[:, 0] * t2, A[:, 1] * t2])
        Hl = -(q.T * (wts / wl)) @ q
        if fixed is not None:
            return Hl
        out = np.zeros((5, 5))
        out[2:, 2:] = Hl
        return out

    c0 = fixed if fixed is not None else Q.centroid
    r0 = 0.45 * interior_margin(Q, c0)
    if r0 <= 0.0:
        raise ConvergenceFailure("center not interior")
    if fixed is None:
        theta0 = np.array([c0[0], c0[1], r0, 0.0, r0])
        shape_slice = slice(2, 5)
    else:
        theta0 = np.array([r0, 0.0, r0])
        shape_slice = slice(0, 3)
    return theta0, slacks, jac, hess, shape_slice, len(b), d, g


def john_ellipse(P: Polygon) -> Ellipse:
    """Maximum-area ellipse inscribed in the polygon."""
    theta0, slacks, jac, hess, ss, m, d, g = _john_theta(P)
    theta, steps, gap = _barrier_maxlogdet(theta0, slacks, jac, hess, ss, m)
    c = g + d * theta[:2]
    L = d * _sym(theta[2:])
    return Ellipse(c, _spd_factor(L @ L.T), iterations=steps, residual=gap)


def max_centered_area(P: Polygon, x) -> float:
    """f_K(x): largest area of a centrally placed ellipse x + E inside P."""
    x = np.asarray(x, dtype=float)
    if interior_margin(P, x) <= 1e-13 * P.diameter:
        return 0.0
    theta0, slacks, jac, hess, ss, m, d, g = _john_theta(P, center=x)
    l3, _, _ = _barrier_maxlogdet(theta0, slacks, jac, hess, ss, m)
    det = l3[0] * l3[2] - l3[1] ** 2
    return math.pi * det * d * d


# ---------------------------------------------------------------------------
# Enclosing (Loewner) side: variables (cx, cy, m11, m12, m22), constraints per
# vertex (v_i - c)^T M (v_i - c) <= 1; area is pi / sqrt(det M).


def _loewner_theta(P: Polygon, center=None):
    verts, d, g = _normalize(P)
    fixed = None
    if center is not None:
        fixed = (np.asarray(center, dtype=float) - g) / d

    def parts(theta):
        return (theta[:2], theta[2:]) if fixed is None else (fixed, theta)

    def slacks(theta):
        c, m3 = parts(theta)
        y = verts - c
        return 1.0 - ((y @ _sym(m3)) * y).sum(axis=1)

    def jac(theta):
        c, m3 = parts(theta)
        y = verts - c
        dm = np.column_stack([-y[:, 0] ** 2, -2.0 * y[:, 0] * y[:, 1], -y[:, 1] ** 2])
        if fixed is None:
            return np.hstack([2.0 * (y @ _sym(m3)), dm])
        return dm

    def hess(theta, wts):
        # s is linear in M, its centre block is -2M, and its cross terms
        # d2s / (dc dm_a) = 2 E_a y are linear in y, so they sum to 2 E_a Y
        if fixed is not None:
            return np.zeros((3, 3))
        y0, y1 = wts @ (verts - theta[:2])
        out = np.zeros((5, 5))
        out[:2, :2] = -2.0 * wts.sum() * _sym(theta[2:])
        out[:2, 2:] = [[2.0 * y0, 2.0 * y1, 0.0], [0.0, 2.0 * y0, 2.0 * y1]]
        out[2:, :2] = out[:2, 2:].T
        return out

    # a disk twice the circumradius about c0: every slack is >= 3/4
    c0 = fixed if fixed is not None else np.zeros(2)
    R = float(np.linalg.norm(verts - c0, axis=1).max())
    m0 = 1.0 / (2.0 * R) ** 2
    if fixed is None:
        theta0 = np.array([c0[0], c0[1], m0, 0.0, m0])
        shape_slice = slice(2, 5)
    else:
        theta0 = np.array([m0, 0.0, m0])
        shape_slice = slice(0, 3)
    return theta0, slacks, jac, hess, shape_slice, len(verts), d, g


def loewner_ellipse(P: Polygon) -> Ellipse:
    """Minimum-area ellipse enclosing the polygon."""
    theta0, slacks, jac, hess, ss, m, d, g = _loewner_theta(P)
    theta, steps, gap = _barrier_maxlogdet(theta0, slacks, jac, hess, ss, m)
    c = g + d * theta[:2]
    M = _sym(theta[2:])
    L = d * np.linalg.inv(_spd_factor(M))
    return Ellipse(c, L, iterations=steps, residual=gap)


def min_centered_inverse_area(P: Polygon, x) -> float:
    """lambda_K(x): inverse area of the smallest ellipse x + E containing P."""
    theta0, slacks, jac, hess, ss, m, d, g = _loewner_theta(P, center=x)
    theta, _, _ = _barrier_maxlogdet(theta0, slacks, jac, hess, ss, m)
    det_m = theta[0] * theta[2] - theta[1] ** 2
    # area = pi d^2 / sqrt(det M)
    return math.sqrt(det_m) / (math.pi * d * d)


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
    tol = 10.0 * max(A.shape) * np.finfo(float).eps * np.abs(A).sum(axis=0).max()
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


def verify_john_conditions(P: Polygon, E: Ellipse, mode: str) -> JohnCertificate:
    """Checks F. John's contact conditions after normalizing E to the unit disk.

    Raises NoContacts / CertificationFailure when the configuration fails.
    """
    if mode not in ("inscribed", "enclosing"):
        raise ValueError(f"unknown mode {mode!r}")
    N = AffineMap(np.linalg.inv(E.shape), -np.linalg.inv(E.shape) @ E.center)
    verts = N(P.vertices)
    Q = Polygon(verts)

    dirs: list[np.ndarray] = []
    if mode == "inscribed":
        normals, offsets = edge_normals(Q)
        for a, b in zip(normals, offsets):
            if abs(b - 1.0) < CONTACT_TOL:
                dirs.append(a)
    else:
        for v in verts:
            if abs(np.linalg.norm(v) - 1.0) < CONTACT_TOL:
                dirs.append(v / np.linalg.norm(v))
    if not dirs:
        raise NoContacts(f"no {mode} boundary contacts within {CONTACT_TOL}")

    U = np.asarray(dirs)
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
