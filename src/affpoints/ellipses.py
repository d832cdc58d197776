"""Analytic ellipses plus the John (max inscribed) and Loewner (min enclosing)
ellipse solvers for convex polygons.

Both solvers run a damped-Newton log-barrier path on a small parameter vector
(center + symmetric 2x2 shape), which keeps them certificate-checkable via the
John contact conditions.  Fixed-center variants back the scalar fields
``max_centered_area`` and ``min_centered_inverse_area``.
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
    """The set {center + shape @ u : |u| <= 1} with shape symmetric PD."""

    center: np.ndarray
    shape: np.ndarray

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
                       n_con, gap=1e-10, mu=10.0, max_newton=60, t_start=1.0,
                       dec_tol=1e-13):
    """Minimize -t*logdet(shape) - sum log(slacks) along an increasing-t path.

    ``shape_slice`` picks the (l11, l12, l22) entries out of theta;
    ``slack_hess(theta)`` returns the per-constraint Hessian stack (m, k, k).
    Returns the final theta.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    if np.any(slack_fn(theta) <= 0.0) or not _is_pd(theta[shape_slice]):
        raise ConvergenceFailure("infeasible barrier start")
    k = len(theta)

    def grad_hess(th, t):
        s = slack_fn(th)
        J = slack_jac(th)
        g = np.zeros(k)
        g[shape_slice] = -t * _logdet3_grad(th[shape_slice])
        g -= (J / s[:, None]).sum(axis=0)
        H = np.zeros((k, k))
        H[shape_slice, shape_slice] = t * -_logdet3_hess(th[shape_slice])
        H += np.einsum("ia,ib,i->ab", J, J, 1.0 / s**2)
        Hs = slack_hess(th)
        H -= np.einsum("iab,i->ab", Hs, 1.0 / s)
        return g, H

    t = t_start
    while True:
        for _ in range(max_newton):
            g, H = grad_hess(theta, t)
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                step = -g
            lam2 = float(-g @ step)
            if not np.all(np.isfinite(step)):
                break
            if lam2 <= 2.0 * t * dec_tol:
                break
            alpha = 1.0
            base = _phi(theta, t, slack_fn, shape_slice)
            moved = False
            while alpha > 1e-14:
                cand = theta + alpha * step
                if _is_pd(cand[shape_slice]) and np.all(slack_fn(cand) > 0.0):
                    val = _phi(cand, t, slack_fn, shape_slice)
                    if val < base:
                        theta = cand
                        moved = True
                        break
                alpha *= 0.5
            if not moved:
                break
        if n_con / t < gap:
            return theta
        t *= mu


def max_area_reaches(P: Polygon, x, target: float, warm=None):
    """Decide whether f_K(x) >= target without solving to optimality.

    Walks the same barrier path as ``max_centered_area`` but stops as soon
    as the current inscribed area passes the target, or the duality bound
    area * exp(n_con / t) falls below it.  Returns (decision, shape params).
    """
    x = np.asarray(x, dtype=float)
    if interior_margin(P, x) <= 1e-13 * P.diameter:
        return target <= 0.0, None
    theta0, slacks, jac, hess, ss, m, d, g, _ = _john_theta(P, center=x)
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
        theta = _barrier_maxlogdet(theta, slacks, jac, hess, ss, m,
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


def _phi(theta, t, slack_fn, shape_slice):
    s = slack_fn(theta)
    return -t * _logdet3(theta[shape_slice]) - float(np.log(s).sum())


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

    def slacks(theta):
        if fixed is None:
            c, l3 = theta[:2], theta[2:]
        else:
            c, l3 = fixed, theta
        L = _sym(l3)
        w = A @ L
        return b - A @ c - np.linalg.norm(w, axis=1)

    def jac(theta):
        if fixed is None:
            c, l3 = theta[:2], theta[2:]
        else:
            c, l3 = fixed, theta
        L = _sym(l3)
        w = A @ L
        wn = w / np.linalg.norm(w, axis=1)[:, None]
        dl = np.column_stack([
            -wn[:, 0] * A[:, 0],
            -(wn[:, 0] * A[:, 1] + wn[:, 1] * A[:, 0]),
            -wn[:, 1] * A[:, 1],
        ])
        if fixed is None:
            return np.hstack([-A, dl])
        return dl

    def hess(theta):
        l3 = theta[2:] if fixed is None else theta
        L = _sym(l3)
        w = A @ L
        wn = np.linalg.norm(w, axis=1)
        wh = w / wn[:, None]
        k = 5 if fixed is None else 3
        off = 2 if fixed is None else 0
        out = np.zeros((len(b), k, k))
        # d w / d(l11,l12,l22) rows for each constraint: (a1,0),(a2,a1),(0,a2)
        Jw = np.zeros((len(b), 2, 3))
        Jw[:, 0, 0] = A[:, 0]
        Jw[:, 0, 1] = A[:, 1]
        Jw[:, 1, 1] = A[:, 0]
        Jw[:, 1, 2] = A[:, 1]
        proj = np.eye(2)[None] - np.einsum("ia,ib->iab", wh, wh)
        # Hessian of -|w|: -J^T (I - ww^T)/|w| J
        Hl = -np.einsum("ica,icd,idb->iab", Jw, proj, Jw) / wn[:, None, None]
        out[:, off:, off:] = Hl
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
    return theta0, slacks, jac, hess, shape_slice, len(b), d, g, fixed


def john_ellipse(P: Polygon) -> Ellipse:
    """Maximum-area ellipse inscribed in the polygon."""
    theta0, slacks, jac, hess, ss, m, d, g, _ = _john_theta(P)
    theta = _barrier_maxlogdet(theta0, slacks, jac, hess, ss, m)
    c = g + d * theta[:2]
    L = d * _sym(theta[2:])
    return Ellipse(c, _spd_factor(L @ L.T))


def max_centered_area(P: Polygon, x) -> float:
    """f_K(x): largest area of a centrally placed ellipse x + E inside P."""
    x = np.asarray(x, dtype=float)
    if interior_margin(P, x) <= 1e-13 * P.diameter:
        return 0.0
    theta0, slacks, jac, hess, ss, m, d, g, _ = _john_theta(P, center=x)
    l3 = _barrier_maxlogdet(theta0, slacks, jac, hess, ss, m)
    det = l3[0] * l3[2] - l3[1] ** 2
    return math.pi * det * d * d


# ---------------------------------------------------------------------------
# Enclosing (Loewner) side: variables (cx, cy, m11, m12, m22), constraints per
# vertex (v_i - c)^T M (v_i - c) <= 1; area is pi / sqrt(det M).


def _khachiyan(points: np.ndarray, tol: float = 1e-3, max_iter: int = 20000):
    """Lifted Khachiyan barycentric ascent; returns (center, M)."""
    n, d = points.shape
    Q = np.column_stack([points, np.ones(n)])
    u = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        V = Q.T @ (u[:, None] * Q)
        Minv = np.linalg.solve(V, Q.T).T
        mdist = np.einsum("ij,ij->i", Q, Minv)
        j = int(np.argmax(mdist))
        excess = mdist[j]
        if excess <= (d + 1) * (1.0 + tol):
            break
        step = (excess - d - 1.0) / ((d + 1.0) * (excess - 1.0))
        u *= 1.0 - step
        u[j] += step
    c = points.T @ u
    S = points.T @ (u[:, None] * points) - np.outer(c, c)
    M = np.linalg.inv(S) / d
    return c, M


def _loewner_theta(P: Polygon, center=None):
    verts, d, g = _normalize(P)
    fixed = None
    if center is not None:
        fixed = (np.asarray(center, dtype=float) - g) / d

    def slacks(theta):
        if fixed is None:
            c, m3 = theta[:2], theta[2:]
        else:
            c, m3 = fixed, theta
        y = verts - c
        M = _sym(m3)
        return 1.0 - np.einsum("ij,jk,ik->i", y, M, y)

    def jac(theta):
        if fixed is None:
            c, m3 = theta[:2], theta[2:]
        else:
            c, m3 = fixed, theta
        y = verts - c
        dm = np.column_stack([-y[:, 0] ** 2, -2.0 * y[:, 0] * y[:, 1], -y[:, 1] ** 2])
        if fixed is None:
            M = _sym(m3)
            return np.hstack([2.0 * (y @ M), dm])
        return dm

    def hess(theta):
        n = len(verts)
        if fixed is None:
            c, m3 = theta[:2], theta[2:]
            y = verts - c
            M = _sym(m3)
            out = np.zeros((n, 5, 5))
            out[:, :2, :2] = -2.0 * M  # d2s/dc2
            # cross terms d2s/(dc dm_a): 2 * E_a y
            out[:, 0, 2] = out[:, 2, 0] = 2.0 * y[:, 0]
            out[:, 1, 2] = out[:, 2, 1] = 0.0
            out[:, 0, 3] = out[:, 3, 0] = 2.0 * y[:, 1]
            out[:, 1, 3] = out[:, 3, 1] = 2.0 * y[:, 0]
            out[:, 0, 4] = out[:, 4, 0] = 0.0
            out[:, 1, 4] = out[:, 4, 1] = 2.0 * y[:, 1]
            return out
        return np.zeros((n, 3, 3))

    c0 = fixed if fixed is not None else np.zeros(2)
    R = float(np.linalg.norm(verts - c0, axis=1).max())
    m0 = 1.0 / (2.0 * R) ** 2
    if fixed is None:
        # Khachiyan warm start, slightly inflated to stay strictly feasible.
        try:
            ck, Mk = _khachiyan(verts)
            theta0 = np.array([ck[0], ck[1], Mk[0, 0] * 0.9, Mk[0, 1] * 0.9, Mk[1, 1] * 0.9])
            if np.any(slacks(theta0) <= 0.0):
                theta0 = np.array([c0[0], c0[1], m0, 0.0, m0])
        except np.linalg.LinAlgError:
            theta0 = np.array([c0[0], c0[1], m0, 0.0, m0])
        shape_slice = slice(2, 5)
    else:
        theta0 = np.array([m0, 0.0, m0])
        shape_slice = slice(0, 3)
    return theta0, slacks, jac, hess, shape_slice, len(verts), d, g, fixed


def loewner_ellipse(P: Polygon) -> Ellipse:
    """Minimum-area ellipse enclosing the polygon."""
    theta0, slacks, jac, hess, ss, m, d, g, _ = _loewner_theta(P)
    theta = _barrier_maxlogdet(theta0, slacks, jac, hess, ss, m)
    c = g + d * theta[:2]
    M = _sym(theta[2:])
    L = d * np.linalg.inv(_spd_factor(M))
    return Ellipse(c, L)


def min_centered_inverse_area(P: Polygon, x, gap: float = 1e-10) -> float:
    """lambda_K(x): inverse area of the smallest ellipse x + E containing P."""
    theta0, slacks, jac, hess, ss, m, d, g, _ = _loewner_theta(P, center=x)
    theta = _barrier_maxlogdet(theta0, slacks, jac, hess, ss, m, gap=gap)
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
