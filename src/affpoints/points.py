"""Affine invariant point evaluators.

Implemented points: centroid g, Santalo point s (minimizer of the polar
area), John point j and Loewner point l (ellipse centers), symmetric-core
point m (maximizer of the overlap area with the reflected body), and the
two-cap family built from the polar-centroid direction.

Symcore runs on the exact, batched overlap model ``_overlap_model``, and
``_ray_roots`` is the one batched ray root-finder, here and in ``regions``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _polyops_py as kernels
from .ellipses import _normalize, _whiten, john_ellipse, loewner_ellipse
from .errors import BadParams, ConvergenceFailure
from .polygons import (
    EPS_GEOM,
    Halfplane,
    Polygon,
    area_centroid,
    clip_halfplane,
    edge_normals,
    interior_margin,
    support,
)

POINT_IDS = ("centroid", "santalo", "john", "loewner", "symcore", "capfamily")


@dataclass(frozen=True)
class PointFunction:
    """An identified affine invariant point, optionally parameterized."""

    id: str
    params: tuple = ()

    def __post_init__(self) -> None:
        # a tuple, so that the point can key eval_point's memo
        object.__setattr__(self, "params", tuple(self.params))
        if self.id not in POINT_IDS:
            raise BadParams(f"unknown point id {self.id!r}")
        if self.id == "capfamily":
            if len(self.params) != 2 or not all(0.0 < p < np.inf for p in self.params):
                raise BadParams("capfamily needs parameters (eps, delta), both finite and > 0")


@dataclass(frozen=True)
class PointResult:
    value: np.ndarray
    iterations: int = 0
    residual: float = 0.0


def eval_point(pf: PointFunction, P: Polygon) -> PointResult:
    """The point ``pf`` of P, solved once per polygon object.

    The result is kept on P, keyed by ``pf``, as ``Polygon.diameter`` is
    (P's vertices are read-only), so a second call with an equal ``pf``
    returns the same object.  Its ``value`` is read-only, so no caller can
    change what a later call returns.
    """
    memo = P.__dict__.setdefault("_points", {})
    res = memo.get(pf)
    if res is None:
        res = _solve_point(pf, P)
        res.value.setflags(write=False)
        memo[pf] = res
    return res


def _solve_point(pf: PointFunction, P: Polygon) -> PointResult:
    if pf.id == "centroid":
        return PointResult(P.centroid)
    if pf.id == "santalo":
        return santalo_point(P)
    if pf.id in ("john", "loewner"):
        E = john_ellipse(P) if pf.id == "john" else loewner_ellipse(P)
        return PointResult(E.center, iterations=E.iterations, residual=E.residual)
    if pf.id == "symcore":
        return symcore_point(P)
    eps, delta = pf.params
    return PointResult(cap_point(P, eps, delta))


def _polar_centroid(Q: Polygon, x: np.ndarray) -> np.ndarray:
    dual = kernels.polar_vertices(Q.vertices, float(x[0]), float(x[1]))
    _, cx, cy = kernels.area_centroid(dual)
    return np.array([cx, cy])


def polar_root(F, P: Polygon, z0, tol: float):
    """A z in int(P) at which F vanishes, by damped Newton from the interior
    point z0; returns (z, steps, |F|).

    F(Q, w) gets P and z in the frame of ``ellipses._whiten``,
    Q = S^-1 (P - g) and w = S^-1 (z - g), and returns an affine invariant
    point of the polar (Q - w)°, such as its centroid.  Q has unit scatter
    whatever the scale and conditioning of P, so the absolute step bound
    and difference step fit it (in P's own frame, or at diameter 1, the
    solve stalled under maps of condition 1e3).  It stops when |F| is below
    ``tol`` times the circumradius 1/margin(Q, w) of that polar.
    """
    verts, S, g = _whiten(P)
    Q = Polygon(verts)
    z = np.linalg.solve(S, np.asarray(z0, dtype=float) - g)
    fz = F(Q, z)
    margin = interior_margin(Q, z)
    for it in range(120):
        nrm = float(np.linalg.norm(fz))
        if nrm * margin < tol:
            return g + S @ z, it, nrm
        h = 1e-6
        J = np.empty((2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            J[:, k] = (F(Q, z + e) - F(Q, z - e)) / (2.0 * h)
        try:
            step = np.linalg.solve(J, -fz)
        except np.linalg.LinAlgError:
            step = -fz
        if np.linalg.norm(step) > 0.25:
            step *= 0.25 / np.linalg.norm(step)
        alpha = 1.0
        while alpha > 1e-12:
            cand = z + alpha * step
            m = interior_margin(Q, cand)
            if m > 10.0 * EPS_GEOM:
                fc = F(Q, cand)
                if np.linalg.norm(fc) < nrm:
                    z, fz, margin = cand, fc, m
                    break
            alpha *= 0.5
        else:
            raise ConvergenceFailure(f"polar root stalled at |F|={nrm:.3e}")
    raise ConvergenceFailure("polar root: no convergence in 120 steps")


def santalo_point(P: Polygon) -> PointResult:
    """Unique interior x with g((P - x) polar) = 0: the polar preimage of
    the centroid, from the centroid.

    The zero of that centroid map is exactly the minimizer of the polar
    area, which is strictly log convex in x.
    """
    z, steps, nrm = polar_root(_polar_centroid, P, P.centroid, 1e-12)
    return PointResult(z, iterations=steps, residual=nrm)


# the ray root-finder: array entries per block (a block's arrays take
# 0.5 MB each however many rays there are), the step that freezes a ray,
# relative to the diameter, and the step budget (bisection needs about 35)
RAY_BLOCK = 1 << 16
RAY_TOL = 1e-10
RAY_STEPS = 100


def _ray_roots(field, origins: np.ndarray, dirs: np.ndarray, upper,
               per_ray: int) -> tuple[np.ndarray, int]:
    """Per-ray roots of a level function, by safeguarded Newton on all rays
    of a block at once.

    ``field(X, U)`` gets a (k, 2) batch of points X on rays with unit
    directions U and returns (phi, slope): a level function that is
    negative at the ray's origin, increases along each ray and is positive
    (or inf) at the upper bracket, and its derivative along the ray.  Its
    arrays hold ``per_ray`` entries per ray, so the rays run in blocks of
    at most RAY_BLOCK entries; ``upper(s)`` gives the upper brackets of the
    rays in the slice s, one block at a time.  Each ray keeps its own bracket, starting at
    (0, upper).  A Newton step that leaves the bracket, or is more than
    half the step before, becomes bisection, so a ray converges at least
    as fast as bisection; a ray whose step is below RAY_TOL is frozen.
    Returns the distance along each ray from its origin, and the passes
    that the slowest ray took, which do not depend on the blocks.
    """
    rows = max(1, RAY_BLOCK // per_ray)
    blocks = range(0, len(dirs), rows)
    hi = np.concatenate([upper(slice(r, r + rows)) for r in blocks])
    lo, tau, dx = np.zeros(len(hi)), 0.5 * hi, hi.copy()
    passes = 0
    for r in blocks:
        live = np.arange(r, min(r + rows, len(hi)))
        for it in range(1, RAY_STEPS + 1):
            t = tau[live]
            phi, slope = field(origins[live] + t[:, None] * dirs[live], dirs[live])
            below = phi < 0.0
            lo[live] = np.where(below, t, lo[live])
            hi[live] = np.where(below, hi[live], t)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(phi == 0.0, 0.0, -phi / slope)
            a, b = lo[live], hi[live]
            newton = (t + step >= a) & (t + step <= b) & (np.abs(2.0 * step) <= dx[live])
            step = np.where(newton, step, 0.5 * (a + b) - t)
            tau[live] = t + step
            dx[live] = np.abs(step)
            live = live[np.abs(step) > RAY_TOL]
            if not live.size:
                break
        passes = max(passes, it)
    return tau, passes


def _overlap_model(Q: Polygon):
    """A(x) = |Q ∩ (2x - Q)| with its exact gradient and Hessian.

    The overlap W is symmetric about x, so A = Σ l_i h_i, where l_i is the
    length of reflected edge i, 2x - [v_i, v_i+1], inside Q (the face of W
    on that edge's line) and h_i = b_i - n_i·x its distance from x; and
    grad A = -2 Σ l_i n_i.  l_i is the edge length times a span between
    ratios alpha_ik / beta_ik, alpha affine in x and beta constant, so A is
    piecewise quadratic and its Hessian -2 Σ n_i (grad l_i)^T comes from the
    active argmax and argmin: grad (alpha_ik / beta_ik) = -2 n_k / beta_ik,
    and a clamped bound or an empty span adds 0.  On the midline of an
    antiparallel pair (n_j = -n_i) reflected edge j lies on the line of edge
    i and the two faces swap; there the pair's face is counted once, on the
    side of sigma = n_i·x - (b_i - b_j)/2 >= 0.

    Returns (f, lines): f(X) -> (A, grad A, Hessian) of shapes (k,), (k, 2)
    and (k, 2, 2) for a (k, 2) batch, by row sums of elementwise products,
    so that a row does not depend on the others; and the midlines as arrays
    (U, C, lo, hi), chord p being {C_p U_p + s t_p : lo_p < s < hi_p} in Q,
    with t_p the unit U_p turned by 90 degrees.
    """
    V = Q.vertices
    N, b = edge_normals(Q)
    E = np.roll(V, -1, axis=0) - V
    lengths = np.linalg.norm(E, axis=1)
    # reflected edge i runs from 2x - v_i along -E_i; [i, k] pairs it with
    # halfplane k of Q
    beta = -E @ N.T
    base = b + V @ N.T
    i, j = np.nonzero(np.triu(N @ N.T < 0.0))
    anti = np.abs(N[i, 0] * N[j, 1] - N[i, 1] * N[j, 0]) <= 1e-10
    i, j = i[anti], j[anti]
    beta[j, i] = beta[i, j] = 0.0
    U = N[i] - N[j]
    U /= np.linalg.norm(U, axis=1)[:, None]
    C = 0.5 * (b[i] - b[j])
    nt = np.column_stack([-U[:, 1], U[:, 0]]) @ N.T
    with np.errstate(divide="ignore", invalid="ignore"):
        ends = (b - C[:, None] * (U @ N.T)) / nt
        # [:, i, k]: grad (alpha_ik / beta_ik) = -2 n_k / beta_ik where ratio
        # k can bound span i from below (rate_lo) or above (rate_hi), else 0
        rate_lo = np.where(beta < 0.0, -2.0 / beta, 0.0) * N.T[:, None, :]
        rate_hi = np.where(beta > 0.0, -2.0 / beta, 0.0) * N.T[:, None, :]
    lines = (U, C, np.where(nt < 0.0, ends, -np.inf).max(axis=1),
             np.where(nt > 0.0, ends, np.inf).min(axis=1))
    rows = np.arange(len(V))
    W = lengths * N.T

    def f(X):
        x, y = X[:, :1], X[:, 1:]
        nx = x * N[:, 0] + y * N[:, 1]
        alpha = base - 2.0 * nx[:, None, :]
        below = x * U[:, 0] + y * U[:, 1] < C
        alpha[:, j, i] = np.where(below, 1.0, -1.0)
        alpha[:, i, j] = np.where(below, -1.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = alpha / beta
        lows = np.where(beta < 0.0, r, 0.0)
        lo, klo = lows.max(axis=2), lows.argmax(axis=2)
        highs = np.where(beta > 0.0, r, 1.0)
        hi, khi = highs.min(axis=2), highs.argmin(axis=2)
        live = (hi > lo) & ~((beta == 0.0) & (alpha < 0.0)).any(axis=2)
        span = np.where(live, hi - lo, 0.0)
        d = np.where(live, rate_hi[:, rows, khi] - rate_lo[:, rows, klo], 0.0)
        ell = span * lengths
        grad = (ell[:, None, :] * N.T).sum(axis=2)
        hess = (W[:, None, None, :] * d).sum(axis=3).transpose(2, 0, 1)
        return (ell * (b - nx)).sum(axis=1), -2.0 * grad, -2.0 * hess

    return f, lines


def _newton_ascent(f, x: np.ndarray, U: np.ndarray, C: np.ndarray):
    """Damped Newton ascent of log A from x, with the exact gradient and
    Hessian of A from f (see ``_overlap_model``).

    Returns (x, steps, |grad A|, converged).  A step is taken only if it
    raises A, except a step shorter than 1e-7: A cannot resolve it, and
    the quadratic model is trusted there.  It has converged once the
    Newton step is below 1e-12, which it then takes.  It gives up once its
    iterate has crossed one of the midlines {U_p · x = C_p} twice:
    A has a kink there, which the quadratic model does not see, so Newton
    zigzags across it, and the search along the midline takes over.
    """
    (a,), (g,), (H,) = f(x[None])
    side = U @ x >= C
    crossed = np.zeros(len(C), dtype=int)
    for it in range(40):
        now = U @ x >= C
        crossed += now != side
        side = now
        if crossed.max(initial=0) >= 2:
            return x, it, float(np.linalg.norm(g)), False
        if not g.any():
            return x, it, 0.0, True
        Hf = 0.5 * (H + H.T) / a - np.outer(g, g) / a**2
        try:
            step = np.linalg.solve(Hf, -g / a)
        except np.linalg.LinAlgError:
            step = np.zeros(2)
        norm = float(np.linalg.norm(step))
        if not g @ step > 0.0:
            # not an ascent direction: fall back to the gradient
            step, norm = 0.1 * g / np.linalg.norm(g), 0.1
        elif norm < 1e-7:
            x = x + step
            (a,), (g,), (H,) = f(x[None])
            if norm < 1e-12:
                return x, it + 1, float(np.linalg.norm(g)), True
            continue
        if norm > 0.25:
            step *= 0.25 / norm
        t = 1.0
        while t > 1e-9:
            (ac,), (gc,), (Hc,) = f((x + t * step)[None])
            if ac > a:
                x, a, g, H = x + t * step, ac, gc, Hc
                break
            t *= 0.5
        else:
            return x, it, float(np.linalg.norm(g)), False
    return x, 40, float(np.linalg.norm(g)), False


def symcore_point(P: Polygon) -> PointResult:
    """Maximizer of the overlap A(x) = |P ∩ (2x - P)|; unique because the
    square root of A is concave.

    A is not differentiable on the midline of an antiparallel edge pair
    (see ``_overlap_model``), and on trapezoids, squares and even n-gons
    the maximizer lies there.  So the candidates are the damped-Newton
    point (if it converged), the maximizer along each midline and each
    crossing of two midlines; the one with the largest A wins.  The
    midline maxima are the roots of -(log A)' along the chords, which rises
    from -inf to +inf, all found by one ``_ray_roots`` call.  The residual
    is that of the winner's own solve: |grad A|, the slope along its
    midline, or the error of the crossing's 2x2 solve.  ``iterations``
    counts the Newton steps and the root-finder's passes.  Runs on P moved
    to centroid 0 and diameter 1.
    """
    verts, d, g = _normalize(P)
    Q = Polygon(verts)
    f, (U, C, lo, hi) = _overlap_model(Q)

    x, steps, res, converged = _newton_ascent(f, np.zeros(2), U, C)
    if not len(C):
        return PointResult(g + d * x, iterations=steps, residual=res)
    t = np.column_stack([-U[:, 1], U[:, 0]])
    start = C[:, None] * U + lo[:, None] * t

    def field(X, T):
        a, grad, H = f(X)
        with np.errstate(divide="ignore", invalid="ignore"):
            dlog = (grad * T).sum(axis=1) / a
            curv = (H * T[:, :, None] * T[:, None, :]).sum(axis=(1, 2)) / a
            return -dlog, dlog**2 - curv

    s, passes = _ray_roots(field, start, t, lambda r: (hi - lo)[r], Q.n ** 2)
    k, l = np.triu_indices(len(C), 1)
    M = np.stack([U[k], U[l]], axis=1)
    c = np.column_stack([C[k], C[l]])
    cross = np.linalg.solve(M, c[..., None])[..., 0]
    # the candidates are scored in blocks, as the rays are, since each row
    # of f holds n^2 entries
    X = np.vstack([x[None], start + s[:, None] * t, cross])
    rows = max(1, RAY_BLOCK // Q.n ** 2)
    A = np.concatenate([f(X[r:r + rows])[0] for r in range(0, len(X), rows)])
    A[0] = A[0] if converged else -np.inf
    best = int(np.argmax(A))
    if 0 < best <= len(C):
        res = float(np.abs((f(X[best][None])[1] * t[best - 1]).sum(axis=1))[0])
    elif best > len(C):
        err = np.linalg.norm((M @ cross[..., None])[..., 0] - c, axis=1)
        res = float(err[best - 1 - len(C)])
    return PointResult(g + d * X[best], iterations=steps + passes, residual=res)


def _caps(P: Polygon, eps: float, delta: float):
    """``caps``, plus the halfplane that cuts B from P (None when G
    vanishes)."""
    if not (0.0 < eps < np.inf and 0.0 < delta < np.inf):
        raise BadParams("cap widths must be finite and positive")
    G = _polar_centroid(P, P.centroid)
    gn = float(np.linalg.norm(G))
    # G scales as 1 / length, so gn * diameter is a test of shape alone
    if gn * P.diameter <= EPS_GEOM:
        return P, P, G, None
    u = G / gn
    hi = support(P, u)
    lo = -support(P, -u)
    cut = Halfplane(u, lo + delta / gn)
    A = clip_halfplane(P, Halfplane(-u, -(hi - eps / gn)))
    B = clip_halfplane(P, cut)
    if A is None or B is None:
        raise BadParams("cap width exceeds the body extent")
    return A, B, G, cut


def caps(P: Polygon, eps: float, delta: float):
    """Two opposite caps of P in the polar-centroid direction.

    Returns (A, B, G) with G the centroid of (P - g(P)) polar, read off the
    polar vertices with no hull, A the cap where <x, G> is within eps of
    its maximum over P, and B the cap where it is within delta of its
    minimum.  When G vanishes (symmetric bodies) both caps degenerate to P
    itself.
    """
    return _caps(P, eps, delta)[:3]


def cap_point(P: Polygon, eps: float, delta: float) -> np.ndarray:
    """Centroid of the union of the two caps, by inclusion-exclusion.

    A ⊆ P, so the overlap A ∩ B is A clipped by the one halfplane that cuts
    B from P: one kernel clip, where ``intersect(A, B)`` clips by every
    edge of B.
    """
    A, B, G, cut = _caps(P, eps, delta)
    if cut is None:
        return P.centroid
    aA, gA = area_centroid(A)
    aB, gB = area_centroid(B)
    W = clip_halfplane(A, cut)
    if W is None:
        return (aA * gA + aB * gB) / (aA + aB)
    aW, gW = area_centroid(W)
    return (aA * gA + aB * gB - aW * gW) / (aA + aB - aW)
