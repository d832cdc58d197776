"""Affine invariant point evaluators.

Implemented points: centroid g, Santalo point s (minimizer of the polar
area), John point j and Loewner point l (ellipse centers), symmetric-core
point m (maximizer of the overlap area with the reflected body), and the
two-cap family built from the polar-centroid direction.

``polar_root`` is the one damped-Newton driver for zeros of a point of
the polar (P - z)°, over k bodies at once, one row each: the Santalo
point runs on it with the exact Jacobian of its closed-form polar
centroid, and ``duality.polar_preimage`` with a Jacobian by central
differences.  ``eval_points`` solves the Santalo points of a list of
bodies in one ``polar_root`` call per vertex count; a body that fails
keeps its own error, and each result is the bits of its solve alone.
Symcore runs on the exact, batched overlap model ``_overlap_model``, and
``_ray_roots`` is the one batched ray root-finder, here and in
``regions``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _polyops_py as kernels
from .ellipses import _normalize, _whiten, john_ellipse, loewner_ellipse
from .errors import BadParams, ConvergenceFailure, GeometryError, PointNotInterior
from .polygons import (
    EPS_GEOM,
    Halfplane,
    Polygon,
    clip_halfplane,
    edge_normals,
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
        res = _remember(memo, pf, _solve_point(pf, P))
    return res


def eval_points(pf: PointFunction, bodies) -> list[PointResult]:
    """``eval_point(pf, P)`` for each body P of a list: the same memo and
    the same results, to the bit; raises the error of the first body, in
    list order, that fails.

    Santalo points not yet in the memo are solved by one ``polar_root``
    call per vertex count, so numpy's cost per call is paid per group of
    bodies rather than per body.  The other ids run ``eval_point`` body by
    body (centroids are read off the bodies).
    """
    out = _eval_points(pf, bodies)
    for res in out:
        if isinstance(res, Exception):
            raise res
    return out


def _eval_points(pf: PointFunction, bodies) -> list:
    """``eval_points`` with each failing body's error in its place, so a
    failure does not stop the other bodies."""
    bodies = list(bodies)
    memos = [P.__dict__.setdefault("_points", {}) for P in bodies]
    out = [memo.get(pf) for memo in memos]
    todo = [i for i, res in enumerate(out) if res is None]
    if pf.id == "santalo":
        groups: dict[int, list[int]] = {}
        for i in todo:
            groups.setdefault(bodies[i].n, []).append(i)
        todo = []
        for rows in groups.values():
            try:
                roots = polar_root(_santalo_model, [bodies[i] for i in rows], None, SANTALO_TOL)
            except Exception:
                # not one row's GeometryError: the bodies run alone, so that
                # the error lands on its own body
                todo += rows
                continue
            for i, root in zip(rows, roots):
                out[i] = root if isinstance(root, GeometryError) else _remember(
                    memos[i], pf, PointResult(root[0], iterations=root[1], residual=root[2]))
    for i in sorted(todo):
        try:
            out[i] = eval_point(pf, bodies[i])
        except Exception as exc:
            out[i] = exc
    return out


def _remember(memo: dict, pf: PointFunction, res: PointResult) -> PointResult:
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


# the least margin, in the whitened frame, at which polar_root's models
# evaluate their point
POLAR_MARGIN = 10.0 * EPS_GEOM


def central_differences(F):
    """``polar_root``'s model of a black-box point F(Q, w) of the polar
    (Q - w)°: F where the margin passes, and a Jacobian by central
    differences, four more calls of F, formed only when a step needs it.
    F takes one point, so the rows run one by one."""

    def model(bodies):
        cons = [edge_normals(Q) for Q in bodies]

        def at(W, rows):
            rows = range(len(W)) if rows is None else rows
            margin = np.array([float(np.min(cons[r][1] - cons[r][0] @ w))
                               for r, w in zip(rows, W)])
            FW = np.array([F(bodies[r], w) if not m <= POLAR_MARGIN else (np.nan, np.nan)
                           for r, w, m in zip(rows, W, margin)])
            return margin, FW, (W,)

        def jac(aux, rows):
            (W,) = aux
            rows = range(len(W)) if rows is None else rows
            E = 1e-6 * np.eye(2)
            return np.array([np.column_stack([(F(bodies[r], w + e) - F(bodies[r], w - e)) / 2e-6
                                              for e in E]) for r, w in zip(rows, W)])

        return at, jac

    return model


def _norms(F: np.ndarray) -> np.ndarray:
    """|F| of each row of a (k, 2) array, as np.hypot.  np.hypot(inf, nan)
    is inf where a sum of squares gives nan; every use sits behind the
    margin test, and a row that fails it is never taken."""
    return np.hypot(F[:, 0], F[:, 1])


def _newton_steps(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    """J^-1 F for each row, and F where J is singular: the Newton steps
    with their sign flipped, which rounding does not see, so the caller
    subtracts them and no negation is spent."""
    try:
        return np.linalg.solve(J, F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = F.copy()
        for i in range(len(F)):
            try:
                step[i] = np.linalg.solve(J[i], F[i])
            except np.linalg.LinAlgError:
                pass
        return step


def polar_root(model, bodies, starts, tol: float) -> list:
    """Zeros z in int(B) of a point F of the polar (B - z)°, for each body
    B of a list at once, by damped Newton from the interior point of
    ``starts`` (None, or a None entry: the body's centroid).

    Returns one entry per body: (z, steps, |F|), or the ``GeometryError``
    that the body's solve raised, so a failing body does not stop the
    others; a caller of one body unpacks its one entry and raises it if it
    is an error.  Each body is one row of a (k, 2) batch; a row leaves the
    batch once it stops or fails, and every row does the arithmetic of its
    solve alone, so its result is the same bits in any batch.

    The solve runs in the frame of ``ellipses._whiten``, on
    Q = S^-1 (B - g) and w = S^-1 (z - g).  ``model(Qs)`` is called once,
    on the list of whitened bodies, and returns (at, jac).  at(W, rows)
    gets a point w of each listed body (rows None: every body, in order)
    and returns (margin, F, aux): the interior margins of the w and, for
    the rows whose margin exceeds POLAR_MARGIN, F at w, an affine
    invariant point of (Q - w)° such as its centroid (other rows' F means
    nothing).  jac(aux, rows) gives F's Jacobians there, formed only when
    a step needs them.  ``central_differences`` builds the model of a
    black-box F; the Santalo point has an exact one, which wants bodies of
    one vertex count.  Q has unit scatter whatever the scale and
    conditioning of B, so the absolute step bound and difference step fit
    it (in B's own frame, or at diameter 1, the solve stalled under maps of
    condition 1e3).  Each step is capped at 0.25 and halved until |F|
    decreases; only the rows still halving are evaluated again.  A row
    stops when |F| is below ``tol`` times the circumradius 1/margin of
    that polar, and fails after 120 steps.
    """
    bodies = list(bodies)
    k = len(bodies)
    frames = [_whiten(B) for B in bodies]
    at, jac = model([Polygon(v) for v, _, _ in frames])
    z = np.zeros((k, 2))
    for i, x in enumerate(() if starts is None else starts):
        if x is not None:
            _, S, g = frames[i]
            z[i] = np.linalg.solve(S, np.asarray(x, dtype=float) - g)

    def point(i, w):
        _, S, g = frames[i]
        return g + S @ w

    # out[i]: body i's (z, steps, |F|), or its error once it has one;
    # live: the bodies of the rows still solving, None while all are;
    # gone: the rows that failed since the last test, None if none did
    out = [None] * k
    live = None
    # 0-d arrays: numpy compares an array with them faster than with floats
    tol, least, cap = np.asarray(tol), np.asarray(POLAR_MARGIN), np.asarray(0.25)
    # the models compute garbage for rows that are not interior
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        margin, F, aux = at(z, None)
        nrm = _norms(F)
        gone = margin <= least
        if np.count_nonzero(gone):
            for i in np.flatnonzero(gone):
                out[i] = PointNotInterior(f"start point {point(i, z[i]).tolist()} not interior")
        else:
            gone = None
        for it in range(120):
            done = nrm * margin < tol
            if gone is not None:
                done |= gone
                gone = None
            stops = np.count_nonzero(done)
            if stops:
                ids = range(k) if live is None else live
                for i in range(len(z)) if stops == len(z) else np.flatnonzero(done):
                    if out[ids[i]] is None:
                        out[ids[i]] = (point(ids[i], z[i]), it, float(nrm[i]))
                if stops == len(z):
                    break
                on = ~done
                live = np.flatnonzero(on) if live is None else live[on]
                z, F, margin, nrm = z[on], F[on], margin[on], nrm[on]
                aux = tuple(a[on] for a in aux)
            step = _newton_steps(jac(aux, live), F)
            size = _norms(step)
            big = size > cap
            if np.count_nonzero(big):
                step[big] *= (0.25 / size[big])[:, None]
            # the line search; todo: the rows still halving, None while all
            # are, so that a one-row solve slices nothing (slicing each time
            # cost a one-row Santalo solve a third more)
            alpha, todo = 1.0, None
            while alpha > 1e-12:
                if todo is None:
                    cand = z - alpha * step
                    m, fc, ac = at(cand, live)
                    nc = _norms(fc)
                    ok = (m > least) & (nc < nrm)
                    if np.count_nonzero(ok) == len(ok):
                        z, F, margin, aux, nrm = cand, fc, m, ac, nc
                        break
                    todo = np.arange(len(z))
                else:
                    cand = z[todo] - alpha * step[todo]
                    m, fc, ac = at(cand, todo if live is None else live[todo])
                    nc = _norms(fc)
                    ok = (m > least) & (nc < nrm[todo])
                took = todo[ok]
                z[took], F[took], margin[took], nrm[took] = cand[ok], fc[ok], m[ok], nc[ok]
                for a, b in zip(aux, ac):
                    a[took] = b[ok]
                todo = todo[~ok]
                if not todo.size:
                    break
                alpha *= 0.5
            else:
                gone = np.zeros(len(z), dtype=bool)
                gone[todo] = True
                for i in todo:
                    out[i if live is None else live[i]] = ConvergenceFailure(
                        f"polar root stalled at |F|={nrm[i]:.3e}")
        else:
            for r in range(k) if live is None else live:
                if out[r] is None:
                    out[r] = ConvergenceFailure("polar root: no convergence in 120 steps")
    return out


def _santalo_model(bodies):
    """``polar_root``'s exact model for the Santalo point of bodies of one
    vertex count: F = grad V / 3V, the centroid of (Q - w)°, with the
    Jacobian (Hess V / V - grad V grad V^T / V^2) / 3, all from one
    ``kernels.polar_calculus`` call on the stacked terms of the bodies
    formed here; the margin is the least slack over the length of its edge
    normal."""
    terms = kernels.polar_terms(np.array([Q.vertices for Q in bodies]))
    norms = np.hypot(terms[0][..., 0], terms[0][..., 1])

    def at(W, rows):
        a, an, b, half_det, nxt = terms
        nr = norms
        if rows is not None:
            a, an, b, half_det, nr = a[rows], an[rows], b[rows], half_det[rows], norms[rows]
        V, grad, H, s = kernels.polar_calculus((a, an, b, half_det, nxt), W, hessian=True)
        return (s / nr).min(axis=1), grad / (3.0 * V)[:, None], (V, grad, H)

    def jac(aux, rows):
        V, grad, H = aux
        V = V[:, None, None]
        return (H / V - grad[:, :, None] * grad[:, None, :] / (V * V)) / 3.0

    return at, jac


# the stop rule of the Santalo solve: |F| below this times the circumradius
# of the polar
SANTALO_TOL = 1e-12


def santalo_point(P: Polygon) -> PointResult:
    """Unique interior x with g((P - x)°) = 0: the polar preimage of the
    centroid, and the minimizer of the polar area V, as
    g((P - x)°) = grad V / 3V and log V is strictly convex in x.

    Solved by ``polar_root`` from the centroid with the exact model
    ``_santalo_model``: the closed-form V, gradient and Hessian of
    ``kernels.polar_calculus``, so a Newton step costs one kernel call and
    no differences.  This is the one-row call; ``eval_points`` solves the
    Santalo points of many bodies in one call per vertex count, to the
    same bits.
    """
    root, = polar_root(_santalo_model, [P], None, SANTALO_TOL)
    if isinstance(root, GeometryError):
        raise root
    z, steps, nrm = root
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
            step, norm = step * (0.25 / norm), 0.25
        # a step below the resolution of A ends the search, as above
        t = 1.0
        while t * norm >= 1e-7:
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
    aA, gA = A.area, A.centroid
    aB, gB = B.area, B.centroid
    W = clip_halfplane(A, cut)
    if W is None:
        return (aA * gA + aB * gB) / (aA + aB)
    aW, gW = W.area, W.centroid
    return (aA * gA + aB * gB - aW * gW) / (aA + aB - aW)
