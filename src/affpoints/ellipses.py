"""Analytic ellipses plus the John (max inscribed) and Loewner (min enclosing)
ellipse solvers for convex polygons.

Both run on the vertices whitened to unit scatter (``_whiten``).  In the
plane each problem is LP-type with at most five contacts, so its optimum is
the best feasible ellipse over all sets of 3 to 5 constraints, one per set
for both problems (a Steiner ellipse or a pencil member, ``_candidates``):
so on all constraints up to BASIS_MAX_N vertices.  A larger body runs a
basis iteration: it solves pools of FINISH_POOL constraints so, the first
spread over all directions and each later one the last pool's basis, the
deepest violation of each arc of constraints that its optimum violates,
and the constraints it violates most, until an optimum is feasible for
every constraint (``_solve``, ``_next_pool``).  A pool's optimum is its
feasible candidate of largest area (smallest for Loewner) once the weights
of John's conditions on that candidate's own constraints certify it; only
where they do not are all candidates weighed.  So the last optimum meets
John's conditions on its basis, and it is the optimum of all constraints.
The fixed-center John field f_K has constraints linear in M = L^2 and
three unknowns, so a pair or a triple of contacts fixes its optimum in
closed form, and the same basis iteration runs over many centers at once,
each on its own pool (``_centered_john``, ``_field_optimum``): the optimum
it ends at meets John's conditions, so it gives f_K and its gradient
exactly.  ``max_centered_area`` is its one-row call.  By polarity, the
fixed-center Loewner field lambda_K is f_K of a polar body.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, CertificationFailure, ConvergenceFailure, NoContacts
from .polygons import AffineMap, Polygon, canonicalize, edge_normals, polar_about

CONTACT_TOL = 1e-6
CERT_RESIDUAL_TOL = 1e-6
# past BASIS_MAX_N constraints, the basis iteration solves pools of
# FINISH_POOL of them (see _solve)
FINISH_POOL = 9
# a basis leaves no other slack below -FINISH_SLACK, the rounding of the
# frame: under a map of condition 1e3, a regular polygon's tied vertices
# read slacks down to -1.0e-12 there, and a wrong contact set below -2.5e-8
FINISH_SLACK = 1e-12
# the fixed-center John field runs the basis iteration on pools of
# FIELD_POOL constraints per center, and takes a pair or triple of contacts
# that leaves no slack 1 - u^T M u below -FIELD_SLACK (see _centered_john):
# the sets taken read down to -1e-13, at the tied contacts of a regular
# polygon under a map of condition 1e3
FIELD_POOL = 6
FIELD_SLACK = 1e-10
# bodies of at most BASIS_MAX_N vertices take their John and Loewner
# ellipses from one _basis_optimum on all constraints, larger ones from the
# basis iteration: a choice by size.  John plus Loewner per body, all
# constraints against the iteration, on the n-vertex bodies of
# random_polygons(1120, 41) (n = 14, 15: of random_polygons(40000, 41)),
# medians of 9 alternated rounds on a 2-CPU x86 host: 1.0 against 1.6 ms at
# n = 10, 1.4 against 1.7 at 12, 2.2 against 1.5 at 13 and 4.0 against 2.0
# at 15.  So all constraints serve the `points` benchmark's bodies (4 to 11
# vertices) and the iteration `large_n`'s 1024; the value is 15, not 12,
# only to keep the output of bodies of 13 to 15 vertices, whose
# ``iterations`` would turn nonzero (199 of 240 such solves)
BASIS_MAX_N = 15
# a basis meets John's conditions when no weight is below -WEIGHT_TOL: tied
# contacts, as a regular polygon's, give bases of the optimum whose zero
# weights read down to -7.4e-12; no rejected basis read above -2.1e-7
WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class Ellipse:
    """The set {center + shape @ u : |u| <= 1} with shape symmetric PD.

    A solved ellipse records its solve: ``iterations`` counts the pools
    that the basis iteration solved after its first (0 for a body of at
    most BASIS_MAX_N vertices, solved on all constraints: a choice of the
    faster solver by size), and ``residual`` that of John's conditions on
    its basis (``_basis_optimum``).  Both are 0 for an ellipse built any
    other way.
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


@functools.cache
def _subsets(n: int):
    """Index arrays of the 3-, 4- and 5-subsets of range(n), one candidate
    each for John and Loewner alike (``_candidates``): the triples (i, j, k)
    as a (3, m3) array, and as their pairs (j, k), (k, i), (i, j), flat in
    the n x n grid; the pairs (i, j), (k, l), (i, k), (j, l) of each
    4-subset, flat in that grid; the 4-subset of each pencil member, its own
    and then each 5-subset's first four; each 5-subset's fifth and first
    four, flat in the grid of constraints by 4-subsets; and each
    candidate's constraints, padded with its first, as a (5, m) array."""
    comb = itertools.combinations
    i, j, k = np.array(list(comb(range(n), 3)), dtype=np.intp).reshape(-1, 3).T
    a, b, c, d = np.array(list(comb(range(n), 4)), dtype=np.intp).reshape(-1, 4).T
    first, fifth = np.array([(q, e) for q, last in enumerate(d.tolist())
                             for e in range(last + 1, n)], dtype=np.intp).reshape(-1, 2).T
    sets = np.concatenate([np.stack([i, j, k, i, i]), np.stack([a, b, c, d, a]),
                           np.stack([a[first], b[first], c[first], d[first], fifth])], axis=1)
    return (np.stack([i, j, k]), np.stack([j * n + k, k * n + i, i * n + j]),
            np.stack([a * n + b, c * n + d, a * n + c, b * n + d]),
            np.concatenate([np.arange(len(a)), first]), fifth * len(a) + first, sets)


# the entries (00, 01, 02, 11, 12, 22) of a symmetric 3x3 matrix
_PAIR_I, _PAIR_J = np.array([0, 0, 0, 1, 1, 2]), np.array([0, 1, 2, 1, 2, 2])


def _pair(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The entries (00, 01, 02, 11, 12, 22) of p q^T + q p^T, as rows, for
    the columns p and q of two (3, m) arrays."""
    o = p[:, None] * q
    return o[_PAIR_I, _PAIR_J] + o[_PAIR_J, _PAIR_I]


def _candidates(V: np.ndarray, T: np.ndarray, lines: bool):
    """The feasible candidates for the John (``lines``) or Loewner ellipse
    of a small body, one per set of 3 to 5 of its constraints.

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
      point (John) or line (Loewner) pairs A = sym(v_i x v_j, v_k x v_l)
      and C = sym(v_i x v_k, v_j x v_l), sym(p, q) = p q^T + q p^T.  Its
      degenerate members are A, A - C and C, so det Q(s) ~ s (1 + s); its
      ellipses lie on s in (-1, 0), and each problem takes the one
      stationary member there.  John maximizes det M = det Q / h^3,
      h = Q_22 = h0 + h1 s.  The segment between the quadrilateral's two
      diagonal point pairs A and A - C holds every inscribed ellipse, and
      det M vanishes at both ends, so q(s) = -h1 s^2 + 2 (h0 - h1) s + h0,
      the numerator of (log det M)', has exactly one root there; as
      q(0) = h0 and q(-1) = h1 - h0, that happens exactly when h0 and
      e = h0 - h1 share a sign.  Then f = -(e + sign(e) sqrt(e^2 + h0 h1))
      has |f| > |h0| and the sign of -h0: the root is h0 / f, in (-1, 0),
      and the other, -f / h1, lies outside.  Loewner maximizes
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
    to 5 constraints, all tight there, and so a candidate.  A candidate is
    feasible when its own constraints read slacks (distances to the edges,
    or 1 - |L^-1 (y - c)|^2) within 1e-9 of 0 and no other is below
    -FINISH_SLACK.

    Expects the frame of ``_whiten``, and T = ``_terms`` of V.  Returns
    (c, X, det X, least, sets, i3, i4) of the feasible candidates, as
    columns: X = M (John) or M^-1 (Loewner) as (x11, x12, x22), the least
    slack, and the rows of V of each, padded to five with its first; the
    triples come first, then the 4-sets from column i3 and the 5-sets from
    column i4.  Candidates are columns, so that reductions over the
    constraints run along the long axis.
    """
    n = len(V)
    tri, tri_pairs, (ij, kl, ik, jl), four, fifth, sets = _subsets(n)
    v = V.T
    # the cross products of every pair of constraints
    a, b = v[:, :, None], v[:, None, :]
    W = np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                  a[0] * b[1] - a[1] * b[0]]).reshape(3, -1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = W[:, tri_pairs] if lines else v[:, tri]
        x = x[:2] / x[2]
        g = x.sum(axis=1) / 3.0
        y = x - g[:, None]
        m = np.array([(y[0] * y[0]).sum(axis=0), (y[0] * y[1]).sum(axis=0),
                      (y[1] * y[1]).sum(axis=0)])
        X3 = m / 6.0 if lines else m[::-1] * [[1.5], [-1.5], [1.5]] / (m[0] * m[2] - m[1] ** 2)
        p, q, r, t = W[:, ij], W[:, kl], W[:, ik], W[:, jl]
        A, C = _pair(p, q), _pair(r, t)
        if lines:
            h0, h1 = A[5], C[5]
            e = h0 - h1
            f = -(e + np.copysign(np.sqrt(e * e + h0 * h1), e))
            s = h0 / f
        else:
            d0 = A[0] * A[3] - A[1] ** 2
            d1 = A[0] * C[3] + A[3] * C[0] - 2.0 * A[1] * C[1]
            d2 = C[0] * C[3] - C[1] ** 2
            b2, b1, b0 = (4.0 * d2 - d1) / (2.0 * d2), (d1 - 4.0 * d0) / (2.0 * d2), -d0 / d2
            # the middle root of s^3 + b2 s^2 + b1 s + b0, by Viete
            rad = np.sqrt(np.maximum(b2 * b2 / 9.0 - b1 / 3.0, 0.0))
            cos3 = (b2 * (b1 / 6.0 - b2 * b2 / 27.0) - 0.5 * b0) / rad ** 3
            s = 2.0 * rad * np.cos((np.arccos(np.clip(cos3, -1.0, 1.0)) - 2.0 * np.pi) / 3.0) \
                - b2 / 3.0
        # and each 5-set's member of its first four's pencil through its fifth
        s = np.concatenate([s, -((V @ p) * (V @ q) / ((V @ r) * (V @ t))).reshape(-1)[fifth]])
        Q = A[:, four] + s * C[:, four]
        if lines:
            # C* = h [[c c^T - M, c], [c^T, 1]]
            c = Q[[2, 4]] / Q[5]
            X = np.array([c[0] * c[0], c[0] * c[1], c[1] * c[1]]) - Q[[0, 1, 3]] / Q[5]
        else:
            # C = kappa [[X, -X c], [-c^T X, c^T X c - 1]]
            c = np.array([Q[1] * Q[4] - Q[3] * Q[2], Q[1] * Q[2] - Q[0] * Q[4]]) \
                / (Q[0] * Q[3] - Q[1] ** 2)
            X = Q[[0, 1, 3]] / -(Q[5] + Q[2] * c[0] + Q[4] * c[1])
        c, X = np.concatenate([g, c], axis=1), np.concatenate([X3, X], axis=1)
        det = X[0] * X[2] - X[1] ** 2
        s = _slacks(V, T, c, X, lines)
        least = s.min(axis=0)
    f = np.flatnonzero((least >= -1e-9) & (X[0] > 0.0) & (det > 0.0))
    s, sets, col = s[:, f], sets[:, f], np.arange(len(f))
    tight = s[sets, col]
    s[sets, col] = np.inf
    ok = (tight <= 1e-9).all(axis=0) & (s.min(axis=0) >= -FINISH_SLACK)
    f, sets = f[ok], sets[:, ok]
    if not f.size:
        raise ConvergenceFailure("no feasible basis")
    i3, i4 = np.searchsorted(f, (len(tri[0]), len(det) - len(fifth))).tolist()
    return c[:, f], X[:, f], det[f], least[f], sets, i3, i4


def _basis_optimum(V: np.ndarray, T: np.ndarray, lines: bool):
    """The John (``lines``) or Loewner ellipse of a small body, as the best
    feasible candidate over all sets of 3 to 5 of its constraints
    (``_candidates``).

    Both problems maximize det X, and they are convex, so the feasible
    candidate of largest det X is the optimum once its weights in John's
    conditions on its own constraints are >= -WEIGHT_TOL (John 1948), and
    that candidate alone is weighed.  Where they are not, as in a pool
    whose own problem is ill posed, every feasible candidate is weighed:
    of those whose weights are >= -WEIGHT_TOL the one of largest least
    slack wins, as in ``_field_optimum``; where there are none, the
    feasible candidate of largest least slack, for the basis iteration to
    move on from.

    Expects the frame of ``_whiten``, and T = ``_terms`` of V.  Returns
    (c, X, basis, w, residual): X = M (John) or M^-1 (Loewner) as
    (x11, x12, x22), the candidate's rows of V, their weights, and
    max(|sum w u|, |sum w u u^T - I|).
    """
    c, X, det, least, sets, i3, i4 = _candidates(V, T, lines)
    # i indexes the feasible candidates, j the ones weighed
    i, j = int(np.argmax(det)), 0
    k = slice(i, i + 1)
    w, J = _basis_weights(V, sets[:, k], c[:, k], X[:, k], det[k], int(i < i3), int(i < i4),
                          lines)
    if not (w >= -WEIGHT_TOL).all():
        w, J = _basis_weights(V, sets, c, X, det, i3, i4, lines)
        # least lies within 1e-9 of 0, so meeting John's conditions ranks first
        i = j = int(np.argmax(least - ~(w >= -WEIGHT_TOL).all(axis=1)))
    size = 3 + (i >= i3) + (i >= i4)
    r0, r1, r2, r3, r4 = (J[j] @ w[j]).tolist()
    res = max(math.hypot(r0, r1), math.sqrt((r2 - 1.0) ** 2 + 2.0 * r3 ** 2 + (r4 - 1.0) ** 2))
    return c[:, i], X[:, i], sets[:size, i], w[j, :size], res


# the right-hand side (0, 0, 1, 0, 1) of John's conditions J w, as a stack of one
_JOHN_RHS = np.array([[[0.0], [0.0], [1.0], [0.0], [1.0]]])


def _basis_weights(V, sets, c, X, det, i3: int, i4: int, lines: bool):
    """The weights w of John's conditions sum w_i u_i = 0,
    sum w_i u_i u_i^T = I on the constraints of each candidate (the columns
    of sets, c, X and det X, with i3 and i4, as ``_candidates`` returns
    them), in the frame where it is the unit disk.  Returns w and the
    conditions as (k, 5) and (k, 5, 5) arrays, J w = (0, 0, 1, 0, 1) where
    w meets them."""
    # a column of J per u_i, the unit X^1/2 a of an edge line (a, -b) or
    # X^1/2 (y - c) of a vertex y; X^1/2 is X + sqrt(det X) I over a scalar
    d = np.sqrt(det)
    y = V[sets, :2] if lines else V[sets, :2] - c.T
    u0 = (X[0] + d) * y[..., 0] + X[1] * y[..., 1]
    u1 = X[1] * y[..., 0] + (X[2] + d) * y[..., 1]
    r = np.hypot(u0, u1)
    u0, u1 = u0 / r, u1 / r
    J = np.array([u0, u1, u0 * u0, u0 * u1, u1 * u1]).transpose(2, 0, 1)
    # a Steiner ellipse touches at an equilateral triangle; a 4-set's normal
    # equations hold at its pencil's stationary member
    w = np.zeros((len(d), 5))
    w[:i3, :3] = 2.0 / 3.0
    if i4 > i3:
        G = np.swapaxes(J[i3:i4, :, :4], 1, 2)
        w[i3:i4, :4] = np.linalg.solve(G @ np.swapaxes(G, 1, 2), G[..., 2:3] + G[..., 4:5])[..., 0]
    if len(d) > i4:
        w[i4:] = np.linalg.solve(J[i4:], _JOHN_RHS)[..., 0]
    return w, J


def _terms(V: np.ndarray, lines: bool) -> np.ndarray:
    """The terms of each constraint V of ``_basis_optimum`` (rows) that
    ``_slacks`` weighs by an ellipse: (a0^2, 2 a0 a1, a1^2) of an edge line
    (a0, a1, a2), and (a0^2, a0 a1, a1^2, a0, a1, a2) of a vertex."""
    a0, a1, a2 = V.T
    if lines:
        return np.column_stack([a0 * a0, 2.0 * a0 * a1, a1 * a1])
    return np.column_stack([a0 * a0, a0 * a1, a1 * a1, a0, a1, a2])


def _slacks(V: np.ndarray, T: np.ndarray, c: np.ndarray, X: np.ndarray, lines: bool) -> np.ndarray:
    """The slack of each constraint V of ``_basis_optimum`` (rows), with its
    terms T (``_terms``), for each ellipse (c, X), a column of the (2, m)
    and (3, m) arrays c and X: the distance b - a.c - |L a| from the
    ellipse to the edge line, or 1 - |L^-1 (y - c)|^2 at the vertex y."""
    if lines:
        # a.c + |L a| - b for b = -a2, in place: (n, m) arrays dominate the
        # memory of a solve
        w = T @ X
        np.sqrt(w, out=w)
        w += V[:, :2] @ c
        w += V[:, 2:]
        return np.negative(w, out=w)
    Xc = np.stack([X[0] * c[0] + X[1] * c[1], X[1] * c[0] + X[2] * c[1]])
    coef = np.concatenate([X[:1], 2.0 * X[1:2], X[2:], -2.0 * Xc, (Xc * c).sum(axis=0)[None]])
    w = T @ coef
    return np.subtract(1.0, w, out=w)


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


def _to_ellipse(c, X, S, g, lines: bool, iterations: int = 0, residual: float = 0.0) -> Ellipse:
    """The ellipse (c, X) of ``_basis_optimum``, in the frame of ``_whiten``
    given by (S, g), as an Ellipse in the body's own frame."""
    # John's X = L^2; Loewner's {S y : |X^1/2 (y - c)| <= 1} is
    # {S (c + X^-1/2 u) : |u| <= 1}
    B = S @ _sqrtm(X) if lines else np.linalg.solve(_sqrtm(X), S.T).T
    return Ellipse(g + S @ c, _gram_root(B), iterations, residual)


def _solve(P: Polygon, lines: bool) -> Ellipse:
    """The John (``lines``) or Loewner ellipse of P, by a basis iteration
    on ``_basis_optimum`` in the frame of ``_whiten`` (Matousek, Sharir and
    Welzl 1996).

    The first pool is every constraint up to BASIS_MAX_N, else the
    constraints whose directions (an edge's unit normal, a vertex's
    direction from the centroid) lie nearest FINISH_POOL evenly spaced
    directions.  Those of a convex body leave no gap of pi, so neither do
    the chosen ones, 40 degrees apart, and John's first pool is bounded.
    Each round solves the pool: its optimum is the feasible candidate of
    largest det X that its own weights certify, and only where they do not
    are all candidates weighed (``_basis_optimum``).  It meets John's
    conditions on its basis, so it is the answer once no slack outside the
    basis over the whole body is below -FINISH_SLACK.  Until then the next
    pool (``_next_pool``) is the basis; then the deepest violation of each
    violated arc, the cyclic local minima of the slack below -FINISH_SLACK;
    then the least slacks over the whole body, FINISH_POOL in all (on a
    smooth body those are neighbours at one contact).  So every pool holds
    a basis, which is bounded, and a constraint it violates, and has an
    optimum of smaller area than the basis's (larger for Loewner): no pool
    comes back while each optimum is exact.  A pool whose own problem is
    ill posed may have no candidate that meets John's conditions (five
    consecutive vertices of a limacon had none); after all are weighed, its
    feasible candidate of largest least slack then gives the basis.  Each
    solve builds the constraint terms of ``_slacks`` once (``_terms``), and
    each pool takes its rows of them.  A repeated pool, or over 100,
    raises ConvergenceFailure, with the pools and the last least slack.
    """
    Y, S, g = _whiten(P)
    if lines:
        A, b = edge_normals(Polygon(Y))
        V = np.column_stack([A, -b])
    else:
        V = np.column_stack([Y, np.ones(len(Y))])
    n, T = len(V), _terms(V, lines)
    if n <= BASIS_MAX_N:
        pool = np.arange(n)
    else:
        t = 2.0 * np.pi * np.arange(FINISH_POOL) / FINISH_POOL
        x, y = V[:, 0], V[:, 1]
        d = V[:, :2] / np.sqrt(x * x + y * y)[:, None]
        # sorted, repeats dropped: np.unique's pool, without its import of
        # numpy.ma on first use
        pool = np.sort(np.argmax(d @ np.stack([np.cos(t), np.sin(t)]), axis=0))
        pool = pool[np.concatenate(([True], pool[1:] != pool[:-1]))]
    tried = {pool.tobytes()}
    for pools in range(100):
        c, X, basis, w, res = _basis_optimum(V[pool], T[pool], lines)
        kkt = w.min() >= -WEIGHT_TOL
        if kkt and len(pool) == n:  # pool-feasible on all constraints
            return _to_ellipse(c, X, S, g, lines, pools, res)
        mask = np.zeros(n, dtype=bool)
        mask[pool[basis]] = True
        s = _slacks(V, T, c[:, None], X[:, None], lines)[:, 0]
        least = np.where(mask, 0.0, s).min()
        if kkt and least >= -FINISH_SLACK:
            return _to_ellipse(c, X, S, g, lines, pools, res)
        pool = _next_pool(s[None], mask[None], min(FINISH_POOL, n), FINISH_SLACK)[0]
        if pool.tobytes() in tried:
            raise ConvergenceFailure(f"the basis iteration repeated a pool: {pools + 1} "
                                     f"pools solved, least slack {least:.3g}")
        tried.add(pool.tobytes())
    raise ConvergenceFailure(f"the basis iteration solved 100 pools, least slack {least:.3g}")


def _next_pool(s: np.ndarray, basis: np.ndarray, size: int, tol: float) -> np.ndarray:
    """The basis iteration's next pools by the rule of ``_solve``, as the
    sorted indices of ``size`` constraints per row, from the slacks s of
    all constraints, in cyclic order, at the optimum of each row's pool,
    and the mask of that optimum's basis ((k, n) arrays): the basis, then
    the cyclic local minima of s below -tol outside it, deepest first,
    then the least slacks.  Ties go to the lower index."""
    k = len(s)
    # a plateau of equal minima counts once, at its first constraint; each
    # constraint's cyclic neighbours are slices of s padded at both ends
    e = np.concatenate([s[:, -1:], s, s[:, :1]], axis=1)
    dips = (s < -tol) & (s < e[:, :-2]) & (s <= e[:, 2:]) & ~basis
    # only the basis, the dips and the size least slacks outside the basis
    # can be taken; ranked, they are sorted row by row
    free = np.where(basis, np.inf, s)
    cut = np.partition(free, size - 1, axis=1)[:, size - 1:size]
    row, col = np.nonzero(basis | dips | ~(free > cut))
    rank = np.where(basis[row, col], 0, np.where(dips[row, col], 1, 2))
    order = np.lexsort((col, s[row, col], rank, row))
    row, col = row[order], col[order]
    first = np.arange(len(row)) - np.searchsorted(row, np.arange(k))[row] < size
    return np.sort(col[first].reshape(k, size), axis=1)


def john_ellipse(P: Polygon) -> Ellipse:
    """Maximum-area ellipse inscribed in the polygon (see ``_solve``)."""
    return _solve(P, lines=True)


def loewner_ellipse(P: Polygon) -> Ellipse:
    """Minimum-area ellipse enclosing the polygon (see ``_solve``)."""
    return _solve(P, lines=False)


@functools.cache
def _field_sets(p: int):
    """Each pair and triple of range(p) in three slots, the pairs first (a
    pair's third slot is its first), and the number of pairs."""
    pairs = [s + s[:1] for s in itertools.combinations(range(p), 2)]
    return np.array(pairs + list(itertools.combinations(range(p), 3))), len(pairs)


def _field_optimum(x: np.ndarray, y: np.ndarray):
    """The optimum of max log det M over u_i^T M u_i <= 1 on each row's pool
    of constraints u_i = (x_i, y_i) ((k, p) arrays), from its pairs and
    triples.

    A set S gives the pool's optimum M if u_i^T M u_i = 1 on S, no pool
    slack 1 - u^T M u is below -FIELD_SLACK (relative, as u^T M u is about
    1), and M^-1 = sum_S lam_i u_i u_i^T with every lam_i >= 0: these are
    the KKT conditions of a concave problem.  For a pair, M^-1 = u_1 u_1^T
    + u_2 u_2^T and both weights are 1.  For a triple, the contact
    equations are linear in (m11, m12, m22), with rows c_i = (u0^2,
    2 u0 u1, u1^2), and stationarity is C^T lam = v(M), the gradient of
    log det M; both come from the cofactors of C.  Where sets tie, the one
    of largest least pool slack wins.  Each row's result depends on that
    row alone.

    Returns per row the winning set as three pool slots, M as
    (m11, m12, m22), and sum_S lam_i u_i; a row with no such set, as a pool
    on one line, gets M = nan.
    """
    k = len(x)
    sets, p = _field_sets(x.shape[1])
    xs, ys = x[:, sets], y[:, sets]
    x0, y0, x1, y1 = xs[:, :p, 0], ys[:, :p, 0], xs[:, :p, 1], ys[:, :p, 1]
    # a triple's rows c_i = (P_i, Q_i, W_i), and their cofactors
    # c_i+1 x c_i+2, along the last axis
    P, Q, W = xs[:, p:] ** 2, 2.0 * xs[:, p:] * ys[:, p:], ys[:, p:] ** 2
    nxt, last = [1, 2, 0], [2, 0, 1]
    cP = Q[..., nxt] * W[..., last] - W[..., nxt] * Q[..., last]
    cQ = W[..., nxt] * P[..., last] - P[..., nxt] * W[..., last]
    cW = P[..., nxt] * Q[..., last] - Q[..., nxt] * P[..., last]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cr2 = (x0 * y1 - y0 * x1) ** 2
        det_c = P[..., 0] * cP[..., 0] + Q[..., 0] * cQ[..., 0] + W[..., 0] * cW[..., 0]
        # rows dependent to rounding, as antiparallel edges make them, fix no
        # M and let rounding pick one; independent rows give
        # |det C| / prod |c_i| >= 1e-2 in practice
        scale = np.maximum(np.maximum(P, np.abs(Q)), W).prod(axis=2)
        det_c = np.where(np.abs(det_c) > 1e-8 * scale, det_c, np.nan)
        m = np.concatenate([np.stack([y0 * y0 + y1 * y1, -(x0 * y0 + x1 * y1),
                                      x0 * x0 + x1 * x1], axis=2) / cr2[:, :, None],
                            np.stack([cP.sum(axis=2), cQ.sum(axis=2), cW.sum(axis=2)], axis=2)
                            / det_c[:, :, None]], axis=1)
        det_m = m[:, :, 0] * m[:, :, 2] - m[:, :, 1] ** 2
        # the gradient v(M) of log det M, times det M
        v = m[:, p:, 2:] * cP - 2.0 * m[:, p:, 1:2] * cQ + m[:, p:, :1] * cW
        lam = np.concatenate([np.broadcast_to([1.0, 1.0, 0.0], (k, p, 3)),
                              v / (det_m[:, p:] * det_c)[:, :, None]], axis=1)
        least = (1.0 - (m[:, :, :1] * (x * x)[:, None] + 2.0 * m[:, :, 1:2] * (x * y)[:, None]
                        + m[:, :, 2:] * (y * y)[:, None])).min(axis=2)
        ok = (least >= -FIELD_SLACK) & (lam >= 0.0).all(axis=2) & (det_m > 0.0) \
            & (det_m < np.inf)
    best = np.argmax(np.where(ok, least, -np.inf), axis=1)
    rows = np.arange(k)
    g = np.stack([(lam * xs).sum(axis=2), (lam * ys).sum(axis=2)], axis=2)
    return sets[best], np.where(ok[rows, best, None], m[rows, best], np.nan), g[rows, best]


def _centered_john(A: np.ndarray, b: np.ndarray, X):
    """The fixed-center John field of {y : A y <= b} at every row x of X.

    For each x the ellipse is x + L (unit disk), L symmetric, and with
    M = L^2 and u_i = a_i / r_i, r_i = b_i - a_i.x, the constraint
    |L a_i| <= r_i is u_i^T M u_i <= 1 (A has unit rows): linear in
    m = (m11, m12, m22), and log det L = log det M / 2.  Each row is
    solved in the frame where its u_i have unit second moment, so that M
    is well conditioned there even 1e-7 of the diameter from an edge.

    The problem is LP-type with three unknowns (Welzl 1991), so a pair or
    a triple of contacts fixes its optimum, and all rows run ``_solve``'s
    basis iteration at once, each on its own pool of FIELD_POOL
    constraints.  The first pool is every constraint up to FIELD_POOL,
    else the u_i of largest projection on FIELD_POOL evenly spaced
    directions of the row's frame: there the u_i are the vertices of the
    polar of the body about x, and the contacts are among its extreme
    points.  (The constraints whose directions lie nearest those, as in
    ``_solve``, took 0.71 against 0.46 s on a sweep of 6,900 centers over
    69 bodies, and one more pool on the regions workload's roster.)  Each
    round takes each pool's optimum (``_field_optimum``).  A row whose
    optimum leaves no slack over all constraints below -FIELD_SLACK has
    the field's optimum, since its weights lam_i >= 0 meet John's
    conditions there, and leaves.  The others take their next pool by
    ``_next_pool``: the optimum's pair or triple, the deepest violation of
    each violated arc, then the least slacks (after a pool that fixes no
    M, whose slacks read nan, the first constraints).  A row whose next
    pool is the one it just solved would solve it again, so that raises
    ConvergenceFailure at once, naming the round and the centers; more
    than 100 rounds raise it too, with the centers left and their least
    slack.  At the optimum det L = sqrt(det M), and by the envelope
    theorem grad_x log det L = -sum_S lam_i a_i / r_i exactly.  Expects a
    body of diameter about 1; a row whose center has margin at most 1e-13
    gets det 0.  Each row's result depends on that row alone.

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
    size = min(FIELD_POOL, n)
    if n <= FIELD_POOL:
        pool = np.broadcast_to(np.arange(n), (len(rows), n))
    else:
        # the support points of the u_i, in the row's frame the vertices of
        # the polar of the body about x, in FIELD_POOL evenly spaced
        # directions
        t = 2.0 * np.pi * np.arange(FIELD_POOL) / FIELD_POOL
        pool = np.stack([np.argmax(np.cos(a) * u0 + np.sin(a) * u1, axis=1) for a in t], axis=1)
    live = np.arange(len(rows))
    p, q, w = u0 * u0, 2.0 * u0 * u1, u1 * u1
    for rounds in range(1, 101):
        sets, m, g = _field_optimum(np.take_along_axis(u0, pool, axis=1),
                                    np.take_along_axis(u1, pool, axis=1))
        s = 1.0 - (m[:, :1] * p + m[:, 1:2] * q + m[:, 2:] * w)
        least = s.min(axis=1)
        done = least >= -FIELD_SLACK
        root_det[live[done]] = np.sqrt(m[done, 0] * m[done, 2] - m[done, 1] ** 2)
        lam_u[live[done]] = g[done]
        go = np.flatnonzero(~done)
        if not go.size:
            break
        basis = np.zeros((go.size, n), dtype=bool)
        basis[np.arange(go.size)[:, None], np.take_along_axis(pool[go], sets[go], axis=1)] = True
        nxt = _next_pool(s[go], basis, size, FIELD_SLACK)
        # a row whose next pool is the one it just solved would solve it again
        repeat = (nxt == np.sort(pool[go], axis=1)).all(axis=1)
        if repeat.any():
            raise ConvergenceFailure(
                f"the fixed-center John field repeated a pool in round {rounds}: centers "
                f"{rows[live[go[repeat]]].tolist()} of {len(rows)}, least slack "
                f"{least[go[repeat]].min():.3g}")
        pool = nxt
        live, u0, u1, p, q, w = live[go], u0[go], u1[go], p[go], q[go], w[go]
    else:
        raise ConvergenceFailure(f"the fixed-center John field ran 100 pools: {go.size} of "
                                 f"{len(rows)} centers left, least slack {least[go].min():.3g}")
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
        r = np.hypot(verts[:, 0], verts[:, 1])
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
    A = np.array([U[:, 0], U[:, 1], U[:, 0] ** 2, U[:, 0] * U[:, 1], U[:, 1] ** 2])
    w = _nnls(A, np.array([0.0, 0.0, 1.0, 0.0, 1.0]))
    res_sum = U.T @ w
    S = (U.T * w) @ U
    res_id = float(np.linalg.norm(S - np.eye(2)))
    if np.linalg.norm(res_sum) > CERT_RESIDUAL_TOL or res_id > CERT_RESIDUAL_TOL:
        raise CertificationFailure(f"John residuals too large: "
                                   f"sum={np.linalg.norm(res_sum):.3g} id={res_id:.3g}")
    contacts = [(U[i], float(w[i])) for i in range(len(w)) if w[i] > 1e-12]
    return JohnCertificate(contacts, res_sum, res_id)
