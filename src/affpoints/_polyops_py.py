"""The hot polygon kernels, in numpy.

All functions take a CCW-ordered (n, 2) float64 vertex array.  Callers
import this module as ``kernels``; the benchmark's tracer finds the kernel
layer by this module's name.
"""

from __future__ import annotations

import math

import numpy as np


def area_centroid(verts: np.ndarray) -> tuple[float, float, float]:
    """Shoelace area and centroid, summed about the centre of the bounding
    box: the rounding does not grow with the distance from the origin, and
    a body symmetric about an axis stays so.  The sums run on the
    coordinates divided by s = 2^floor(log2 of the larger extent), so that
    their cubic terms neither overflow nor underflow at any scale; that
    division is exact, so p(2^k K) = 2^k p(K) to the bit.  Returns
    (area, cx, cy); the area itself overflows to inf past extents of about
    1e154.
    """
    w = np.ascontiguousarray(verts.T)
    lo, hi = w.min(axis=1), w.max(axis=1)
    o = 0.5 * (lo + hi)
    (x0, y0), (x1, y1) = lo.tolist(), hi.tolist()
    s = math.ldexp(1.0, math.frexp(max(x1 - x0, y1 - y0))[1] - 1)
    v = (w - o[:, None]) / s
    (x, y), (xn, yn) = v, np.concatenate((v[:, 1:], v[:, :1]), axis=1)
    cross = x * yn - xn * y
    area = 0.5 * float(cross.sum())
    if area == 0.0:
        return 0.0, 0.0, 0.0
    cx = float(((x + xn) * cross).sum()) / (6.0 * area)
    cy = float(((y + yn) * cross).sum()) / (6.0 * area)
    return area * s * s, float(o[0]) + cx * s, float(o[1]) + cy * s


def support(verts: np.ndarray, ux: float, uy: float) -> float:
    return float(np.max(verts[:, 0] * ux + verts[:, 1] * uy))


def clip_halfplane(verts: np.ndarray, nx: float, ny: float, off: float) -> np.ndarray:
    """Keep {x : <n, x> <= off}.  Returns a (k, 2) array, possibly empty."""
    d = verts[:, 0] * nx + verts[:, 1] * ny - off
    n = len(verts)
    if np.all(d <= 0.0):
        return verts
    if np.all(d >= 0.0):
        return np.empty((0, 2))
    out: list[np.ndarray] = []
    for i in range(n):
        j = (i + 1) % n
        di, dj = d[i], d[j]
        if di <= 0.0:
            out.append(verts[i])
            if dj > 0.0:
                t = di / (di - dj)
                out.append(verts[i] + t * (verts[j] - verts[i]))
        elif dj < 0.0:
            t = di / (di - dj)
            out.append(verts[i] + t * (verts[j] - verts[i]))
    if len(out) < 3:
        return np.empty((0, 2))
    return np.asarray(out)


def polar_vertices(verts: np.ndarray, zx: float, zy: float) -> np.ndarray:
    """Dual vertex of each edge of the shifted polygon P - z.

    Edge through y_i, y_{i+1} maps to the unique u with <u, y_i> = <u, y_{i+1}> = 1.
    """
    y = verts - np.array([zx, zy])
    yn = np.roll(y, -1, axis=0)
    det = y[:, 0] * yn[:, 1] - y[:, 1] * yn[:, 0]
    ux = (yn[:, 1] - y[:, 1]) / det
    uy = (y[:, 0] - yn[:, 0]) / det
    return np.column_stack([ux, uy])


def _successors(x: np.ndarray) -> np.ndarray:
    """The rows of x along its second-last axis moved up by one, the first
    last: each vertex's or edge's successor (a copy, cheaper than a gather
    at large n)."""
    return np.concatenate([x[..., 1:, :], x[..., :1, :]], axis=-2)


def polar_terms(verts: np.ndarray):
    """The per-edge terms of the polar area, formed once per body for
    ``polar_calculus``; ``verts`` is one body's (n, 2) vertices, or a
    (k, n, 2) stack of k bodies of n vertices each.

    Edge i lies on {y : <a_i, y> = b_i}, a_i its edge vector turned by -90
    degrees.  Returns (a, an, b, half_det, nxt): the a_i as an (n, 2)
    array ((k, n, 2) for a stack), the a_i+1, the b_i, 1/2 det(a_i, a_i+1),
    and the index of each edge's successor, by which the kernel shifts its
    slacks (np.roll costs more than the sums on arrays this small).  A
    body's terms are the same bits alone or in a stack.
    """
    n = verts.shape[-2]
    nxt = np.arange(1, n + 1)
    nxt[-1] = 0
    e = _successors(verts) - verts
    a = np.empty_like(e)
    a[..., 0] = e[..., 1]
    np.negative(e[..., 0], out=a[..., 1])
    an = _successors(a)
    b = a[..., 0] * verts[..., 0] + a[..., 1] * verts[..., 1]
    half_det = 0.5 * (a[..., 0] * an[..., 1] - a[..., 1] * an[..., 0])
    return a, an, b, half_det, nxt


def polar_calculus(terms, X: np.ndarray, hessian: bool = False):
    """Area V of the polar (P - x)° at each row x of X (k, 2), with its
    gradient and, if asked, its Hessian in x; ``terms`` is
    ``polar_terms(P's vertices)``, or the terms of a (k, n, 2) stack of
    bodies, one for each row of X.

    The polar about x has the vertex u_i = a_i / s_i, with the slack
    s_i = b_i - <a_i, x>, so V = sum_i T_i with
    T_i = 1/2 det(a_i, a_i+1) / (s_i s_i+1).  As grad s_i = -a_i,
    grad T_i = T_i w_i with w_i = u_i + u_i+1, and grad u_i = u_i u_i^T, so

        grad V = sum_i T_i w_i,
        Hess V = sum_i T_i (w_i w_i^T + u_i u_i^T + u_i+1 u_i+1^T).

    Any scaling of a_i cancels.  The sums run along the rows of X, so a
    row's result does not depend on the other rows.  Returns
    (V, grad, Hess or None, s) of shapes (k,), (k, 2), (k, 2, 2) and
    (k, n); the values of a row with a slack <= 0 (x not interior) mean
    nothing, and computing them may raise numpy's floating-point warnings,
    which a caller that passes such rows silences (the Santalo solve calls
    this some four times per body, under one errstate of its own).
    """
    a, an, b, half_det, nxt = terms
    s = b - (X[:, :1] * a[..., 0] + X[:, 1:] * a[..., 1])
    sn = s[:, nxt]
    u = a / s[:, :, None]
    # u_i+1 by its own division: the same bits as a shift of u, for less
    un = an / sn[:, :, None]
    w = u + un
    T = half_det / (s * sn)
    grad = (T[:, :, None] * w).sum(axis=1)
    if not hessian:
        return T.sum(axis=1), grad, None, s
    # the three sums of outer products as one, over 3n rows
    Z = np.concatenate([w, u, un], axis=1)
    TZ = (Z.reshape(len(T), 3, -1, 2) * T[:, None, :, None]).reshape(Z.shape)
    H = (TZ[:, :, :, None] * Z[:, :, None, :]).sum(axis=1)
    return T.sum(axis=1), grad, H, s


def polar_areas(verts: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Area V of the polar (P - x)° at each row x of X (k, 2), and grad V,
    by ``polar_calculus``.  A row with a slack <= 0 (x not interior) gets
    V = inf.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        V, grad, _, s = polar_calculus(polar_terms(verts), X)
    V[(s <= 0.0).any(axis=1)] = np.inf
    return V, grad


def shift_vertices(verts: np.ndarray, zx: float, zy: float) -> np.ndarray:
    """Projective image x -> x / (1 - <x, z>), vertex-wise."""
    denom = 1.0 - (verts[:, 0] * zx + verts[:, 1] * zy)
    return verts / denom[:, None]
