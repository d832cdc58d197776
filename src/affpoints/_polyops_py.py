"""The hot polygon kernels, in numpy.

All functions take a CCW-ordered (n, 2) float64 vertex array.  Callers
import this module as ``kernels``; the benchmark's tracer finds the kernel
layer by this module's name.
"""

from __future__ import annotations

import numpy as np


def area_centroid(verts: np.ndarray) -> tuple[float, float, float]:
    """Shoelace area and centroid, summed about the centre of the bounding
    box: the rounding does not grow with the distance from the origin, and
    a body symmetric about an axis stays so.  Returns (area, cx, cy)."""
    w = np.ascontiguousarray(verts.T)
    o = 0.5 * (w.min(axis=1) + w.max(axis=1))
    v = w - o[:, None]
    (x, y), (xn, yn) = v, np.concatenate((v[:, 1:], v[:, :1]), axis=1)
    cross = x * yn - xn * y
    area = 0.5 * float(cross.sum())
    if area == 0.0:
        return 0.0, 0.0, 0.0
    cx = float(((x + xn) * cross).sum()) / (6.0 * area)
    cy = float(((y + yn) * cross).sum()) / (6.0 * area)
    return area, float(o[0]) + cx, float(o[1]) + cy


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


def polar_areas(verts: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Area V of the polar (P - x)° at each row x of X (k, 2), and grad V.

    Edge i lies on {y : <a_i, y> = b_i}, a_i its edge vector turned by
    -90 degrees, so the polar about x has the vertex a_i / s_i, with the
    slack s_i = b_i - <a_i, x>, and
    V = 1/2 sum_i det(a_i, a_i+1) / (s_i s_i+1).  Each term's gradient in
    x is the term times (a_i / s_i + a_i+1 / s_i+1).  Any scaling of a_i
    cancels.  The sums run along the rows of (k, n) arrays, so a row's
    result does not depend on the other rows.  A row with a slack <= 0
    (x not interior) gets V = inf.
    """
    e = np.roll(verts, -1, axis=0) - verts
    a0, a1 = e[:, 1], -e[:, 0]
    b = a0 * verts[:, 0] + a1 * verts[:, 1]
    det = a0 * np.roll(a1, -1) - a1 * np.roll(a0, -1)
    s = b - (X[:, :1] * a0 + X[:, 1:] * a1)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = det / (s * np.roll(s, -1, axis=1))
        # term i holds s_i and s_i+1, so s_i sits in terms i - 1 and i
        c = (q + np.roll(q, 1, axis=1)) / s
        V = 0.5 * q.sum(axis=1)
        grad = 0.5 * np.column_stack([(c * a0).sum(axis=1), (c * a1).sum(axis=1)])
    V[(s <= 0.0).any(axis=1)] = np.inf
    return V, grad


def shift_vertices(verts: np.ndarray, zx: float, zy: float) -> np.ndarray:
    """Projective image x -> x / (1 - <x, z>), vertex-wise."""
    denom = 1.0 - (verts[:, 0] * zx + verts[:, 1] * zy)
    return verts / denom[:, None]
