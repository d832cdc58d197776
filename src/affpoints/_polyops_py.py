"""The hot polygon kernels, in numpy.

All functions take a CCW-ordered (n, 2) float64 vertex array.  Callers
import this module as ``kernels``; the benchmark's tracer finds the kernel
layer by this module's name.
"""

from __future__ import annotations

import numpy as np


def area_centroid(verts: np.ndarray) -> tuple[float, float, float]:
    """Shoelace area and centroid.  Returns (area, cx, cy)."""
    x = verts[:, 0]
    y = verts[:, 1]
    xn = np.roll(x, -1)
    yn = np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * float(cross.sum())
    if area == 0.0:
        return 0.0, 0.0, 0.0
    cx = float(((x + xn) * cross).sum()) / (6.0 * area)
    cy = float(((y + yn) * cross).sum()) / (6.0 * area)
    return area, cx, cy


def support(verts: np.ndarray, ux: float, uy: float) -> float:
    return float(np.max(verts[:, 0] * ux + verts[:, 1] * uy))


def supports(verts: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Support function at many directions; dirs is (m, 2)."""
    return np.max(dirs @ verts.T, axis=1)


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


def cap_area(verts: np.ndarray, nx: float, ny: float, off: float) -> float:
    """Area of {x : <n, x> >= off} intersected with the polygon."""
    cap = clip_halfplane(verts, -nx, -ny, -off)
    if len(cap) == 0:
        return 0.0
    return area_centroid(cap)[0]


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


def shift_vertices(verts: np.ndarray, zx: float, zy: float) -> np.ndarray:
    """Projective image x -> x / (1 - <x, z>), vertex-wise."""
    denom = 1.0 - (verts[:, 0] * zx + verts[:, 1] * zy)
    return verts / denom[:, None]
