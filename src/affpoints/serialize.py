"""JSON encoding of polygons, ellipses and reports.

All floats go through repr-faithful 17 significant digit formatting so that
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json

import numpy as np

from .ellipses import Ellipse
from .errors import BadParams
from .polygons import Polygon, canonicalize


def _clean(obj):
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(f"{float(obj):.17g}")
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def dumps(obj) -> str:
    """One JSON document; raises ValueError on a NaN or infinite float,
    which JSON cannot hold."""
    return json.dumps(_clean(obj), separators=(", ", ": "), sort_keys=True, allow_nan=False)


def polygon_to_dict(P: Polygon) -> dict:
    return {"dim": 2, "kind": "polygon", "vertices": P.vertices.tolist()}


def polygon_from_dict(d: dict) -> Polygon:
    kind = d.get("kind") if isinstance(d, dict) else None
    if kind != "polygon" or "vertices" not in d:
        raise BadParams(f"expected polygon JSON with vertices, got kind={kind!r}")
    try:
        vertices = np.asarray(d["vertices"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadParams(f"polygon vertices must be numbers: {exc}") from exc
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise BadParams(f"polygon vertices must be [x, y] pairs, got shape {vertices.shape}")
    return canonicalize(vertices)


def ellipse_to_dict(E: Ellipse) -> dict:
    return {"kind": "ellipse", "center": E.center.tolist(), "shape": E.shape.tolist()}


def load_polygon(path: str) -> Polygon:
    with open(path) as f:
        return polygon_from_dict(json.load(f))


def save_polygon(path: str, P: Polygon) -> None:
    with open(path, "w") as f:
        f.write(dumps(polygon_to_dict(P)))
        f.write("\n")
