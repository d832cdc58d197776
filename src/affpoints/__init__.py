"""Affine invariant points of planar convex bodies.

Polar duality, John/Loewner ellipses, the Santalo point, cap-construction
points, floating and illumination bodies, and the duality algebra relating
them, all computable on 2D convex polygons.
"""

from .ellipses import Ellipse, john_ellipse, loewner_ellipse
from .points import PointFunction, PointResult, eval_point
from .polygons import (
    AffineMap,
    Halfplane,
    Polygon,
    canonicalize,
    hausdorff,
    k_sub_z,
    polar_about,
)

__all__ = [
    "AffineMap",
    "BACKEND",
    "Ellipse",
    "Halfplane",
    "PointFunction",
    "PointResult",
    "Polygon",
    "canonicalize",
    "eval_point",
    "hausdorff",
    "john_ellipse",
    "k_sub_z",
    "loewner_ellipse",
    "polar_about",
]
# the kernel implementation; benchmark reports record it
BACKEND = "python"
__version__ = "0.1.0"
