import numpy as np
import pytest

from affpoints.bodies import random_body
from affpoints.polygons import canonicalize


@pytest.fixture
def square():
    return canonicalize([(1, 1), (-1, 1), (-1, -1), (1, -1)])


@pytest.fixture
def triangle():
    return canonicalize([(0, 0), (1, 0), (0, 1)])


@pytest.fixture
def cross():
    return canonicalize([(1, 0), (0, 1), (-1, 0), (0, -1)])


def random_bodies(count, seed, affine=True):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(rng.integers(5, 31))
        out.append(random_body(k, int(rng.integers(0, 2**32)), affine=affine))
    return out


def limacon(n):
    """n points on the convex limacon r = 1 + 0.2 cos t: a smooth,
    asymmetric body."""
    t = 2.0 * np.pi * np.arange(n) / n
    r = 1.0 + 0.2 * np.cos(t)
    return np.column_stack([r * np.cos(t), r * np.sin(t)])
