"""Core geometric primitives shared by all cover algorithms.

Every solver, the verifier and the writers take their points through
``as_points``: an ``(n, 2)`` float64 array of finite coordinates. A cover
is the unit-disk centers as a fresh C-contiguous ``(m, 2)`` float64
array, ``(0, 2)`` for none; ``centers_array`` builds one from the list
of ``(x, y)`` tuples a Python loop grows. The plane is tiled by half-open
sqrt(2)-sized cells; every cell is circumscribed by a unique unit disk,
which is what makes grid hashing work as a covering strategy.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

Point = tuple[float, float]
Cover = np.ndarray  # (m, 2) float64, C-contiguous
GridKey = tuple[int, int]

SQRT2 = math.sqrt(2.0)
INV_SQRT2 = math.sqrt(0.5)
HALF_SQRT2 = SQRT2 / 2.0
SQRT3 = math.sqrt(3.0)
HALF_SQRT3 = SQRT3 / 2.0
SQRT3_OVER_6 = SQRT3 / 6.0


def as_points(points) -> np.ndarray:
    """``points`` as an ``(n, 2)`` C-contiguous float64 array: an array
    or a sequence of ``(x, y)`` pairs, ``[]`` giving ``(0, 2)``. Copies
    nothing when ``points`` already is such an array.

    Raises ValueError on any other shape and on a NaN or infinite
    coordinate.
    """
    xy = np.ascontiguousarray(points, dtype=np.float64)
    if xy.shape == (0,):
        xy = xy.reshape(-1, 2)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {xy.shape}")
    if not np.isfinite(xy).all():
        raise ValueError("point coordinates must be finite")
    return xy


def centers_array(centers: list[Point]) -> Cover:
    """A list of (x, y) pairs as a cover: a new ``(m, 2)`` float64 array.
    Three times faster than ``np.array`` on a list of tuples."""
    flat = np.fromiter(chain.from_iterable(centers), np.float64, 2 * len(centers))
    return flat.reshape(-1, 2)
