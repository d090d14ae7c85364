"""Core geometric primitives shared by all cover algorithms.

Every solver, the verifier and the writers take their points through
``as_points``: an ``(n, 2)`` float64 array of finite coordinates. A cover
is a list of unit-disk centers. The plane is tiled by half-open
sqrt(2)-sized cells; every cell is circumscribed by a unique unit disk,
which is what makes grid hashing work as a covering strategy.
"""

from __future__ import annotations

import math

import numpy as np

Point = tuple[float, float]
Cover = list[Point]
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


def grid_disk_center(k: GridKey) -> Point:
    """Center of the unit disk circumscribing cell k: all four cell
    corners lie at distance exactly 1 from it."""
    return (SQRT2 * k[0] + INV_SQRT2, SQRT2 * k[1] + INV_SQRT2)


class BBox:
    """Mutable axis-parallel bounding box."""

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, xmin: float, ymin: float, xmax: float, ymax: float):
        self.xmin = xmin
        self.ymin = ymin
        self.xmax = xmax
        self.ymax = ymax

    def add(self, p: Point) -> None:
        x, y = p
        if x < self.xmin:
            self.xmin = x
        elif x > self.xmax:
            self.xmax = x
        if y < self.ymin:
            self.ymin = y
        elif y > self.ymax:
            self.ymax = y

    def __repr__(self) -> str:
        return f"BBox({self.xmin}, {self.ymin}, {self.xmax}, {self.ymax})"
