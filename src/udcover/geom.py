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

SQRT2 = math.sqrt(2.0)
INV_SQRT2 = math.sqrt(0.5)
HALF_SQRT2 = SQRT2 / 2.0
SQRT3 = math.sqrt(3.0)
HALF_SQRT3 = SQRT3 / 2.0
SQRT3_OVER_6 = SQRT3 / 6.0

COORD_BOUND = 2.0**22


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


def bounded_points(points) -> np.ndarray:
    """``as_points(points)``, raising ValueError also where a |coordinate|
    is COORD_BOUND or more. ``g1991`` and the fastcover solvers put a point
    exactly 1 from a center, on a corner of its sqrt(2) square; from 2^22
    on, rounding can move the center past ``verify_cover``'s tolerance."""
    xy = as_points(points)
    if not (xy.min(initial=0.0) > -COORD_BOUND and xy.max(initial=0.0) < COORD_BOUND):
        top = max(-float(xy.min()), float(xy.max()))
        raise ValueError(f"max |coordinate| must be below 2^22, got {top!r}")
    return xy


def key_order(keys: np.ndarray, size: int) -> np.ndarray:
    """An order that sorts ``keys``, integers from 0 to size - 1: numpy's
    O(n) radix sort of 8- or 16-bit keys, stable, where size <= 2^16;
    else a comparison argsort, which need not be stable."""
    if size <= 2**16:
        return np.argsort(keys.astype(np.min_scalar_type(size - 1)), kind="stable")
    return keys.argsort()


def stable_order(values: np.ndarray) -> np.ndarray:
    """The stable sort order of an integer array or an integer-valued
    float array, by ``key_order`` where the values span 2^16 or fewer: an
    8-bit radix pass where they span 2^8 or fewer."""
    # the span in Python numbers: an int cannot wrap, and a float
    # overflows to inf
    low, top = (values.min().item(), values.max().item()) if len(values) else (0, 0)
    if top - low < 2**16:
        return key_order(values - low, int(top - low) + 1)
    return np.argsort(values, kind="stable")


def run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one
    before them: the first of each run of equal values."""
    new = np.empty(len(sorted_values), dtype=bool)
    new[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=new[1:])
    return new


def unsort(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The array ``a`` with ``a[order] = values``, for a permutation
    ``order``: per original position, the value of its sorted one."""
    out = np.empty(len(order), dtype=values.dtype)
    out[order] = values
    return out


def centers_array(centers: list[Point]) -> Cover:
    """A list of (x, y) pairs as a cover: a new ``(m, 2)`` float64 array.
    Three times faster than ``np.array`` on a list of tuples."""
    flat = np.fromiter(chain.from_iterable(centers), np.float64, 2 * len(centers))
    return flat.reshape(-1, 2)
