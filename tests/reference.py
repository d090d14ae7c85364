"""Reference computations that only tests use: the grid-disk center of a
cell, and the exact cover size by exhaustive enumeration."""

import itertools

from udcover.geom import INV_SQRT2, SQRT2, GridKey, Point, as_points
from udcover.oracle import _disk_masks, candidate_centers


def grid_disk_center(k: GridKey) -> Point:
    """Center of the unit disk circumscribing cell k: all four cell
    corners lie at distance exactly 1 from it."""
    return (SQRT2 * k[0] + INV_SQRT2, SQRT2 * k[1] + INV_SQRT2)


def optimal_cover_exhaustive(points) -> int:
    """Minimum cover size by exhaustive enumeration over candidate-disk
    subsets, smallest size first. Reference for the branch and bound."""
    pts = sorted(map(tuple, as_points(points).tolist()))
    n = len(pts)
    if n == 0:
        return 0
    masks, _ = _disk_masks(pts, candidate_centers(pts))
    full = (1 << n) - 1
    for size in range(1, n + 1):
        for combo in itertools.combinations(masks, size):
            acc = 0
            for m in combo:
                acc |= m
            if acc == full:
                return size
    raise AssertionError("point-centered disks always cover")
