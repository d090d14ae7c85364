"""Reference computations and inputs that only tests use: the grid-disk
center of a cell, fastcover++'s disk table as a dict, the exact cover size
by exhaustive enumeration, and the 7-point worst case of the grid
algorithm."""

import itertools
import math

import numpy as np

from udcover.geom import INV_SQRT2, SQRT2, Point, as_points


def grid_disk_center(k: tuple[int, int]) -> Point:
    """Center of the unit disk circumscribing cell k: all four cell
    corners lie at distance exactly 1 from it."""
    return (SQRT2 * k[0] + INV_SQRT2, SQRT2 * k[1] + INV_SQRT2)


def disk_table_dict(table) -> dict:
    """A ``fastcover.DiskTable`` as ``{(i, j): (xmin, ymin, xmax, ymax)}``,
    in the table's order."""
    if not len(table):
        return {}
    # a grid-disk center is (i + 1/2, j + 1/2) * sqrt(2), to within rounding
    ij = np.floor(table.cells.center[table.disks] / SQRT2).astype(int)
    return dict(zip(map(tuple, ij.tolist()), zip(*table.box.tolist())))


def optimal_cover_exhaustive(points) -> int:
    """Minimum cover size by exhaustive enumeration over candidate-disk
    subsets, smallest size first. Reference for ``optimal_cover``'s
    integer program, with its own candidates: the points, and the
    centers of the unit circles through each pair at most 2 apart. Some
    minimum cover has every disk at one of them: a disk that covers two
    or more points can slide until two of them lie on its circle."""
    pts = [complex(x, y) for x, y in as_points(points).tolist()]
    n = len(pts)
    if n == 0:
        return 0
    cands = list(pts)
    for a, b in itertools.combinations(pts, 2):
        d = abs(b - a)
        if 0 < d <= 2:
            # from the midpoint, perpendicular to ab, to either center
            h = (b - a) / d * 1j * math.sqrt(max(0.0, 1 - d * d / 4))
            cands += [(a + b) / 2 + h, (a + b) / 2 - h]
    masks = {sum(1 << i for i, p in enumerate(pts) if abs(p - c) <= 1 + 1e-9) for c in cands}
    full = (1 << n) - 1
    for size in range(1, n + 1):
        for combo in itertools.combinations(masks, size):
            acc = 0
            for m in combo:
                acc |= m
            if acc == full:
                return size
    raise AssertionError("point-centered disks always cover")


# Worst-case input: seven points inside one unit disk that straddle a
# grid corner so that each lands in a different cell. A single disk
# covers them; the grid algorithm places seven.
_CORNER_SEVEN: tuple[Point, ...] = (
    (0.6, 0.70710678),    # own cell (0, 0)
    (-0.01, 0.70710678),  # west cell
    (1.4243, 0.70710678),  # east cell
    (0.6, 1.4243),        # north cell
    (0.6, -0.01),         # south cell
    (-0.01, 1.4243),      # northwest cell
    (-0.01, -0.01),       # southwest cell
)


def worst_case_pointset(copies: int = 1, spacing: float = 3.0) -> list[Point]:
    """``copies`` translated copies of the 7-point worst case, each
    shifted right by ``spacing`` relative to the previous one.

    With grid-aligned spacing (a multiple of sqrt(2), at least
    3*sqrt(2)) every copy reproduces the 7-cell pattern exactly.
    """
    out: list[Point] = []
    for k in range(copies):
        dx = spacing * k
        out.extend((x + dx, y) for x, y in _CORNER_SEVEN)
    return out
