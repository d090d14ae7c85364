"""fast_cover_plus, build_disk_table, coalesce_pass and fast_cover_pp
against the per-point and per-key loops they replaced, on generated point
sets."""

import copy
import math

import numpy as np
import pytest

from reference import grid_disk_center
from udcover.fastcover import (
    build_disk_table,
    coalesce_pass,
    fast_cover_plus,
    fast_cover_pp,
    worst_case_pointset,
)
from udcover.geom import INV_SQRT2, SQRT2

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


# ---------------------------------------------------------------------------
# The loops fastcover+ and fastcover++ ran before the array placement pass:
# the references that the array pass must match exactly.

_REF_GATE_FAR = 1.5 * SQRT2 - 1.0
_REF_GATE_NEAR = 1.0 - 0.5 * SQRT2

_REF_NEIGHBORS_8 = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


def _ref_as_array(points):
    arr = np.asarray(points, dtype=np.float64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    return arr.reshape(-1, 2)


def _ref_point_list(points):
    if isinstance(points, np.ndarray):
        return points.reshape(-1, 2).tolist() if points.size else []
    return list(points)


def reference_fast_cover_plus(points):
    placed = set()
    centers = []
    floor = math.floor
    for x, y in _ref_point_list(points):
        i = floor(x / SQRT2)
        j = floor(y / SQRT2)
        if (i, j) in placed:
            continue
        if x >= SQRT2 * (i + 1.5) - 1.0 and (i + 1, j) in placed:
            dx = x - (SQRT2 * (i + 1) + INV_SQRT2)
            dy = y - (SQRT2 * j + INV_SQRT2)
            if dx * dx + dy * dy <= 1.0:
                continue
        if x <= SQRT2 * (i - 0.5) + 1.0 and (i - 1, j) in placed:
            dx = x - (SQRT2 * (i - 1) + INV_SQRT2)
            dy = y - (SQRT2 * j + INV_SQRT2)
            if dx * dx + dy * dy <= 1.0:
                continue
        if y >= SQRT2 * (j + 1.5) - 1.0 and (i, j + 1) in placed:
            dx = x - (SQRT2 * i + INV_SQRT2)
            dy = y - (SQRT2 * (j + 1) + INV_SQRT2)
            if dx * dx + dy * dy <= 1.0:
                continue
        if y <= SQRT2 * (j - 0.5) + 1.0 and (i, j - 1) in placed:
            dx = x - (SQRT2 * i + INV_SQRT2)
            dy = y - (SQRT2 * (j - 1) + INV_SQRT2)
            if dx * dx + dy * dy <= 1.0:
                continue
        placed.add((i, j))
        centers.append((SQRT2 * i + INV_SQRT2, SQRT2 * j + INV_SQRT2))
    return centers


class _Box:
    """The loop's mutable bounding box; iterates as the library's
    (xmin, ymin, xmax, ymax) tuples do."""

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, xmin, ymin, xmax, ymax):
        self.xmin = xmin
        self.ymin = ymin
        self.xmax = xmax
        self.ymax = ymax

    def add(self, p):
        x, y = p
        if x < self.xmin:
            self.xmin = x
        elif x > self.xmax:
            self.xmax = x
        if y < self.ymin:
            self.ymin = y
        elif y > self.ymax:
            self.ymax = y

    def __iter__(self):
        return iter((self.xmin, self.ymin, self.xmax, self.ymax))


def reference_build_disk_table(points):
    arr = _ref_as_array(points)
    n = arr.shape[0]
    table = {}
    if n == 0:
        return table
    cells = np.floor(arr / SQRT2).astype(np.int64)
    gx = cells[:, 0] * SQRT2
    gy = cells[:, 1] * SQRT2
    east = (arr[:, 0] >= gx + _REF_GATE_FAR).tolist()
    west = (arr[:, 0] <= gx + _REF_GATE_NEAR).tolist()
    north = (arr[:, 1] >= gy + _REF_GATE_FAR).tolist()
    south = (arr[:, 1] <= gy + _REF_GATE_NEAR).tolist()
    xs = arr[:, 0].tolist()
    ys = arr[:, 1].tolist()
    ii = cells[:, 0].tolist()
    jj = cells[:, 1].tolist()
    keys = list(zip(ii, jj))
    get = table.get
    for x, y, i, j, key, e, w, nb, s in zip(
            xs, ys, ii, jj, keys, east, west, north, south):
        box = get(key)
        if box is not None:
            if x < box.xmin:
                box.xmin = x
            elif x > box.xmax:
                box.xmax = x
            if y < box.ymin:
                box.ymin = y
            elif y > box.ymax:
                box.ymax = y
            continue
        if e:
            box = get((i + 1, j))
            if box is not None:
                dx = x - (SQRT2 * (i + 1) + INV_SQRT2)
                dy = y - (SQRT2 * j + INV_SQRT2)
                if dx * dx + dy * dy <= 1.0:
                    box.add((x, y))
                    continue
        if w:
            box = get((i - 1, j))
            if box is not None:
                dx = x - (SQRT2 * (i - 1) + INV_SQRT2)
                dy = y - (SQRT2 * j + INV_SQRT2)
                if dx * dx + dy * dy <= 1.0:
                    box.add((x, y))
                    continue
        if nb:
            box = get((i, j + 1))
            if box is not None:
                dx = x - (SQRT2 * i + INV_SQRT2)
                dy = y - (SQRT2 * (j + 1) + INV_SQRT2)
                if dx * dx + dy * dy <= 1.0:
                    box.add((x, y))
                    continue
        if s:
            box = get((i, j - 1))
            if box is not None:
                dx = x - (SQRT2 * i + INV_SQRT2)
                dy = y - (SQRT2 * (j - 1) + INV_SQRT2)
                if dx * dx + dy * dy <= 1.0:
                    box.add((x, y))
                    continue
        table[key] = _Box(x, y, x, y)
    return table


def reference_coalesce_pass(table):
    """Mutates ``table``, as the loop did."""
    merged = []
    get = table.get
    for key in sorted(table):
        box = get(key)
        if box is None:
            continue
        i, j = key
        xmin = box.xmin
        ymin = box.ymin
        xmax = box.xmax
        ymax = box.ymax
        for di, dj in _REF_NEIGHBORS_8:
            other_key = (i + di, j + dj)
            other = get(other_key)
            if other is None:
                continue
            ux0 = xmin if xmin < other.xmin else other.xmin
            uy0 = ymin if ymin < other.ymin else other.ymin
            ux1 = xmax if xmax > other.xmax else other.xmax
            uy1 = ymax if ymax > other.ymax else other.ymax
            dx = ux1 - ux0
            dy = uy1 - uy0
            if dx * dx + dy * dy <= 4.0:
                del table[key]
                del table[other_key]
                merged.append(((ux0 + ux1) / 2.0, (uy0 + uy1) / 2.0))
                break
    merged.extend(grid_disk_center(k) for k in sorted(table))
    return merged


# ---------------------------------------------------------------------------
# Exact comparison: float.hex tells -0.0 from 0.0 and every last bit.

def _bits(cover):
    return [(float(x).hex(), float(y).hex()) for x, y in cover]


def _table_bits(table):
    return [(key, tuple(float(v).hex() for v in box)) for key, box in table.items()]


# ---------------------------------------------------------------------------
# Point sets: coordinates near a few cells, on cell edges, gate lines, disk
# centers, a quarter grid and signed zeros, nudged by up to 2 ulps; with
# duplicates, and optionally shifted to |y| ~ 3.1e9 (where fast_cover's
# packed key collides) or spread over an x-span of 1e12.

_KINDS = ("free", "edge", "gate", "old_gate", "center", "quarter", "zero")


@st.composite
def _coord(draw, reach, kinds):
    i = draw(st.integers(-reach, reach))
    kind = draw(st.sampled_from(kinds))
    if kind == "free":
        v = draw(st.floats(-SQRT2 * reach, SQRT2 * (reach + 1)))
    elif kind == "edge":
        v = i * SQRT2
    elif kind == "gate":
        v = i * SQRT2 + draw(st.sampled_from([_REF_GATE_FAR, _REF_GATE_NEAR]))
    elif kind == "old_gate":
        v = draw(st.sampled_from([SQRT2 * (i + 1.5) - 1.0, SQRT2 * (i - 0.5) + 1.0]))
    elif kind == "center":
        v = SQRT2 * i + INV_SQRT2
    elif kind == "quarter":
        v = draw(st.integers(-6 * reach, 6 * reach)) / 4.0
    else:
        v = draw(st.sampled_from([0.0, -0.0]))
    ulps = draw(st.integers(-2, 2))
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


@st.composite
def _points(draw, kinds=_KINDS):
    reach = draw(st.sampled_from([1, 2, 4]))  # cells -reach .. reach per axis
    coord = _coord(reach, kinds)
    pts = draw(st.lists(st.tuples(coord, coord), max_size=40))
    if pts:
        pts += draw(st.lists(st.sampled_from(pts), max_size=10))
        pts = draw(st.permutations(pts))
    arr = np.array(pts, dtype=np.float64).reshape(-1, 2)
    placement = draw(st.sampled_from(["near", "high", "low", "wide"]))
    if placement == "high":
        arr[:, 1] += 3.1e9
    elif placement == "low":
        arr[:, 1] -= 3.1e9
    elif placement == "wide" and len(arr):
        far = draw(st.lists(st.booleans(), min_size=len(arr), max_size=len(arr)))
        arr[np.array(far), 0] += 1e12
    return arr


def _center(k):
    return SQRT2 * k + INV_SQRT2


_CORNER = -4 * SQRT2
_BELOW_CORNER = math.nextafter(_CORNER, -math.inf)
_EXAMPLES = [np.array(worst_case_pointset(c, s), dtype=np.float64)
             for c, s in ((1, 3.0), (3, 3.0), (3, 3 * SQRT2), (4, 2.0))] + [
    # signed zeros in one box: the box keeps the first of equal values
    np.array([(0.0, 0.5), (-0.0, 0.6), (0.5, -0.0), (0.6, 0.0), (-0.0, -0.0)]),
    np.array([(-0.0, 0.5), (0.0, 0.6), (0.5, 0.0), (0.6, -0.0), (0.0, 0.0)]),
    # a cell corner within reach of two placed neighbors: W before S, and
    # (one ulp lower, in the cell below-left) E before N
    np.array([(_center(-5), _center(-4)), (_center(-4), _center(-5)),
              (_CORNER, _CORNER), (_center(-4), _center(-4))]),
    np.array([(_center(-4), _center(-5)), (_center(-5), _center(-4)),
              (_BELOW_CORNER, _BELOW_CORNER), (_center(-5), _center(-5))]),
]


def _examples(test):
    for pts in _EXAMPLES:
        test = example(pts=pts)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(pts=_points())
@_examples
def test_build_disk_table_matches_loop(pts):
    assert _table_bits(build_disk_table(pts)) == _table_bits(reference_build_disk_table(pts))


@settings(max_examples=300, deadline=None)
@given(pts=_points())
@_examples
def test_fast_cover_pp_matches_loop(pts):
    assert _bits(fast_cover_pp(pts)) == _bits(reference_coalesce_pass(reference_build_disk_table(pts)))


@settings(max_examples=300, deadline=None)
@given(pts=_points())
@_examples
def test_coalesce_pass_of_table_is_fast_cover_pp_and_keeps_table(pts):
    table = build_disk_table(pts)
    before = copy.deepcopy(table)
    assert _bits(coalesce_pass(table)) == _bits(fast_cover_pp(pts))
    assert _table_bits(table) == _table_bits(before)


@settings(max_examples=300, deadline=None)
@given(pts=_points())
@_examples
def test_fast_cover_plus_places_the_disk_table(pts):
    placed = [grid_disk_center(k) for k in reference_build_disk_table(pts)]
    assert _bits(fast_cover_plus(pts)) == _bits(placed)


@settings(max_examples=300, deadline=None)
@given(pts=_points(kinds=("free", "edge", "center", "quarter", "zero")))
@_examples
def test_fast_cover_plus_matches_loop_off_gate_lines(pts):
    assert _bits(fast_cover_plus(pts)) == _bits(reference_fast_cover_plus(pts))


def test_fast_cover_plus_gate_line_follows_disk_table():
    # The old fastcover+ loop wrote its E gate as sqrt2 * (i + 1.5) - 1 and
    # the disk table as i * sqrt2 + _GATE_FAR. For cell i = -1 they round
    # to different sides of this x, which lies exactly 1 from the east
    # neighbor's center: the loop reused that disk, the table (and so
    # fastcover++) did not. Both solvers now place disks one way.
    x = -0.2928932188134524
    pts = np.array([[INV_SQRT2, INV_SQRT2], [x, INV_SQRT2]])
    assert len(reference_fast_cover_plus(pts)) == 1
    assert len(reference_build_disk_table(pts)) == 2
    assert fast_cover_plus(pts).tolist() == [list(grid_disk_center((0, 0))),
                                             list(grid_disk_center((-1, 0)))]
