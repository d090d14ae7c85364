import math
import random

import numpy as np
import pytest

from reference import grid_disk_center
from udcover.fastcover import (
    _GATE_FAR,
    _GATE_NEAR,
    build_disk_table,
    coalesce_pass,
    fast_cover,
    fast_cover_plus,
    fast_cover_pp,
    worst_case_pointset,
)
from udcover.geom import INV_SQRT2, SQRT2
from udcover.oracle import verify_cover


def rand_points(n, side, seed):
    rnd = random.Random(seed)
    return [(rnd.uniform(0, side), rnd.uniform(0, side)) for _ in range(n)]


def occupied_cells(points):
    return len(np.unique(np.floor(np.asarray(points) / SQRT2), axis=0))


def test_fast_cover_single_point():
    cover = fast_cover([(0.3, 0.3)])
    assert cover.tolist() == [list(grid_disk_center((0, 0)))]


def test_fast_cover_one_disk_per_occupied_cell():
    pts = rand_points(500, 20.0, 1)
    cover = fast_cover(pts)
    assert len(cover) == occupied_cells(pts)
    assert verify_cover(pts, cover).valid


def test_fast_cover_cells_are_half_open_with_floor():
    # lower edge included, upper edge excluded, on both axes; negative
    # coordinates round down, never toward zero
    for p, cell in [((0.0, 0.0), (0, 0)), ((1.0, 1.0), (0, 0)),
                    ((SQRT2, 0.0), (1, 0)), ((0.0, SQRT2), (0, 1)),
                    ((-0.1, -0.1), (-1, -1)), ((2.9, 0.1), (2, 0))]:
        assert fast_cover([p]).tolist() == [list(grid_disk_center(cell))]


def test_fast_cover_cells_far_apart_do_not_collide():
    # 2^32 rows apart: these cells once shared a packed 64-bit key
    y = 3.1e9
    pts = [(0.5, y), (0.5, y - 2**32 * SQRT2)]
    cover = fast_cover(pts)
    assert len(cover) == 2
    assert verify_cover(pts, cover).valid


def test_fast_cover_order_insensitive_as_set():
    pts = rand_points(120, 8.0, 2)
    a = set(map(tuple, fast_cover(pts).tolist()))
    b = set(map(tuple, fast_cover(list(reversed(pts))).tolist()))
    assert a == b


def test_neighbor_threshold_gates():
    # the gate lines of cell (0, 0) lie 1 inside its E/N and W/S
    # neighbors' disk centers: no point short of them is within reach
    assert math.isclose(_GATE_FAR, grid_disk_center((1, 0))[0] - 1.0)
    assert math.isclose(_GATE_NEAR, grid_disk_center((-1, 0))[0] + 1.0)
    # point near the east wall of cell (0,0) passes the east gate only
    x, y = SQRT2 - 1e-6, INV_SQRT2
    assert x >= _GATE_FAR
    assert not x <= _GATE_NEAR
    assert not y >= _GATE_FAR
    assert not y <= _GATE_NEAR
    # cell-center point passes no gate
    q = INV_SQRT2
    assert not q >= _GATE_FAR
    assert not q <= _GATE_NEAR


def test_fast_cover_plus_reuses_west_neighbor():
    # second point sits in cell (1,0) but within distance 1 of the first
    # point's disk center, so no second disk is opened
    pts = [(0.1, 0.1), (SQRT2 + 0.05, 0.1)]
    cover = fast_cover_plus(pts)
    assert cover.tolist() == [list(grid_disk_center((0, 0)))]


def test_fast_cover_plus_never_worse_than_fast_cover():
    for seed in range(5):
        pts = rand_points(400, 15.0, seed)
        assert len(fast_cover_plus(pts)) <= len(fast_cover(pts))
        assert verify_cover(pts, fast_cover_plus(pts)).valid


def test_disk_table_boxes_bound_their_points():
    pts = rand_points(300, 12.0, 3)
    table = build_disk_table(pts)
    for key, box in table.items():
        cx, cy = grid_disk_center(key)
        # every boxed point was assigned to this disk, so the box stays
        # inside the disk's bounding square
        xmin, ymin, xmax, ymax = box
        for corner_x in (xmin, xmax):
            assert abs(corner_x - cx) <= 1.0 + 1e-9
        for corner_y in (ymin, ymax):
            assert abs(corner_y - cy) <= 1.0 + 1e-9


def test_coalesce_two_nearby_disks():
    cover = fast_cover_pp([(0.1, 0.1), (2.0, 0.1)])
    assert cover.tolist() == [[1.05, 0.1]]


def test_coalesce_respects_diameter():
    # points 2.2 apart cannot share a unit disk
    pts = [(0.0, 0.0), (2.2, 0.0)]
    cover = fast_cover_pp(pts)
    assert len(cover) == 2
    assert verify_cover(pts, cover).valid


def test_fast_cover_pp_never_worse_than_plus():
    for seed in range(5):
        pts = rand_points(400, 15.0, seed + 10)
        pp = fast_cover_pp(pts)
        assert len(pp) <= len(fast_cover_plus(pts))
        assert verify_cover(pts, pp).valid


def test_coalesce_pass_keeps_singletons():
    table = build_disk_table([(0.1, 0.1), (10.0, 10.0)])
    cover = coalesce_pass(table)
    assert len(cover) == 2


def test_worst_case_pointset_shape():
    q = worst_case_pointset(1)
    assert len(q) == 7
    # diameter at most 2: the whole gadget fits in one unit disk
    dmax = max(
        math.dist(a, b) for a in q for b in q
    )
    assert dmax <= 2.0
    assert occupied_cells(q) == 7
    assert len(fast_cover(q)) == 7


def test_worst_case_pointset_copies():
    q3 = worst_case_pointset(3)
    assert len(q3) == 21
    xs1 = sorted(p[0] for p in worst_case_pointset(1))
    xs3 = sorted(p[0] for p in q3)
    assert abs(xs3[-1] - (xs1[-1] + 6.0)) < 1e-12


def test_plus_and_pp_reject_non_finite_points():
    for bad in (math.nan, math.inf, -math.inf):
        for solver in (fast_cover_plus, fast_cover_pp, build_disk_table):
            with pytest.raises(ValueError):
                solver([(0.5, 0.5), (bad, 1.0)])


def test_cells_past_int64_raise():
    # floor(x / sqrt(2)) past 2^63 once wrapped to a disk at x = -1.3e19
    edge = math.ldexp(1.0, 63) * SQRT2
    for solver in (fast_cover, fast_cover_plus, fast_cover_pp):
        for pts in ([(1e20, 0.0), (3e20, 0.0)], [(0.5, -1e20)],
                    [(edge, 0.0)], [(0.0, -math.nextafter(edge, math.inf))]):
            with pytest.raises(ValueError):
                solver(pts)
        # the largest cell index below 2^63 still works
        pts = [(math.nextafter(edge, 0.0), 0.0)]
        assert len(solver(pts)) == 1
