import math
import random

import numpy as np
import pytest

from reference import disk_table_dict, grid_disk_center, worst_case_pointset
from udcover import fastcover
from udcover.fastcover import (
    _GATE_FAR,
    _GATE_NEAR,
    build_disk_table,
    coalesce_pass,
    fast_cover,
    fast_cover_plus,
    fast_cover_pp,
)
from udcover.geom import COORD_BOUND, INV_SQRT2, SQRT2
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
    # cells at the corners of the domain, and next to each other across the
    # top and bottom of the cells' bounding box: every key is distinct
    top = math.nextafter(COORD_BOUND, 0.0)
    pts = [(x, y) for x in (-top, top) for y in (-top, top)]
    pts += [(0.5, top), (0.5 + SQRT2, -top), (0.5 - SQRT2, top)]
    cover = fast_cover(pts)
    assert len(cover) == 7
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
    assert len(table) > 0
    for key, box in disk_table_dict(table).items():
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


def test_fast_cover_pp_is_the_two_stages(monkeypatch):
    # coalesce_pass is the cover of _coalesce, the stage that fast_cover_pp
    # runs so that it also knows where each disk went
    calls = []

    def counted(stage):
        def wrapper(arg):
            calls.append(stage.__name__)
            return stage(arg)
        return wrapper

    monkeypatch.setattr(fastcover, "build_disk_table", counted(build_disk_table))
    monkeypatch.setattr(fastcover, "_coalesce", counted(fastcover._coalesce))
    fast_cover_pp(rand_points(200, 10.0, 7))
    assert calls == ["build_disk_table", "_coalesce"]
    coalesce_pass(build_disk_table([(0.1, 0.1)]))
    assert calls[2:] == ["_coalesce"]


def test_empty_disk_table():
    table = build_disk_table([])
    assert len(table) == 0 and disk_table_dict(table) == {}
    first, second = coalesce_pass(table), coalesce_pass(table)
    assert first.shape == (0, 2) and first.dtype == np.float64 and first is not second


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
    # floor(x / sqrt(2)) past 2^63 would wrap to a disk at x = -1.3e19;
    # the coordinate bound raises from 2^22 on
    edge = math.ldexp(1.0, 63) * SQRT2
    for solver in (fast_cover, fast_cover_plus, fast_cover_pp, build_disk_table):
        for pts in ([(1e20, 0.0), (3e20, 0.0)], [(0.5, -1e20)],
                    [(edge, 0.0)], [(0.0, -math.nextafter(edge, math.inf))],
                    [(COORD_BOUND, 0.0)], [(0.0, -COORD_BOUND)]):
            with pytest.raises(ValueError, match="2\\^22"):
                solver(pts)
        # the largest coordinates below the bound still work
        top = math.nextafter(COORD_BOUND, 0.0)
        assert len(solver([(top, -top)])) == 1


@pytest.mark.parametrize("side", [50.0, 5e5])
def test_cells_number_each_point_only_where_a_caller_reads_it(side):
    # fast_cover's radix path (a key box of at most 2^16 cells) reads each
    # point's cell only for its witness; the argsort path needs it for the
    # earliest point
    pts = np.random.default_rng(3).random((3000, 2)) * side
    floor = np.floor(pts / SQRT2)
    cells = fastcover._Cells(floor)
    assert ("id" in vars(cells)) is (side > 1e3)
    _, first, cell = np.unique(floor, axis=0, return_index=True, return_inverse=True)
    assert cells.id.tolist() == cell.ravel().tolist()
    assert cells.first.tolist() == first.tolist()
