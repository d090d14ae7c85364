import math
import random

from udcover.classic import HEX_OFFSETS, CcfmState, ccfm1997, dgt2018, g1991
from udcover.geom import HALF_SQRT2, HALF_SQRT3, SQRT2, SQRT3
from udcover.oracle import verify_cover


def rand_points(n, side, seed):
    rnd = random.Random(seed)
    return [(rnd.uniform(0, side), rnd.uniform(0, side)) for _ in range(n)]


def test_g1991_single_point():
    cover = g1991([(0.2, 0.3)])
    assert len(cover) == 1
    cx, cy = cover[0]
    assert abs(cx - (0.2 + HALF_SQRT2)) < 1e-12
    assert abs(cy - 0.5 * SQRT2) < 1e-12


def test_g1991_greedy_square_reuse():
    # three points in one strip: first two share a square, third does not
    pts = [(0.0, 0.1), (1.0, 0.2), (2.0, 0.1)]
    cover = g1991(pts)
    assert len(cover) == 2
    assert verify_cover(pts, cover).valid


def test_g1991_square_interval_closed():
    pts = [(0.0, 0.0), (SQRT2, 0.0)]
    assert len(g1991(pts)) == 1


def test_g1991_strips_independent():
    pts = [(0.0, 0.1), (0.0, 0.1 + SQRT2)]
    assert len(g1991(pts)) == 2


class _Inserted(list):
    """Stands in for the candidate grid: records each insert in order."""

    def insert(self, p):
        self.append(p)


def _spawned(p):
    """The candidates that activating p spawns, in insertion order."""
    state = CcfmState()
    state.inactive = _Inserted()
    state.activate(p)
    return list(state.inactive)


def test_ccfm_spawn_geometry():
    spawns = _spawned((0.0, 0.0))
    assert len(spawns) == 6
    for sx, sy in spawns:
        assert abs(math.hypot(sx, sy) - SQRT3) < 1e-12
    assert (SQRT3, 0.0) in spawns
    assert (-SQRT3, 0.0) in spawns


def test_ccfm_spawn_order_is_the_tie_order():
    # the grid loop inserts the candidates in this order, so the rounds
    # break a tie at equal distance by (owner row, k) with k this index
    assert HEX_OFFSETS == ((SQRT3, -0.0), (HALF_SQRT3, 1.5), (HALF_SQRT3, -1.5),
                           (-HALF_SQRT3, 1.5), (-SQRT3, -0.0), (-HALF_SQRT3, -1.5))
    p = (2.5, -0.0)
    spawns = _spawned(p)
    assert spawns == [(p[0] + dx, p[1] + dy) for dx, dy in HEX_OFFSETS]
    # y + -0.0 keeps the sign of y = -0.0, as (x + sqrt(3), y) did
    assert math.copysign(1.0, spawns[0][1]) == math.copysign(1.0, spawns[4][1]) == -1.0


def test_empty_pattern_spawns_no_candidates():
    # dgt2018's pattern: activating a point only places it
    state = CcfmState(())
    state.activate((0.5, 0.5))
    assert state.active_order == [(0.5, 0.5)]
    assert all(state.inactive.nearest_within((0.5 + dx, 0.5 + dy), 1.0) is None
               for dx, dy in HEX_OFFSETS)
    state.take([[1.5, 0.5], [2.75, 0.5]])
    assert state.active_order == [(0.5, 0.5), (2.75, 0.5)]


def test_ccfm_first_point_opens_disk_at_itself():
    cover = ccfm1997([(1.0, 2.0)])
    assert cover.tolist() == [[1.0, 2.0]]


def test_ccfm_promotes_spawned_disk():
    # second point lands within 1 of a spawned inactive center
    p0 = (0.0, 0.0)
    p1 = (SQRT3, 0.1)
    cover = ccfm1997([p0, p1])
    assert cover.tolist() == [list(p0), [SQRT3, 0.0]]


def test_ccfm_reuses_active_disk():
    cover = ccfm1997([(0.0, 0.0), (0.5, 0.5)])
    assert cover.tolist() == [[0.0, 0.0]]


def test_dgt_single_and_reuse():
    assert dgt2018([(3.0, 4.0)]).tolist() == [[3.0, 4.0]]
    assert dgt2018([(0.0, 0.0), (0.6, 0.6)]).tolist() == [[0.0, 0.0]]
    assert dgt2018([(0.0, 0.0), (1.0, 0.0)]).tolist() == [[0.0, 0.0]]


def test_dgt_opens_second_disk_past_radius():
    cover = dgt2018([(0.0, 0.0), (1.5, 0.0)])
    assert cover.tolist() == [[0.0, 0.0], [1.5, 0.0]]


def test_all_valid_on_random():
    for seed in range(4):
        pts = rand_points(300, 12.0, seed)
        for alg in (g1991, ccfm1997, dgt2018):
            cover = alg(pts)
            assert verify_cover(pts, cover).valid, alg.__name__


def test_separated_points_get_one_disk_each():
    rnd = random.Random(9)
    pts = []
    while len(pts) < 40:
        c = (rnd.uniform(0, 60), rnd.uniform(0, 60))
        if all((c[0] - q[0]) ** 2 + (c[1] - q[1]) ** 2 > 4.0 for q in pts):
            pts.append(c)
    assert len(dgt2018(pts)) == len(pts)
    assert len(g1991(pts)) == len(pts)
