import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import udcover
from sweep_reference import _Anchor, _AnchorIndex, nearest_anchor_scan, stab_segments
from udcover.geom import HALF_SQRT3, SQRT3
from udcover.oracle import verify_cover
from udcover.sweep import blms2017, blms2017_raw, ll2014, ll2014_1p


def rand_points(n, side, seed):
    rnd = random.Random(seed)
    return [(rnd.uniform(0, side), rnd.uniform(0, side)) for _ in range(n)]


def test_stab_nested_segments():
    # y = 1 lies in both
    stabs = stab_segments(0.0, [(4.0, 0.0), (2.0, 1.0)])
    assert stabs == [(0.0, 1.0)]
    stabs = stab_segments(0.0, [(2.0, 0.0), (1.5, 0.5)])
    assert stabs == [(0.0, 0.5)]


def test_stab_shared_point():
    # both segments contain y=1, one stab suffices
    stabs = stab_segments(0.0, [(3.0, 1.0), (1.0, 0.0)])
    assert stabs == [(0.0, 1.0)]


def test_stab_disjoint():
    stabs = stab_segments(0.0, [(1.0, 0.0), (3.0, 2.0)])
    assert stabs == [(0.0, 2.0), (0.0, 0.0)]


def test_stab_tie_on_top_needs_one_stab():
    # the higher bottom comes first and its stab lies in both
    stabs = stab_segments(0.0, [(2.0, 1.5), (2.0, 0.5)])
    assert stabs == [(0.0, 1.5)]


def test_ll_single_point():
    pts = [(0.5, 0.0)]
    cover = ll2014(pts, passes=1)
    assert len(cover) == 1
    cx, cy = cover[0]
    assert abs(cx - (0.5 + HALF_SQRT3)) < 1e-9
    assert abs(cy - (-0.5)) < 1e-9
    # the point sits exactly on the disk boundary
    assert abs(math.hypot(cx - 0.5, cy - 0.0) - 1.0) < 1e-12
    assert verify_cover(pts, cover).valid


def test_ll_same_x_small_gap_shares_disk():
    pts = [(0.5, 0.0), (0.5, 0.9)]
    assert len(ll2014(pts, passes=1)) == 1


def test_ll_passes_validated():
    with pytest.raises(ValueError):
        ll2014([(0.0, 0.0)], passes=2)


def test_ll_six_passes_never_worse():
    for seed in range(5):
        pts = rand_points(250, 10.0, seed)
        six = ll2014(pts, passes=6)
        one = ll2014_1p(pts)
        assert len(six) <= len(one)
        assert verify_cover(pts, six).valid
        assert verify_cover(pts, one).valid


def test_ll_collinear_column():
    # a vertical run of close points needs one disk
    pts = [(0.0, y / 10.0) for y in range(10)]
    cover = ll2014(pts)
    assert len(cover) == 1
    assert verify_cover(pts, cover).valid


def test_ll_huge_x_returns():
    # the strip walk once looped forever from |x| = 2^54
    code = """
from udcover import ll2014, verify_cover
for pts in ([(1e17, 0.0)], [(1e20, 0.0), (3e20, 0.0)]):
    print(verify_cover(pts, ll2014(pts)).valid)
"""
    src = str(Path(udcover.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env, timeout=60).stdout
    assert out.split() == ["True", "True"], out


def test_ll_point_off_its_midline_raises():
    # the midline of the strip of x = 1.3e16 rounds more than 1 away
    # from the point (in pass 0), and that of x = 1e16 in a later pass
    for pts, passes in [([(0.0, 0.0), (1.3e16, 0.0)], 1),
                        ([(0.0, 0.0), (1e16, 0.0)], 6)]:
        with pytest.raises(ValueError):
            ll2014(pts, passes=passes)


def test_anchor_quad_layout():
    # center, right, upper, lower
    assert blms2017_raw([(1.0, 2.0)]) == [
        (1.0, 2.0),
        (1.0 + SQRT3, 2.0),
        (1.0 + HALF_SQRT3, 3.5),
        (1.0 + HALF_SQRT3, 0.5),
    ]


def test_anchor_index_matches_linear_scan():
    # the index behind the per-point reference sweep
    rnd = random.Random(11)
    xs = sorted(rnd.uniform(0, 30) for _ in range(120))
    anchors = [(x, rnd.uniform(0, 30)) for x in xs]
    index = _AnchorIndex()
    plain = []
    for i, (x, y) in enumerate(anchors):
        # interleave queries with insertions, all at nondecreasing x
        q = (x + rnd.uniform(0, 0.2), rnd.uniform(0, 30))
        got = index.nearest(q)
        want = nearest_anchor_scan(plain, q)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.idx == want
        index.add(_Anchor(x, y, i))
        plain.append((x, y))


def test_blms_raw_is_four_per_anchor():
    pts = rand_points(200, 12.0, 3)
    raw = blms2017_raw(pts)
    assert len(raw) % 4 == 0
    assert len(blms2017(pts)) <= len(raw)
    assert verify_cover(pts, blms2017(pts)).valid
    assert verify_cover(pts, raw).valid


def test_blms_single_point():
    assert blms2017([(2.0, 3.0)]) == [(2.0, 3.0)]
    assert len(blms2017_raw([(2.0, 3.0)])) == 4


def test_blms_separated_points():
    rnd = random.Random(4)
    pts = []
    while len(pts) < 30:
        c = (rnd.uniform(0, 50), rnd.uniform(0, 50))
        if all((c[0] - q[0]) ** 2 + (c[1] - q[1]) ** 2 > 4.0 for q in pts):
            pts.append(c)
    assert len(blms2017(pts)) == len(pts)
    assert len(blms2017_raw(pts)) == 4 * len(pts)


def test_blms_elimination_only_drops_empty_disks():
    pts = rand_points(300, 10.0, 8)
    kept = set(blms2017(pts))
    raw = set(blms2017_raw(pts))
    assert kept <= raw


def test_blms_point_on_quad_boundary_gets_own_disk():
    # (1024, 2) is exactly 2 above its anchor, on the boundary of the
    # upper quad disk, and 1024 + sqrt(3)/2 rounds so that it falls
    # outside; it gets a disk at its own position, after the quad disks
    pts = [(1024.0, 0.0), (1024.0, 2.0)]
    cover = blms2017(pts)
    assert cover == [(1024.0, 0.0), (1024.0, 2.0)]
    assert verify_cover(pts, cover).valid
    assert len(blms2017_raw(pts)) == 4
    lattice = [(1024.0 + 2.0 * i, 1024.0 + 2.0 * j)
               for i in range(8) for j in range(8)]
    assert verify_cover(lattice, blms2017(lattice)).valid
