"""dgt2018 and ccfm1997 against the plain loops of ``classic_reference``.

dgt2018 computes its cover, where the sampled degree is low, as the first
maximal independent set of the grid-probe graph, in numpy rounds over one
cKDTree pair list; elsewhere both solvers drop, with one cKDTree query per
block, the points an earlier center already covers, and ccfm1997 puts the
lone points (no other point within its reach) straight into the cover.
The covers must stay bit-equal to the plain loops, and dgt2018's on either
path, on lattices with points at exactly distance 1, duplicates, sorted
input and lines that stall the rounds, sizes at the block edges and of 0-2
points, sparse/dense mixes that switch the trees on and off, sets just
either side of the path threshold, pairs at exactly the reach give or take
an ulp, and offsets up to 2^30 (2^52 for the pairs).
"""

import math
from unittest import mock

import numpy as np
import pytest

import udcover.classic as classic
from classic_reference import reference_ccfm1997, reference_dgt2018
from udcover.classic import ccfm1997, dgt2018
from udcover.generators import gen_disk, gen_square
from udcover.geom import HALF_SQRT3

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

PAIRS = [(dgt2018, reference_dgt2018), (ccfm1997, reference_ccfm1997)]
EDGE_SIZES = [255, 256, 257, 511, 512, 513]


def _bits(cover):
    return np.asarray(cover, np.float64).reshape(-1, 2).tobytes()


def _assert_same(pts, first_block=classic._FIRST_BLOCK):
    with mock.patch.object(classic, "_FIRST_BLOCK", first_block):
        for solver, reference in PAIRS:
            assert _bits(solver(pts)) == _bits(reference(pts)), solver.__name__
        # dgt2018 on either path, whichever the sample picks: a threshold of
        # 0 sends every input of 2 or more points to the grid, inf to the pairs
        expected = _bits(reference_dgt2018(pts))
        for degree in (0.0, math.inf):
            with mock.patch.object(classic, "_MIS_DEGREE", degree):
                assert _bits(dgt2018(pts)) == expected, degree


_OFFSET = st.one_of(
    st.sampled_from([0.0, -0.0, -7.25, 2.0**30, -(2.0**30), 2.0**30 + 0.5]),
    st.integers(-30, 30).map(lambda k: math.copysign(2.0 ** abs(k), k)),
    st.floats(-(2.0**30), 2.0**30),
)
# small first blocks put many block edges and gate decisions into a few
# hundred points; 256 is the solvers' own
_FIRST = st.sampled_from([1, 2, 3, 7, classic._FIRST_BLOCK])


def _arrange(draw, pts):
    """Input order: as built, sorted by (x, y) (adversarial for an online
    solver), reversed or shuffled; then some points repeated."""
    pts = np.asarray(pts, np.float64).reshape(-1, 2)
    order = draw(st.sampled_from(["as built", "sorted", "reversed", "shuffled"]))
    if order == "sorted":
        pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    elif order == "reversed":
        pts = pts[::-1]
    elif order == "shuffled":
        pts = pts[np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(len(pts))]
    dup = draw(st.integers(0, min(len(pts), 40)))
    if dup:
        at = draw(st.integers(0, len(pts)))
        pts = np.concatenate([pts[:at], pts[:dup], pts[at:]])
    return np.ascontiguousarray(pts)


@st.composite
def lattices(draw):
    """Rectangular or hexagonal lattices whose spacings (1, 0.5, sqrt(3)/2)
    put many points at exactly distance 1 from each other and from ccfm's
    candidates, at offsets up to 2^30."""
    sx = draw(st.sampled_from([1.0, 0.5, HALF_SQRT3]))
    sy = draw(st.sampled_from([1.0, 0.5, HALF_SQRT3, 1.5]))
    hexagonal = draw(st.booleans())
    cols = draw(st.integers(1, 30))
    rows = draw(st.integers(1, 30))
    ox, oy = draw(_OFFSET), draw(_OFFSET)
    pts = [(ox + (i + (0.5 if hexagonal and j % 2 else 0.0)) * sx, oy + j * sy)
           for j in range(rows) for i in range(cols)]
    return _arrange(draw, pts)


@st.composite
def mixes(draw):
    """Runs of dense (density 50) and sparse (density 0.02) points, so the
    share of covered points flips from block to block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ox, oy = draw(_OFFSET), draw(_OFFSET)
    runs = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.one_of(st.sampled_from(EDGE_SIZES), st.integers(1, 300)))
        density = draw(st.sampled_from([50.0, 0.02]))
        side = math.sqrt(n / density)
        corner = rng.random(2) * 200.0
        runs.append(corner + rng.random((n, 2)) * side)
    pts = np.concatenate(runs) + (ox, oy)
    return _arrange(draw, pts)


@settings(max_examples=150, deadline=None)
@given(lattices(), _FIRST)
@example(np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (2.0, 0.0)] * 3), 1)
@example(np.array([(2.0**30 + i, 2.0**30 + j) for j in range(17) for i in range(17)]), 256)
# 1 + 9.7e-147 apart, which rounds to exactly 1, but two cells apart, where
# the 3x3 probe does not look: no edge
@example(np.array([(-9.7050727e-147, 0.0), (1.0, 0.0)]), 1)
def test_lattices_match_the_plain_loops(pts, first_block):
    _assert_same(pts, first_block)


@settings(max_examples=100, deadline=None)
@given(mixes(), _FIRST)
def test_sparse_dense_mixes_match_the_plain_loops(pts, first_block):
    _assert_same(pts, first_block)


@pytest.mark.parametrize("n", EDGE_SIZES)
@pytest.mark.parametrize("density", [50.0, 1.0])
def test_sizes_at_block_edges_match_the_plain_loops(n, density):
    pts = gen_square(n, n / density, n)
    _assert_same(pts)
    _assert_same(pts[np.lexsort((pts[:, 1], pts[:, 0]))])


def test_points_nudged_around_distance_one_match_the_plain_loops():
    # centers first (dense enough to switch the tree on), then points at
    # distance 1 from them and one or two ulps inside and outside
    centers = [(3.0 * i, 3.0 * j) for i in range(12) for j in range(12)]
    pts = []
    for cx, cy in centers:
        pts += [(cx, cy)] * 3
    for cx, cy in centers:
        for dx, dy in ((1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (-0.8, 0.6), (HALF_SQRT3, 0.5)):
            for ulps in (-2, -1, 0, 1, 2):
                x = cx + dx
                for _ in range(abs(ulps)):
                    x = math.nextafter(x, math.copysign(math.inf, ulps * dx))
                pts.append((x, cy + dy))
    for offset in (0.0, 2.0**20, -(2.0**30)):
        _assert_same(np.asarray(pts) + offset)
        _assert_same(np.asarray(pts) + offset, first_block=1)


def _count_trees(monkeypatch):
    """Record each cKDTree the solvers build as (rows, names of the methods
    called on it), so a test can tell the sample's trees (query_pairs on a
    few rows), dgt2018's pair list (query_pairs on all rows), the lone-point
    tree (query on all rows) and the block trees (query on the centers)."""
    built = []
    real = classic.cKDTree

    class Spy:
        def __init__(self, data, **kwargs):
            self.calls = []
            built.append((len(data), self.calls))
            self.tree = real(data, **kwargs)

        def __getattr__(self, name):
            self.calls.append(name)
            return getattr(self.tree, name)

    monkeypatch.setattr(classic, "cKDTree", Spy)
    return built


def _queried(built):
    """The rows of the trees asked for nearest neighbours: the lone-point
    tree and the block trees, in the order they were built."""
    return [rows for rows, calls in built if "query" in calls]


def _pair_path(built, n):
    """Whether dgt2018 took the pair path: one pair list over all n rows
    and no tree asked for nearest neighbours."""
    pair_lists = [rows for rows, calls in built if rows == n and "query_pairs" in calls]
    return pair_lists == [n] and not _queried(built)


def _count_probes(monkeypatch):
    """Record the point of each RadiusGrid probe the solvers make."""
    probes = []

    class Counting(classic.RadiusGrid):
        def nearest_within(self, q, r):
            probes.append(q)
            return super().nearest_within(q, r)

    monkeypatch.setattr(classic, "RadiusGrid", Counting)
    return probes


def test_tree_only_after_a_block_with_enough_covered_points(monkeypatch):
    built = _count_trees(monkeypatch)
    sparse = gen_disk(4000, 4000 / 0.02, 5)
    dense = gen_square(4000, 4000 / 50.0, 6)
    mixed = np.concatenate([dense[:256], sparse[:512], dense[:1024] + 1e4])
    # one tree over all 4000 points finds the lone ones; about one center
    # per point, so no block gets a tree
    built.clear()
    ccfm1997(sparse)
    assert _queried(built) == [len(sparse)]
    # the bounding box puts the lone share far below 1/_GATE, so no tree over
    # the points; blocks of 256, 512, 1024, 2048 and 160 points: every block
    # after the first gets a tree over the centers
    built.clear()
    ccfm1997(dense)
    assert len(_queried(built)) == 4 and max(_queried(built)) < len(dense)
    # a dense first block switches the block tree on for the second; the
    # sparse second block switches it off for the third. The far-apart runs
    # make the bounding box wide, but fewer than a quarter of the points
    # are lone, and the sample sees that: no tree over the points
    built.clear()
    ccfm1997(mixed)
    assert len(_queried(built)) == 1 and _queried(built)[0] < len(mixed)
    # with a sparse third block most points are lone, and their tree comes
    # first
    mostly_sparse = np.concatenate([dense[:256], sparse[:1536]])
    built.clear()
    ccfm1997(mostly_sparse)
    assert _queried(built)[0] == len(mostly_sparse) and len(_queried(built)) == 2
    assert _queried(built)[1] < len(mostly_sparse)


def _clusters(n, k, seed):
    """n points in k clusters (standard normal around uniform centers in a
    10^5 square): far apart on the sample's scale, dense within."""
    rng = np.random.default_rng(seed)
    centers = rng.random((k, 2)) * 1e5
    return np.ascontiguousarray(centers[rng.integers(0, k, n)] + rng.normal(size=(n, 2)))


def test_dgt2018_takes_the_pair_path_where_the_sampled_degree_is_low(monkeypatch):
    built = _count_trees(monkeypatch)
    cases = [
        (gen_disk(4000, 4000 / 0.02, 5), True),     # sparse, mean degree 0.06
        (gen_square(4000, 4000.0, 6), True),        # density 1, mean degree 3
        (gen_disk(500, 500.0, 7), True),            # small-batch-like
        (gen_square(4000, 4000 / 50.0, 6), False),  # density 50
        # mean degree about 90, which the spread sample misses; the sampled
        # pairs within 1 catch it
        (_clusters(20000, 50, 8), False),
    ]
    for pts, pair in cases:
        built.clear()
        dgt2018(pts)
        assert _pair_path(built, len(pts)) is pair, (len(pts), built)
        # sorted input is sampled alike and takes the same path
        built.clear()
        dgt2018(pts[np.lexsort((pts[:, 1], pts[:, 0]))])
        assert _pair_path(built, len(pts)) is pair, (len(pts), built)


@pytest.mark.parametrize("spacing", [0.5, 1.0])
def test_sorted_lines_stall_the_rounds_and_match_the_plain_loop(monkeypatch, spacing):
    # each round decides the first undecided point and its one or two later
    # neighbours, fewer than _STALL * n, so the probe loop takes the rest
    pts = np.array([(2.0**20 + spacing * i, -3.25) for i in range(2000)])
    built = _count_trees(monkeypatch)
    probes = _count_probes(monkeypatch)
    cover = dgt2018(pts)
    assert _pair_path(built, len(pts))
    assert len(probes) >= len(pts) - 3
    assert _bits(cover) == _bits(reference_dgt2018(pts))
    _assert_same(pts[::-1])


@pytest.mark.parametrize("pts", [
    [], [(0.5, -2.0)], [(0.0, 0.0), (0.0, 0.0)], [(0.0, 0.0), (1.0, 0.0)],
    [(0.0, 0.0), (0.0, -1.0)], [(0.0, 0.0), (math.nextafter(1.0, 2.0), 0.0)],
    [(0.0, 0.0), (5.0, 5.0)], [(0.999, 0.0), (2.0, 0.0)],
])
def test_zero_one_and_two_points_match_the_plain_loops(pts):
    _assert_same(np.array(pts, np.float64).reshape(-1, 2))


def test_sets_either_side_of_the_path_threshold_match_the_plain_loop():
    # the same points spread over a larger area have a lower sampled
    # degree: bisect for the area where dgt2018 changes path
    def grid_path(area):
        pts = gen_square(600, area, 9)
        return classic._dense(pts, classic._tree_radius(pts, 1.0), classic._MIS_DEGREE)

    lo, hi = 600 / 20.0, 600 / 0.5
    assert grid_path(lo) and not grid_path(hi)
    for _ in range(40):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if grid_path(mid) else (lo, mid)
    for area in (lo, hi):
        pts = gen_square(600, area, 9)
        _assert_same(pts)
        _assert_same(pts[::-1])


# Pairs of points at exactly a solver's reach, give or take an ulp or two,
# along ccfm1997's six candidate directions and the axes: at 1 + sqrt(3)
# the later point is at distance 1 from a candidate of the earlier one, at
# 1 it is at distance 1 from the earlier one itself. The lone rows' tree
# must leave every such pair to the loop, at every offset.
_REACHES = (1.0, 1.0 + math.sqrt(3.0))
_DIRECTIONS = [(math.cos(math.radians(a)), math.sin(math.radians(a)))
               for a in (0, 60, 120, 180, 240, 300)] + [(0.0, 1.0), (0.0, -1.0)]


def _nudged(v, ulps):
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


def _pairs_at_reach(offset):
    pts = []
    k = 0
    for reach in _REACHES:
        for ux, uy in _DIRECTIONS:
            for ulps in (-2, -1, 0, 1, 2):
                ax, ay = offset + 40.0 * k, offset + 200.0
                bx, by = ax + reach * ux, ay + reach * uy
                if abs(ux) >= abs(uy):
                    bx = _nudged(bx, ulps)
                else:
                    by = _nudged(by, ulps)
                pts += [(ax, ay), (bx, by)]
                k += 1
    return np.array(pts)


@pytest.mark.parametrize("offset", [0.0, 2.0**20, -(2.0**20), 2.0**30, -(2.0**30), 2.0**40, 2.0**52])
def test_pairs_at_the_reach_match_the_plain_loops_with_either_gate(offset):
    # spread with the tree's margin (16 ulps), so that some points stay lone
    background = gen_disk(300, 300 / 0.02, 7) * (1.0 + 16 * math.ulp(offset)) + offset
    pairs = _pairs_at_reach(offset)
    rng = np.random.default_rng(8)
    inputs = [np.concatenate([background, pairs]),
              np.concatenate([pairs[::-1], background]),
              rng.permutation(np.concatenate([background, pairs]))]
    for gate in (1, 10**9):
        with mock.patch.object(classic, "_GATE", gate):
            for pts in inputs:
                pts = np.ascontiguousarray(pts)
                if gate > 1:
                    # the lone path really runs, for the background at least
                    for reach in _REACHES:
                        assert classic._lone(pts, reach).any()
                else:
                    assert classic._lone(pts, 1.0) is None
                _assert_same(pts)
                _assert_same(pts, first_block=7)
