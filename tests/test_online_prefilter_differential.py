"""dgt2018 and ccfm1997 against the plain loops of ``classic_reference``.

Where the sampled degree is low, both solvers compute their covers in
numpy dependency rounds over one cKDTree pair list, or, where it is
moderate, over one list per doubling block that spans only the rows the
earlier centers leave open; where those rounds stall, the grid loop
replays the centers made before the first undecided row and takes every
row from it on, in one run. Elsewhere they drop, with
``gridindex.settling_centers`` per block (its numpy cell grid, or its cKDTree
query where the cell table would overflow), the points an earlier center
already covers. The covers must stay bit-equal
to the plain loops on every path, with the rounds in blocks or not, with
a stall after the first round and in a later block, on lattices with
points at exactly distance 1, duplicates, sorted input and lines that
stall the rounds, well-spread sorted input that does not, candidates
tied at equal distance, sizes at the block edges and of 0-2 points,
sparse/dense mixes that switch the block filter on and off, clustered
and sorted input with the tree fallback forced, sets just either side of
the path thresholds, pairs at exactly the reach give or take an ulp, and
offsets up to 2^30 (2^52 for the pairs). Every row the grid or the tree drops is one the RadiusGrid
probe finds covered, and none the blocks' filter drops is ever made: where
the grid loop takes one again after a stall, its probe finds it covered.
"""

import math
from unittest import mock

import numpy as np
import pytest

import udcover.classic as classic
import udcover.gridindex as gridindex
from classic_reference import reference_ccfm1997, reference_dgt2018
from udcover.classic import ccfm1997, dgt2018
from udcover.generators import gen_disk, gen_square
from udcover.geom import HALF_SQRT3, SQRT3
from udcover.gridindex import RadiusGrid, open_rows, settling_centers

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

PAIRS = [(dgt2018, reference_dgt2018), (ccfm1997, reference_ccfm1997)]
EDGE_SIZES = [255, 256, 257, 511, 512, 513]


def _bits(cover):
    return np.asarray(cover, np.float64).reshape(-1, 2).tobytes()


# Each solver on the grid loop (threshold 0: every input of 2 or more
# points), on the rounds (threshold inf), and on the rounds with a stall
# after the first round; then with the path forced through the one hook,
# _path: the rounds in one block, and the rounds in blocks at every size,
# with a stall after the first round, and through the gate with a first
# block of 1 (blocks from 8 rows up)
_GRID = {"_MIS_DEGREE": 0.0, "_CCFM_DEGREE": 0.0}
_ROUNDS = {"_MIS_DEGREE": math.inf, "_CCFM_DEGREE": math.inf}
_BLOCKS = {"_path": lambda xy, reach, degree: "blocks"}
_VARIANTS = [
    _GRID,
    _ROUNDS,
    {**_ROUNDS, "_ROUND": math.inf},
    {"_path": lambda xy, reach, degree: "rounds"},
    _BLOCKS,
    {**_BLOCKS, "_ROUND": math.inf},
    {**_ROUNDS, "_BLOCK_DEGREE": 0.0, "_FIRST_BLOCK": 1},
]


def _assert_same(pts, first_block=classic._FIRST_BLOCK):
    with mock.patch.object(classic, "_FIRST_BLOCK", first_block):
        for solver, reference in PAIRS:
            expected = _bits(reference(pts))
            assert _bits(solver(pts)) == expected, solver.__name__
            for variant in _VARIANTS:
                with mock.patch.multiple(classic, **variant):
                    assert _bits(solver(pts)) == expected, (solver.__name__, variant)


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
    few rows), the rounds' pair lists (query_pairs on the rows of a block)
    and the block filter's trees (query on the centers, which
    ``open_rows`` builds where its cell table would overflow); and each
    call of the block filter as (centers, ["open_rows"]), before the tree
    that call builds, if any. ``gridindex.kd_tree`` builds every one."""
    built = []
    real = gridindex.cKDTree

    def grid(points, centers, limit):
        built.append((len(centers), ["open_rows"]))
        return settling_centers(points, centers, limit)

    class Spy:
        def __init__(self, data, **kwargs):
            self.calls = []
            built.append((len(data), self.calls))
            self.tree = real(data, **kwargs)

        def __getattr__(self, name):
            self.calls.append(name)
            return getattr(self.tree, name)

    monkeypatch.setattr(gridindex, "cKDTree", Spy)
    monkeypatch.setattr(classic, "settling_centers", grid)
    return built


def _queried(built, names=("open_rows", "query")):
    """The centers of each block filter, in order: the calls of
    ``open_rows`` and the trees asked for nearest neighbours, or only those
    ``names`` names. A block whose cell table would overflow shows twice,
    as a call and then as its tree."""
    return [rows for rows, calls in built if any(name in calls for name in names)]


def _pair_lists(built):
    """The rows of the trees asked for a pair list, leaving out the
    sample's (which has at most max(_SAMPLE, sqrt(n)) rows)."""
    return [rows for rows, calls in built if "query_pairs" in calls and rows > classic._SAMPLE * 2]


def _count_probes(monkeypatch):
    """Record the point of each RadiusGrid probe the solvers make."""
    probes = []

    class Counting(classic.RadiusGrid):
        def _nearest(self, q, r):
            probes.append(q)
            return super()._nearest(q, r)

    monkeypatch.setattr(classic, "RadiusGrid", Counting)
    return probes


def _pair_path(built, probes, n):
    """Whether the solver took the rounds and they ran to the end: one pair
    list over all n rows, no block filter and no RadiusGrid probe, which
    the grid loop makes after a handoff."""
    return _pair_lists(built) == [n] and not _queried(built) and not probes


def _block_path(built, probes, n):
    """Whether the solver took the rounds in blocks and they ran to the
    end: a pair list over the first n/8 rows, then one per later block with
    open rows, each over fewer than n rows; a block filter before each
    later list; and no RadiusGrid probe."""
    lists = _pair_lists(built)
    return (lists[:1] == [n >> 3] and 1 < len(lists) <= 4 and max(lists[1:]) < n
            and len(_queried(built)) == 3 and not probes)


def test_block_filter_only_after_a_block_with_enough_covered_points(monkeypatch):
    built = _count_trees(monkeypatch)
    probes = _count_probes(monkeypatch)
    sparse = gen_disk(4000, 4000 / 0.02, 5)
    dense = gen_square(4000, 4000 / 50.0, 6)
    mixed = np.concatenate([dense[:256], sparse[:512], dense[:1024] + 1e4])
    # sparse input takes the rounds: one pair list, no block filter
    built.clear()
    ccfm1997(sparse)
    assert _pair_path(built, probes, len(sparse))
    # on the grid loop, every block of sparse input has about one center
    # per point, so no block is filtered
    monkeypatch.setattr(classic, "_CCFM_DEGREE", 0.0)
    built.clear()
    ccfm1997(sparse)
    assert _queried(built) == [] and _pair_lists(built) == []
    # blocks of 256, 512, 1024, 2048 and 160 points: every block after the
    # first is filtered by the cell grid over the centers, with no tree,
    # and most points are dropped before their probe
    built.clear()
    probes.clear()
    ccfm1997(dense)
    assert len(_queried(built)) == 4 and max(_queried(built)) < len(dense)
    assert _queried(built, ("query",)) == [] and len(probes) < len(dense) // 4
    # a dense first block switches the block filter on for the second; the
    # sparse second block switches it off for the third
    built.clear()
    ccfm1997(mixed)
    assert len(_queried(built)) == 1 and _queried(built)[0] < len(mixed)


def _clusters(n, k, seed):
    """n points in k clusters (standard normal around uniform centers in a
    10^5 square): far apart on the sample's scale, dense within."""
    rng = np.random.default_rng(seed)
    centers = rng.random((k, 2)) * 1e5
    return np.ascontiguousarray(centers[rng.integers(0, k, n)] + rng.normal(size=(n, 2)))


def _strip(n, seed):
    """n points spread evenly over an n by 0.1 strip, thinner than either
    reach: a mean degree of 2 at reach 1 and 5.5 at 1 + sqrt(3), where an
    unclipped disk over the bounding box would count 31 and 235."""
    rng = np.random.default_rng(seed)
    return np.column_stack((rng.random(n) * n, rng.random(n) * 0.1))


def _assert_paths(monkeypatch, solver, cases):
    built = _count_trees(monkeypatch)
    probes = _count_probes(monkeypatch)
    for pts, path in cases:
        # in random order, the rounds run to the end where they are taken
        built.clear()
        probes.clear()
        solver(pts)
        n = len(pts)
        assert _pair_path(built, probes, n) is (path == "rounds"), (n, built, len(probes))
        assert _block_path(built, probes, n) is (path == "blocks"), (n, built, len(probes))
        if path == "grid":
            assert not _pair_lists(built), (n, built)
        # sorted input is sampled alike and takes the same path, but its
        # rounds may stall
        built.clear()
        solver(np.ascontiguousarray(pts[np.lexsort((pts[:, 1], pts[:, 0]))]))
        assert bool(_pair_lists(built)) is (path != "grid"), (n, built)


def test_dgt2018_takes_the_pair_path_where_the_sampled_degree_is_low(monkeypatch):
    # below _BLOCK_DEGREE, under the grid path's threshold of 7: dgt2018
    # never decides in blocks
    _assert_paths(monkeypatch, dgt2018, [
        (gen_disk(4000, 4000 / 0.02, 5), "rounds"),     # sparse, mean degree 0.06
        (gen_square(4000, 4000.0, 6), "rounds"),        # density 1, mean degree 3
        (gen_square(10000, 10000.0, 6), "rounds"),      # uniform-like
        (gen_disk(500, 500.0, 7), "rounds"),            # small-batch-like
        (gen_square(4000, 4000 / 50.0, 6), "grid"),     # density 50
        (_strip(4000, 9), "rounds"),
        # mean degree about 90, which the spread sample misses; the sampled
        # pairs within 1 catch it
        (_clusters(20000, 50, 8), "grid"),
    ])


def test_ccfm1997_takes_the_rounds_where_the_sampled_degree_is_low(monkeypatch):
    # at reach 1 + sqrt(3), density 1 is a mean degree of 23.4, which
    # decides in blocks from 8 * _FIRST_BLOCK = 2048 points up; below
    # _CCFM_ROWS points the grid path's threshold shrinks with n
    _assert_paths(monkeypatch, ccfm1997, [
        (gen_disk(4000, 4000 / 0.02, 5), "rounds"),     # sparse
        (gen_square(10000, 10000.0, 6), "blocks"),      # uniform-like
        (gen_square(2400, 2400 / 0.7, 6), "blocks"),    # degree 16
        (gen_disk(500, 500.0, 7), "grid"),              # small-batch-like
        (gen_disk(500, 500 / 0.1, 7), "rounds"),        # degree 2.3
        (gen_disk(1000, 1000 / 0.5, 7), "rounds"),      # degree 12, n below the gate
        (gen_square(4000, 4000 / 50.0, 6), "grid"),
        (_strip(4000, 9), "rounds"),
        (_clusters(20000, 50, 8), "grid"),
    ])
    # the gate's size, 8 * _FIRST_BLOCK rows
    for n, path in ((2048, "blocks"), (2047, "rounds")):
        pts = gen_square(n, n / 0.7, 6)
        assert classic._path(pts, classic._tree_radius(pts, 1.0 + SQRT3), classic._CCFM_DEGREE) == path


@pytest.mark.parametrize("spacing", [0.5, 1.0])
@pytest.mark.parametrize("solver", [dgt2018, ccfm1997])
def test_sorted_lines_stall_the_rounds_and_match_the_plain_loop(monkeypatch, solver, spacing):
    # the first round decides the first point and its one or two later
    # neighbours, so the grid loop takes over from the third point or so
    pts = np.array([(2.0**20 + spacing * i, -3.25) for i in range(2000)])
    reference = dict(PAIRS)[solver]
    built = _count_trees(monkeypatch)
    probes = _count_probes(monkeypatch)
    cover = solver(pts)
    assert _pair_lists(built) == [len(pts)]
    assert probes and probes[0] in [tuple(p) for p in pts[:4].tolist()]
    assert _bits(cover) == _bits(reference(pts))
    _assert_same(pts[::-1])


@pytest.mark.parametrize("solver", [dgt2018, ccfm1997])
def test_a_sorted_line_stalls_on_its_one_pair_list(monkeypatch, solver):
    # 2^14 rows: the rounds build one pair list over all of them and stall
    # after the first round
    pts = np.array([(0.5 * i, 7.0) for i in range(2**14)])
    built = _count_trees(monkeypatch)
    probes = _count_probes(monkeypatch)
    cover = solver(pts)
    assert _pair_lists(built) == [2**14] and probes
    assert _bits(cover) == _bits(dict(PAIRS)[solver](pts))


def test_well_spread_sorted_input_runs_the_rounds_to_the_end(monkeypatch):
    # density 0.2 in a disk, sorted by (x, y): each round decides many rows
    # across the disk, so the rounds run to the end on one pair list, with
    # no handoff to the grid loop
    pts = _sorted(gen_disk(10000, 50000.0, 6))
    built = _count_trees(monkeypatch)
    probes = _count_probes(monkeypatch)
    cover = ccfm1997(pts)
    assert _pair_path(built, probes, len(pts)), (built, len(probes))
    assert _bits(cover) == _bits(reference_ccfm1997(pts))


def test_a_stall_after_a_shuffled_block_hands_off_to_the_grid_loop(monkeypatch):
    # the shuffled block takes a few rounds; the sorted line after it
    # decides a few rows a round, and the grid loop takes over from the
    # first row left: in the line for dgt2018, whose block is done in 3
    # rounds, in the tail of the block for ccfm1997
    block = gen_square(3000, 3000.0, 11)
    line = np.array([(200.0 + 0.5 * i, 50.0) for i in range(3000)])
    pts = np.concatenate([block, line])
    rows = [tuple(p) for p in pts.tolist()]
    probes = _count_probes(monkeypatch)
    for solver, reference in PAIRS:
        probes.clear()
        assert _bits(solver(pts)) == _bits(reference(pts)), solver.__name__
        assert probes and rows.index(probes[0]) > 0, solver.__name__
        assert len(probes) > len(line) // 3, solver.__name__
        if solver is dgt2018:
            assert min(probes) >= (200.0, 50.0)
    _assert_same(pts)


@pytest.mark.parametrize("solver", [dgt2018, ccfm1997])
def test_a_stall_in_a_later_block_hands_off_to_the_grid_loop(monkeypatch, solver):
    # 8 000 rows: blocks of 1 000, 1 000, 2 000 and 4 000; the sorted line
    # fills the second half of the last block, whose rounds stall on it
    # after the shuffled square's rows are decided. dgt2018's sampled degree
    # is too low for the blocks, so the hook forces them.
    square = gen_square(6000, 6000.0, 12)
    line = np.array([(0.5 * i, -20.0) for i in range(2000)])
    pts = np.concatenate([square, line])
    rows = [tuple(p) for p in pts.tolist()]
    if solver is dgt2018:
        monkeypatch.setattr(classic, "_path", _BLOCKS["_path"])
    built = _count_trees(monkeypatch)
    probes = _count_probes(monkeypatch)
    assert _bits(solver(pts)) == _bits(dict(PAIRS)[solver](pts))
    assert _pair_lists(built)[0] == len(pts) >> 3 and len(_pair_lists(built)) == 4
    assert probes and min(rows.index(p) for p in probes) >= len(pts) // 2
    assert len(probes) > len(line) // 3


@pytest.mark.parametrize("solver", [dgt2018, ccfm1997])
@pytest.mark.parametrize("case", ["uniform", "dense", "stall", "sorted"])
def test_no_row_the_block_filter_drops_is_ever_made(monkeypatch, solver, case):
    # made rows are those the rounds pass to decide, and those the grid
    # loop takes after a stall that no earlier center covers; the loop
    # takes every row from the first one undecided, dropped ones too
    square = gen_square(8000, 8000 / (4.0 if case == "dense" else 1.0), 14)
    pts = {"uniform": square, "dense": square, "sorted": _sorted(square),
           "stall": np.concatenate([square[:6000], [(0.5 * i, -20.0) for i in range(2000)]])}[case]
    index = {p: i for i, p in enumerate(map(tuple, pts.tolist()))}
    assert len(index) == len(pts)
    real_rounds, real_take = classic._rounds, classic.CcfmState.take
    seen = {"ready": [], "dropped": [], "first": None}
    covered = {}  # row taken by the loop: whether its probe found it covered

    def rounds(xy, r, decide, settle, kept):
        def decide_(ready, undecided):
            seen["ready"].append(ready.copy())
            decide(ready, undecided)

        def kept_(start, stop):
            earlier, open_ = kept(start, stop)
            seen["dropped"].append(np.setdiff1d(np.arange(start, stop), open_))
            return earlier, open_

        seen["first"] = real_rounds(xy, r, decide_, settle, kept_)
        return seen["first"]

    def take(self, rows):
        by = []
        for row in rows:
            covered[index[tuple(row)]] = self.active.nearest_within(tuple(row), 1.0) is not None
            by += real_take(self, [row])
        return by

    monkeypatch.setattr(classic, "_path", _BLOCKS["_path"])
    monkeypatch.setattr(classic, "_rounds", rounds)
    monkeypatch.setattr(classic.CcfmState, "take", take)
    assert _bits(solver(pts)) == _bits(dict(PAIRS)[solver](pts))
    dropped = np.concatenate(seen["dropped"] or [np.zeros(0, int)])
    if case != "sorted":
        assert len(dropped) > len(pts) // 10
    made = np.concatenate(seen["ready"])
    assert not np.intersect1d(made, dropped).size
    assert bool(covered) is (seen["first"] is not None)
    taken = [row for row in dropped.tolist() if row in covered]
    assert all(covered[row] for row in taken)
    if case == "stall":
        assert taken


def test_sorted_clusters_hand_the_grid_loop_one_suffix(monkeypatch):
    # 200 clusters of sigma 3 in a 10^4 square, sorted by (x, y): ccfm1997
    # takes the rounds in blocks, which stall within the first block, and
    # the grid loop takes every row from the first one left, in one run
    rng = np.random.default_rng(0)
    centers = rng.random((200, 2)) * 1e4
    pts = _sorted(centers[rng.integers(0, 200, 20000)] + rng.normal(size=(20000, 2)) * 3.0)
    runs = []
    real = classic.CcfmState.take_run

    def take_run(self, xy):
        runs.append(len(xy))
        return real(self, xy)

    monkeypatch.setattr(classic.CcfmState, "take_run", take_run)
    assert _bits(ccfm1997(pts)) == _bits(reference_ccfm1997(pts))
    assert len(runs) == 1 and 0 < runs[0] < len(pts), runs[:5]


def test_candidates_tied_at_equal_distance_go_to_the_lower_owner_and_k():
    # owners 2 sqrt(3) apart on the x axis: the candidate k = 0 of the
    # first and k = 4 of the second are both (sqrt(3), 0), bit for bit
    owners = [(0.0, 0.0), (2 * SQRT3, 0.0)]
    assert owners[1][0] + classic.HEX_OFFSETS[4][0] == SQRT3 + 0.0
    coincident = owners + [(SQRT3, 0.5), (SQRT3, -0.75), (SQRT3 + 0.9, 0.0)]
    # owners 4 apart: (sqrt(3), 0) and (4 - sqrt(3), 0) lie mirrored about
    # x = 2, at the same rounded distance from (2, 0.25); the sequential
    # loop promotes the first owner's, so the cover holds (sqrt(3), 0)
    mirrored = [(0.0, 0.0), (4.0, 0.0), (2.0, 0.25)]
    d = [(cx - 2.0) ** 2 + (0.0 - 0.25) ** 2 for cx in (SQRT3, 4.0 - SQRT3)]
    assert d[0] == d[1]
    assert ccfm1997(mirrored)[2].tolist() == [SQRT3, 0.0]
    rng = np.random.default_rng(12)
    for pts in (coincident, mirrored):
        pts = np.array(pts)
        for offset in (0.0, 64.0, 2.0**20):
            # alone, and inside a sparse background that keeps the rounds
            # going, in front of and behind it
            background = gen_disk(400, 400 / 0.02, 13) + 1e3
            for case in (pts, np.concatenate([pts, background]),
                         np.concatenate([background, pts]),
                         rng.permutation(np.concatenate([pts, background]))):
                _assert_same(np.ascontiguousarray(case + offset))


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
        return classic._path(pts, classic._tree_radius(pts, 1.0), classic._MIS_DEGREE) == "grid"

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
# 1 it is at distance 1 from the earlier one itself. The rounds' pair lists
# must hold every such pair, at every offset.
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
    # spread with the tree's margin (16 ulps); block trees on and off
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
                _assert_same(pts)
                _assert_same(pts, first_block=7)


# Rows at distance 1 from a center, in the axis, diagonal and hexagonal
# directions, before they are nudged by an ulp either way
_UNIT = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.6, 0.8), (-0.8, -0.6),
         (HALF_SQRT3, 0.5), (-0.5, HALF_SQRT3)]
_FAR = st.integers(20, 44).flatmap(lambda k: st.sampled_from([2.0**k, -(2.0**k)]))
_SHIFT = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 0.5]), _FAR, _FAR.map(lambda v: v + 0.5))
# whole numbers are floor-cell corners of the RadiusGrid probe
_NEAR = st.one_of(st.integers(-3, 3).map(float), st.sampled_from([-0.0, 0.5, -0.5]),
                  st.floats(-3.0, 3.0))


@st.composite
def filter_cases(draw):
    """Centers at an offset of 0, -0.0 or +-2^20 to +-2^44, on cell
    corners or anywhere in a few cells; rows at distance 1 from them give
    or take an ulp, and anywhere near."""
    ox, oy = draw(_SHIFT), draw(_SHIFT)
    centers = [(ox + draw(_NEAR), oy + draw(_NEAR)) for _ in range(draw(st.integers(1, 8)))]
    rows = [(ox + draw(_NEAR), oy + draw(_NEAR)) for _ in range(draw(st.integers(0, 8)))]
    for cx, cy in centers:
        for dx, dy in draw(st.lists(st.sampled_from(_UNIT), max_size=8)):
            x, y = cx + dx, cy + dy
            ulps = draw(st.sampled_from([-1, 0, 1]))
            if draw(st.booleans()):
                x = _nudged(x, ulps)
            else:
                y = _nudged(y, ulps)
            rows.append((x, y))
    return np.array(rows or centers[:1]), np.array(centers)


@pytest.mark.parametrize("max_pairs", [gridindex._MAX_PAIRS, 0], ids=["grid", "tree"])
@settings(max_examples=300, deadline=None)
@given(filter_cases())
# 1 + 9.7e-147 apart, which rounds to exactly 1, but two floor cells apart,
# where the probe does not look
@example((np.array([(1.0, 0.0)]), np.array([(-9.7050727e-147, 0.0)])))
@example((np.array([(0.0, -0.0), (1.0, -0.0), (0.5, 0.5)]), np.array([(-0.0, 0.0)])))
def test_every_row_the_block_filter_drops_is_one_the_probe_finds_covered(max_pairs, case):
    # with no candidate allowed, any row with a center in its own column
    # sends the call to the tree
    rows, centers = case
    probe = RadiusGrid(1.0)
    for c in centers.tolist():
        probe.insert(tuple(c))
    with mock.patch.object(gridindex, "_MAX_PAIRS", max_pairs):
        open_ = open_rows(rows, centers, 1.0)
    assert np.all(np.diff(open_) > 0) and (not len(open_) or 0 <= open_[0] <= open_[-1] < len(rows))
    dropped = np.setdiff1d(np.arange(len(rows)), open_)
    for p in rows[dropped].tolist():
        assert probe.nearest_within(tuple(p), 1.0) is not None, p


@pytest.mark.parametrize("max_pairs", [gridindex._MAX_PAIRS, 0], ids=["grid", "tree"])
def test_the_block_filter_drops_rows_within_one_and_keeps_the_rest(monkeypatch, max_pairs):
    monkeypatch.setattr(gridindex, "_MAX_PAIRS", max_pairs)
    centers = np.array([(0.5, 0.5), (2.0**40 + 0.5, -3.0)])
    rows = np.array([(0.5, 0.5), (1.4, 0.5), (1.5, 0.5), (0.5, -0.5), (0.5, 1.0 + 1e-13),
                     (2.0**40 + 1.0, -3.0), (2.0**40 + 1.5, -3.0), (7.0, 7.0)])
    assert open_rows(rows, centers, 1.0).tolist() == [2, 3, 6, 7]


def _sorted(pts):
    return np.ascontiguousarray(pts[np.lexsort((pts[:, 1], pts[:, 0]))])


@pytest.mark.parametrize("pts", [
    _clusters(20000, 50, 8), _sorted(_clusters(20000, 50, 8)),
    _clusters(20000, 200, 8), _sorted(_clusters(20000, 200, 8)),
    _sorted(gen_square(4000, 4000 / 50.0, 6)), gen_square(4000, 4000 / 50.0, 6) - 2.0**30,
], ids=["clusters", "clusters sorted", "finer clusters", "finer clusters sorted",
        "dense sorted", "dense at -2^30"])
def test_tree_fallback_matches_the_plain_loops(monkeypatch, pts):
    monkeypatch.setattr(classic, "_CCFM_DEGREE", 0.0)
    monkeypatch.setattr(classic, "_MIS_DEGREE", 0.0)
    # no candidate fits the cap, so open_rows queries its tree for every
    # filtered block with a center in some row's own column
    monkeypatch.setattr(gridindex, "_MAX_PAIRS", 0)
    built = _count_trees(monkeypatch)
    for solver, reference in PAIRS:
        built.clear()
        assert _bits(solver(pts)) == _bits(reference(pts)), solver.__name__
        assert _queried(built, ("query",)), solver.__name__
    _assert_same(pts, first_block=7)


@pytest.mark.parametrize("solver", [dgt2018, ccfm1997])
def test_each_filtered_block_tries_the_grid_before_the_tree(monkeypatch, solver):
    # 50 clusters in a 10^5 square: the cells widen to keep the centers'
    # bounding box to about 4(n + m) cells, so a cluster's centers share a
    # cell and the rows' candidates pass the grid's cap. open_rows settles
    # such a block with its tree, and the next block tries the grid again.
    pts = _clusters(20000, 50, 8)
    built = _count_trees(monkeypatch)
    assert _bits(solver(pts)) == _bits(dict(PAIRS)[solver](pts))
    filters = [calls for rows, calls in built if "open_rows" in calls or "query" in calls]
    trees = [i for i, calls in enumerate(filters) if calls == ["query"]]
    assert filters[0] == ["open_rows"] and trees
    assert filters.count(["open_rows"]) + len(trees) == len(filters)
    # each tree answers the call just before it, and the blocks after the
    # first tree call open_rows again
    assert all(filters[i - 1] == ["open_rows"] for i in trees)
    assert ["open_rows"] in filters[trees[0] + 1:]
