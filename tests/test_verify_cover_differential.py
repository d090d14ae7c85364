"""verify_cover against the unbounded query it replaced, on generated
points and covers: near the limit, where the cell grid hands points to
the tree, and at the grid's edges (many cells, points far outside the
centers' box, a far outlier center, coordinates up to 1e20), with the
grid's tree fallback forced there too; and with witnesses, right, wrong
or out of range, which must leave every report as it is, including the
online solvers' own on their rounds, blocks and stall paths."""

import math
from unittest import mock

import numpy as np
import pytest
from scipy.spatial import cKDTree

import udcover.gridindex
import udcover.oracle
from udcover import classic, fast_cover, fast_cover_pp, gen_disk, gen_square
from udcover.classic import _ccfm1997, _dgt2018
from udcover.fastcover import _fast_cover_pp
from udcover.oracle import VerifyReport, verify_cover

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def reference_verify_cover(points, cover, eps=1e-9):
    """verify_cover before the bounded query: the reference that it must
    match exactly."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    ctr = np.asarray(cover, dtype=np.float64).reshape(-1, 2)
    if pts.shape[0] == 0:
        return VerifyReport(True, [], ctr.shape[0])
    if ctr.shape[0] == 0:
        uncovered = [(i, math.inf) for i in range(pts.shape[0])]
        return VerifyReport(False, uncovered, 0)
    dist, _ = cKDTree(ctr).query(pts, k=1)
    limit = 1.0 + eps
    bad = np.nonzero(dist > limit)[0]
    uncovered = [(int(i), float(dist[i]) ** 2) for i in bad]
    return VerifyReport(len(uncovered) == 0, uncovered, ctr.shape[0])


def _exact(report):
    return (report.valid, [(i, d.hex()) for i, d in report.uncovered],
            report.cover_size)


_EPS = st.sampled_from([1e-9, 0.0, 1e-12, 1e-3, -0.5])
_COORD = st.floats(-5.0, 5.0)


@st.composite
def _instance(draw):
    """Centers, then points around them: anywhere, or at distance 1 or
    1 + eps along an axis from a center, nudged by up to 2 ulps."""
    eps = draw(_EPS)
    centers = draw(st.lists(st.tuples(_COORD, _COORD), max_size=12))
    pts = draw(st.lists(st.tuples(_COORD, _COORD), max_size=20))
    for _ in range(draw(st.integers(0, 20)) if centers else 0):
        cx, cy = draw(st.sampled_from(centers))
        r = draw(st.sampled_from([1.0, 1.0 + eps, 1.0 + 1e-9]))
        ulps = draw(st.integers(-2, 2))
        for _ in range(abs(ulps)):
            r = math.nextafter(r, math.copysign(math.inf, ulps))
        sx, sy = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
        pts.append((cx + sx * r, cy + sy * r))
    pts = draw(st.permutations(pts))
    as_array = draw(st.booleans())
    cover = np.array(centers, dtype=np.float64).reshape(-1, 2) if as_array else centers
    return pts, cover, eps


@settings(max_examples=400, deadline=None)
@given(inst=_instance())
def test_verify_cover_matches_unbounded_query(inst):
    pts, cover, eps = inst
    assert _exact(verify_cover(pts, cover, eps)) == _exact(
        reference_verify_cover(pts, cover, eps))


@settings(max_examples=100, deadline=None)
@given(pts=st.lists(st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)),
                    min_size=1, max_size=60),
       drop=st.integers(0, 5))
def test_verify_cover_matches_on_full_and_truncated_covers(pts, drop):
    cover = fast_cover_pp(pts)
    cover = cover[:len(cover) - drop]
    assert _exact(verify_cover(pts, cover)) == _exact(reference_verify_cover(pts, cover))


def _witnesses(data, pts, cover, true):
    """Witnesses for the points: random indices in [-3, m + 3), all zeros,
    and ``true``."""
    m = len(cover)
    yield np.array(data.draw(st.lists(st.integers(-3, m + 2), min_size=len(pts),
                                      max_size=len(pts))), dtype=np.int64)
    yield np.zeros(len(pts), dtype=np.intp)
    yield true


@settings(max_examples=400, deadline=None)
@given(inst=_instance(), data=st.data())
def test_witness_never_changes_the_report(inst, data):
    # the true witness: each point's nearest center
    pts, cover, eps = inst
    ctr = np.asarray(cover, dtype=np.float64).reshape(-1, 2)
    true = cKDTree(ctr).query(np.reshape(pts, (-1, 2)))[1] if len(ctr) else np.zeros(len(pts), int)
    expected = _exact(reference_verify_cover(pts, cover, eps))
    for witness in _witnesses(data, pts, cover, true):
        assert _exact(verify_cover(pts, cover, eps, witness=witness)) == expected


@settings(max_examples=100, deadline=None)
@given(pts=st.lists(st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)),
                    min_size=1, max_size=60),
       drop=st.integers(0, 5), data=st.data())
def test_witness_never_changes_the_report_of_a_truncated_cover(pts, drop, data):
    # the true witness is fastcover++'s own, whose dropped centers' indices
    # fall out of range
    cover, witness = _fast_cover_pp(pts)
    cover = cover[:len(cover) - drop]
    expected = _exact(reference_verify_cover(pts, cover))
    for witness in _witnesses(data, pts, cover, witness()):
        assert _exact(verify_cover(pts, cover, witness=witness)) == expected


def _online_witness(solve, pts, drop):
    """``solve``'s cover of pts, less its last ``drop`` centers, verifies
    bit-equal with and without its own witness and to the reference. On
    every path the witness names for each point a center of the full
    cover, which alone settles it at verify's limit, 1 + 1e-9. Returns the
    path taken ("grid", "rounds", "blocks" or "stall") and the witness."""
    taken = []
    path, rounds = classic._path, classic._rounds

    def first_undecided(*args):
        first = rounds(*args)
        if first is not None:
            taken.append("stall")
        return first

    with mock.patch.object(classic, "_path", lambda *args: taken.append(path(*args)) or taken[-1]), \
            mock.patch.object(classic, "_rounds", first_undecided):
        cover, witness = solve(pts)
    witness = witness()
    assert witness.shape == (len(pts),)
    assert ((witness >= 0) & (witness < len(cover))).all()
    assert udcover.gridindex.witness_open_rows(pts, cover, witness, 1.0 + 1e-9).tolist() == []
    cover = cover[:len(cover) - drop]
    expected = _exact(reference_verify_cover(pts, cover))
    assert _exact(verify_cover(pts, cover)) == expected
    assert _exact(verify_cover(pts, cover, witness=witness)) == expected
    return taken[-1], witness


@pytest.mark.parametrize("solve", [_ccfm1997, _dgt2018], ids=["ccfm1997", "dgt2018"])
@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 1500), density=st.sampled_from([0.02, 0.1, 0.3, 1.0]),
       seed=st.integers(0, 2**16), drop=st.sampled_from([0, 3]))
def test_online_witness_never_changes_the_report(solve, n, density, seed, drop):
    # shuffled disks: the rounds decide every point where the degree is
    # low (for ccfm1997, low next to n), and the grid loop takes the rest
    _online_witness(solve, gen_disk(n, n / density, seed), min(drop, n - 1))


@pytest.mark.parametrize("solve", [_ccfm1997, _dgt2018], ids=["ccfm1997", "dgt2018"])
@pytest.mark.parametrize("drop", [0, 3])
def test_online_rounds_keep_a_witness(solve, drop):
    assert _online_witness(solve, gen_disk(3000, 150_000.0, 4), drop)[0] == "rounds"


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("drop", [0, 3])
def test_online_blocks_keep_a_witness(seed, drop):
    # density 1 at 10^4 points: ccfm1997 decides in blocks, whose filter
    # names the center of each row it drops
    assert _online_witness(_ccfm1997, gen_square(10_000, 10_000.0, seed), drop)[0] == "blocks"


@pytest.mark.parametrize("solve", [_ccfm1997, _dgt2018], ids=["ccfm1997", "dgt2018"])
@pytest.mark.parametrize("drop", [0, 3])
def test_online_stall_keeps_a_witness(solve, drop):
    # a line and, for ccfm1997, a density-1 square, each sorted by (x, y),
    # stall the rounds; the grid loop then takes the rest, and the line's
    # rows lie exactly 1 from their centers
    line = np.column_stack((np.arange(1500) * 0.5, np.zeros(1500)))
    assert _online_witness(solve, line, drop)[0] == "stall"
    square = gen_square(2000, 2000.0, 3)
    square = np.ascontiguousarray(square[np.lexsort((square[:, 1], square[:, 0]))])
    assert _online_witness(solve, square, drop)[0] == ("stall" if solve is _ccfm1997 else "rounds")


def test_witness_is_ignored_where_the_limit_squared_overflows():
    # limit**2 is inf, and so is dx*dx here, 2e300 > 1e160 apart
    pts, cover = [(1e300, 0.0), (1.0, 0.0)], [(-1e300, 0.0), (0.0, 0.0)]
    expected = _exact(reference_verify_cover(pts, cover, 1e160))
    assert expected[0] is False
    assert _exact(verify_cover(pts, cover, 1e160, witness=[0, 0])) == expected


def test_out_of_range_witness_settles_nothing():
    pts = np.array([(0.0, 0.0), (1.0, 0.0)])
    open_ = lambda w: udcover.gridindex.witness_open_rows(pts, pts, np.array(w), 1.0).tolist()
    assert open_([0, 1]) == []
    # clipped into range, each would name the center on its point
    assert open_([-1, 2]) == [0, 1]
    assert open_(np.array([2**64 - 1, 1], dtype=np.uint64)) == [0]


@pytest.mark.parametrize("witness", [[0], [0, 0, 0], [[0, 0]], [0.0, 0.0], [True, False]],
                         ids=["short", "long", "2-d", "float", "bool"])
def test_malformed_witness_raises(witness):
    with pytest.raises(ValueError, match="witness"):
        verify_cover([(0.0, 0.0), (5.0, 5.0)], [(0.0, 0.0)], witness=np.array(witness))


# every kind of eps verify_cover accepts: just above -1, negative, zero,
# tiny, the default, large, and so large that limit**2 overflows
_ALLOWED_EPS = [math.nextafter(-1.0, 0.0), -0.5, 0.0, 1e-12, 1e-9, 1e-3, 1.0, 1e160]

# unit vectors off the axes too, where the rounded distance moves by ulps
_UNIT = [(1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (-0.8, 0.6),
         (math.sqrt(0.5), -math.sqrt(0.5)), (math.cos(1.0), math.sin(1.0))]


def _nudge(v, ulps):
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


@st.composite
def _grid_instance(draw, eps):
    """Centers spread over a box of a drawn size, at a drawn offset, maybe
    with one far outlier; points in the box, far outside it, and at 0,
    0.5, 1 or 2 limits from a center in some direction, each coordinate
    nudged by up to 2 ulps."""
    limit = 1.0 + eps
    spread = draw(st.sampled_from([2.0, 40.0, 1e3, 1e6, 1e20]))
    base = draw(st.sampled_from([0.0, 0.0, 1e9, -1e15, 1e20]))
    coord = st.floats(-spread, spread).map(lambda v: base + v)
    centers = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))
    if draw(st.booleans()):
        far = draw(st.sampled_from([1e5, -1e9, 1e15, -1e20]))
        centers.insert(draw(st.integers(0, len(centers))), (far, draw(coord)))
    pts = draw(st.lists(st.tuples(coord, coord), max_size=15))
    huge = st.floats(-1e20, 1e20)
    pts += draw(st.lists(st.tuples(huge, huge), max_size=3))
    for _ in range(draw(st.integers(0, 30))):
        cx, cy = draw(st.sampled_from(centers))
        r = draw(st.sampled_from([limit, limit, 1.0, 0.5 * limit, 2.0 * limit, 0.0]))
        ux, uy = draw(st.sampled_from(_UNIT))
        pts.append((_nudge(cx + r * ux, draw(st.integers(-2, 2))),
                    _nudge(cy + r * uy, draw(st.integers(-2, 2)))))
    return draw(st.permutations(pts)), np.array(centers, dtype=np.float64)


@pytest.mark.parametrize("max_pairs", [udcover.gridindex._MAX_PAIRS, 0], ids=["grid", "tree"])
@pytest.mark.parametrize("eps", _ALLOWED_EPS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_grid_edges_match_unbounded_query(eps, max_pairs, data):
    # with no candidate allowed, any point with a center in its own column
    # sends open_rows to its tree
    pts, cover = data.draw(_grid_instance(eps))
    with mock.patch.object(udcover.gridindex, "_MAX_PAIRS", max_pairs):
        report = verify_cover(pts, cover, eps)
    assert _exact(report) == _exact(reference_verify_cover(pts, cover, eps))


def _tree_builds(monkeypatch, pts, cover):
    """The cKDTrees that verify_cover builds, in open_rows or for its own
    query."""
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return cKDTree(*args, **kwargs)

    # oracle builds none of its own; raising=False still counts one there
    for module in (udcover.gridindex, udcover.oracle):
        monkeypatch.setattr(module, "cKDTree", counting, raising=False)
    assert _exact(verify_cover(pts, cover)) == _exact(reference_verify_cover(pts, cover))
    return len(built)


def test_grid_settles_a_valid_cover_without_a_tree(monkeypatch):
    pts = gen_square(2000, 2000.0, 1)
    cover = fast_cover(pts)
    assert _tree_builds(monkeypatch, pts, cover) == 0
    # an uncovered point needs the tree's exact nearest distance
    assert _tree_builds(monkeypatch, pts, cover[1:]) == 1


def test_far_outlier_center_sends_open_rows_to_its_tree(monkeypatch):
    # the cells widen until every other center shares one column slice,
    # so the candidate pairs pass their cap: open_rows' tree settles every
    # point, and verify_cover builds no tree of its own
    pts = gen_square(2000, 2000.0, 1)
    cover = np.vstack([fast_cover(pts), [(1e9, 1e9)]])
    assert _tree_builds(monkeypatch, pts, cover) == 1
    assert udcover.gridindex.open_rows(pts, cover, 1.0 + 1e-9).tolist() == []
    # an uncovered point is left open by that tree and queried by it again
    assert _tree_builds(monkeypatch, pts, cover[1:]) == 1


def _clusters(n, k, seed):
    """n points in k clusters (standard normal around uniform centers in a
    10^5 square)."""
    rng = np.random.default_rng(seed)
    centers = rng.random((k, 2)) * 1e5
    return np.ascontiguousarray(centers[rng.integers(0, k, n)] + rng.normal(size=(n, 2)))


def test_clustered_cover_missing_a_center_builds_one_tree(monkeypatch):
    # the cells widen past the clusters, so open_rows' table would
    # overflow: its tree leaves the missing center's points open, and
    # verify_cover queries them in that same tree
    pts = _clusters(20_000, 100, 1)
    cover = fast_cover(pts)
    assert _tree_builds(monkeypatch, pts, cover) == 1
    assert _tree_builds(monkeypatch, pts, cover[1:]) == 1
    assert not verify_cover(pts, cover[1:]).valid
