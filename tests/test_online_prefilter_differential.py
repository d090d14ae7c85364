"""dgt2018 and ccfm1997 against the plain loops of ``classic_reference``.

The solvers drop, with one cKDTree query per block, the points an earlier
center already covers. The covers must stay bit-equal to the plain loops
on lattices with points at exactly distance 1, duplicates, sorted input,
sizes at the block edges, sparse/dense mixes that switch the tree on and
off, and offsets up to 2^30.
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
    built = []
    real = classic.cKDTree

    def counting(*args, **kwargs):
        built.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(classic, "cKDTree", counting)
    return built


def test_tree_only_after_a_block_with_enough_covered_points(monkeypatch):
    built = _count_trees(monkeypatch)
    sparse = gen_disk(4000, 4000 / 0.02, 5)
    dense = gen_square(4000, 4000 / 50.0, 6)
    for solver in (dgt2018, ccfm1997):
        built.clear()
        solver(sparse)
        assert built == [], solver.__name__
        # blocks of 256, 512, 1024, 2048 and 160 points: every block after
        # the first gets a tree
        built.clear()
        solver(dense)
        assert len(built) == 4, solver.__name__
        # a dense first block switches the tree on for the second; the
        # sparse second block switches it off for the third
        built.clear()
        solver(np.concatenate([dense[:256], sparse[:512], dense[:1024] + 1e4]))
        assert len(built) == 1, solver.__name__
