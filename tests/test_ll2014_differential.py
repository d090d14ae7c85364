"""ll2014 against the plain-Python reference built from the same
closed-form strips and the textbook stabbing greedy, and that greedy
against a brute-force minimum.

ll2014 has three stab loops: one over every segment; one over only the
segments whose top is a new low of their strip, which it runs on dense
input; and one that sets the forced stabs in numpy and visits only the
segments whose stab depends on the loop, which it runs on sparse input.
Each differential test forces each loop in turn."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest

from reference import worst_case_pointset
from sweep_reference import reference_ll2014, stab_segments
from udcover import gen_disk, gen_square, sweep
from udcover.geom import HALF_SQRT3, SQRT3, SQRT3_OVER_6
from udcover.oracle import verify_cover
from udcover.sweep import ll2014

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


def _bits(cover):
    return np.asarray(cover, np.float64).reshape(-1, 2).tobytes()


def _nudge(x, ulps):
    step = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, step)
    return x


# offsets from the smallest x that put a point on a strip boundary
# (frac 0) or a midline (frac 0.5) of some pass i
_ON_STRIP_LINE = st.builds(lambda m, frac, i: (m + frac) * SQRT3 + i * SQRT3_OVER_6,
                           st.integers(0, 5), st.sampled_from([0.0, 0.5]),
                           st.integers(0, 5))
_Y = st.one_of(st.floats(-4.0, 4.0),
               st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, HALF_SQRT3]))


@st.composite
def point_sets(draw):
    x0 = draw(st.one_of(st.sampled_from([0.0, -0.0, -7.25, 123456.789]),
                        st.floats(-1e6, 1e6)))
    pts = [(x0, draw(_Y))]
    for _ in range(draw(st.integers(0, 8))):
        x = x0 + draw(st.one_of(_ON_STRIP_LINE, st.floats(0.0, 12.0)))
        x = _nudge(x, draw(st.integers(-2, 2)))
        # a collinear column: equally spaced points at one x
        y0 = draw(_Y)
        step = draw(st.sampled_from([0.1, 0.5, 1.0, 2.0]))
        pts += [(x, y0 + j * step) for j in range(draw(st.integers(1, 5)))]
    dup = draw(st.integers(0, len(pts)))
    return pts + pts[:dup]


@settings(max_examples=300, deadline=None)
@given(point_sets())
@example([(x, 0.0) for x in (0.0, SQRT3, 2 * SQRT3, SQRT3 / 2, SQRT3_OVER_6)])
@example([(0.0, y / 10.0) for y in range(10)] * 2)
@example(worst_case_pointset(3))
def test_ll2014_matches_reference(pts):
    for passes in (1, 6):
        cover = _every_loop(pts, passes)
        assert _bits(ll2014(pts[::-1], passes=passes)) == _bits(cover)
        assert verify_cover(pts, cover).valid
    assert len(ll2014(pts)) <= len(ll2014(pts, passes=1))


# (_DENSE, _SPARSE) that force each loop on any bounding box
_FORCE = {"new lows": (0.0, 0.0), "plain": (math.inf, 0.0), "forced": (math.inf, math.inf)}


@pytest.mark.parametrize("loop", _FORCE)
@pytest.mark.parametrize("box", [(0.0, 0.0), (0.0, 5.0), (5.0, 0.0), (1e6, 1e6)])
def test_thresholds_force_each_loop(loop, box):
    with mock.patch.multiple(sweep, _DENSE=_FORCE[loop][0], _SPARSE=_FORCE[loop][1]):
        assert sweep._stab_loop(1, *box) == loop


def _every_loop(pts, passes):
    """ll2014's cover, checked bit for bit against the reference with the
    loop ll2014 picks and with each of the three loops forced."""
    expected = _bits(reference_ll2014(pts, passes=passes))
    cover = ll2014(pts, passes=passes)
    assert _bits(cover) == expected
    for dense, sparse in _FORCE.values():
        with mock.patch.multiple(sweep, _DENSE=dense, _SPARSE=sparse):
            assert _bits(ll2014(pts, passes=passes)) == expected
    return cover


_X_SHIFT = st.one_of(st.just(0.0), st.builds(lambda sign, k: sign * 2.0**k,
                                              st.sampled_from([1.0, -1.0]), st.integers(0, 40)))
# from |y| = 2^22 on, every segment shrinks by a margin
_Y_SHIFT = st.one_of(st.just(0.0), st.builds(lambda sign, k: sign * 2.0**k,
                                              st.sampled_from([1.0, -1.0]), st.integers(22, 49)))


@st.composite
def dense_point_sets(draw):
    """A cluster of 20-300 points in a box of side 0.5-4, with points on
    strip edges and midlines nudged by up to 2 ulps, equal-y runs and
    duplicates, then shifted."""
    side = draw(st.one_of(st.sampled_from([0.5, 1.0, 4.0]), st.floats(0.5, 4.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.random((draw(st.integers(20, 300)), 2)) * side
    # with the smallest x at 0, _ON_STRIP_LINE is on each pass's lines
    pts[0, 0] = 0.0
    on_lines = draw(st.lists(st.tuples(_ON_STRIP_LINE, st.integers(-2, 2)), max_size=20))
    rows = rng.choice(len(pts), len(on_lines), replace=False)
    pts[rows, 0] = [_nudge(x, ulps) for x, ulps in on_lines]
    for _ in range(draw(st.integers(0, 3))):
        run = rng.choice(len(pts), draw(st.integers(2, 20)))
        pts[run, 1] = draw(st.sampled_from([0.0, side / 2, side]))
    pts = np.concatenate((pts, pts[rng.choice(len(pts), draw(st.integers(0, 30)))]))
    return pts + (draw(_X_SHIFT), draw(_Y_SHIFT))


@settings(max_examples=150, deadline=None)
@given(dense_point_sets())
@example(gen_square(300, 1.0, 1))
def test_both_loops_match_reference_on_dense_sets(pts):
    for passes in (1, 6):
        assert verify_cover(pts, _every_loop(pts, passes)).valid


# with the smallest x at 0, pass 0's first midline; a point there has a
# segment of half length exactly 1
_MIDLINE = 0.5 * SQRT3


@st.composite
def sparse_point_sets(draw):
    """20-300 points spread over a box of side 50-5000, with points on
    strip edges and midlines nudged by up to 2 ulps, equal-y runs, a
    midline pair whose lower segment's top is exactly the upper one's
    bottom, and duplicates, then shifted."""
    side = draw(st.one_of(st.sampled_from([50.0, 5000.0]), st.floats(50.0, 5000.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.random((draw(st.integers(20, 300)), 2)) * side
    pts[0, 0] = 0.0
    on_lines = draw(st.lists(st.tuples(_ON_STRIP_LINE, st.integers(-2, 2)), max_size=20))
    rows = rng.choice(len(pts), len(on_lines), replace=False)
    pts[rows, 0] = [_nudge(x, ulps) for x, ulps in on_lines]
    for _ in range(draw(st.integers(0, 3))):
        run = rng.choice(len(pts), draw(st.integers(2, 20)))
        pts[run, 1] = draw(st.sampled_from([0.0, side / 2, side]))
    if draw(st.booleans()):
        y = float(draw(st.integers(0, int(side))))
        pts = np.concatenate((pts, [(_MIDLINE, y), (_MIDLINE, y - 2.0)]))
    pts = np.concatenate((pts, pts[rng.choice(len(pts), draw(st.integers(0, 30)))]))
    return pts + (draw(_X_SHIFT), draw(_Y_SHIFT))


@settings(max_examples=150, deadline=None)
@given(sparse_point_sets())
@example(gen_disk(300, 15000.0, 1))
def test_every_loop_matches_reference_on_sparse_sets(pts):
    for passes in (1, 6):
        assert verify_cover(pts, _every_loop(pts, passes)).valid


def test_a_top_equal_to_the_previous_bottom_is_not_forced():
    # one strip: the far point's segment comes first, the segment [9, 11]
    # lies below its bottom and is forced, and [7, 9] is not, though its
    # top is that bottom: the stab at 9 covers it
    pts = [(0.0, 1000.0), (_MIDLINE, 10.0), (_MIDLINE, 8.0)]
    cover = _every_loop(pts, 1)
    assert len(cover) == 2
    assert tuple(cover[1]) == (_MIDLINE, 9.0)


# the benchmark's workloads on each side of the choice, and the corner
# cases of the bounding box, whose width counts as at least sqrt(3)
_CHOICE = {
    "uniform": ([gen_square(10000, 10000.0, seed) for seed in range(3)], "plain"),
    "sparse": ([gen_disk(8000, 400000.0, seed) for seed in range(3)], "forced"),
    "small-batch": ([gen_disk(500, 500.0, seed) for seed in range(3)], "plain"),
    "dense": ([gen_square(16000, 320.0, seed) for seed in range(3)], "new lows"),
    "one point": ([[(3.0, 4.0)]], "new lows"),
    "zero width": ([[(3.0, 0.5 * k) for k in range(100)]], "plain"),
    "band 0.01 wide": ([np.column_stack((np.random.default_rng(seed).random(1000) * 0.01,
                                         np.arange(1000.0))) for seed in range(3)], "plain"),
    "vertical line, points 10 apart": ([[(3.0, 10.0 * k) for k in range(100)]], "forced"),
    "zero height": ([[(0.5 * k, 4.0) for k in range(100)]], "new lows"),
}


@pytest.mark.parametrize("name", _CHOICE)
def test_ll2014_picks_its_loop_by_density(name, monkeypatch):
    picked = []
    stab_loop = sweep._stab_loop

    def spy(*box):
        picked.append(stab_loop(*box))
        return picked[-1]

    monkeypatch.setattr(sweep, "_stab_loop", spy)
    point_sets, loop = _CHOICE[name]
    for pts in point_sets:
        ll2014(pts)
    assert picked == [loop] * len(point_sets)


def test_ll2014_on_no_points_picks_no_loop(monkeypatch):
    # a call would raise TypeError
    monkeypatch.setattr(sweep, "_stab_loop", None)
    assert ll2014([]).shape == (0, 2)


def _fewest_stabs(segments):
    # some fewest stabs all sit at segment bottoms: a stab moved down to
    # the highest bottom among the segments it stabs still stabs them
    bottoms = sorted({b for _, b in segments})
    for size in range(len(bottoms) + 1):
        for stabs in itertools.combinations(bottoms, size):
            if all(any(b <= s <= t for s in stabs) for t, b in segments):
                return size
    raise AssertionError("every segment holds its own bottom")


# a point at distance d from a sqrt(3) strip's midline gives a segment of
# length 2 * sqrt(1 - d^2), between 1 and 2
_SEGMENT = st.builds(lambda b, length: (b + length, b),
                     st.one_of(st.floats(-5.0, 5.0), st.integers(-20, 20).map(lambda v: v / 4)),
                     st.one_of(st.floats(1.0, 2.0), st.sampled_from([1.0, 1.5, 2.0])))


@settings(max_examples=300, deadline=None)
@given(st.lists(_SEGMENT, max_size=12))
def test_stab_segments_stabs_every_segment_below_the_previous_bottom(segments):
    # the invariant ll2014's forced loop rests on: the last stab is at or
    # above the previous segment's bottom
    stabs = {s for _, s in stab_segments(0.0, segments)}
    ordered = sorted(segments, key=lambda s: -s[1])
    for (_, prev_bottom), (top, bottom) in zip(ordered, ordered[1:]):
        if top < prev_bottom:
            assert bottom in stabs


@settings(max_examples=300, deadline=None)
@given(st.lists(_SEGMENT, max_size=8))
def test_stab_segments_is_minimal(segments):
    stabs = stab_segments(0.0, segments)
    assert all(x == 0.0 for x, _ in stabs)
    assert all(any(b <= s <= t for _, s in stabs) for t, b in segments)
    assert len(stabs) == _fewest_stabs(segments)
