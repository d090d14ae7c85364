"""blms2017 against the per-point sweep it replaced (``sweep_reference``).

Where the reference returns, ``blms2017`` and ``blms2017_raw`` must give
its covers bit for bit; where it raises (a point on the boundary of its
upper or lower quad disk that rounding leaves outside), ``blms2017`` must
return a cover ``verify_cover`` accepts. The inputs put points on the
sweep's boundaries: exactly 2 apart and a few ulps either side, on the
width-2 column edges, equidistant from two anchors, with duplicates and
signed zeros, at offsets up to 2^30. Each set runs with the numpy
cut-off at its value, at 0 (every window marked in numpy) and above any
window (every window marked in the plain loop), and each of these with
the windows found per anchor, as on dense input, and per point.
"""

import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest

from sweep_reference import reference_blms2017, reference_blms2017_raw
from udcover import gen_disk, gen_square, sweep
from udcover.geom import SQRT3
from udcover.oracle import verify_cover
from udcover.sweep import blms2017, blms2017_raw

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

CUTOFFS = (sweep._NUMPY_CUTOFF, 0, 10**9)
# the _DENSE that forces each window search on any bounding box, whose
# sides count as at least 2
_FORCE = {"per anchor": 0.0, "per point": math.inf}
_OFFSETS = (0.0, 2.0**20, -(2.0**20), -(2.0**30))


def _bits(cover):
    return np.asarray(cover, np.float64).reshape(-1, 2).tobytes()


def _nudge(x, ulps):
    step = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, step)
    return x


_SPACING = st.sampled_from([2.0, SQRT3])
# small values below the ulp of 2, so that y + 2.0 rounds
_TINY = st.sampled_from([0.0, -0.0, 2.0**-53, -(2.0**-53), 2.0**-52, 1e-9])
_COORD = st.one_of(st.integers(-4, 4).map(float), _TINY,
                   st.floats(-4.0, 4.0, allow_subnormal=False))


def _lattice(draw):
    spacing = draw(_SPACING)
    hex_ = draw(st.booleans())
    x0, y0 = draw(_COORD), draw(_COORD)
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if hex_:
        # rows spacing * sqrt(3)/2 apart, odd rows shifted by half
        return [(x0 + spacing * (i + 0.5 * (j % 2)), y0 + spacing * SQRT3 / 2 * j)
                for i in range(cols) for j in range(rows)]
    return [(x0 + spacing * i, y0 + spacing * j)
            for i in range(cols) for j in range(rows)]


def _column(draw):
    # points at one x, equally spaced
    x, y0 = draw(_COORD), draw(_COORD)
    step = draw(st.sampled_from([0.5, 1.0, SQRT3, 2.0, 3.0]))
    return [(x, y0 + step * j) for j in range(draw(st.integers(2, 5)))]


def _pair(draw):
    # a second point 2 away along an axis or a diagonal, offset in the
    # other coordinate by a tiny amount, before the ulp nudges
    x, y = draw(_COORD), draw(_COORD)
    dx, dy = draw(st.sampled_from([(2.0, 0.0), (0.0, 2.0), (0.0, -2.0),
                                   (math.sqrt(2.0), math.sqrt(2.0)),
                                   (math.sqrt(2.0), -math.sqrt(2.0)),
                                   (1.2, 1.6), (1.2, -1.6)]))
    tx, ty = draw(_TINY), draw(_TINY)
    return [(x, y), (x + dx + tx, y + dy + ty)]


def _column_edge(draw):
    # x = 2k exactly, or one ulp either side
    k = draw(st.integers(-3, 3))
    return [(_nudge(2.0 * k, draw(st.integers(-1, 1))), draw(_COORD))
            for _ in range(draw(st.integers(1, 3)))]


def _equidistant(draw):
    # two anchors mirrored about y = y0 and a point on the mirror line
    x, y0 = draw(_COORD), draw(_COORD)
    h = draw(st.sampled_from([1.01, 1.25, 1.5, 2.0 / math.sqrt(2.0)]))
    d = draw(st.sampled_from([0.0, 0.5, 1.0, 1.2, SQRT3 / 2]))
    return [(x, y0 - h), (x, y0 + h), (x + d, y0)]


def _signed_zeros(draw):
    y = draw(_COORD)
    return [(0.0, y), (-0.0, y), (draw(_COORD), -0.0), (draw(_COORD), 0.0)]


_PARTS = [_lattice, _column, _pair, _column_edge, _equidistant, _signed_zeros]


@st.composite
def point_sets(draw):
    pts = []
    for _ in range(draw(st.integers(1, 4))):
        pts += draw(st.sampled_from(_PARTS))(draw)
    ox, oy = (draw(st.sampled_from(_OFFSETS)) for _ in range(2))
    pts = [(x + ox, y + oy) for x, y in pts]
    # nudge a few coordinates by up to 2 ulps, at the offset's scale
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(pts) - 1))
        x, y = pts[i]
        pts[i] = (_nudge(x, draw(st.integers(-2, 2))),
                  _nudge(y, draw(st.integers(-2, 2))))
    return pts + pts[:draw(st.integers(0, 3))]


def check(pts):
    try:
        want = reference_blms2017(pts)
    except RuntimeError:
        want = None
    if want is not None:
        want_raw = reference_blms2017_raw(pts)
    for cutoff, dense in itertools.product(CUTOFFS, _FORCE.values()):
        with mock.patch.multiple(sweep, _NUMPY_CUTOFF=cutoff, _DENSE=dense):
            got = blms2017(pts)
            raw = blms2017_raw(pts)
        if want is None:
            assert verify_cover(pts, got).valid
            # quad disks, then disks at points of their own
            assert len(raw) % 4 == 0
            assert set(map(tuple, got.tolist())) <= set(map(tuple, raw.tolist())) | set(pts)
        else:
            assert _bits(got) == _bits(want)
            assert _bits(raw) == _bits(want_raw)


@settings(max_examples=250, deadline=None)
@given(point_sets())
# on the boundary of the upper quad disk: the reference raises
@example([(1024.0, 0.0), (1024.0, 2.0)])
# the anchor lies just outside the point's y-window, 2 + ulp above it,
# and dx * dx + dy * dy still rounds to 4
@example([(0.0, 2.0 + 2.0**-51), (1e-9, 2.0**-52)])
# the same in x, in the next column: x - 2.0 lies just right of the
# anchor and ax - x still rounds to -2, while another point of that
# column lies within 2 in x
@example([(1.0 + 2.0**-52, 0.0), (3.0 + 2.0**-51, 0.0), (2.0, 10.0)])
# a later point exactly 2 below or above the anchor, a hair to its right
# (dx * dx + dy * dy rounds to 4), in its column and in the next one: on
# the edge of both windows, and covered
@example([(0.0, 0.0), (1e-9, -2.0)])
@example([(0.0, 0.0), (1e-9, 2.0)])
@example([(-(2.0**-53), 0.0), (2.0**-53, -2.0)])
@example([(-(2.0**-53), 0.0), (2.0**-53, 2.0)])
# a point equidistant from two anchors, in their column and in the next
# one: the first anchor created wins
@example([(0.0, -1.25), (0.0, 1.25), (1.0, 0.0)])
@example([(1.5, -1.25), (1.5, 1.25), (2.5, 0.0)])
# an anchor closer to the point than the first one to dominate it
@example([(0.0, 0.0), (0.5, 3.0), (1.2, 1.5)])
# dx * dx + dy * dy <= 4.0 but dx ** 2 + dy ** 2 > 4.0: the point becomes
# an anchor, in the anchor's own column and in the next one
@example([(0.0, 0.0), (1.6700899767129018, 1.1003633353047981)])
@example([(1.5, 0.0), (3.0826077544791874, 1.2228461454583501)])
# the same near a quad disk: v * v picks the lower or upper disk, pow the
# right one
@example([(0.0, 0.0), (1.5900409514968996, -0.9898652437470549)])
@example([(0.0, 0.0), (1.443832630109629, 0.9575647665730341)])
def test_blms2017_matches_reference(pts):
    check(pts)


def test_blms2017_matches_reference_on_offset_lattices():
    for offset in _OFFSETS:
        for spacing in (2.0, SQRT3):
            pts = [(offset + spacing * i, offset + spacing * j)
                   for i in range(8) for j in range(8)]
            check(pts)


def test_blms2017_matches_reference_on_dense_squares():
    # density 2 and 50: windows of about 16 and 400 points, marked in the
    # plain loop and in numpy
    for n, side in ((400, 14.0), (2000, 6.4)):
        check(gen_square(n, side, 1))


def _anchors_by_search(pts):
    """The anchors of ``blms2017_raw`` (each quad's center disk), in
    numbering order, with each window search forced."""
    out = []
    for dense in _FORCE.values():
        with mock.patch.object(sweep, "_DENSE", dense):
            out.append(blms2017_raw(pts)[::4].tolist())
    return out


# A point whose windows hold no other point marks nothing. The per-point
# sweep starts with only the other points live and numbers the anchors by
# sorted position after it.
def test_blms2017_numbers_lone_anchors_between_visited_ones():
    # lone points 3 apart on one row, interleaved in x with pairs 2 apart
    # on another, the second of which its first marks: by x, lone, pair
    # start, lone, pair end, lone, ...
    for offset in _OFFSETS:
        lone = [(offset + 3.0 * i, offset) for i in range(8)]
        starts = [(offset + 1.5 + 6.0 * i, offset + 10.0) for i in range(4)]
        ends = [(x + 2.0, y) for x, y in starts]
        pts = lone + ends + starts
        check(pts)
        want = sorted(map(list, lone + starts))
        assert _anchors_by_search(pts) == [want, want]


@pytest.mark.parametrize("dx, dy, lone_anchor", [
    # d just above 4, outside the band and inside it: left live
    (1.2, 1.6 + 1e-6, True),
    (1.2, 1.6, True),
    # d exactly 4, re-tested with **, and just below 4: killed
    (2.0, 0.0, False),
    (1.2, 1.6 - 1e-6, False),
])
def test_blms2017_settles_a_lone_point_an_anchor_marks(dx, dy, lone_anchor):
    # the point lies in the anchor's next column, where its own windows
    # hold no other point
    anchor, lone = (1.5, 0.0), (1.5 + dx, dy)
    assert math.floor(lone[0] / 2.0) == 1
    pts = [lone, anchor]
    check(pts)
    want = [list(anchor)] + [list(lone)] * lone_anchor
    assert _anchors_by_search(pts) == [want, want]


@pytest.mark.parametrize("spacing", [2.5, 3.0])
def test_blms2017_lattice_of_lone_points(spacing):
    # no point's windows hold another: every point is an anchor whose
    # quad holds only it, in its center disk
    for offset in _OFFSETS:
        pts = [(offset + spacing * i, offset + spacing * j)
               for i in range(6) for j in range(6)]
        check(pts)
        want = sorted(map(list, pts))
        assert _anchors_by_search(pts) == [want, want]
        assert blms2017(pts).tolist() == want


@pytest.mark.parametrize("search", _FORCE)
@pytest.mark.parametrize("box", [(0.0, 0.0), (0.0, 5.0), (5.0, 0.0), (1e6, 1e6)])
def test_dense_forces_each_window_search(search, box):
    with mock.patch.object(sweep, "_DENSE", _FORCE[search]):
        assert sweep._window_search(1, *box) == search


def _wide_columns():
    # 2^16 + 100 non-empty columns, past the radix pass by column rank, so
    # the stable argsort orders the cells; each column holds the y values
    # 0, 2.5 and 5, shuffled against x, whose windows split the column,
    # and the input is shuffled, so that ties in the sort by y come in any
    # order
    rng = np.random.default_rng(7)
    cols = 2**16 + 100
    x = 2.0 * np.arange(cols)[:, None] + [0.2, 0.9, 1.6]
    y = rng.permuted(np.tile([0.0, 2.5, 5.0], (cols, 1)), axis=1)
    pts = np.column_stack((x.ravel(), y.ravel()))
    return pts[rng.permutation(len(pts))]


def _equal_cells():
    # 3 500 points in three columns on five y values, so most cells share
    # their (column, y) with many others, and 500 of them twice
    rng = np.random.default_rng(8)
    pts = np.column_stack((rng.random(3000) * 6.0, rng.choice([0.0, -0.0, 0.5, 1.0, 3.0], 3000)))
    return np.concatenate((pts, pts[:500]))


_CELL_ORDERS = {"more than 2^16 columns": _wide_columns, "equal (column, y)": _equal_cells}


@functools.cache
def _cell_order_case(name):
    pts = _CELL_ORDERS[name]()
    return pts, _bits(reference_blms2017(pts)), _bits(reference_blms2017_raw(pts))


@pytest.mark.parametrize("search", _FORCE)
@pytest.mark.parametrize("name", _CELL_ORDERS)
def test_cell_order_matches_reference(name, search):
    # the cells go by y, then stably by column rank: radix up to 2^16
    # columns, a stable argsort above
    pts, want, want_raw = _cell_order_case(name)
    if name == "more than 2^16 columns":
        assert len(np.unique(np.floor(pts[:, 0] / 2.0))) > 2**16
    with mock.patch.object(sweep, "_DENSE", _FORCE[search]):
        assert _bits(blms2017(pts)) == want
        assert _bits(blms2017_raw(pts)) == want_raw


# the benchmark's workloads on each side of the choice, and lines and a
# band, whose sides count as at least 2 (one column)
_CHOICE = {
    "uniform": (gen_square(10000, 10000.0, 1), "per point"),
    "sparse": (gen_disk(8000, 400000.0, 1), "per point"),
    "small-batch": (gen_disk(500, 500.0, 1), "per point"),
    "dense": (gen_square(16000, 320.0, 1), "per anchor"),
    "one point": ([(3.0, 4.0)], "per point"),
    "horizontal line, step 0.1": ([(0.1 * k, 4.0) for k in range(1000)], "per anchor"),
    "horizontal line, step 0.5": ([(0.5 * k, 4.0) for k in range(1000)], "per point"),
    "vertical line, step 0.1": ([(3.0, 0.1 * k) for k in range(1000)], "per anchor"),
    "vertical line, step 0.5": ([(3.0, 0.5 * k) for k in range(1000)], "per point"),
    "band 0.01 x 100": (np.column_stack((np.random.default_rng(1).random(1000) * 0.01,
                                         np.linspace(0.0, 100.0, 1000))), "per anchor"),
}


@pytest.mark.parametrize("name", _CHOICE)
def test_blms2017_picks_its_window_search_by_density(name, monkeypatch):
    picked = []
    window_search = sweep._window_search

    def spy(*box):
        picked.append(window_search(*box))
        return picked[-1]

    monkeypatch.setattr(sweep, "_window_search", spy)
    pts, search = _CHOICE[name]
    blms2017(pts)
    assert picked == [search]


def test_blms2017_on_no_points_picks_no_window_search(monkeypatch):
    # a call would raise TypeError
    monkeypatch.setattr(sweep, "_window_search", None)
    assert blms2017([]).shape == (0, 2)


@pytest.mark.parametrize("search", _FORCE)
def test_per_anchor_search_makes_no_per_point_search(search, monkeypatch):
    # per anchor: a bisection of x - 2.0, and two of y + 2.0 and y - 2.0
    # per column searched, and no searchsorted over the points
    searchsorted = mock.Mock(wraps=np.searchsorted)
    left = mock.Mock(wraps=sweep.bisect_left)
    monkeypatch.setattr(np, "searchsorted", searchsorted)
    monkeypatch.setattr(sweep, "bisect_left", left)
    monkeypatch.setattr(sweep, "_DENSE", _FORCE[search])
    pts = gen_square(16000, 320.0, 1)
    anchors = len(blms2017_raw(pts)) // 4
    if search == "per anchor":
        assert searchsorted.call_count == 0
        assert anchors <= left.call_count <= 2 * anchors
    else:
        assert searchsorted.call_count == 5
        assert left.call_count == 0
