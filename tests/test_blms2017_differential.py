"""blms2017 against the per-point sweep it replaced (``sweep_reference``).

Where the reference returns, ``blms2017`` and ``blms2017_raw`` must give
its covers bit for bit; where it raises (a point on the boundary of its
upper or lower quad disk that rounding leaves outside), ``blms2017`` must
return a cover ``verify_cover`` accepts. The inputs put points on the
sweep's boundaries: exactly 2 apart and a few ulps either side, on the
width-2 column edges, equidistant from two anchors, with duplicates and
signed zeros, at offsets up to 2^30. Each set runs with the numpy
cut-off at its value, at 0 (every window marked in numpy) and above any
window (every window marked in the plain loop).
"""

import math
from unittest import mock

import numpy as np
import pytest

from sweep_reference import reference_blms2017, reference_blms2017_raw
from udcover import sweep
from udcover.geom import SQRT3
from udcover.oracle import verify_cover
from udcover.sweep import blms2017, blms2017_raw

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

CUTOFFS = (sweep._NUMPY_CUTOFF, 0, 10**9)


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
    ox, oy = (draw(st.sampled_from([0.0, 2.0**20, -(2.0**20), -(2.0**30)]))
              for _ in range(2))
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
    for cutoff in CUTOFFS:
        with mock.patch.object(sweep, "_NUMPY_CUTOFF", cutoff):
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
    for offset in (0.0, 2.0**20, -(2.0**20), -(2.0**30)):
        for spacing in (2.0, SQRT3):
            pts = [(offset + spacing * i, offset + spacing * j)
                   for i in range(8) for j in range(8)]
            check(pts)
