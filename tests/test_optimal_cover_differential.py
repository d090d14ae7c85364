"""optimal_cover's integer program against exhaustive enumeration
(``reference.optimal_cover_exhaustive``, with candidates of its own) on
generated sets of up to 7 points, where repeated points, pairs exactly 2
apart and points on a candidate circle are common."""

import pytest

from reference import optimal_cover_exhaustive
from udcover import optimal_cover, verify_cover

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

coordinate = st.floats(0.0, 4.0) | st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=7))
@example([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)])
@example([(1.0, 1.0)] * 7)
# a pair whose squared distance is subnormal
@example([(0.0, 0.0), (0.0, 1.6238074214861098e-162)])
def test_optimal_matches_exhaustive(pts):
    result = optimal_cover(pts)
    assert result.size == len(result.centers) == optimal_cover_exhaustive(pts)
    assert verify_cover(pts, result.centers).valid
