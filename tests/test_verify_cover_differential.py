"""verify_cover against the unbounded query it replaced, on generated
points and covers."""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from udcover import fast_cover_pp
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
