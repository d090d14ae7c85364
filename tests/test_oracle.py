import math
import random

import pytest

from reference import optimal_cover_exhaustive
from udcover.oracle import (
    MAX_EXACT_POINTS,
    candidate_centers,
    optimal_cover,
    verify_cover,
)


def rand_points(n, side, seed):
    rnd = random.Random(seed)
    return [(rnd.uniform(0, side), rnd.uniform(0, side)) for _ in range(n)]


def test_verify_empty_points_always_valid():
    assert verify_cover([], []).valid
    assert verify_cover([], [(0.0, 0.0)]).valid


def test_verify_empty_cover_invalid():
    report = verify_cover([(0.0, 0.0)], [])
    assert not report.valid
    assert report.uncovered[0][0] == 0


def test_verify_boundary_point():
    assert verify_cover([(1.0, 0.0)], [(0.0, 0.0)]).valid
    assert not verify_cover([(1.0 + 1e-6, 0.0)], [(0.0, 0.0)]).valid
    # eps widens the boundary
    assert verify_cover([(1.0 + 1e-6, 0.0)], [(0.0, 0.0)], eps=1e-5).valid


def test_verify_reports_uncovered_indices():
    report = verify_cover([(0.0, 0.0), (5.0, 5.0)], [(0.0, 0.0)])
    assert not report.valid
    assert [i for i, _ in report.uncovered] == [1]


def test_verify_rejects_cover_entries_that_are_not_pairs():
    # flattened, these once re-cut into three "centers"
    with pytest.raises(ValueError):
        verify_cover([(0, 0)], [(0, 0, 5), (1, 1, 5)])
    with pytest.raises(ValueError):
        verify_cover([(0, 0)], [(0, 0), (1,)])
    # mixed lengths with the right total, once re-cut into two pairs
    with pytest.raises(ValueError):
        verify_cover([(0, 0)], [(0,), (0, 0, 5)])
    with pytest.raises(ValueError):
        verify_cover([(0, 0)], [(0, 0, 5), (0,)])
    with pytest.raises(ValueError):
        verify_cover([(0, 0)], [(), (0, 0, 5, 5)])
    assert verify_cover([(0, 0)], [(0, 0), (1, 1)]).valid


def test_candidate_centers_include_points():
    pts = [(0.0, 0.0), (1.0, 0.0)]
    cands = candidate_centers(pts)
    assert (0.0, 0.0) in cands
    assert (1.0, 0.0) in cands
    # circle centers through the pair as well
    assert len(cands) > 2


def test_candidate_centers_pair_at_diameter():
    # exactly 2 apart: the only common disk is centered at the midpoint
    cands = candidate_centers([(0.0, 0.0), (2.0, 0.0)])
    assert any(math.isclose(c[0], 1.0) and abs(c[1]) < 1e-12 for c in cands)


def test_optimal_singletons():
    assert optimal_cover([]).size == 0
    assert optimal_cover([(3.0, 4.0)]).size == 1


def test_optimal_two_clusters():
    pts = [(0.0, 0.0), (0.5, 0.5), (10.0, 10.0)]
    result = optimal_cover(pts)
    assert result.size == 2
    assert verify_cover(pts, result.centers, eps=1e-9).valid


def test_optimal_rejects_large_inputs():
    pts = rand_points(MAX_EXACT_POINTS + 1, 5.0, 0)
    with pytest.raises(ValueError):
        optimal_cover(pts)


def test_optimal_cover_is_valid():
    for seed in range(20):
        pts = rand_points(8, 4.0, seed)
        result = optimal_cover(pts)
        assert verify_cover(pts, result.centers, eps=1e-9).valid


def test_branch_and_bound_matches_exhaustive():
    for seed in range(60):
        n = 3 + seed % 4
        pts = rand_points(n, 4.0, 100 + seed)
        assert optimal_cover(pts).size == optimal_cover_exhaustive(pts)


def test_optimal_order_insensitive():
    pts = rand_points(7, 4.0, 42)
    a = optimal_cover(pts).size
    b = optimal_cover(list(reversed(pts))).size
    assert a == b
