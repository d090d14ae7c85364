import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

import udcover
from reference import optimal_cover_exhaustive
from udcover.oracle import (
    MAX_EXACT_POINTS,
    VerifyReport,
    _coverage,
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


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1.0, -2.0])
def test_verify_rejects_eps_outside_its_range(eps):
    # a NaN limit passed every point; at eps = -1 a point on a center
    # was uncovered at distance 0
    with pytest.raises(ValueError, match="eps must be finite and > -1"):
        verify_cover([(0.0, 0.0)], [(0.0, 0.0)], eps=eps)


def test_verify_eps_just_above_minus_one():
    eps = math.nextafter(-1.0, 0.0)
    assert verify_cover([(3.0, 4.0)], [(3.0, 4.0)], eps=eps).valid
    report = verify_cover([(3.0, 4.0)], [(3.0, 4.0 + 1e-15)], eps=eps)
    assert [i for i, _ in report.uncovered] == [0]


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
    cands = candidate_centers(pts).tolist()
    # exact rows: ``in`` on the array matched any single coordinate
    assert [0.0, 0.0] in cands
    assert [1.0, 0.0] in cands
    assert [0.0, 1.0] not in cands
    # circle centers through the pair as well
    assert len(cands) > 2


def test_candidate_centers_pair_at_diameter():
    # exactly 2 apart: the only common disk is centered at the midpoint
    cands = candidate_centers([(0.0, 0.0), (2.0, 0.0)])
    assert any(math.isclose(c[0], 1.0) and abs(c[1]) < 1e-12 for c in cands)


def _ball_query_coverage(pts, cands):
    """The coverage matrix as built from cKDTree ball lists at 1 + 1e-9,
    then the exact test: the form the broadcast test replaced."""
    hits = cKDTree(cands).query_ball_point(pts, 1.0 + 1e-9)
    rows = np.repeat(np.arange(len(pts)), [len(h) for h in hits])
    cols = np.concatenate(hits)
    d = pts[rows] - cands[cols]
    keep = d[:, 0] ** 2 + d[:, 1] ** 2 <= 1.0 + 1e-12
    covers = np.zeros((len(cands), len(pts)), bool)
    covers[cols[keep], rows[keep]] = True
    return covers


@pytest.mark.parametrize("pts", [
    *(udcover.gen_square(n, side, seed) for n, side, seed in
      [(1, 1.0, 0), (7, 4.0, 1), (40, 3.0, 2), (100, 2.0, 1), (100, 10.0, 3), (100, 1e-6, 4)]),
    *(udcover.gen_disk(n, area, seed) for n, area, seed in [(60, 5.0, 5), (100, 300.0, 6)]),
    # points exactly 1 and 2 apart, so candidates lie on circles through them
    np.array([(float(i), float(j)) for i in range(10) for j in range(10)]),
    np.array([(2.0 * i, 0.5 * j) for i in range(10) for j in range(10)]),
    np.array([(0.6 * i + 1e6, 0.8 * j - 1e6) for i in range(10) for j in range(10)]),
], ids=lambda p: f"n{len(p)}")
def test_coverage_matches_the_ball_query(pts):
    cands = candidate_centers(pts)
    covers = _coverage(pts, cands)
    assert covers.shape == (len(cands), len(pts)) and covers.dtype == bool
    assert (covers == _ball_query_coverage(pts, cands)).all()


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


def test_optimal_matches_exhaustive():
    for seed in range(60):
        n = 3 + seed % 4
        pts = rand_points(n, 4.0, 100 + seed)
        assert optimal_cover(pts).size == optimal_cover_exhaustive(pts)


def test_optimal_order_insensitive():
    pts = rand_points(7, 4.0, 42)
    a = optimal_cover(pts).size
    b = optimal_cover(list(reversed(pts))).size
    assert a == b


def test_optimal_known_optimum_at_100_points():
    # 20 clusters of 5 points, each inside a disk of radius 0.9, cluster
    # centers 4.5 apart: one disk per cluster, and no disk reaches two
    rnd = random.Random(5)
    pts = []
    for cx in range(5):
        for cy in range(4):
            for _ in range(5):
                r = 0.9 * math.sqrt(rnd.random())
                a = rnd.uniform(0.0, 2.0 * math.pi)
                pts.append((4.5 * cx + r * math.cos(a), 4.5 * cy + r * math.sin(a)))
    assert len(pts) == 100 <= MAX_EXACT_POINTS
    result = optimal_cover(pts)
    assert result.size == 20 == len(result.centers)
    assert verify_cover(pts, result.centers).valid


def test_optimal_one_disk_needs_no_solver(monkeypatch):
    # 100 points in a 2 x 2 square at density 50: one disk covers them
    import scipy.optimize

    monkeypatch.setattr(scipy.optimize, "milp", None)
    pts = udcover.gen_square(100, 2.0, 1)
    result = optimal_cover(pts)
    assert result.size == 1 == len(result.centers)
    assert verify_cover(pts, result.centers).valid


# the second input takes the one-disk shortcut, which keeps the check
@pytest.mark.parametrize("pts", [[(0.0, 0.0), (3.0, 0.0)], [(0.0, 0.0), (1.0, 0.0)]])
def test_optimal_raises_when_its_centers_do_not_cover(monkeypatch, pts):
    monkeypatch.setattr("udcover.oracle.verify_cover",
                        lambda points, cover: VerifyReport(False, [(0, 4.0)], len(cover)))
    with pytest.raises(RuntimeError, match="do not cover"):
        optimal_cover(pts)


def test_optimal_raises_when_the_solver_fails(monkeypatch):
    import scipy.optimize

    def failed(*args, **kwargs):
        return scipy.optimize.OptimizeResult(status=1, message="time limit reached", x=None)

    monkeypatch.setattr(scipy.optimize, "milp", failed)
    with pytest.raises(RuntimeError, match="time limit reached"):
        optimal_cover([(0.0, 0.0), (3.0, 0.0)])


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize adds about 10 MB and 0.08 s to every process that
    # imports the package; only optimal_cover loads it
    src = str(Path(udcover.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import udcover; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
