import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import udcover
import udcover.gridindex as gridindex
from udcover.gridindex import RadiusGrid, open_rows, settling_centers


def brute_nearest(pts, q, r):
    best = None
    best_d = math.inf
    for i, (x, y) in enumerate(pts):
        d = (x - q[0]) ** 2 + (y - q[1]) ** 2
        if d <= r * r and (d < best_d):
            best_d = d
            best = (x, y)
    return best


def test_empty():
    g = RadiusGrid()
    assert g.nearest_within((0.0, 0.0), 1.0) is None


def test_insert_and_query():
    g = RadiusGrid()
    g.insert((0.5, 0.5))
    hit = g.nearest_within((0.0, 0.0), 1.0)
    assert hit is not None
    p, d = hit
    assert p == (0.5, 0.5)
    assert abs(d - 0.5) < 1e-12


def test_boundary_inclusive():
    g = RadiusGrid()
    g.insert((1.0, 0.0))
    assert g.nearest_within((0.0, 0.0), 1.0) is not None


def test_out_of_range():
    g = RadiusGrid()
    g.insert((3.0, 3.0))
    assert g.nearest_within((0.0, 0.0), 1.0) is None


def test_remove_multiset():
    g = RadiusGrid()
    g.insert((0.1, 0.1))
    g.insert((0.1, 0.1))
    assert g.remove((0.1, 0.1))
    assert g.nearest_within((0.0, 0.0), 1.0) is not None
    assert g.remove((0.1, 0.1))
    assert g.nearest_within((0.0, 0.0), 1.0) is None
    assert not g.remove((0.1, 0.1))


def test_tie_breaks_by_insertion_order():
    g = RadiusGrid()
    g.insert((0.5, 0.0))
    g.insert((-0.5, 0.0))
    p, _ = g.nearest_within((0.0, 0.0), 1.0)
    assert p == (0.5, 0.0)


def test_matches_linear_scan():
    rnd = random.Random(7)
    pts = [(rnd.uniform(-4, 4), rnd.uniform(-4, 4)) for _ in range(200)]
    g = RadiusGrid()
    for p in pts:
        g.insert(p)
    for _ in range(300):
        q = (rnd.uniform(-5, 5), rnd.uniform(-5, 5))
        expect = brute_nearest(pts, q, 1.0)
        got = g.nearest_within(q, 1.0)
        if expect is None:
            assert got is None
        else:
            assert got is not None
            gd = got[1]
            ed = (expect[0] - q[0]) ** 2 + (expect[1] - q[1]) ** 2
            assert abs(gd - ed) < 1e-12


def test_insertion_number_names_the_point_the_probe_returns():
    # removed points keep their numbers: the count of earlier inserts
    rnd = random.Random(11)
    pts = [(rnd.uniform(-4, 4), rnd.uniform(-4, 4)) for _ in range(200)]
    g = RadiusGrid()
    for p in pts:
        g.insert(p)
    for p in pts[::3]:
        assert g.remove(p)
    hits = 0
    for _ in range(300):
        q = (rnd.uniform(-5, 5), rnd.uniform(-5, 5))
        hit = g._nearest(q, 1.0)
        assert g.nearest_within(q, 1.0) == (hit and hit[:2])
        if hit is not None:
            hits += 1
            assert hit[2] % 3 and pts[hit[2]] == hit[0]
    assert hits > 100


def _settling(points, centers, limit, monkeypatch):
    """``settling_centers``' answer, checked against ``open_rows`` and the
    settle test, and whether its tree answered."""
    trees = []
    real = gridindex._tree_open_rows

    def tree(*args):
        trees.append(args)
        return real(*args)

    monkeypatch.setattr(gridindex, "_tree_open_rows", tree)
    open_, who = settling_centers(points, centers, limit)
    assert who.shape == (len(points),) and who.dtype == np.intp
    assert open_.tolist() == np.flatnonzero(who < 0).tolist()
    assert open_.tolist() == open_rows(points, centers, limit).tolist()
    s = who >= 0
    assert (who[s] < len(centers)).all()
    c = centers[who[s]]
    assert gridindex._settles(points[s, 0] - c[:, 0], points[s, 1] - c[:, 1],
                              gridindex._settle_sq(limit)).all()
    return who, bool(trees)


@pytest.mark.parametrize("limit", [1.0, 1.0 + 1e-9, 0.3])
def test_settling_centers_on_the_cell_grid(monkeypatch, limit):
    # the rows settle in their own column and in the columns beside it
    rng = np.random.default_rng(3)
    points = rng.random((3000, 2)) * 40.0
    centers = rng.random((400, 2)) * 40.0
    who, tree = _settling(points, centers, limit, monkeypatch)
    assert not tree and 100 < np.count_nonzero(who >= 0) < len(points) - 100


def test_settling_centers_by_the_tree_past_a_far_outlier(monkeypatch):
    # one far center widens the cells until the candidates pass their cap
    rng = np.random.default_rng(4)
    points = rng.random((2000, 2)) * 40.0
    centers = np.vstack([rng.random((400, 2)) * 40.0, [(1e9, 1e9)]])
    who, tree = _settling(points, centers, 1.0, monkeypatch)
    assert tree and 100 < np.count_nonzero(who >= 0) < len(points) - 100


def test_settling_centers_by_the_tree_where_the_extent_overflows(monkeypatch):
    # the centers' width, 3e308, is inf in floats
    centers = np.array([(-1.5e308, 0.0), (1.5e308, 0.0), (0.0, 0.0)])
    points = np.array([(-1.5e308, 0.5), (1.5e308, -0.5), (0.3, 0.4), (0.0, 1.0), (5.0, 5.0)])
    who, tree = _settling(points, centers, 1.0, monkeypatch)
    assert tree and who.tolist() == [0, 1, 2, -1, -1]


def test_contract_checks_survive_python_O():
    # -O strips assert statements; these checks must still raise. The
    # third is ccfm1997's promotion of a point that is not a candidate,
    # which the handoff's replay of the rounds' promotions relies on; the
    # last the coordinate bound of g1991 and the fastcover solvers.
    code = """
from udcover.classic import CcfmState
from udcover.geom import bounded_points
from udcover.gridindex import RadiusGrid
for check in (lambda: RadiusGrid(0.0),
              lambda: RadiusGrid(1.0).nearest_within((0.0, 0.0), 2.0),
              lambda: CcfmState().promote((0.0, 0.0)),
              lambda: bounded_points([(0.0, 2.0**22)])):
    try:
        check()
    except (ValueError, RuntimeError) as exc:
        print(type(exc).__name__ + ":", exc)
"""
    src = str(Path(udcover.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    raised = [line.split(":")[0] for line in out.splitlines()]
    assert raised == ["ValueError", "ValueError", "RuntimeError", "ValueError"], out
