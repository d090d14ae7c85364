import math
import os
import random
import subprocess
import sys
from pathlib import Path

import udcover

from udcover.gridindex import RadiusGrid


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
