"""Time every path of the online engine on the same inputs.

``classic._path`` sends each ``ccfm1997`` or ``dgt2018`` input down one of
three paths: the grid loop, the dependency rounds or the doubling blocks.
Every path gives the same cover, so the choice is a matter of speed only.
For each n x density x order (the generator's order, "shuffled", and the
same points sorted by (x, y)), this script forces each path in turn on
``gen_square(n, n / density, seed)``, asserts that the covers are
bit-equal, and prints:

* ``route``: the path ``_path`` picks;
* ``single``: the path it picks at ``ccfm1997``'s thresholds, the one
  rule for both solvers, and ``vs route``, that path's time against the
  picked one's;
* each path's median library time (gc off, the paths interleaved) and
  the fastest path.

Run from the repo root:

    PYTHONPATH=src python tools/online_paths.py --n 2048 10000 --density 2.5 5 --repeat 7
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time

import numpy as np

from udcover import classic, gen_square

PATHS = ("grid", "rounds", "blocks")
SOLVERS = {"ccfm1997": classic.ccfm1997, "dgt2018": classic.dgt2018}


def _routes(solver, xy: np.ndarray) -> tuple[str, str]:
    """The path ``_path`` picks for xy, and the one it picks at
    ``ccfm1997``'s degree threshold."""
    picked = []
    path = classic._path

    def spy(rows, reach, degree):
        single = classic._CCFM_DEGREE * min(1.0, len(rows) / classic._CCFM_ROWS)
        picked.extend((path(rows, reach, degree), path(rows, reach, single)))
        return picked[0]

    classic._path = spy
    try:
        solver(xy)
    finally:
        classic._path = path
    return picked[0], picked[1]


def _forced(solver, xy: np.ndarray, forced: str) -> tuple[np.ndarray, float]:
    """The cover of xy with every input sent down ``forced``, and the
    seconds the call took."""
    path = classic._path
    classic._path = lambda *args: forced
    try:
        start = time.perf_counter()
        cover = solver(xy)
        return cover, time.perf_counter() - start
    finally:
        classic._path = path


def measure(name: str, xy: np.ndarray, repeat: int) -> dict:
    """One result row: the routes, the median seconds per path and the
    fastest path. Raises AssertionError where two paths' covers differ."""
    solver = SOLVERS[name]
    route, single = _routes(solver, xy)
    times = {p: [] for p in PATHS}
    covers = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeat):
            for p in PATHS:
                cover, seconds = _forced(solver, xy, p)
                covers.setdefault(p, cover.tobytes())
                times[p].append(seconds)
    finally:
        if enabled:
            gc.enable()
    if len(set(covers.values())) != 1:
        raise AssertionError(f"{name}: the paths' covers differ")
    median = {p: statistics.median(t) for p, t in times.items()}
    return {"route": route, "single": single, "median": median,
            "fastest": min(median, key=median.get)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=[2048, 10000])
    parser.add_argument("--density", type=float, nargs="+", default=[2.5, 5.0])
    parser.add_argument("--solver", choices=SOLVERS, nargs="+", default=list(SOLVERS))
    parser.add_argument("--repeat", type=int, default=5, help="timed calls per path")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(f"{'solver':9} {'n':>7} {'density':>7} {'order':8} {'route':6} {'single':6} "
          f"{'vs route':>8} {'grid ms':>8} {'rounds ms':>9} {'blocks ms':>9} fastest")
    for n in args.n:
        for density in args.density:
            xy = gen_square(n, n / density, args.seed)
            orders = {"shuffled": xy, "sorted": xy[np.lexsort((xy[:, 1], xy[:, 0]))]}
            for order, pts in orders.items():
                for name in args.solver:
                    row = measure(name, pts, args.repeat)
                    ms = {p: 1e3 * t for p, t in row["median"].items()}
                    change = ms[row["single"]] / ms[row["route"]] - 1.0
                    print(f"{name:9} {n:7d} {density:7g} {order:8} {row['route']:6} "
                          f"{row['single']:6} {change:+8.0%} {ms['grid']:8.2f} "
                          f"{ms['rounds']:9.2f} {ms['blocks']:9.2f} {row['fastest']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
