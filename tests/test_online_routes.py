"""The online route each benchmark workload shape takes, over several seeds.

``classic._path`` picks the grid loop, the dependency rounds or the
doubling blocks per input. A change to that choice moves the benchmark's
``ccfm1997`` and ``dgt2018`` numbers, so it should fail here first. The
shapes are those of ``perfbench/workloads.py``.
"""

import pytest

from udcover import classic, gen_disk, gen_square

WORKLOADS = {
    "uniform": (lambda s: gen_square(10000, 10000.0, s), range(1, 9)),
    "sparse": (lambda s: gen_disk(8000, 400000.0, s), range(1, 9)),
    "dense": (lambda s: gen_square(16000, 320.0, s), range(1, 9)),
    "small-batch": (lambda s: gen_disk(500, 500.0, s), range(1, 41)),
}

ROUTES = {
    ("uniform", "dgt2018"): "rounds", ("uniform", "ccfm1997"): "blocks",
    ("sparse", "dgt2018"): "rounds", ("sparse", "ccfm1997"): "rounds",
    ("dense", "dgt2018"): "grid", ("dense", "ccfm1997"): "grid",
    ("small-batch", "dgt2018"): "rounds", ("small-batch", "ccfm1997"): "grid",
}


@pytest.mark.parametrize("workload, solver", sorted(ROUTES))
def test_workload_route_is_pinned(workload, solver, monkeypatch):
    taken = []
    path = classic._path
    monkeypatch.setattr(classic, "_path", lambda *args: taken.append(path(*args)) or taken[-1])
    gen, seeds = WORKLOADS[workload]
    for s in seeds:
        getattr(classic, solver)(gen(s))
    assert taken == [ROUTES[workload, solver]] * len(seeds)
