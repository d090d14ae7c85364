"""Speed calibration: removes the host's slow phases from measured times.

On a shared host the same job runs 1.5-2.2x slower for seconds at a time,
while other tenants load the cores. Fixed pieces of work run right before
and after a job slow down with it, so the benchmark reports each job's wall
time scaled by a reference over the calibration time measured around it:
seconds at the speed the host has when it is not loaded. Raw wall times are
kept in the details file.

A calibration sample is the geometric mean of three loops, because jobs
slow down by different amounts: tight interpreter loops (float arithmetic,
a small tuple-keyed dict) track the solvers' loops, and a mix of short
library calls (argparse, float parsing, numpy, a small cKDTree, json)
tracks the fixed per-call cost that dominates short jobs. Of the loops
tried (also large dicts, list and numpy sorts, memory copies), this mix
left the smallest run-to-run spread. Set-up is calibrated with the two
interpreter loops alone, since it starts before numpy is imported.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import random
import time

# Times on an idle 2-core KVM guest of an Intel Xeon (family 6, model 207)
# host with Python 3.11: float loop 2.5 ms, dict loop 4.6 ms, call mix
# 5.0 ms. They fix the unit of scaled times, not their comparisons.
INTERPRETER_REFERENCE_S = math.sqrt(0.0025 * 0.0046)
JOB_REFERENCE_S = (0.0025 * 0.0046 * 0.0050) ** (1.0 / 3.0)


def _mix_text() -> str:
    rng = random.Random(0)
    return "".join(f"{rng.random() * 100.0!r} {rng.random() * 100.0!r}\n"
                   for _ in range(2000))


_MIX_TEXT = _mix_text()


def _float_loop() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30_000):
        acc += (i * 1.5) ** 0.5
    return time.perf_counter() - t0


def _dict_loop() -> float:
    t0 = time.perf_counter()
    table: dict[tuple[int, int], float] = {}
    for i in range(20_000):
        key = (i & 127, i >> 7)
        table[key] = table.get(key, 0.0) + i * 0.5
    return time.perf_counter() - t0


def _call_mix() -> float:
    import numpy as np
    from scipy.spatial import cKDTree

    t0 = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--a")
    parser.add_argument("--b", type=float)
    parser.parse_args(["--a", "x", "--b", "2"])
    xs: list[float] = []
    ys: list[float] = []
    for line in io.StringIO(_MIX_TEXT):
        a, b = line.split()
        xs.append(float(a))
        ys.append(float(b))
    arr = np.array([xs, ys]).T
    [tuple(row) for row in arr]
    cells = np.floor(arr / 1.41).astype(np.int64)
    np.unique(cells[:, 0] * 100_000 + cells[:, 1], return_index=True)
    cKDTree(arr[:1000]).query(arr, k=1)
    json.loads(json.dumps({"k": xs[:200]}))
    return time.perf_counter() - t0


def interpreter_sample() -> float:
    """A calibration sample from the standard library alone."""
    return math.sqrt(_float_loop() * _dict_loop())


def job_sample() -> float:
    """A calibration sample for jobs (about 12 ms on an idle host)."""
    return (_float_loop() * _dict_loop() * _call_mix()) ** (1.0 / 3.0)


def scaled(seconds: float, before: float, after: float,
           reference: float = JOB_REFERENCE_S) -> float:
    """Wall seconds of work done between two calibration samples, at the
    reference speed."""
    return seconds * reference * 2.0 / (before + after)
