"""End-to-end acceptance suite.

Each test prints a single "criterion N: PASS/FAIL" line so the suite
doubles as a checklist when run with -s or read from captured output.
"""

import math
import random
import time
import warnings

import numpy as np

from reference import optimal_cover_exhaustive, worst_case_pointset
from udcover import (
    ALGORITHMS,
    blms2017,
    blms2017_raw,
    dgt2018,
    fast_cover,
    fast_cover_plus,
    fast_cover_pp,
    g1991,
    gen_annulus,
    gen_convex,
    gen_disk,
    gen_square,
    ll2014,
    ll2014_1p,
    optimal_cover,
    verify_cover,
)
from udcover.geom import SQRT2

SEEDS = (0, 1, 2, 3, 4)


def _instance(shape, n, seed):
    if shape == "square":
        return gen_square(n, float(n), seed)
    if shape == "disk":
        return gen_disk(n, float(n), seed)
    if shape == "convex":
        return gen_convex(n, float(n), seed)
    if shape == "annulus":
        r = math.sqrt(n)
        return gen_annulus(n, r, r / 2.0, seed)
    raise ValueError(shape)


def _pts(arr):
    return [tuple(p) for p in np.asarray(arr, dtype=np.float64)]


def _report(num, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}{tail}")


def test_criterion_1_validity_suite():
    start = time.perf_counter()
    failures = []
    for shape in ("square", "disk", "convex", "annulus"):
        for n in (100, 1000, 10000):
            for seed in SEEDS:
                pts = _pts(_instance(shape, n, seed))
                for name, alg in ALGORITHMS.items():
                    cover = alg(pts)
                    if not verify_cover(pts, cover, eps=1e-9).valid:
                        failures.append((name, shape, n, seed))
    elapsed = time.perf_counter() - start
    ok = not failures
    _report(1, ok, f"{elapsed:.1f}s")
    if elapsed >= 60.0:
        warnings.warn(f"validity suite took {elapsed:.1f}s (expected < 60s)")
    assert ok, failures[:5]


# proven approximation factors; ll2014 (6 passes) is held to ceil(25/6 * opt)
FACTORS = {
    "fastcover": 7.0,
    "fastcover+": 7.0,
    "fastcover++": 7.0,
    "g1991": 8.0,
    "ccfm1997": 7.0,
    "dgt2018": 5.0,
    "blms2017": 4.0,
    "ll2014-1p": 5.0,
}


def _ratio_violations(pts, opt):
    violations = []
    for name, bound in FACTORS.items():
        size = len(ALGORITHMS[name](pts))
        if size > bound * opt:
            violations.append((name, pts, size, opt))
    size = len(ll2014(pts, passes=6))
    if size > math.ceil(25.0 / 6.0 * opt):
        violations.append(("ll2014", pts, size, opt))
    return violations


def test_criterion_2_oracle_ratio_suite():
    start = time.perf_counter()
    rnd = random.Random(2024)
    violations = []
    for _ in range(1000):
        n = rnd.randint(1, 10)
        pts = [(rnd.uniform(0, 4), rnd.uniform(0, 4)) for _ in range(n)]
        violations += _ratio_violations(pts, optimal_cover(pts).size)
    elapsed = time.perf_counter() - start
    ok = not violations
    _report(2, ok, f"{elapsed:.1f}s")
    if elapsed >= 120.0:
        warnings.warn(f"ratio suite took {elapsed:.1f}s (expected < 120s)")
    assert ok, violations[:3]


def test_criterion_2_ratios_at_100_points():
    # instances far past exhaustive search: no cover beats the optimum,
    # and each stays within its factor of it
    violations = []
    for density in (0.2, 1.0, 5.0):
        for seed in (1, 2, 3, 4, 5):
            pts = gen_square(100, 100 / density, seed)
            opt = optimal_cover(pts).size
            for name, solver in ALGORITHMS.items():
                if len(solver(pts)) < opt:
                    violations.append((name, density, seed, opt))
            violations += _ratio_violations(pts, opt)
    assert violations == []


def test_criterion_3_adversarial_construction():
    results = {}
    for copies in (1, 2, 3):
        q = worst_case_pointset(copies)
        emitted = len(fast_cover(q))
        if copies == 1:
            opt = optimal_cover(q).size
        else:
            # constructed optimum: one disk per translated copy
            base_q = worst_case_pointset(1)
            base = optimal_cover(base_q)
            assert base.size == 1
            bx, by = base.centers[0]
            centers = [(bx + 3.0 * k, by) for k in range(copies)]
            assert verify_cover(q, centers, eps=1e-9).valid
            opt = copies
        results[copies] = (emitted, opt)
    ok = all(emitted == 7 * c and opt == c for c, (emitted, opt) in results.items())
    _report(3, ok, f"emitted/optimum per copy count: {results}")
    assert ok, results


def test_criterion_3_supplementary_grid_aligned_spacing():
    # with copy spacing a multiple of the cell side the 7-cells-per-copy
    # pattern does survive translation
    for copies in (1, 2, 3):
        q = worst_case_pointset(copies, spacing=3.0 * SQRT2)
        assert len(fast_cover(q)) == 7 * copies


def test_criterion_4_density_one_statistics():
    import gc

    # time the solves, not the cyclic collector crawling the test
    # harness's object graph
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        n = 100000
        sums = {"fastcover": 0.0, "fastcover+": 0.0, "fastcover++": 0.0}
        for seed in SEEDS:
            pts = gen_square(n, float(n), seed)
            sums["fastcover"] += len(fast_cover(pts))
            sums["fastcover+"] += len(fast_cover_plus(pts))
            sums["fastcover++"] += len(fast_cover_pp(pts))
        means = {k: v / (len(SEEDS) * n) for k, v in sums.items()}
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    bands = {
        "fastcover": (0.4324, 0.010),
        "fastcover+": (0.3752, 0.010),
        "fastcover++": (0.2794, 0.015),
    }
    ok = all(abs(means[k] - mid) <= tol for k, (mid, tol) in bands.items())
    ok = ok and elapsed < 10.0
    _report(4, ok, ", ".join(f"{k}={means[k]:.4f}" for k in means) + f", {elapsed:.1f}s")
    assert ok, (means, elapsed)


def test_criterion_5_monotonicity():
    bad = []
    cases = [(shape, n, seed)
             for shape in ("square", "disk", "convex", "annulus")
             for n in (100, 1000, 10000)
             for seed in SEEDS]
    cases += [("square", 100000, seed) for seed in SEEDS]
    for shape, n, seed in cases:
        pts = _pts(_instance(shape, n, seed))
        fc = len(fast_cover(pts))
        fcp = len(fast_cover_plus(pts))
        fcpp = len(fast_cover_pp(pts))
        if not fcpp <= fcp <= fc:
            bad.append(("fastcover chain", shape, n, seed, fcpp, fcp, fc))
        six = len(ll2014(pts, passes=6))
        one = len(ll2014_1p(pts))
        if six > one:
            bad.append(("ll passes", shape, n, seed, six, one))
    ok = not bad
    _report(5, ok)
    assert ok, bad[:5]


def test_criterion_6_structural_exactness():
    rnd = random.Random(66)
    pts = []
    while len(pts) < 60:
        c = (rnd.uniform(0, 80), rnd.uniform(0, 80))
        if all((c[0] - q[0]) ** 2 + (c[1] - q[1]) ** 2 > 4.0 for q in pts):
            pts.append(c)
    n = len(pts)
    counts = {
        "dgt2018": len(dgt2018(pts)),
        "g1991": len(g1991(pts)),
        "blms2017": len(blms2017(pts)),
        "blms2017_raw": len(blms2017_raw(pts)),
    }
    ok = (counts["dgt2018"] == n and counts["g1991"] == n
          and counts["blms2017"] == n and counts["blms2017_raw"] == 4 * n)
    _report(6, ok, f"n={n}, {counts}")
    assert ok, (n, counts)


def test_criterion_7_performance_advisory():
    import gc

    n = 1000000
    pts_arr = gen_square(n, float(n), 0)

    def best_of(fn, runs):
        best = math.inf
        for _ in range(runs):
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                fn(pts_arr)
                best = min(best, time.perf_counter() - t0)
            finally:
                gc.enable()
        return best

    t_fc = best_of(fast_cover, 3)
    t_pp = best_of(fast_cover_pp, 2)
    ok = t_fc <= 1.0 and t_pp <= 5.0
    _report(7, ok, f"fastcover {t_fc:.2f}s (limit 1.0), fastcover++ {t_pp:.2f}s (limit 5.0)")
    if not ok:
        warnings.warn(
            f"advisory timing exceeded: fastcover {t_fc:.2f}s, "
            f"fastcover++ {t_pp:.2f}s")


def test_criterion_8_oracle_self_consistency():
    rnd = random.Random(8)
    mismatches = []
    for _ in range(200):
        n = rnd.randint(1, 6)
        pts = [(rnd.uniform(0, 4), rnd.uniform(0, 4)) for _ in range(n)]
        bb = optimal_cover(pts).size
        ex = optimal_cover_exhaustive(pts)
        if bb != ex:
            mismatches.append((pts, bb, ex))
    ok = not mismatches
    _report(8, ok)
    assert ok, mismatches[:3]


def test_criterion_9_determinism():
    diffs = []
    for shape in ("square", "disk", "convex", "annulus"):
        a = _instance(shape, 500, 11)
        b = _instance(shape, 500, 11)
        if not np.array_equal(a, b):
            diffs.append(("generator", shape))
        pts = _pts(a)
        for name, alg in ALGORITHMS.items():
            if alg(pts).tobytes() != alg(pts).tobytes():
                diffs.append((name, shape))
    ok = not diffs
    _report(9, ok)
    assert ok, diffs
