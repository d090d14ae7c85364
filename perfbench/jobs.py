"""What the benchmark runs against udcover, and the checks on its outputs.

Every layer is timed from outside, through public functions:

* a job is one in-process ``udcover.cli.main(["cover", "--input", F,
  "--algorithm", A, "--verify"])`` call, as users run ``udcover cover``;
* a replay is the same job as library calls: ``read_xy``, the solver on the
  ndarray, ``verify_cover``. Traced, it is one ``job`` span whose children
  are the three calls;
* extra traced calls split ``fast_cover_pp`` into ``build_disk_table`` and
  ``coalesce_pass``, time ``blms2017_raw``, and replay ``dgt2018`` through
  the public ``RadiusGrid`` API.

Importing this module imports udcover, numpy and scipy; the runner does it
inside the timed set-up.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import os
import re
import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

import udcover
from udcover import ALGORITHMS, read_xy, verify_cover, write_xy
from udcover.cli import main as cli_main
from udcover.fastcover import build_disk_table, coalesce_pass
from udcover.generators import gen_disk, gen_square
from udcover.gridindex import RadiusGrid
from udcover.sweep import blms2017_raw

from calibrate import job_sample, scaled
from tracer import Tracer
from workloads import Workload

# CLI algorithm name -> metric suffix (metric names may not contain "+").
ALGOS = {
    "g1991": "g1991",
    "ccfm1997": "ccfm1997",
    "ll2014": "ll2014",
    "ll2014-1p": "ll2014-1p",
    "blms2017": "blms2017",
    "dgt2018": "dgt2018",
    "fastcover": "fastcover",
    "fastcover+": "fastcover_plus",
    "fastcover++": "fastcover_pp",
}

GENERATORS = {"square": gen_square, "disk": gen_disk}

_COVER_LINE = re.compile(r"^(\S+): (\d+) disks in \S+ s  verified$")

# A calibration sample (see calibrate.py) is taken between jobs once this
# much job time has passed since the last one, so a long job is bracketed
# by its own samples and short jobs share theirs.
_CALIBRATE_EVERY_S = 0.05


def instance_seeds(seed: int, count: int) -> list[int]:
    """Independent generator seeds for a workload's instances."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def generate(workload: Workload, seed: int,
             workdir: str) -> tuple[list[str], float, float]:
    """Generate the workload's point sets and write them as .xy files.
    Returns the file paths and the seconds spent generating and writing."""
    gen = GENERATORS[workload.shape]
    area = workload.n / workload.density
    paths = []
    gen_s = write_s = 0.0
    for k, s in enumerate(instance_seeds(seed, workload.instances)):
        path = os.path.join(workdir, f"{workload.name}-{k}.xy")
        t0 = time.perf_counter()
        pts = gen(workload.n, area, s)
        t1 = time.perf_counter()
        with open(path, "w", encoding="utf-8") as fh:
            write_xy(pts, fh)
        gen_s += t1 - t0
        write_s += time.perf_counter() - t1
        paths.append(path)
    return paths, gen_s, write_s


def warm_up(workdir: str) -> None:
    """Run every algorithm once through the CLI and the library on a tiny
    input, and the calibration once, so lazy imports and first-call costs
    land in set-up."""
    path = os.path.join(workdir, "warmup.xy")
    with open(path, "w", encoding="utf-8") as fh:
        write_xy(gen_disk(64, 64.0, 0), fh)
    for algo in ALGOS:
        cli_job(path, algo)
        replay(path, algo)
    _replay_extras(path, Tracer(), instance=-1, calib=-1)
    job_sample()
    os.remove(path)


# -- jobs ---------------------------------------------------------------------

@dataclass
class JobResult:
    seconds: float
    disks: int | None     # count the CLI printed, None if the job failed
    error: str | None


def cli_job(path: str, algo: str) -> JobResult:
    """One ``udcover cover --verify`` call with stdout captured. A job
    fails if it raises, exits non-zero or does not print ``verified``."""
    out = io.StringIO()
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(["cover", "--input", path, "--algorithm", algo,
                           "--verify"])
    except (Exception, SystemExit) as exc:  # a failed job, not a failed run
        return JobResult(time.perf_counter() - t0, None, f"raised {exc!r}")
    seconds = time.perf_counter() - t0
    text = out.getvalue().strip()
    match = _COVER_LINE.match(text)
    if rc != 0 or match is None or match.group(1) != algo:
        return JobResult(seconds, None,
                         f"exit {rc}: {text!r} {err.getvalue().strip()!r}")
    return JobResult(seconds, int(match.group(2)), None)


def replay(path: str, algo: str):
    """The job as library calls, untraced. Returns the seconds taken, the
    points, the cover and whether ``verify_cover`` accepted it."""
    t0 = time.perf_counter()
    with open(path, "r", encoding="utf-8") as fh:
        pts = read_xy(fh)
    cover = ALGORITHMS[algo](pts)
    report = verify_cover(pts, cover)
    seconds = time.perf_counter() - t0
    return seconds, pts, cover, report.valid


def traced_replay(path: str, algo: str, tracer: Tracer, instance: int,
                  calib: int):
    """The job as library calls under one ``job`` span, with one child
    span per call: read, solve, verify."""
    with tracer.span("job", algo=algo, instance=instance, calib=calib):
        with tracer.span("pointio.read_xy", algo=algo, instance=instance):
            with open(path, "r", encoding="utf-8") as fh:
                pts = read_xy(fh)
        with tracer.span("solve." + algo, algo=algo, instance=instance):
            cover = ALGORITHMS[algo](pts)
        with tracer.span("oracle.verify_cover", algo=algo, instance=instance):
            report = verify_cover(pts, cover)
    return pts, cover, report.valid


def _replay_extras(path: str, tracer: Tracer, instance: int,
                   calib: int) -> dict:
    """Traced calls that split solvers into their public parts. Returns the
    counts and covers they produce."""
    with open(path, "r", encoding="utf-8") as fh:
        pts = read_xy(fh)
    with tracer.span("fastcover.build_disk_table", instance=instance,
                     calib=calib):
        table = build_disk_table(pts)
    table_size = len(table)
    with tracer.span("fastcover.coalesce_pass", instance=instance,
                     calib=calib):
        pp_cover = coalesce_pass(table)
    with tracer.span("sweep.blms2017_raw", instance=instance, calib=calib):
        raw = blms2017_raw(pts)
    with tracer.span("gridindex.dgt2018_replay", instance=instance,
                     calib=calib) as rec:
        dgt_cover, insert_s, query_s, hits = _dgt2018_on_radius_grid(pts)
        rec.update(insert_s=insert_s, query_s=query_s, hits=hits,
                   queries=len(pts))
    return {"table_size": table_size, "fastcover++": pp_cover,
            "blms2017_raw": len(raw), "dgt2018": dgt_cover, "hits": hits,
            "queries": len(pts)}


def _dgt2018_on_radius_grid(pts: np.ndarray):
    """dgt2018 rebuilt on ``RadiusGrid``: a point becomes a center iff no
    center lies within 1. Each ``nearest_within`` and ``insert`` is timed."""
    grid = RadiusGrid(1.0)
    clock = time.perf_counter
    centers = []
    insert_s = query_s = 0.0
    hits = 0
    for x, y in pts.tolist():
        p = (x, y)
        t0 = clock()
        found = grid.nearest_within(p, 1.0)
        t1 = clock()
        query_s += t1 - t0
        if found is None:
            grid.insert(p)
            insert_s += clock() - t1
            centers.append(p)
        else:
            hits += 1
    return centers, insert_s, query_s, hits


# -- correctness --------------------------------------------------------------

def cover_digest(cover) -> str:
    arr = np.ascontiguousarray(np.asarray(cover, dtype=np.float64).reshape(-1, 2))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def covers_all(pts: np.ndarray, cover, eps: float = 1e-9) -> bool:
    """Coverage check that shares no code with ``udcover.oracle``: every
    point lies within 1 + eps of some center."""
    ctr = np.asarray(cover, dtype=np.float64).reshape(-1, 2)
    if len(pts) == 0:
        return True
    if len(ctr) == 0:
        return False
    dist, _ = cKDTree(ctr).query(pts, k=1, distance_upper_bound=1.0 + eps)
    return bool(np.isfinite(dist).all())


class Checker:
    """Reference covers per (instance, algorithm) from the library call on
    the ndarray, checked once; every job's disk count is compared with it."""

    def __init__(self):
        self.reference: dict[tuple[int, str], tuple[int, str]] = {}
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)
        else:
            self.failures[-1] = f"... and more; last: {message}"

    def record(self, instance: int, algo: str, pts, cover, valid: bool) -> bool:
        """Register (or compare with) the reference cover; False on a
        mismatch or an invalid cover."""
        key = (instance, algo)
        digest = cover_digest(cover)
        if key in self.reference:
            if self.reference[key] != (len(cover), digest):
                self.fail(f"{algo} on instance {instance}: cover changed "
                          "between calls")
                return False
            return True
        ok = valid and covers_all(pts, cover)
        if not ok:
            self.fail(f"{algo} on instance {instance}: cover is not valid")
        self.reference[key] = (len(cover), digest)
        return ok

    def matches(self, instance: int, algo: str, disks: int) -> bool:
        size, _ = self.reference[(instance, algo)]
        if disks != size:
            self.fail(f"{algo} on instance {instance}: CLI printed {disks} "
                      f"disks, library cover has {size}")
            return False
        return True

    def digests(self) -> dict[str, str]:
        """One sha256 per algorithm over its covers on every instance, in
        instance order."""
        out = {}
        for algo in ALGOS:
            h = hashlib.sha256()
            for (inst, a), (_, digest) in sorted(self.reference.items()):
                if a == algo:
                    h.update(f"{inst}:{digest};".encode())
            out[algo] = h.hexdigest()
        return out


class BetweenJobs:
    """Work done between jobs, never inside one: the calibration samples
    that job times are scaled by, and a full gc collection.

    gc stays enabled inside jobs, as users run it. The collection right
    before each job starts every job from the same gc state, so whether an
    automatic collection lands inside a job depends on that job alone, not
    on the garbage of the jobs before it. The set-up's objects are frozen
    first (``gc.freeze``), which keeps that collection cheap."""

    def __init__(self):
        self.pending = math.inf
        self.samples: list[float] = []
        gc.collect()
        gc.freeze()

    def before_job(self) -> int:
        """Returns the index of the calibration sample taken before the job."""
        if self.pending >= _CALIBRATE_EVERY_S:
            self.samples.append(job_sample())
            self.pending = 0.0
        gc.collect()
        return len(self.samples) - 1

    def after_job(self, seconds: float) -> None:
        self.pending += seconds

    def finish(self) -> None:
        self.samples.append(job_sample())

    def scaled(self, seconds: float, calib: int) -> float:
        """A job's wall seconds at the reference speed, from the two
        samples that bracket it."""
        return scaled(seconds, self.samples[calib], self.samples[calib + 1])


# -- the timed loop -----------------------------------------------------------

class Run:
    """State of one timed run: job times per algorithm, CLI disk counts to
    check, and the operation tallies."""

    def __init__(self):
        self.checker = Checker()
        self.between = BetweenJobs()
        self.cli_wall: dict[str, list[tuple[float, int]]] = {a: [] for a in ALGOS}
        self.cli_counts: list[tuple[int, str, int]] = []
        self.attempted = 0
        self.failed = 0

    def job(self, inst: int, path: str, algo: str,
            tracer: Tracer | None = None) -> None:
        calib = self.between.before_job()
        if tracer is None:
            res = cli_job(path, algo)
        else:
            with tracer.span("cli.main", algo=algo, instance=inst, calib=calib):
                res = cli_job(path, algo)
        self.between.after_job(res.seconds)
        self.attempted += 1
        if res.error is not None:
            self.failed += 1
            self.checker.fail(f"{algo} on instance {inst}: {res.error}")
            return
        self.cli_wall[algo].append((res.seconds, calib))
        self.cli_counts.append((inst, algo, res.disks))

    def library(self, inst: int, algo: str, pts, cover, valid: bool) -> None:
        self.attempted += 1
        if not self.checker.record(inst, algo, pts, cover, valid):
            self.failed += 1

    def check_counts(self) -> None:
        """Check every CLI disk count against the reference cover."""
        for inst, algo, disks in self.cli_counts:
            if not self.checker.matches(inst, algo, disks):
                self.failed += 1

    def job_s(self, algo: str) -> list[float]:
        """The algorithm's CLI job times, scaled to the reference speed."""
        return [self.between.scaled(s, c) for s, c in self.cli_wall[algo]]


def closed_loop(paths: list[str], seconds: float, group) -> None:
    """Call ``group(inst, path, pass_no)`` over the instances, pass after
    pass, one at a time. The first pass always completes; after it, a
    group starts only if the last group's duration still fits in
    ``seconds``."""
    start = time.perf_counter()
    last = 0.0
    pass_no = 0
    while True:
        for inst, path in enumerate(paths):
            t0 = time.perf_counter()
            if pass_no > 0 and t0 - start + last > seconds:
                return
            group(inst, path, pass_no)
            last = time.perf_counter() - t0
        pass_no += 1


def run_untraced(paths: list[str], seconds: float) -> Run:
    """Timed CLI jobs, then one untimed library call per (instance,
    algorithm) as the reference their disk counts must match."""
    run = Run()

    def group(inst, path, _pass_no):
        for algo in ALGOS:
            run.job(inst, path, algo)

    closed_loop(paths, seconds, group)
    run.between.finish()
    done = {inst for inst, _, _ in run.cli_counts}
    for inst, path in enumerate(paths):
        if inst in done:
            for algo in ALGOS:
                _, pts, cover, valid = replay(path, algo)
                run.library(inst, algo, pts, cover, valid)
    run.check_counts()
    return run


class TracedRun(Run):
    def __init__(self):
        super().__init__()
        self.tracer = Tracer()
        self.replay_wall: dict[str, list[tuple[float, int]]] = {
            a: [] for a in ALGOS}
        self.extras: dict[int, dict] = {}


def run_traced(paths: list[str], seconds: float) -> TracedRun:
    """Per job: the CLI call, the untraced replay and the traced replay
    (these two in alternating order), then the extra traced calls once per
    instance and pass."""
    run = TracedRun()
    tracer = run.tracer

    def group(inst, path, pass_no):
        for algo in ALGOS:
            run.job(inst, path, algo, tracer)
            for traced in ((False, True) if pass_no % 2 == 0 else (True, False)):
                calib = run.between.before_job()
                if traced:
                    t0 = time.perf_counter()
                    pts, cover, valid = traced_replay(path, algo, tracer, inst,
                                                      calib)
                    took = time.perf_counter() - t0
                else:
                    took, pts, cover, valid = replay(path, algo)
                    run.replay_wall[algo].append((took, calib))
                run.between.after_job(took)
                run.library(inst, algo, pts, cover, valid)
        calib = run.between.before_job()
        t0 = time.perf_counter()
        extras = _replay_extras(path, tracer, inst, calib)
        run.between.after_job(time.perf_counter() - t0)
        run.library(inst, "fastcover++", None, extras.pop("fastcover++"), True)
        run.library(inst, "dgt2018", None, extras.pop("dgt2018"), True)
        run.extras[inst] = extras

    closed_loop(paths, seconds, group)
    run.between.finish()
    run.check_counts()
    return run


# -- metrics ------------------------------------------------------------------

def _median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def end_to_end(run: Run, n_points: int) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric except the process-level ones (set-up time
    and peak RSS), as name -> (value, unit)."""
    out = {f"job_s.{suffix}": (_median(run.job_s(algo)), "s")
           for algo, suffix in ALGOS.items()}
    disks = sum(size for size, _ in run.checker.reference.values())
    out["disks_per_point"] = (disks / (len(ALGOS) * n_points), "disks/point")
    return out


def per_layer(run: TracedRun, n_points: int, gen_s: float,
              write_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit). Span times are
    scaled like job times, by the calibration samples around their root."""
    spans = run.tracer.spans
    between = run.between
    ref = run.checker.reference

    def times(name: str, **match) -> list[float]:
        return [between.scaled(s["end"] - s["start"], spans[s["root"]]["calib"])
                for s in spans if s["name"] == name
                and all(s.get(k) == v for k, v in match.items())]

    out: dict[str, tuple[float, str]] = {
        "pointio.read_xy_s": (_median(times("pointio.read_xy")), "s"),
        "pointio.write_xy_s": (write_s, "s"),
        "generators.gen_s": (gen_s, "s"),
    }
    for algo, suffix in ALGOS.items():
        out[f"solve_s.{suffix}"] = (_median(times("solve." + algo)), "s")
    for algo, suffix in ALGOS.items():
        disks = sum(size for (_, a), (size, _) in ref.items() if a == algo)
        out[f"disks_per_point.{suffix}"] = (disks / n_points, "disks/point")

    verify = times("oracle.verify_cover")
    out["oracle.verify_s"] = (_median(verify), "s")
    out["oracle.verify_share"] = (sum(verify) / sum(times("job")), "ratio")

    cli = {a: _median(times("cli.main", algo=a)) for a in ALGOS}
    untraced = {a: _median([between.scaled(s, c) for s, c in run.replay_wall[a]])
                for a in ALGOS}
    traced = {a: _median(times("job", algo=a)) for a in ALGOS}
    overhead = sum(cli[a] - untraced[a] for a in ALGOS)
    out["cli.overhead_s"] = (overhead / len(ALGOS), "s")
    out["cli.overhead_frac"] = (overhead / sum(cli.values()), "ratio")

    extras = list(run.extras.values())
    out["fastcover.build_disk_table_s"] = (
        _median(times("fastcover.build_disk_table")), "s")
    out["fastcover.coalesce_pass_s"] = (
        _median(times("fastcover.coalesce_pass")), "s")
    table = sum(e["table_size"] for e in extras)
    pp = sum(ref[(inst, "fastcover++")][0] for inst in run.extras)
    out["fastcover.table_disks_per_point"] = (table / n_points, "disks/point")
    out["fastcover.coalesce_merges"] = (table - pp, "count")

    blms = sum(ref[(inst, "blms2017")][0] for inst in run.extras)
    out["sweep.blms_useful_ratio"] = (
        blms / sum(e["blms2017_raw"] for e in extras), "ratio")
    out["sweep.blms2017_raw_s"] = (_median(times("sweep.blms2017_raw")), "s")

    grid = [s for s in spans if s["name"] == "gridindex.dgt2018_replay"]
    for key in ("insert_s", "query_s"):
        out[f"gridindex.{key}"] = (
            _median([between.scaled(s[key], s["calib"]) for s in grid]), "s")
    out["gridindex.query_hit_ratio"] = (
        sum(e["hits"] for e in extras) / sum(e["queries"] for e in extras), "ratio")

    out["trace.overhead_frac"] = (
        sum(traced.values()) / sum(untraced.values()) - 1.0, "ratio")
    return out


def sample_summary(run: Run) -> dict[str, dict]:
    """Per job metric: the sample count, the median and, where at least 10
    samples lie beyond it, the p95; scaled and as wall time."""
    out = {}
    for algo, suffix in ALGOS.items():
        entry = {"samples": len(run.cli_wall[algo])}
        entry["calibration_index"] = [c for _, c in run.cli_wall[algo]]
        for kind, values in (("scaled", run.job_s(algo)),
                             ("wall", [s for s, _ in run.cli_wall[algo]])):
            entry[f"{kind}_median_s"] = _median(values)
            if len(values) >= 200:
                p95 = float(np.percentile(values, 95))
                if sum(v > p95 for v in values) >= 10:
                    entry[f"{kind}_p95_s"] = p95
            entry[f"{kind}_s"] = values
        out[f"job_s.{suffix}"] = entry
    out["calibration_s"] = run.between.samples
    return out
