#!/usr/bin/env python3
"""Benchmark of udcover: timed ``udcover cover`` jobs on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload uniform --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

``--workload all`` runs every workload in its own fresh process, one after
another. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics. Details
(machine, seed, commit, sample counts, p95, cover digests, failures and,
when traced, every span) are written to ``.perfbench_out/`` unless
``--out`` names another directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import INTERPRETER_REFERENCE_S, interpreter_sample, scaled
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up runs this many times per run, each in a fresh process (the last
# one is the measuring process itself); setup_s is their median.
SETUP_REPS = 3


def _setup(workload, seed: int, workdir: Path):
    """Import udcover, generate and write the inputs, warm up. Everything
    here is billed to setup_s; the wall time is returned as is and scaled
    by the calibration samples around it."""
    before = interpreter_sample()
    t0 = time.perf_counter()
    import jobs  # imports udcover, numpy and scipy

    paths, gen_s, write_s = jobs.generate(workload, seed, str(workdir))
    jobs.warm_up(str(workdir))
    wall = time.perf_counter() - t0
    after = interpreter_sample()
    setup = {"wall_s": wall,
             "scaled_s": scaled(wall, before, after, INTERPRETER_REFERENCE_S)}
    return jobs, paths, gen_s, write_s, setup


def _workdir(name: str) -> Path:
    path = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=False)
    return path


def _remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def _child(args: argparse.Namespace, workload: str, *extra: str) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if args.smoke:
        cmd.append("--smoke")
    if args.out is not None:
        cmd += ["--out", args.out]
    return cmd


def _last_json(text: str) -> dict:
    lines = text.strip().splitlines()
    if not lines:
        raise RuntimeError("child printed nothing")
    return json.loads(lines[-1])


def _setup_probe(args: argparse.Namespace) -> int:
    workload = _workload(args)
    workdir = _workdir(workload.name + "-probe")
    try:
        setup = _setup(workload, args.seed, workdir)[-1]
    finally:
        _remove_workdir(workdir)
    print(json.dumps(setup))
    return 0


def _workload(args: argparse.Namespace):
    workload = WORKLOADS[args.workload]
    return workload.smoke() if args.smoke else workload


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """sha256 over the package sources, naming the code measured where
    there is no git checkout."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "platform": platform.platform(),
    }


def run_workload(args: argparse.Namespace) -> int:
    workload = _workload(args)
    # the traced run reports no set-up time, so it needs no probes
    reps = 1 if args.trace else SETUP_REPS
    setup_samples = []
    for _ in range(reps - 1):
        proc = subprocess.run(_child(args, args.workload, "--setup-probe"),
                              capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        setup_samples.append(_last_json(proc.stdout))

    workdir = _workdir(workload.name)
    try:
        jobs, paths, gen_s, write_s, setup = _setup(workload, args.seed, workdir)
        setup_samples.append(setup)
        n_points = workload.n * len(paths)
        if args.trace:
            run = jobs.run_traced(paths, args.seconds)
            factor = setup["scaled_s"] / setup["wall_s"]
            metrics = jobs.per_layer(run, n_points, gen_s * factor,
                                     write_s * factor)
        else:
            run = jobs.run_untraced(paths, args.seconds)
            metrics = jobs.end_to_end(run, n_points)
            metrics["setup_s"] = (
                statistics.median(s["scaled_s"] for s in setup_samples), "s")
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    finally:
        _remove_workdir(workdir)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    details = {
        "workload": {"name": workload.name, "shape": workload.shape,
                     "n": workload.n, "density": workload.density,
                     "instances": workload.instances, "why": workload.why},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "machine": _machine(),
        "setup_samples": setup_samples,
        "job_samples": jobs.sample_summary(run),
        "cover_sha256": run.checker.digests(),
        "failures": run.checker.failures,
        "result": result,
    }
    if args.trace:
        details["spans"] = run.tracer.spans
    out_dir = Path(args.out) if args.out is not None else ROOT / ".perfbench_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(details, indent=1) + "\n")

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{workload.name:12s} {name:34s} {value:14.6f} {unit}")
    for message in run.checker.failures:
        print(f"FAILED: {message}")
    print(f"details: {out_file}")
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(_child(args, name), capture_output=True,
                              text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"udcover benchmark: workload {name} exited "
                  f"{proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = _last_json(proc.stdout)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for the details file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "udcover" / "__init__.py").is_file():
        print(f"udcover benchmark: no udcover sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return _setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
