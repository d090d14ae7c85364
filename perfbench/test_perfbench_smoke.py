"""Smoke test of the benchmark at a tiny size: every metric named in
BENCHMARK.json is emitted with its unit, every job passes its checks, and
the traced spans nest as job -> read, solve, verify."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def _run_all(trace: int, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace),
         "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perfbench")
    results = {trace: _run_all(trace, out) for trace in (0, 1)}
    details = {(w, trace): json.loads(
        (out / f"{w}-seed{SEED}-trace{trace}.json").read_text())
        for w in WORKLOADS for trace in (0, 1)}
    return {"results": results, "details": details}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(runs, trace, section):
    result = runs["results"][trace]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    for w in WORKLOADS:
        metrics = runs["details"][(w, trace)]["result"]["metrics"]
        assert set(metrics) == set(wanted), w
        for name, unit in wanted.items():
            assert metrics[name]["unit"] == unit, (w, name)
            assert isinstance(metrics[name]["value"], (int, float)), (w, name)
            assert result["metrics"][f"{w}.{name}"] == metrics[name]


def test_results_record_seed_machine_and_digests(runs):
    for w in WORKLOADS:
        d = runs["details"][(w, 0)]
        assert d["seed"] == SEED
        assert {"nproc", "cpu_model", "python", "numpy", "scipy"} <= set(d["machine"])
        assert len(d["cover_sha256"]) == 9
        assert d["job_samples"]["job_s.fastcover"]["samples"] >= 1
        assert d["failures"] == []


def test_cover_digests_repeat_for_a_seed(runs):
    for w in WORKLOADS:
        assert (runs["details"][(w, 0)]["cover_sha256"]
                == runs["details"][(w, 1)]["cover_sha256"]), w


def test_traced_spans_nest_job_read_solve_verify(runs):
    for w in WORKLOADS:
        spans = runs["details"][(w, 1)]["spans"]
        children: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        jobs = [s for s in spans if s["name"] == "job"]
        assert jobs, w
        for job in jobs:
            assert job["parent"] is None and job["root"] == job["id"]
            kids = children.get(job["id"], [])
            assert [k["name"] for k in kids] == [
                "pointio.read_xy", "solve." + job["algo"], "oracle.verify_cover"]
            for k in kids:
                assert k["root"] == job["id"]
                assert job["start"] <= k["start"] <= k["end"] <= job["end"]
                assert k["id"] not in children  # leaves
