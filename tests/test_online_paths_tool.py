"""``tools/online_paths.py`` runs end to end at a small size: every forced
path gives the same cover, and each input prints one row per solver."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_online_paths_tool_smoke():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "online_paths.py"), "--n", "300",
         "--density", "1", "5", "--repeat", "1"],
        env=env, capture_output=True, text=True, timeout=60, check=True).stdout
    rows = out.splitlines()[1:]
    assert len(rows) == 2 * 2 * 2  # densities x orders x solvers
    for row in rows:
        solver, n, _, order, route, single, _, *ms, fastest = row.split()
        assert solver in ("ccfm1997", "dgt2018") and n == "300"
        assert order in ("shuffled", "sorted")
        assert {route, single, fastest} <= {"grid", "rounds", "blocks"}
        assert len(ms) == 3
