import argparse
import os
import subprocess
import sys

import numpy as np
import pytest

import udcover
from udcover import ALGORITHMS, MAX_EXACT_POINTS, gen_annulus, gen_convex, gen_disk, gen_square
from udcover import cli
from udcover.cli import EXIT_OK, EXIT_PARSE, EXIT_USAGE, EXIT_VERIFY, main
from udcover.pointio import read_xy, write_xy


def run(args):
    return main(args)


def test_generate_roundtrip(tmp_path, capsys):
    out = tmp_path / "pts.xy"
    assert run(["generate", "--shape", "square", "--n", "100",
                "--area", "10000", "--seed", "1", "-o", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 100


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.xy"
    b = tmp_path / "b.xy"
    flags = ["generate", "--shape", "disk", "--n", "50", "--area", "100",
             "--seed", "9"]
    run(flags + ["-o", str(a)])
    run(flags + ["-o", str(b)])
    assert a.read_text() == b.read_text()


def test_generate_convex_too_small():
    assert run(["generate", "--shape", "convex", "--n", "2"]) == EXIT_USAGE


def test_generate_rejects_input(tmp_path, capsys):
    # generate writes generated points; it reads no pointset
    f = tmp_path / "p.xy"
    f.write_text("0 0\n")
    with pytest.raises(SystemExit) as exc:
        run(["generate", "--input", str(f), "--shape", "square", "--n", "3"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --input" in capsys.readouterr().err


def test_cover_single_point(tmp_path, capsys):
    f = tmp_path / "p.xy"
    f.write_text("0 0\n")
    assert run(["cover", "--input", str(f), "--algorithm", "fastcover",
                "--verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "1 disks" in out
    assert "verified" in out


def test_cover_all_algorithms(tmp_path, capsys):
    f = tmp_path / "p.xy"
    f.write_text("0 0\n1 1\n5 5\n")
    assert run(["cover", "--input", str(f), "--algorithm", "all",
                "--verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 9
    assert out.count("verified") == 9


def test_cover_all_algorithms_on_commented_crlf_file(tmp_path, capsys):
    f = tmp_path / "p.xy"
    f.write_bytes(b"# header\r\n0 0\r\n\r\n1 1\r\n  # note\r\n"
                  b"5 5\r\n \t\r\n0.5\t-0.25\r\n")
    assert run(["cover", "--input", str(f), "--algorithm", "all",
                "--verify"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 9
    assert all(line.endswith("  verified") for line in out)


_INSTANCES = [
    (gen_square, (400, 200.0)),
    (gen_disk, (400, 200.0)),
    (gen_annulus, (300, 9.0, 5.0)),
    (gen_convex, (80, 60.0)),
]


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_cover_same_from_ndarray_and_tuple_list(name):
    """The CLI used to hand solvers a list of tuples of np.float64; it now
    hands them the ndarray. Both must give the same cover, value for value."""
    solver = ALGORITHMS[name]
    for gen, args in _INSTANCES:
        for seed in (1, 2):
            pts = gen(*args, seed)
            from_list = solver([tuple(p) for p in pts])
            from_array = solver(pts)
            assert len(from_list) == len(from_array)
            assert (np.asarray(from_list, dtype=np.float64).tobytes()
                    == np.asarray(from_array, dtype=np.float64).tobytes())


def test_cover_invalid_cover_exits_with_verify_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli._WITNESSED, "fastcover", lambda points: ([], lambda: None))
    f = tmp_path / "p.xy"
    f.write_text("0 0\n9 9\n")
    assert run(["cover", "--input", str(f), "--algorithm", "fastcover",
                "--verify"]) == EXIT_VERIFY
    assert "INVALID (2 uncovered)" in capsys.readouterr().out


def _zero_witness(monkeypatch, drop=0):
    """Patch fastcover's witnessed form to name center 0 for every point,
    built after the solve clock stops; drop its first ``drop`` centers.
    Returns the log of clock reads and witness builds."""
    log = []
    clock = cli.time.perf_counter
    monkeypatch.setattr(cli.time, "perf_counter", lambda: log.append("clock") or clock())

    def witnessed(points):
        def witness():
            log.append("witness")
            return np.zeros(len(points), dtype=np.intp)
        return udcover.fast_cover(points)[drop:], witness

    monkeypatch.setitem(cli._WITNESSED, "fastcover", witnessed)
    return log


def test_cover_verifies_with_a_wrong_witness(tmp_path, capsys, monkeypatch):
    pts = gen_square(300, 600.0, 1)
    f = tmp_path / "p.xy"
    with open(f, "w", encoding="utf-8") as fh:
        write_xy(pts, fh)
    log = _zero_witness(monkeypatch)
    assert run(["cover", "--input", str(f), "--algorithm", "fastcover", "--verify"]) == EXIT_OK
    assert capsys.readouterr().out.strip().endswith("verified")
    assert log == ["clock", "clock", "witness"]
    # a broken cover gives the same count as verify_cover without a witness
    _zero_witness(monkeypatch, drop=3)
    uncovered = len(udcover.verify_cover(pts, udcover.fast_cover(pts)[3:]).uncovered)
    assert uncovered > 0
    assert run(["cover", "--input", str(f), "--algorithm", "fastcover", "--verify"]) == EXIT_VERIFY
    assert f"INVALID ({uncovered} uncovered)" in capsys.readouterr().out


def test_bench_passes_witnesses_and_keeps_its_records(tmp_path, monkeypatch):
    pts = gen_square(200, 200.0, 2)
    f = tmp_path / "p.xy"
    with open(f, "w", encoding="utf-8") as fh:
        write_xy(pts, fh)
    witnessed = []

    def spy(points, cover, eps, witness=None):
        witnessed.append(witness is not None)
        return udcover.verify_cover(points, cover, eps, witness=witness)

    monkeypatch.setattr(cli, "verify_cover", spy)
    csv = tmp_path / "out.csv"
    assert run(["bench", "--input", str(f), "--algorithm", "all", "--trials", "1",
                "--csv", str(csv)]) == EXIT_OK
    lines = csv.read_text().splitlines()
    assert lines[0] == "algorithm,instance,n,cover_size,wall_time_s,seed,trial"
    rows = [r.split(",") for r in lines[1:]]
    assert [r[:4] for r in rows[::2]] == [[name, str(f), "200", str(len(solver(pts)))]
                                         for name, solver in ALGORITHMS.items()]
    # every solver passes a witness: on these 200 points ccfm1997 takes
    # the grid path and dgt2018 the rounds
    assert witnessed == [True] * len(ALGORITHMS)


def test_cover_unknown_algorithm(tmp_path):
    f = tmp_path / "p.xy"
    f.write_text("0 0\n")
    assert run(["cover", "--input", str(f), "--algorithm", "nope"]) == EXIT_USAGE


def test_parse_error_exit_code(tmp_path):
    f = tmp_path / "bad.xy"
    f.write_text("not a point\n")
    assert run(["cover", "--input", str(f)]) == EXIT_PARSE


def test_verify_subcommand(tmp_path):
    pts = tmp_path / "p.xy"
    pts.write_text("0 0\n")
    good = tmp_path / "good.xy"
    good.write_text("0.5 0.5\n")
    bad = tmp_path / "bad.xy"
    bad.write_text("5 5\n")
    assert run(["verify", "--input", str(pts), "--cover", str(good)]) == EXIT_OK
    assert run(["verify", "--input", str(pts), "--cover", str(bad)]) == EXIT_VERIFY


def test_optimal_subcommand(tmp_path, capsys):
    f = tmp_path / "p.xy"
    f.write_text("0 0\n0.5 0.5\n9 9\n")
    assert run(["optimal", "--input", str(f)]) == EXIT_OK
    assert "optimal: 2 disks" in capsys.readouterr().out


def test_optimal_rejects_large(tmp_path):
    f = tmp_path / "p.xy"
    f.write_text("".join(f"{i} {i}\n" for i in range(MAX_EXACT_POINTS + 1)))
    assert run(["optimal", "--input", str(f)]) == EXIT_USAGE


def test_bench_row_counts(tmp_path):
    csv = tmp_path / "out.csv"
    assert run(["bench", "--shape", "square", "--n", "50", "--area", "100",
                "--algorithm", "fastcover", "--trials", "3",
                "--csv", str(csv)]) == EXIT_OK
    lines = csv.read_text().splitlines()
    assert lines[0] == "algorithm,instance,n,cover_size,wall_time_s,seed,trial"
    assert len(lines) == 1 + 3 + 1  # header, trials, mean
    assert lines[-1].split(",")[-1] == "-1"


def test_bench_mean_is_arithmetic_mean(tmp_path):
    csv = tmp_path / "out.csv"
    run(["bench", "--shape", "square", "--n", "80", "--area", "400",
         "--algorithm", "dgt2018", "--trials", "4", "--csv", str(csv)])
    rows = [l.split(",") for l in csv.read_text().splitlines()[1:]]
    trial_sizes = [int(r[3]) for r in rows if r[-1] != "-1"]
    mean_size = float(rows[-1][3])
    assert mean_size == pytest.approx(sum(trial_sizes) / len(trial_sizes))


def test_bench_two_algorithms_row_count(tmp_path):
    csv = tmp_path / "out.csv"
    run(["bench", "--shape", "square", "--n", "30", "--area", "60",
         "--algorithm", "all", "--trials", "2", "--csv", str(csv)])
    lines = csv.read_text().splitlines()
    assert len(lines) == 1 + 9 * 2 + 9


def test_bench_deterministic_sizes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    flags = ["bench", "--shape", "disk", "--n", "60", "--area", "120",
             "--algorithm", "fastcover++", "--trials", "2", "--seed", "5"]
    run(flags + ["--csv", str(a)])
    run(flags + ["--csv", str(b)])
    strip = lambda text: [
        ",".join(f for i, f in enumerate(l.split(",")) if i != 4)
        for l in text.splitlines()
    ]
    assert strip(a.read_text()) == strip(b.read_text())


def test_bench_reads_input_once_with_unchanged_records(tmp_path, monkeypatch):
    pts = gen_disk(60, 120, 3)
    f = tmp_path / "p.xy"
    with open(f, "w", encoding="utf-8") as fh:
        write_xy(pts, fh)
    reads = []

    def counting_read_xy(stream):
        reads.append(stream.name)
        return read_xy(stream)

    monkeypatch.setattr(cli, "read_xy", counting_read_xy)
    csv = tmp_path / "out.csv"
    assert run(["bench", "--input", str(f), "--algorithm", "all",
                "--trials", "3", "--seed", "4", "--csv", str(csv)]) == EXIT_OK
    assert reads == [str(f)]
    expected = []
    for name, solver in ALGORITHMS.items():
        size = str(len(solver(pts)))
        expected += [[name, str(f), "60", size, "4", str(t)] for t in (0, 1, 2, -1)]
    rows = [r.split(",") for r in csv.read_text().splitlines()[1:]]
    assert [r[:4] + r[5:] for r in rows] == expected


def test_shuffle_seed_changes_online_order(tmp_path, capsys):
    f = tmp_path / "p.xy"
    f.write_text("".join(f"{x / 7} {x % 3}\n" for x in range(30)))
    run(["cover", "--input", str(f), "--algorithm", "ccfm1997"])
    base = capsys.readouterr().out
    run(["cover", "--input", str(f), "--algorithm", "ccfm1997",
         "--shuffle-seed", "1", "--verify"])
    shuffled = capsys.readouterr().out
    assert "INVALID" not in shuffled


def test_svg_output(tmp_path):
    f = tmp_path / "p.xy"
    f.write_text("0 0\n")
    svg = tmp_path / "c.svg"
    run(["cover", "--input", str(f), "--svg", str(svg)])
    assert svg.read_text().startswith("<svg")


# Every option of every subcommand: (default, type name, choices), taken
# from the parser before the front end was rewritten. A flag, default, type
# or choice that changes must change here too.
_SHAPES = ["square", "disk", "convex", "annulus"]
_GENERATOR = {
    "--shape": (None, None, _SHAPES),
    "--n": (None, "int", None),
    "--area": (1.0, "float", None),
    "--router": (1.0, "float", None),
    "--rinner": (0.5, "float", None),
    "--seed": (0, "int", None),
}
_POINT_SOURCE = {"--input": (None, None, None), **_GENERATOR}
_SURFACE = {
    "generate": {**_GENERATOR,
                 "--output": (None, None, None),
                 "-o": (None, None, None)},
    "cover": {**_POINT_SOURCE,
              "--algorithm": ("fastcover", None, None),
              "--verify": (False, None, None),
              "--eps": (1e-09, "float", None),
              "--svg": (None, None, None),
              "--shuffle-seed": (None, "int", None)},
    "bench": {**_POINT_SOURCE,
              "--algorithm": ("all", None, None),
              "--trials": (5, "int", None),
              "--eps": (1e-09, "float", None),
              "--csv": (None, None, None),
              "--shuffle-seed": (None, "int", None)},
    "verify": {**_POINT_SOURCE,
               "--cover": (None, None, None),
               "--eps": (1e-09, "float", None)},
    "optimal": dict(_POINT_SOURCE),
}


def test_cli_surface_is_pinned():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: {opt: (a.default, getattr(a.type, "__name__", a.type),
                     None if a.choices is None else list(a.choices))
               for a in p._actions if not isinstance(a, argparse._HelpAction)
               for opt in a.option_strings}
        for name, p in sub.choices.items()
    }
    assert surface == _SURFACE


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    # a build costs more than half of a small job; later calls reuse it
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    f = tmp_path / "p.xy"
    f.write_text("0 0\n3 0\n")
    try:
        for _ in range(2):
            assert main(["cover", "--input", str(f), "--algorithm", "dgt2018"]) == EXIT_OK
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    assert capsys.readouterr().out.count("dgt2018") == 2


def _far_points(tmp_path):
    f = tmp_path / "far.xy"
    f.write_text("1e300 0\n-1e300 0\n")
    return ["cover", "--input", str(f), "--algorithm", "fastcover"]


def _past_the_bound(tmp_path):
    # fastcover's cover of this point is 1.3e-9 too far from it to verify
    f = tmp_path / "far.xy"
    f.write_text("10871393.408362702 10871393.408362702\n")
    return ["cover", "--input", str(f), "--algorithm", "fastcover", "--verify"]


def _missing_cover(tmp_path):
    f = tmp_path / "p.xy"
    f.write_text("0 0\n")
    return ["verify", "--input", str(f), "--cover", str(tmp_path / "none.xy")]


def _verify_eps(value, command="verify"):
    def argv(tmp_path):
        f = tmp_path / "p.xy"
        f.write_text("0 0\n")
        if command == "cover":
            return ["cover", "--input", str(f), "--verify", "--eps", value]
        return ["verify", "--input", str(f), "--cover", str(f), "--eps", value]
    return argv


def _past_the_exact_cap(tmp_path):
    f = tmp_path / "p.xy"
    f.write_text("".join(f"{i} {i}\n" for i in range(MAX_EXACT_POINTS + 1)))
    return ["optimal", "--input", str(f)]


@pytest.mark.parametrize("argv", [
    lambda _: ["generate", "--shape", "square", "--n", "10", "--area", "0"],
    lambda _: ["generate", "--shape", "square", "--n", "-1"],
    lambda _: ["generate", "--shape", "annulus", "--n", "10",
               "--rinner", "2", "--router", "1"],
    _far_points,
    _past_the_bound,
    _missing_cover,
    _past_the_exact_cap,
    _verify_eps("nan"),
    _verify_eps("-1"),
    _verify_eps("nan", "cover"),
], ids=["area-0", "n-negative", "annulus-radii", "cell-range", "coord-bound",
        "missing-cover", "optimal-over-cap", "verify-eps-nan", "verify-eps-minus-1",
        "cover-eps-nan"])
def test_argument_and_range_errors_exit_usage_with_one_line(argv, tmp_path, capsys):
    assert run(argv(tmp_path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("udcover: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["--shape", "square", "--area", "nan"], "area must be positive and finite, got nan"),
    (["--shape", "disk", "--area", "inf"], "area must be positive and finite, got inf"),
    (["--shape", "annulus", "--router", "inf"],
     "need 0 < --rinner < --router < inf, got --rinner=0.5, --router=inf"),
    (["--shape", "annulus", "--rinner", "2"],
     "need 0 < --rinner < --router < inf, got --rinner=2.0, --router=1.0"),
], ids=["square-nan", "disk-inf", "annulus-inf", "annulus-order"])
def test_generate_names_a_non_finite_size(argv, message, capsys):
    assert run(["generate", "--n", "2", *argv]) == EXIT_USAGE
    assert capsys.readouterr().err == f"udcover: {message}\n"


@pytest.mark.parametrize("name, data, message", [
    ("p.tsp", b"NODE_COORD_SECTION\n1 0 0\n2 nan 0\nEOF\n",
     "line 3: non-finite coordinate in '2 nan 0'"),
    ("p.xy", b"0 0\n\xff 1\n",
     "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"),
], ids=["tsplib-nan", "not-utf8"])
def test_malformed_input_exits_parse(name, data, message, tmp_path, capsys):
    f = tmp_path / name
    f.write_bytes(data)
    assert run(["cover", "--input", str(f)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"udcover: {f}: {message}\n"


def _run_module(*args):
    src = os.path.dirname(os.path.dirname(udcover.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-m", "udcover.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_module_entry_point_exit_codes(tmp_path):
    good = tmp_path / "p.xy"
    good.write_text("0 0\n3 4\n")
    done = _run_module("cover", "--input", str(good), "--verify")
    assert done.returncode == EXIT_OK
    assert done.stdout.startswith("fastcover: 2 disks in ")
    assert done.stdout.endswith("  verified\n")
    bad = tmp_path / "bad.xy"
    bad.write_text("0 0\nnot a point\n")
    done = _run_module("cover", "--input", str(bad))
    assert done.returncode == EXIT_PARSE
    assert done.stderr.startswith("udcover: ")
    assert "Traceback" not in done.stderr
