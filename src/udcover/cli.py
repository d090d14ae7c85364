"""Command-line front end and benchmark harness.

Argument rules (sizes, areas, radii, the exact solver's point limit, the
supported coordinate range) live in the library: a ``ValueError`` it raises
is reported as one ``udcover: ...`` line with exit code 2. An unreadable
file also gives exit 2, a malformed one exit 3, an invalid cover exit 4.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import replace

import numpy as np

from . import ALGORITHMS, GENERATORS, classic, fastcover, sweep
from .oracle import optimal_cover, verify_cover
from .pointio import BenchRecord, ParseError, read_tsplib, read_xy, write_csv, write_svg, write_xy

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VERIFY = 4

# Each ALGORITHMS name's solver in the form that returns the cover and a
# callable that gives one center index per point, which verify_cover
# tests first.
_WITNESSED = {
    "g1991": classic._g1991,
    "ccfm1997": classic._ccfm1997,
    "ll2014": sweep._ll2014,
    "ll2014-1p": lambda points: sweep._ll2014(points, passes=1),
    "blms2017": sweep._blms2017,
    "dgt2018": classic._dgt2018,
    "fastcover": fastcover._fast_cover,
    "fastcover+": fastcover._fast_cover_plus,
    "fastcover++": fastcover._fast_cover_pp,
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _open(path: str, mode: str):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None


def _read(path: str, reader) -> np.ndarray:
    with _open(path, "r") as fh:
        try:
            return reader(fh)
        except (ParseError, UnicodeDecodeError) as exc:
            raise CliError(f"{path}: {exc}", EXIT_PARSE) from None


def _write(path: str | None, writer, data) -> None:
    if path is None or path == "-":
        writer(data, sys.stdout)
        return
    with _open(path, "w") as fh:
        writer(data, fh)


def _generate(args: argparse.Namespace, seed: int) -> np.ndarray:
    if args.shape is None or args.n is None:
        raise CliError("--shape and --n are required to generate points", EXIT_USAGE)
    if args.shape != "annulus":
        return GENERATORS[args.shape](args.n, args.area, seed)
    try:
        return GENERATORS["annulus"](args.n, args.router, args.rinner, seed)
    except ValueError as exc:  # name the flags, not the library's arguments
        message = str(exc).replace("r_inner", "--rinner").replace("r_outer", "--router")
        raise CliError(message, EXIT_USAGE) from None


def _load_points(args: argparse.Namespace, seed: int) -> np.ndarray:
    if args.input is not None:
        return _read(args.input, read_tsplib if args.input.endswith(".tsp") else read_xy)
    return _generate(args, seed)


def _maybe_shuffle(points: np.ndarray, shuffle_seed: int | None) -> np.ndarray:
    if shuffle_seed is None:
        return points
    rng = np.random.Generator(np.random.PCG64(shuffle_seed))
    return points[rng.permutation(len(points))]


def _selected_algorithms(name: str) -> list[str]:
    if name == "all":
        return list(ALGORITHMS)
    if name not in ALGORITHMS:
        raise CliError(f"unknown algorithm {name!r}; choose from "
                       f"{', '.join(ALGORITHMS)} or 'all'", EXIT_USAGE)
    return [name]


def _solve(name: str, points: np.ndarray, eps: float | None):
    """Run one solver in its witnessed form, timing the solve call alone.
    Returns the cover, the time and the ``verify_cover`` report, or None
    when ``eps`` is None. The witness, built after the clock stops, goes
    to ``verify_cover``."""
    start = time.perf_counter()
    cover, witness = _WITNESSED[name](points)
    elapsed = time.perf_counter() - start
    if eps is None:
        return cover, elapsed, None
    return cover, elapsed, verify_cover(points, cover, eps=eps, witness=witness())


def cmd_generate(args: argparse.Namespace) -> int:
    _write(args.output, write_xy, _generate(args, args.seed))
    return EXIT_OK


def cmd_cover(args: argparse.Namespace) -> int:
    points = _maybe_shuffle(_load_points(args, args.seed), args.shuffle_seed)
    rc = EXIT_OK
    for name in _selected_algorithms(args.algorithm):
        cover, elapsed, report = _solve(name, points, args.eps if args.verify else None)
        line = f"{name}: {len(cover)} disks in {elapsed:.6f} s"
        if report is not None:
            if not report.valid:
                line += f"  INVALID ({len(report.uncovered)} uncovered)"
                rc = EXIT_VERIFY
            else:
                line += "  verified"
        print(line)
    if args.svg:  # the last algorithm's cover
        with _open(args.svg, "w") as fh:
            write_svg(points, cover, fh)
    return rc


def cmd_verify(args: argparse.Namespace) -> int:
    points = _load_points(args, args.seed)
    if args.cover is None:
        raise CliError("verify requires --cover FILE", EXIT_USAGE)
    report = verify_cover(points, _read(args.cover, read_xy), eps=args.eps)
    if report.valid:
        print(f"valid: {report.cover_size} disks cover {len(points)} points")
        return EXIT_OK
    print(f"invalid: {len(report.uncovered)} uncovered points "
          f"(first index {report.uncovered[0][0]})")
    return EXIT_VERIFY


def cmd_optimal(args: argparse.Namespace) -> int:
    result = optimal_cover(_load_points(args, args.seed))
    print(f"optimal: {result.size} disks")
    for cx, cy in result.centers.tolist():
        print(f"{cx!r} {cy!r}")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    """Timed, verified trials of each algorithm. An ``--input`` pointset is
    read once for every trial; otherwise trial t generates with seed + t."""
    if args.trials < 1:
        raise CliError("--trials must be >= 1", EXIT_USAGE)
    loaded = _load_points(args, args.seed) if args.input is not None else None
    instance = args.input if loaded is not None else f"{args.shape}-n{args.n}"
    records: list[BenchRecord] = []
    for name in _selected_algorithms(args.algorithm):
        rows = []
        for trial in range(args.trials):
            seed = args.seed if loaded is not None else args.seed + trial
            points = loaded if loaded is not None else _load_points(args, seed)
            points = _maybe_shuffle(points, args.shuffle_seed)
            cover, elapsed, report = _solve(name, points, args.eps)
            if not report.valid:
                raise CliError(
                    f"{name} produced an invalid cover on {instance} seed {seed}: "
                    f"{len(report.uncovered)} uncovered (first index "
                    f"{report.uncovered[0][0]})", EXIT_VERIFY)
            rows.append(BenchRecord(algorithm=name, instance=instance, n=len(points),
                                    cover_size=len(cover), wall_time_s=elapsed,
                                    seed=seed, trial=trial))
        records.extend(rows)
        mean_size = sum(r.cover_size for r in rows) / len(rows)
        if mean_size.is_integer():
            mean_size = int(mean_size)
        records.append(replace(rows[0], cover_size=mean_size, seed=args.seed, trial=-1,
                               wall_time_s=sum(r.wall_time_s for r in rows) / len(rows)))
    _write(args.csv, write_csv, records)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    read = argparse.ArgumentParser(add_help=False)
    read.add_argument("--input", help="pointset file (.tsp parsed as TSPLIB, else x-y pairs)")
    gen = argparse.ArgumentParser(add_help=False)
    gen.add_argument("--shape", choices=GENERATORS, help="generate the input instead")
    gen.add_argument("--n", type=int, help="generated pointset size")
    gen.add_argument("--area", type=float, default=1.0,
                     help="area of the square/disk/convex region")
    gen.add_argument("--router", type=float, default=1.0, help="annulus outer radius")
    gen.add_argument("--rinner", type=float, default=0.5, help="annulus inner radius")
    gen.add_argument("--seed", type=int, default=0, help="generator seed")
    eps = argparse.ArgumentParser(add_help=False)
    eps.add_argument("--eps", type=float, default=1e-9,
                     help="verification tolerance on the radius")
    shuffle = argparse.ArgumentParser(add_help=False)
    shuffle.add_argument("--shuffle-seed", type=int, default=None,
                         help="seeded permutation of the input order")

    parser = argparse.ArgumentParser(
        prog="udcover",
        description="Cover planar points with unit-radius disks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    p_gen = command("generate", cmd_generate, "write a random pointset", gen)
    p_gen.add_argument("--output", "-o", help="destination file (default stdout)")

    p_cover = command("cover", cmd_cover, "run one algorithm (or all)",
                      read, gen, eps, shuffle)
    p_cover.add_argument("--algorithm", default="fastcover", help="algorithm name or 'all'")
    p_cover.add_argument("--verify", action="store_true",
                         help="check the cover before reporting")
    p_cover.add_argument("--svg", help="write a rendering of the last cover")

    p_bench = command("bench", cmd_bench, "timed multi-trial comparison",
                      read, gen, eps, shuffle)
    p_bench.add_argument("--algorithm", default="all", help="algorithm name or 'all'")
    p_bench.add_argument("--trials", type=int, default=5)
    p_bench.add_argument("--csv", help="results file (default stdout)")

    p_verify = command("verify", cmd_verify, "check a cover file against points",
                       read, gen, eps)
    p_verify.add_argument("--cover", help="disk centers, x-y pairs")

    command("optimal", cmd_optimal, "exact minimum cover (small n)", read, gen)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: a build costs about 1.3 ms, most of it
    # terminal-size lookups, next to a 2-3 ms job on 500 points
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:  # ValueError: a check in the library
        print(f"udcover: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
