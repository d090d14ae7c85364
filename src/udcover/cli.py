"""Command-line front end and benchmark harness."""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import ALGORITHMS
from .generators import gen_annulus, gen_convex, gen_disk, gen_square
from .oracle import MAX_EXACT_POINTS, optimal_cover, verify_cover
from .pointio import BenchRecord, ParseError, read_tsplib, read_xy, write_csv, write_svg, write_xy

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VERIFY = 4

SHAPES = ("square", "disk", "convex", "annulus")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _generate(shape: str, n: int, area: float, r_outer: float, r_inner: float,
              seed: int) -> np.ndarray:
    if shape == "square":
        return gen_square(n, area, seed)
    if shape == "disk":
        return gen_disk(n, area, seed)
    if shape == "convex":
        if n < 3:
            raise CliError("convex shape needs --n >= 3", EXIT_USAGE)
        return gen_convex(n, area, seed)
    if shape == "annulus":
        if not 0.0 < r_inner < r_outer:
            raise CliError("annulus needs 0 < --rinner < --router", EXIT_USAGE)
        return gen_annulus(n, r_outer, r_inner, seed)
    raise CliError(f"unknown shape {shape!r}", EXIT_USAGE)


def _load_points(args: argparse.Namespace) -> np.ndarray:
    if args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                if args.input.endswith(".tsp"):
                    return read_tsplib(fh)
                return read_xy(fh)
        except ParseError as exc:
            raise CliError(f"{args.input}: {exc}", EXIT_PARSE) from None
        except OSError as exc:
            raise CliError(str(exc), EXIT_USAGE) from None
    if args.shape is None:
        raise CliError("either --input or --shape is required", EXIT_USAGE)
    if args.n is None:
        raise CliError("--shape requires --n", EXIT_USAGE)
    return _generate(args.shape, args.n, args.area, args.router, args.rinner,
                     args.seed)


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


def cmd_generate(args: argparse.Namespace) -> int:
    if args.shape is None or args.n is None:
        raise CliError("generate requires --shape and --n", EXIT_USAGE)
    points = _generate(args.shape, args.n, args.area, args.router,
                       args.rinner, args.seed)
    if args.output is None or args.output == "-":
        write_xy(points, sys.stdout)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_xy(points, fh)
    return EXIT_OK


def cmd_cover(args: argparse.Namespace) -> int:
    points = _maybe_shuffle(_load_points(args), args.shuffle_seed)
    rc = EXIT_OK
    last_cover = None
    for name in _selected_algorithms(args.algorithm):
        solver = ALGORITHMS[name]
        start = time.perf_counter()
        cover = solver(points)
        elapsed = time.perf_counter() - start
        line = f"{name}: {len(cover)} disks in {elapsed:.6f} s"
        if args.verify:
            report = verify_cover(points, cover, eps=args.eps)
            if not report.valid:
                line += f"  INVALID ({len(report.uncovered)} uncovered)"
                rc = EXIT_VERIFY
            else:
                line += "  verified"
        print(line)
        last_cover = cover
    if args.svg and last_cover is not None:
        with open(args.svg, "w", encoding="utf-8") as fh:
            write_svg(points, last_cover, fh)
    return rc


def cmd_verify(args: argparse.Namespace) -> int:
    points = _load_points(args)
    if args.cover is None:
        raise CliError("verify requires --cover FILE", EXIT_USAGE)
    try:
        with open(args.cover, "r", encoding="utf-8") as fh:
            cover = read_xy(fh)
    except ParseError as exc:
        raise CliError(f"{args.cover}: {exc}", EXIT_PARSE) from None
    report = verify_cover(points, cover, eps=args.eps)
    if report.valid:
        print(f"valid: {report.cover_size} disks cover {len(points)} points")
        return EXIT_OK
    print(f"invalid: {len(report.uncovered)} uncovered points "
          f"(first index {report.uncovered[0][0]})")
    return EXIT_VERIFY


def cmd_optimal(args: argparse.Namespace) -> int:
    points = _load_points(args)
    if len(points) > MAX_EXACT_POINTS:
        raise CliError(f"optimal handles at most {MAX_EXACT_POINTS} points, "
                       f"got {len(points)}", EXIT_USAGE)
    result = optimal_cover(points)
    print(f"optimal: {result.size} disks")
    for cx, cy in result.centers:
        print(f"{cx!r} {cy!r}")
    return EXIT_OK


def _bench_one(name: str, args: argparse.Namespace, trial: int,
               loaded: np.ndarray | None) -> BenchRecord:
    """One timed, verified trial; ``loaded`` is the ``--input`` pointset,
    read once for every trial, or None to generate one per trial."""
    if loaded is not None:
        points = loaded
        instance = args.input
        seed = args.seed
    else:
        seed = args.seed + trial
        points = _generate(args.shape, args.n, args.area, args.router,
                           args.rinner, seed)
        instance = f"{args.shape}-n{args.n}"
    points = _maybe_shuffle(points, args.shuffle_seed)
    solver = ALGORITHMS[name]
    start = time.perf_counter()
    cover = solver(points)
    elapsed = time.perf_counter() - start
    report = verify_cover(points, cover, eps=args.eps)
    if not report.valid:
        raise CliError(
            f"{name} produced an invalid cover on {instance} seed {seed}: "
            f"{len(report.uncovered)} uncovered (first index "
            f"{report.uncovered[0][0]})", EXIT_VERIFY)
    return BenchRecord(algorithm=name, instance=instance, n=len(points),
                       cover_size=len(cover), wall_time_s=elapsed,
                       seed=seed, trial=trial)


def cmd_bench(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise CliError("--trials must be >= 1", EXIT_USAGE)
    loaded = _load_points(args) if args.input is not None else None
    records: list[BenchRecord] = []
    for name in _selected_algorithms(args.algorithm):
        rows = [_bench_one(name, args, trial, loaded)
                for trial in range(args.trials)]
        records.extend(rows)
        mean_size = sum(r.cover_size for r in rows) / len(rows)
        if mean_size.is_integer():
            mean_size = int(mean_size)
        records.append(BenchRecord(
            algorithm=name, instance=rows[0].instance, n=rows[0].n,
            cover_size=mean_size,
            wall_time_s=sum(r.wall_time_s for r in rows) / len(rows),
            seed=args.seed, trial=-1))
    if args.csv is None or args.csv == "-":
        write_csv(records, sys.stdout)
    else:
        with open(args.csv, "w", encoding="utf-8") as fh:
            write_csv(records, fh)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="pointset file (.tsp parsed as TSPLIB, else x-y pairs)")
    p.add_argument("--shape", choices=SHAPES, help="generate the input instead")
    p.add_argument("--n", type=int, help="generated pointset size")
    p.add_argument("--area", type=float, default=1.0,
                   help="area of the square/disk/convex region")
    p.add_argument("--router", type=float, default=1.0, help="annulus outer radius")
    p.add_argument("--rinner", type=float, default=0.5, help="annulus inner radius")
    p.add_argument("--seed", type=int, default=0, help="generator seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udcover",
        description="Cover planar points with unit-radius disks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a random pointset")
    _add_common(p_gen)
    p_gen.add_argument("--output", "-o", help="destination file (default stdout)")
    p_gen.set_defaults(func=cmd_generate)

    p_cover = sub.add_parser("cover", help="run one algorithm (or all)")
    _add_common(p_cover)
    p_cover.add_argument("--algorithm", default="fastcover",
                         help="algorithm name or 'all'")
    p_cover.add_argument("--verify", action="store_true",
                         help="check the cover before reporting")
    p_cover.add_argument("--eps", type=float, default=1e-9,
                         help="verification tolerance on the radius")
    p_cover.add_argument("--svg", help="write a rendering of the last cover")
    p_cover.add_argument("--shuffle-seed", type=int, default=None,
                         help="seeded permutation of the input order")
    p_cover.set_defaults(func=cmd_cover)

    p_bench = sub.add_parser("bench", help="timed multi-trial comparison")
    _add_common(p_bench)
    p_bench.add_argument("--algorithm", default="all",
                         help="algorithm name or 'all'")
    p_bench.add_argument("--trials", type=int, default=5)
    p_bench.add_argument("--eps", type=float, default=1e-9)
    p_bench.add_argument("--csv", help="results file (default stdout)")
    p_bench.add_argument("--shuffle-seed", type=int, default=None)
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="check a cover file against points")
    _add_common(p_verify)
    p_verify.add_argument("--cover", help="disk centers, x-y pairs")
    p_verify.add_argument("--eps", type=float, default=1e-9)
    p_verify.set_defaults(func=cmd_verify)

    p_opt = sub.add_parser("optimal", help="exact minimum cover (small n)")
    _add_common(p_opt)
    p_opt.set_defaults(func=cmd_optimal)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"udcover: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
