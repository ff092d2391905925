"""Command-line interface.

Subcommands: ``generate`` (build and certify a set), ``verify`` (certify a
point-set file), ``table`` (cardinality landscape per dimension),
``baseline`` (greedy random reference).

Exit codes: 0 success/certified, 2 bad input or an unreadable or
unwritable file, 3 a predicate check failed, 4 construction failed.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .construct import (ConstructionConfig, ConstructionError, construct_full,
                        random_baseline)
from .pointset_io import (dumps_canonical, render_coord, save_point_set,
                          load_point_set)
from .scalars import FLOAT64, RATIONAL, brief
from .verify import (hard_cap, legacy_bounds, target_size, verify_acute,
                     verify_antipodal_witness, verify_nonobtuse)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PREDICATE = 3
EXIT_CONSTRUCTION = 4


def _report_obj(report) -> dict:
    margin = (None if report.margin is None
              else render_coord(report.margin, decimal=True))
    witness = None
    if report.witness is not None:
        dot = report.witness.dot_value
        witness = {
            "apex": report.witness.apex_index,
            "legs": [report.witness.leg_index_1, report.witness.leg_index_2],
            # A witness carries the margin object itself: render it once.
            "dot": (margin if dot is report.margin
                    else render_coord(dot, decimal=True)),
        }
    return {
        "check": report.check,
        "verdict": report.verdict,
        "margin": margin,
        "witness": witness,
        "triples_checked": report.triples_checked,
        "squared_diameter": render_coord(report.squared_diameter,
                                         decimal=True),
        "backend": report.backend,
        "elapsed": round(report.elapsed, 6),
    }


def _check_out(path: Path, fmt: str, backend: str) -> None:
    """Refuse, before any build, an ``--out`` that cannot be written: a
    directory, a path whose directory does not exist, or csv for an exact
    set. :func:`save_point_set` still refuses whatever else it cannot
    write."""
    if fmt == "csv" and backend != FLOAT64:
        raise ValueError("csv output supports the float64 backend only")
    if path.is_dir():
        raise IsADirectoryError(f"--out {path} is a directory")
    if not path.parent.is_dir():
        raise FileNotFoundError(f"--out {path}: no directory {path.parent}")


def cmd_generate(args) -> int:
    backend = RATIONAL if args.mode == "exact" else FLOAT64
    cfg = ConstructionConfig(dim=args.dim, backend=backend,
                             apex_height=args.apex_height)
    if args.out:
        _check_out(Path(args.out), args.format, backend)
    ps, trace, report = construct_full(cfg)
    if args.out:
        if args.format == "csv":
            save_point_set(args.out, ps, fmt="csv")
        else:
            save_point_set(args.out, ps, fmt="json", trace=trace)
    print(f"points={len(ps)} margin={brief(report.margin)} "
          f"elapsed={report.elapsed:.3f}s")
    return EXIT_OK if report.verdict else EXIT_PREDICATE


def cmd_verify(args) -> int:
    if args.check == "antipodal" and args.mode == "verdict":
        raise ValueError("--mode verdict applies to --check acute and "
                         "nonobtuse only")
    ps, _trace = load_point_set(args.path)
    if args.check == "acute":
        report = verify_acute(ps, mode=args.mode)
    elif args.check == "nonobtuse":
        report = verify_nonobtuse(ps, mode=args.mode)
    else:
        report = verify_antipodal_witness(ps)
    sys.stdout.write(dumps_canonical(_report_obj(report)))
    return EXIT_OK if report.verdict else EXIT_PREDICATE


def cmd_table(args) -> int:
    if args.dmin < 2 or args.dmax < args.dmin:
        raise ValueError("need 2 <= dmin <= dmax")
    limit = sys.get_int_max_str_digits()        # 0: no limit
    if limit and args.dmax >= (10 ** limit).bit_length():
        raise ValueError(f"dmax {args.dmax}: 2^dmax-1 has more than {limit} "
                         "digits, Python's limit for printing an int")
    print("d | 2^(d-1)+1 | 2^d-1 | fib(d+2) | half-exp | 2d-1 | 3^(d/2-1)-1")
    for d in range(args.dmin, args.dmax + 1):
        legacy = legacy_bounds(d)
        cells = [d, target_size(d), hard_cap(d), legacy["fibonacci"],
                 legacy["exponential_half"], legacy["linear"],
                 legacy["three_power"]]
        print(" | ".join(str(c) for c in cells))
    return EXIT_OK


def cmd_baseline(args) -> int:
    ps = random_baseline(args.dim, trials=args.trials, seed=args.seed)
    n = len(ps)
    margin = brief(verify_acute(ps).margin) if n >= 3 else "n/a"
    print(f"points={n} target={target_size(args.dim)} margin={margin}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acuta",
        description="Construct and certify acute point sets in R^d")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build and certify a set")
    g.add_argument("dim", type=int)
    g.add_argument("--mode", choices=("exact", "float"), default="exact")
    g.add_argument("--apex-height", dest="apex_height", default=None,
                   help="apex height c (default d/2); needs c^2 > (d-1)/4")
    g.add_argument("--out", default=None)
    g.add_argument("--format", choices=("json", "csv"), default="json")
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser("verify", help="certify a point-set file")
    v.add_argument("path")
    v.add_argument("--check", choices=("acute", "nonobtuse", "antipodal"),
                   default="acute")
    v.add_argument("--mode", choices=("margin", "verdict"), default="margin")
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("table", help="cardinality landscape per dimension")
    t.add_argument("dmin", type=int)
    t.add_argument("dmax", type=int)
    t.set_defaults(func=cmd_table)

    b = sub.add_parser("baseline", help="greedy random reference")
    b.add_argument("dim", type=int)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--trials", type=int, default=200)
    b.set_defaults(func=cmd_baseline)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConstructionError, ValueError, OSError) as exc:
        # ParseError, ScalarError and GeometryError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_CONSTRUCTION if isinstance(exc, ConstructionError)
                else EXIT_INPUT)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
