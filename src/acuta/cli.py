"""Command-line interface.

Subcommands: ``generate`` (build and certify a set), ``verify`` (certify a
point-set file), ``table`` (cardinality landscape per dimension),
``baseline`` (greedy random reference).

Exit codes: 0 success/certified, 2 bad input or unreadable file, 3 a
predicate check failed, 4 construction failed.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Optional

from .construct import (ConstructionConfig, ConstructionError, construct_full,
                        random_baseline)
from .geometry import GeometryError
from .pointset_io import (ParseError, dumps_canonical, render_coord,
                          save_point_set, load_point_set)
from .scalars import FLOAT64, RATIONAL, Dyadic, ScalarError
from .verify import (hard_cap, legacy_bounds, target_size, verify_acute,
                     verify_antipodal_witness, verify_nonobtuse)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PREDICATE = 3
EXIT_CONSTRUCTION = 4


def _fmt_margin(margin) -> str:
    if isinstance(margin, Dyadic):
        # Only values too large for a Fraction stay Dyadic (see as_exact).
        e = margin.floor_log2()
        return f"exact>0 (~2^{e})" if margin > 0 else f"exact<0 (~-2^{e})"
    if isinstance(margin, Fraction):
        try:
            approx = float(margin)
        except OverflowError:
            approx = None
        if (approx == 0.0 or approx is None) and margin > 0:
            # Positive but below float range: report the binary scale.
            e = margin.numerator.bit_length() - margin.denominator.bit_length()
            return f"exact>0 (~2^{e})"
        if margin.numerator.bit_length() + margin.denominator.bit_length() <= 140:
            return f"{margin.numerator}/{margin.denominator} ({approx:.6g})"
        return f"{approx:.6g}"
    return f"{float(margin):.6g}"


def _report_obj(report) -> dict:
    witness = None
    if report.witness is not None:
        witness = {
            "apex": report.witness.apex_index,
            "legs": [report.witness.leg_index_1, report.witness.leg_index_2],
            "dot": render_coord(report.witness.dot_value),
        }
    return {
        "check": report.check,
        "verdict": report.verdict,
        "margin": None if report.margin is None else render_coord(report.margin),
        "witness": witness,
        "triples_checked": report.triples_checked,
        "squared_diameter": render_coord(report.squared_diameter),
        "backend": report.backend,
        "elapsed": round(report.elapsed, 6),
    }


def cmd_generate(args) -> int:
    backend = RATIONAL if args.mode == "exact" else FLOAT64
    cfg = ConstructionConfig(
        dim=args.dim, backend=backend, schedule=args.schedule,
        s1=args.s1, gamma=args.gamma, apex_height=args.apex_height)
    ps, trace, report = construct_full(cfg)
    if args.out:
        if args.format == "csv":
            save_point_set(args.out, ps, fmt="csv")
        else:
            save_point_set(args.out, ps, fmt="json", trace=trace)
    print(f"points={len(ps)} margin={_fmt_margin(report.margin)} "
          f"elapsed={report.elapsed:.3f}s")
    return EXIT_OK if report.verdict else EXIT_PREDICATE


def cmd_verify(args) -> int:
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
    if n >= 3:
        report = verify_acute(ps)
        margin = _fmt_margin(report.margin)
    else:
        margin = "n/a"
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
    g.add_argument("--schedule", choices=("adaptive", "geometric"),
                   default="adaptive")
    g.add_argument("--s1", default=None,
                   help="first step scale for the geometric schedule")
    g.add_argument("--gamma", default=None,
                   help="decay rate for the geometric schedule")
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
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except (ScalarError, GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
