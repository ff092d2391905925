#!/usr/bin/env python3
"""Survey construction margins across dimensions and backends.

Usage: python3 scripts/margin_survey.py [--dmax 6]

Prints one line per (d, backend) combination: either the certified margin
or the reason construction failed. Useful for seeing at a glance where each
backend stops working and why.
"""
import argparse
import time
from fractions import Fraction

from acuta import ConstructionConfig, ConstructionError, construct_full
from acuta import lemma_check
from acuta.scalars import brief


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dmax", type=int, default=6)
    args = ap.parse_args()

    print("== construction survey ==")
    for d in range(2, args.dmax + 1):
        for backend in ("rational", "float64"):
            cfg = ConstructionConfig(dim=d, backend=backend)
            t0 = time.perf_counter()
            try:
                ps, _trace, report = construct_full(cfg)
                el = time.perf_counter() - t0
                print(f"d={d} {backend:8s}: "
                      f"n={len(ps)} margin={brief(report.margin)} "
                      f"({el:.2f}s)")
            except ConstructionError as exc:
                el = time.perf_counter() - t0
                reason = str(exc).split(";")[0].split(":")[0]
                print(f"d={d} {backend:8s}: FAILED ({el:.2f}s) - {reason}")

    print()
    print("== single-step lemma minima ==")
    for d in range(2, args.dmax + 1):
        for s in (Fraction(1, 10), Fraction(1, 100)):
            rep = lemma_check(d, s)
            print(f"d={d} s={s}: ok={rep.ok} "
                  f"min_leg_angle={rep.min_case1} "
                  f"min_apex_angle={rep.min_case2} "
                  f"residual={rep.coupling_residual}")


if __name__ == "__main__":
    main()
