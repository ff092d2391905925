#!/usr/bin/env python3
"""Build and certify the exact scale-ladder configuration in dimension d.

Usage: python3 scripts/run_ladder.py [--dim 5] [--out ladder.json]

The 2**(d-1) vertices of the (d-1)-cube fall into 2**(d-2) antipodal
classes; class ell is displaced with the coupled step of scale 2**-k_ell,
where k_1 = ceil(log2(d (d-1))) and k_{ell+1} = 3 k_ell + 1. This script
builds the 2**(d-1)+1 point set (apex included), certifies it exactly, and
prints the scale of each level plus the certified margin (the README's
ladder table gives the measured build and certify times):

    d  points  deepest scale      margin
    5      17  2^-12028           ~2^-16031
    6      33  2^-78918988        ~2^-105225310
    7      65  2^-(4.01e15)       ~2^-(5.35e15)
    8     129  2^-(7.43e30)       ~2^-(9.92e30)
    9     257  2^-(2.94e61)       ~2^-(3.93e61)
   10     513  2^-(3.47e122)      ~2^-(4.63e122)

From d = 6 on the coordinates are sparse dyadic sums (a dense Fraction of
2^-78918988 would need 10**8 bits); ``--out`` writes them in the file
format's binary form, which ``acuta verify`` reads back.
d = 11 and above are refused: at d = 11 the exact certificate covers
536 870 400 apex dots, about half of them computed.
"""
import argparse
import time

from acuta import ConstructionConfig, construct_full, save_point_set
from acuta._designs import ladder_ks
from acuta.scalars import floor_log2


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dim", type=int, default=5)
    ap.add_argument("--out", default=None, help="write the set as JSON")
    args = ap.parse_args()

    ks = ladder_ks(args.dim)
    print("level scales:")
    for ell, k in enumerate(ks):
        print(f"  level {ell}: s = 2^-{k}")

    cfg = ConstructionConfig(dim=args.dim, backend="rational")
    t0 = time.perf_counter()
    ps, trace, report = construct_full(cfg)
    t_build = time.perf_counter() - t0

    print(f"\npoints: {len(ps)}")
    print(f"margin: positive, ~2^{floor_log2(report.margin)}")
    print(f"witness: {report.witness.indices()}")
    print(f"triples checked: {report.triples_checked}")
    print(f"build+certify: {t_build:.2f}s (certify {report.elapsed:.2f}s)")
    print(f"displacement bounds: first ~2^{floor_log2(trace.steps[0].eps)}, "
          f"last ~2^{floor_log2(trace.steps[-1].eps)}")

    if args.out:
        save_point_set(args.out, ps, fmt="json", trace=trace)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
