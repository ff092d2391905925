#!/usr/bin/env python3
"""Self-test of the benchmark's checks: python3 bench/selftest.py

Runs each workload once at a small size and requires its checks to pass
(apart from the named known faults), then plants wrong results -- a flipped
verdict, a margin off by one unit and a wrong witness -- and requires each
to be counted as a failed operation. It also tests the sparse sign against
``Fraction`` and runs the full naive oracle on the d = 6 ladder set (every
apex dot in sparse arithmetic), which is too slow for every benchmark run.
Exits 1 on the first failure.
"""
from __future__ import annotations

import dataclasses
import json
import random
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from acuta import Dyadic, TripleWitness  # noqa: E402

import oracle  # noqa: E402
import workloads as W  # noqa: E402


class Small:
    """Each workload at a size that runs and checks in a few seconds."""

    ladder = type("SmallLadder", (W.LadderDyadic,),
                  {"DIMS": (6,), "RECHECK": (6,), "SAMPLE": 200})()
    rational = type("SmallRational", (W.RationalFiles,),
                    {"DIMS": (2, 3, 4), "RANDOM": ((12, 2), (20, 3))})()
    floats = type("SmallFloat", (W.FloatScreen,),
                  {"RANDOM": ((4, 9), (5, 17)), "BASELINE_DIMS": (3,),
                   "CLI_SET": "random1"})()


def fail(msg: str) -> None:
    print(f"SELFTEST FAILED: {msg}")
    raise SystemExit(1)


def one_round(wl, seed: int, work: Path):
    inputs = wl.setup(seed, work)
    rec = W.Recorder()
    wl.round(inputs, rec)
    proc = run.run_subprocess(run.cli_command(wl.cli_argv(inputs)), work)
    return inputs, rec, (proc.returncode, proc.stdout)


def judged(wl, inputs, rec, cli, seed):
    """(attempted, failed, problems) of a one-round run."""
    runs = W.Runs()
    runs.add_round(rec)
    runs.cli.append(cli)
    return W.judge(wl, inputs, runs, seed)[:3]


def plant(wl, inputs, rec, cli, seed, op: str, replace, what: str) -> None:
    """Feed one wrong result to the workload's checks; it must fail."""
    base_failed = judged(wl, inputs, rec, cli, seed)[1]
    bad = W.Recorder()
    bad.results, bad.kept = dict(rec.results), rec.kept
    bad.results[op] = replace(rec.results[op])
    attempted, failed, problems = judged(wl, inputs, bad, cli, seed)
    if failed <= base_failed or not any(p.startswith(f"{op}:")
                                        for p in problems):
        fail(f"{wl.name}: {what} in {op!r} was not counted as failed")
    print(f"  ok: {what} in {op!r} counted as failed")


def report_plants(wl, inputs, rec, cli, seed, op: str, unit, wrong_witness,
                  in_tuple: bool = False) -> None:
    def on(fn):
        if in_tuple:
            return lambda v: v[:2] + (fn(v[2]),)
        return fn

    plant(wl, inputs, rec, cli, seed, op,
          on(lambda r: dataclasses.replace(r, verdict=not r.verdict)),
          "a flipped verdict")
    plant(wl, inputs, rec, cli, seed, op,
          on(lambda r: dataclasses.replace(
              r, margin=r.margin + unit(r),
              witness=dataclasses.replace(r.witness,
                                          dot_value=r.margin + unit(r)))),
          "a margin off by one unit")
    plant(wl, inputs, rec, cli, seed, op,
          on(lambda r: dataclasses.replace(r, witness=wrong_witness(r))),
          "a wrong witness")


def other_triple(r):
    """A witness naming another angle than the reported one."""
    w = r.witness
    q, a, b = (0, 1, 2) if w.indices() != (0, 1, 2) else (0, 1, 3)
    return TripleWitness(q, a, b, w.dot_value)


def exact_unit(r):
    """One unit in the last place of an exact margin."""
    if isinstance(r.margin, Dyadic):
        return Dyadic.pow2(r.margin.terms[-1][0])
    return Fraction(1, r.margin.denominator)


def float_unit(r):
    """One unit of the float check's resolution, the strict margin."""
    return oracle.FLOAT_REL * (1.0 + r.squared_diameter)


def test_workload(wl, seed: int, work: Path, margin_op: str, unit,
                  wrong_witness, in_tuple=False, more=()) -> tuple:
    start = time.perf_counter()
    inputs, rec, cli = one_round(wl, seed, work)
    attempted, failed, problems = judged(wl, inputs, rec, cli, seed)
    if problems:
        fail(f"{wl.name}: a correct round was judged wrong: {problems}")
    print(f"{wl.name} (small): {attempted} operations, {failed} known-fault "
          f"failures, {time.perf_counter() - start:.1f} s")
    report_plants(wl, inputs, rec, cli, seed, margin_op, unit, wrong_witness,
                  in_tuple)
    for op in more:
        plant(wl, inputs, rec, cli, seed, op,
              lambda r: dataclasses.replace(r, verdict=not r.verdict),
              "a flipped verdict")
    code, out = cli
    bad_cli = (code, out.replace("points=", "points=1")
               if out.startswith("points=") else _flip_json(out))
    if not judged(wl, inputs, rec, bad_cli, seed)[2]:
        fail(f"{wl.name}: a wrong CLI report passed")
    print("  ok: a wrong CLI report counted as failed")
    return inputs, rec, cli


def _flip_json(out: str) -> str:
    obj = json.loads(out)
    obj["verdict"] = not obj["verdict"]
    return json.dumps(obj)


def test_sparse_sign(rng: random.Random) -> None:
    for _ in range(3000):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            e = rng.choice([rng.randint(-40, 40), rng.randint(-3000, 3000)])
            terms[e] = terms.get(e, 0) + rng.randint(-9, 9)
        terms = {e: c for e, c in terms.items() if c}
        value = sum((Fraction(2) ** e * c for e, c in terms.items()),
                    Fraction(0))
        want = (value > 0) - (value < 0)
        if oracle.sign(terms) != want:
            fail(f"sparse sign of {terms} is {oracle.sign(terms)}, not {want}")
    print("sparse sign agrees with Fraction on 3000 random sums")


def test_sparse_radius(rec) -> None:
    """The radius check on Dyadic values, which safe_radius cannot return
    today: margin/16 is within margin / (2 (2 D + 1)) at d = 6, margin/2
    is not."""
    _, _, rep = rec.results["construct_full d6"]
    oracle.check_radius(rep.margin * Dyadic.pow2(-4), rep.margin,
                        rep.squared_diameter)
    try:
        oracle.check_radius(rep.margin * Dyadic.pow2(-1), rep.margin,
                            rep.squared_diameter)
    except oracle.CheckFailure:
        print("sparse radius check: margin/16 passes, margin/2 fails")
        return
    fail("a radius of margin/2 passed the sparse radius check")


def naive_d6(rec) -> None:
    """Every apex dot and every slab depth of the d = 6 ladder set."""
    start = time.perf_counter()
    ps, _, rep = rec.results["construct_full d6"]
    ant = rec.results["antipodal d6"]
    pts = [[oracle.sparse(x) for x in p] for p in ps.points]
    n = len(pts)
    m = oracle.sparse(rep.margin)

    def vs_margin(v) -> int:
        return oracle.sign(oracle.sub(v, m))

    low = []
    for q in range(n):
        for a in range(n):
            for b in range(a + 1, n):
                if q not in (a, b):
                    s = vs_margin(oracle.sdot(pts, q, a, b))
                    if s < 0:
                        fail(f"naive d=6: angle {(q, a, b)} is below the "
                             "margin")
                    if s == 0:
                        low.append((q, a, b))
    if not low or min(low) != rep.witness.indices():
        fail(f"naive d=6: lex-first minimal angle {min(low, default=None)} "
             f"!= witness {rep.witness.indices()}")
    slab = []
    for x in range(n):
        for y in range(x + 1, n):
            length = oracle.ssqdist(pts, x, y)
            for z in range(n):
                if z not in (x, y):
                    t = oracle.sdot(pts, x, y, z)
                    s = min(vs_margin(t), vs_margin(oracle.sub(length, t)))
                    if s < 0:
                        fail(f"naive d=6: slab {(x, y, z)} is below the "
                             "margin")
                    if s == 0:
                        slab.append((x, y, z))
    if not slab or min(slab) != ant.witness.indices():
        fail(f"naive d=6: slab witness {min(slab, default=None)} != "
             f"{ant.witness.indices()}")
    print(f"naive oracle d=6: {len(low)} minimal of "
          f"{n * (n - 1) * (n - 2) // 2} apex dots and {len(slab)} minimal "
          f"slab depths; margin and both witnesses agree "
          f"({time.perf_counter() - start:.1f} s)")


def main() -> int:
    seed = 7
    rng = random.Random(seed)
    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        if spec != run.spec():
            fail("BENCHMARK.json differs from run.spec(); run --write-spec")
        print("BENCHMARK.json matches run.spec()")
        test_sparse_sign(rng)

        _, lrec, _ = test_workload(
            Small.ladder, seed, work, "construct_full d6", exact_unit,
            other_triple, in_tuple=True, more=("verdict d6", "antipodal d6"))
        inputs, rrec, rcli = test_workload(
            Small.rational, seed, work, "margin d4", exact_unit,
            other_triple, more=("verdict random0", "antipodal random1"))

        def moved(loaded):
            ps, trace = loaded
            pts = list(ps.points)
            pts[0] = (pts[0][0] + Fraction(1, 1 << 20),) + pts[0][1:]
            return dataclasses.replace(ps, points=tuple(pts)), trace

        plant(Small.rational, inputs, rrec, rcli, seed, "load d4", moved,
              "a loaded set one coordinate off the saved one")
        test_workload(Small.floats, seed, work, "margin random0", float_unit,
                      other_triple,
                      more=("verdict random1", "antipodal random0"))
        test_sparse_radius(lrec)
        naive_d6(lrec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
