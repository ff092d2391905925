"""The three benchmark workloads.

Each workload has a set-up step that makes its inputs from the seed, a
round of in-process calls into the package's public functions (the timed
part), one CLI command that a round runs ``CLI_PER_ROUND`` times as a
subprocess, and checks that judge every result against :mod:`oracle`. A run
repeats whole rounds, so the share of failed operations is the same in every
run; only the first round is checked in full, later rounds must reproduce
its results exactly.
"""
from __future__ import annotations

import dataclasses
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

import acuta.construct as C
import acuta.pointset_io as IO
import acuta.verify as V
from acuta import FLOAT64, PointSet

import oracle
from oracle import CheckFailure, ExactScan, expect

CLI_PER_ROUND = 3


class Recorder:
    """Runs one round's calls and keeps each result, or its exception."""

    def __init__(self) -> None:
        self.results: dict = {}
        self.kept: dict = {}        # inputs the round derived, for checks

    def op(self, name: str, fn, *args, **kwargs):
        """One counted operation: a call into the package."""
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:                 # recorded, judged later
            self.results[name] = exc
            return None
        self.results[name] = value
        return value


def fingerprint(value):
    """A result with its wall-clock fields cleared, for round-to-round
    comparison; an exception compares by its type."""
    if isinstance(value, V.VerificationReport):
        return dataclasses.replace(value, elapsed=0.0)
    if isinstance(value, tuple):
        return tuple(fingerprint(v) for v in value)
    if isinstance(value, Exception):
        return type(value)
    return value


def ok(value):
    """The result of a dependency, or a failure if that call raised."""
    if isinstance(value, Exception) or value is None:
        raise CheckFailure(f"depends on a failed call: {value!r}")
    return value


def _cube_and_apex(ps, d: int) -> None:
    n = 2 ** (d - 1) + 1
    expect(len(ps) == n and ps.dim == d, f"{len(ps)} points, expected {n}")
    expect(ps.points[-1] == tuple([Fraction(1, 2)] * (d - 1)
                                  + [Fraction(d, 2)]),
           "the last point is not the apex (1/2, ..., 1/2, d/2)")


class Workload:
    name = ""
    # Operation names that fail today because of a named fault, with it.
    known_faults: dict = {}

    def setup(self, seed: int, work: Path):
        raise NotImplementedError

    def round(self, inputs, rec: Recorder) -> None:
        raise NotImplementedError

    def cli_argv(self, inputs) -> list:
        raise NotImplementedError

    def check(self, inputs, rec: Recorder, seed: int) -> dict:
        """``{operation: None or the reason its result is wrong}``."""
        raise NotImplementedError

    def check_cli(self, inputs, results: dict, code: int, out: str) -> None:
        raise NotImplementedError

    def known_fault(self, op: str):
        return next((why for key, why in self.known_faults.items()
                     if key in op), None)


def _run_checks(checks) -> dict:
    verdicts = {}
    for name, fn in checks:
        try:
            fn()
            verdicts[name] = None
        except CheckFailure as exc:
            verdicts[name] = str(exc)
        except Exception as exc:                 # a check fed a bad result
            verdicts[name] = f"{type(exc).__name__}: {str(exc)[:200]}"
    return verdicts


class Runs:
    """What a run keeps for its checks: the first round's results, for each
    later round its operation count and the operations whose results differ
    from the first round's, and the (exit code, output) of each CLI run."""

    def __init__(self) -> None:
        self.first = None
        self._ref: dict = {}
        self.later: list = []
        self.cli: list = []

    def add_round(self, rec: Recorder) -> None:
        if self.first is None:
            self.first = rec
            self._ref = {k: fingerprint(v) for k, v in rec.results.items()}
            return
        differ = [name for name, value in rec.results.items()
                  if fingerprint(value) != self._ref.get(name)]
        self.later.append((len(rec.results), differ))


def judge(wl: Workload, inputs, runs: Runs, seed: int):
    """Check a run: the first round in full, later rounds against it, and
    every CLI run against the first round. Returns ``(attempted, failed,
    problems, known)``, where problems are unexpected failures and known the
    failures of operations that fail today because of a named fault."""
    first = runs.first
    verdicts = wl.check(inputs, first, seed)
    problems = [f"{name}: no check" for name in first.results
                if name not in verdicts]
    bad = {name: verdicts[name] for name in first.results
           if verdicts.get(name)}
    failed = len(bad) * (1 + len(runs.later))
    for k, (_, differ) in enumerate(runs.later, 2):
        for name in differ:
            problems.append(f"round {k}: {name} differs from round 1")
            failed += name not in bad
    for code, out in runs.cli:
        try:
            wl.check_cli(inputs, first.results, code, out)
        except Exception as exc:             # any wrong output is a failure
            failed += 1
            problems.append(f"cli {wl.cli_argv(inputs)}: {exc}")
    known = []
    for name, msg in bad.items():
        if wl.known_fault(name) is None:
            problems.append(f"{name}: {msg}")
        else:
            known.append(f"{name}: {msg}")
    attempted = (len(first.results) + sum(n for n, _ in runs.later)
                 + len(runs.cli))
    return attempted, failed, problems, known


# ---------------------------------------------------------------------------


class LadderDyadic(Workload):
    """Exact ladder certificates for d = 6, 7, 8 and re-checks of d = 6, 7."""

    name = "ladder-dyadic"
    known_faults = {
        "safe_radius d6": "construct.safe_radius raises TypeError on a "
                          "Dyadic squared diameter and margin",
    }
    DIMS = (6, 7, 8)
    RECHECK = (6, 7)
    SAMPLE = 2000

    def setup(self, seed, work):
        return {"cfg": {d: C.ConstructionConfig(dim=d) for d in self.DIMS}}

    def round(self, inputs, rec):
        for d in self.DIMS:
            built = rec.op(f"construct_full d{d}", C.construct_full,
                           inputs["cfg"][d])
            if d not in self.RECHECK:
                continue
            ps = built and built[0]
            rec.op(f"verdict d{d}", V.verify_acute, ps, mode="verdict")
            rec.op(f"antipodal d{d}", V.verify_antipodal_witness, ps)
            if d == 6:
                rec.op("safe_radius d6", C.safe_radius, ps,
                       built and built[2].margin)

    def cli_argv(self, inputs):
        return ["generate", "6"]

    def check(self, inputs, rec, seed):
        results = rec.results
        rng = random.Random(seed)

        def built(d):
            ps, trace, rep = ok(results[f"construct_full d{d}"])
            expect(trace.dim == d and len(trace.steps) == 2 ** (d - 1),
                   "trace does not cover the cube")
            oracle.check_ladder_report(ps, rep, d, self.SAMPLE, rng)

        def verdict(d):
            rep = ok(results[f"verdict d{d}"])
            n = 2 ** (d - 1) + 1
            expect(rep.check == "acute" and rep.verdict
                   and rep.witness is None and rep.margin is None
                   and rep.triples_checked == oracle.triples(n),
                   "verdict mode disagrees with the certificate")

        def antipodal(d):
            rep = ok(results[f"antipodal d{d}"])
            ps, _, built_rep = ok(results[f"construct_full d{d}"])
            margin = built_rep.margin
            n = 2 ** (d - 1) + 1
            m = oracle.sparse(rep.margin)
            expect(rep.verdict and oracle.sign(
                oracle.sub(m, oracle.sparse(margin))) == 0,
                "antipodal margin differs from the acute margin")
            x, y, z = rep.witness.indices()
            pts = [[oracle.sparse(c) for c in ps.points[i]] for i in range(n)]
            t = oracle.sdot(pts, x, y, z)
            rest = oracle.sub(oracle.ssqdist(pts, x, y), t)
            # min(t, |p_y - p_x|^2 - t) == m
            expect(x < y and min(oracle.sign(oracle.sub(t, m)),
                                 oracle.sign(oracle.sub(rest, m))) == 0
                   and rep.triples_checked == n * (n - 1) * (n - 2) // 2,
                   f"slab witness {(x, y, z)} does not attain the margin")

        def radius():
            _, _, rep = ok(results["construct_full d6"])
            oracle.check_radius(ok(results["safe_radius d6"]), rep.margin,
                                rep.squared_diameter)

        checks = [(f"construct_full d{d}", lambda d=d: built(d))
                  for d in self.DIMS]
        for d in self.RECHECK:
            checks.append((f"verdict d{d}", lambda d=d: verdict(d)))
            checks.append((f"antipodal d{d}", lambda d=d: antipodal(d)))
        checks.append(("safe_radius d6", radius))
        return _run_checks(checks)

    def check_cli(self, inputs, results, code, out):
        ps, _, rep = ok(results["construct_full d6"])
        m = re.fullmatch(r"points=(\d+) margin=exact>0 \(~2\^(-?\d+)\) "
                         r"elapsed=\S+\n", out)
        expect(code == 0 and m is not None, f"exit {code}, output {out!r}")
        e = int(m.group(2))
        low = oracle.sub(oracle.sparse(rep.margin), {e: 1})
        high = oracle.sub({e + 1: 1}, oracle.sparse(rep.margin))
        expect(int(m.group(1)) == len(ps) and oracle.sign(low) >= 0
               and oracle.sign(high) > 0,
               f"CLI margin 2^{e} does not match the in-process margin")


# ---------------------------------------------------------------------------


def _random_rational_points(rng: random.Random, n: int, dim: int):
    """n distinct points with coordinates p/2^k, k <= 3, |p/2^k| <= 4."""
    pts = set()
    while len(pts) < n:
        den = 2 ** rng.randint(0, 3)
        pts.add(tuple(Fraction(rng.randint(-4 * den, 4 * den), den)
                      for _ in range(dim)))
    return tuple(sorted(pts))


def _kick(ps, idx: int, direction, size):
    """Move point idx by ``size * direction / |direction|_1``, whose
    Euclidean length is at most ``size``."""
    scale = Fraction(size) / sum(abs(c) for c in direction)
    pts = list(ps.points)
    pts[idx] = tuple(x + c * scale for x, c in zip(pts[idx], direction))
    return PointSet(dim=ps.dim, points=tuple(pts), backend=ps.backend)


class RationalFiles(Workload):
    """Exact Fraction sets written, read back and re-certified."""

    name = "rational-files"
    known_faults: dict = {}
    DIMS = (2, 3, 4, 5)        # the largest is kicked and run by the CLI
    # (n, dim) of the seeded random sets, the acceptance criterion 8 kind.
    RANDOM = ((12, 2), (20, 3), (30, 3), (40, 4), (50, 2), (50, 4))

    def setup(self, seed, work):
        rng = random.Random(seed)
        top = max(self.DIMS)
        n = 2 ** (top - 1) + 1
        randoms = {
            f"random{k}": PointSet(dim=dim, backend="rational",
                                   points=_random_rational_points(rng, n, dim))
            for k, (n, dim) in enumerate(self.RANDOM)}

        def direction():
            while True:
                v = tuple(rng.randint(-1024, 1024) for _ in range(top))
                if any(v):
                    return v

        # The points kicked within the radius are fixed, a cube vertex and
        # the apex: a kicked set's scans cost from 0.094 s to 0.121 s CPU
        # depending on which point moved, so a seeded choice would make the
        # work vary from seed to seed. Direction and size are seeded.
        kicks = [(idx, direction(),
                  Fraction(rng.randint(1, (1 << 16) - 1), 1 << 16))
                 for idx in (0, n - 1)]
        # One kick far outside the radius, so its verdict scan exits early.
        big = (rng.randrange(n), direction(), Fraction(1, 256))
        return {"cfg": {d: C.ConstructionConfig(dim=d) for d in self.DIMS},
                "randoms": randoms, "kicks": kicks, "big": big, "work": work}

    def round(self, inputs, rec):
        built = {d: rec.op(f"construct_full d{d}", C.construct_full,
                           inputs["cfg"][d]) for d in self.DIMS}
        sets = rec.kept
        for d, b in built.items():
            sets[f"d{d}"] = (b[0], b[1]) if b else (None, None)
        top = max(self.DIMS)
        ps, _, rep = built[top] or (None, None, None)
        radius = rec.op(f"safe_radius d{top}", C.safe_radius, ps,
                        rep and rep.margin)
        for k, (idx, v, rho) in enumerate(inputs["kicks"]):
            sets[f"kick{k}"] = (_kick(ps, idx, v, rho * radius)
                                if radius else None, None)
        idx, v, size = inputs["big"]
        sets["kick-big"] = (_kick(ps, idx, v, size) if ps else None, None)
        sets.update((k, (ps, None)) for k, ps in inputs["randoms"].items())
        for name, (ps, trace) in sets.items():
            path = inputs["work"] / f"{name}.json"
            rec.op(f"save {name}", IO.save_point_set, path, ps, trace=trace)
            loaded = rec.op(f"load {name}", IO.load_point_set, path)
            lps = loaded and loaded[0]
            rec.op(f"margin {name}", V.verify_acute, lps)
            rec.op(f"verdict {name}", V.verify_acute, lps, mode="verdict")
            rec.op(f"antipodal {name}", V.verify_antipodal_witness, lps)

    def cli_argv(self, inputs):
        return ["verify", str(inputs["work"] / f"d{max(self.DIMS)}.json")]

    def check(self, inputs, rec, seed):
        results, sets = rec.results, rec.kept
        scans = {}

        def scan(name):
            if name not in scans:
                scans[name] = ExactScan(ok(sets[name][0]).points)
            return scans[name]

        def built(d):
            ps, trace, rep = ok(results[f"construct_full d{d}"])
            _cube_and_apex(ps, d)
            expect(trace.dim == d and len(trace.steps) == 2 ** (d - 1),
                   "trace does not cover the cube")
            oracle.check_report(rep, scan(f"d{d}"), len(ps), "acute",
                                "margin", "rational")

        def radius():
            top = max(self.DIMS)
            _, _, rep = ok(results[f"construct_full d{top}"])
            oracle.check_radius(ok(results[f"safe_radius d{top}"]),
                                rep.margin, rep.squared_diameter)
            for k in range(len(inputs["kicks"])):
                expect(scan(f"kick{k}").margin > 0,
                       f"kick{k}, within the radius, broke acuteness")

        def saved(name):
            path = inputs["work"] / f"{name}.json"
            expect(results[f"save {name}"] is None and path.is_file(),
                   "nothing saved")

        def loaded(name):
            ps, trace = sets[name]
            lps, ltrace = ok(results[f"load {name}"])
            expect(lps.dim == ps.dim and lps.backend == ps.backend
                   and len(lps) == len(ps)
                   and all(type(x) is type(y) and x == y
                           for p, q in zip(lps.points, ps.points)
                           for x, y in zip(p, q))
                   and ltrace == trace,
                   "the loaded set differs from the saved one")

        def verified(name, check, mode):
            key = {"acute": mode, "antipodal": "antipodal"}[check]
            rep = ok(results[f"{key} {name}"])
            ps = sets[name][0]
            oracle.check_report(rep, scan(name), len(ps), check, mode,
                                "rational")

        checks = [(f"construct_full d{d}", lambda d=d: built(d))
                  for d in self.DIMS]
        checks.append((f"safe_radius d{max(self.DIMS)}", radius))
        for name in sets:
            checks += [
                (f"save {name}", lambda n=name: saved(n)),
                (f"load {name}", lambda n=name: loaded(n)),
                (f"margin {name}", lambda n=name: verified(n, "acute",
                                                           "margin")),
                (f"verdict {name}", lambda n=name: verified(n, "acute",
                                                            "verdict")),
                (f"antipodal {name}", lambda n=name: verified(n, "antipodal",
                                                              "margin")),
            ]
        return _run_checks(checks)

    def check_cli(self, inputs, results, code, out):
        rep = ok(results[f"margin d{max(self.DIMS)}"])
        _cli_matches(rep, code, out, Fraction)


def _cli_matches(rep, code: int, out: str, parse) -> None:
    """``acuta verify`` output against the in-process report of the set."""
    expect(code == (0 if rep.verdict else 3), f"exit code {code}")
    obj = json.loads(out)
    w = rep.witness
    expect(obj["check"] == rep.check and obj["verdict"] == rep.verdict
           and obj["backend"] == rep.backend
           and parse(obj["margin"]) == rep.margin
           and obj["witness"]["apex"] == w.apex_index
           and obj["witness"]["legs"] == [w.leg_index_1, w.leg_index_2]
           and parse(obj["witness"]["dot"]) == w.dot_value
           and obj["triples_checked"] == rep.triples_checked
           and parse(obj["squared_diameter"]) == rep.squared_diameter,
           "the CLI report differs from the in-process report")


# ---------------------------------------------------------------------------


# Translated float sets that margin mode gets wrong today. The triangles
# (0,0), (1,0), (eps,1) + offset are obtuse at the origin; these three were
# found by a seeded search (numpy default_rng(3), 3000 draws of eps in
# [-0.1, -1e-4] and offset in [1e5, 1e8]) and margin mode passes each.
TRANSLATED_TRIANGLES = (
    (-0.018110725330225206, 17401278.46708691),
    (-0.001314072922001961, 36011338.41253455),
    (-0.0059712486564424214, 19570562.17306484),
)
TRANSLATED_DESIGN_OFFSET = 1e7        # the d = 4 float design, moved


def _float_set(rows) -> PointSet:
    return PointSet(dim=len(rows[0]), points=tuple(map(tuple, rows)),
                    backend=FLOAT64)


def _write_csv(path: Path, rows) -> None:
    lines = [",".join(f"x{k}" for k in range(len(rows[0])))]
    lines += [",".join(repr(float(x)) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class FloatScreen(Workload):
    """float64 sets through the float kernels; no exact arithmetic."""

    name = "float-screen"
    known_faults = {
        "translated": "verify._margin_scan_float and verify._sqdiam expand "
                      "dots around the origin, so translated sets get wrong "
                      "margins, diameters and verdicts",
    }
    DESIGNS = (2, 3, 4)
    # (dim, n) of the seeded random sets: the target sizes of d = 4..8.
    RANDOM = ((4, 9), (5, 17), (6, 33), (7, 65), (8, 129))
    CLI_SET = "random3"
    BASELINE_DIMS = (3, 4, 5)
    BASELINE_TRIALS = 200

    def setup(self, seed, work):
        rng = np.random.default_rng(seed)
        rows = {f"random{k}": rng.random((n, d))
                for k, (d, n) in enumerate(self.RANDOM)}
        baseline = [(d, int(rng.integers(1 << 31)))
                    for d in self.BASELINE_DIMS]
        cube4, _ = C.construct_acute_cube(
            C.ConstructionConfig(dim=4, backend=FLOAT64))
        design4 = cube4.points + (C.apex_point(4, backend=FLOAT64),)
        translated = {
            "translated-d4": [[float(x) + TRANSLATED_DESIGN_OFFSET
                               for x in p] for p in design4]}
        for k, (eps, off) in enumerate(TRANSLATED_TRIANGLES):
            translated[f"translated-tri{k}"] = [
                [x + off for x in p] for p in ((0.0, 0.0), (1.0, 0.0),
                                               (eps, 1.0))]
        csv = work / f"{self.CLI_SET}.csv"
        _write_csv(csv, rows[self.CLI_SET])
        sets = {k: _float_set(r) for k, r in rows.items()}
        sets.update((k, _float_set(r)) for k, r in translated.items())
        return {"cfg": {d: C.ConstructionConfig(dim=d, backend=FLOAT64)
                        for d in self.DESIGNS},
                "sets": sets, "baseline": baseline, "csv": csv}

    def round(self, inputs, rec):
        sets = rec.kept
        for d in self.DESIGNS:
            b = rec.op(f"construct_full d{d}", C.construct_full,
                       inputs["cfg"][d])
            sets[f"design-d{d}"] = b and b[0]
        for d, s in inputs["baseline"]:
            sets[f"baseline-d{d}"] = rec.op(
                f"random_baseline d{d}", C.random_baseline, d,
                trials=self.BASELINE_TRIALS, seed=s)
        sets.update(inputs["sets"])
        for name, ps in sets.items():
            rec.op(f"margin {name}", V.verify_acute, ps)
            rec.op(f"verdict {name}", V.verify_acute, ps, mode="verdict")
            rec.op(f"antipodal {name}", V.verify_antipodal_witness, ps)

    def cli_argv(self, inputs):
        return ["verify", str(inputs["csv"])]

    def check(self, inputs, rec, seed):
        results, sets = rec.results, rec.kept
        scans = {}

        def scan(name):
            if name not in scans:
                scans[name] = ExactScan(ok(sets[name]).points)
            return scans[name]

        def design(d):
            ps, _, rep = ok(results[f"construct_full d{d}"])
            expect(ps.backend == FLOAT64, "not a float64 set")
            _cube_and_apex(ps, d)
            oracle.check_report(rep, scan(f"design-d{d}"), len(ps), "acute",
                                "margin", FLOAT64)

        def baseline(d):
            ps = ok(results[f"random_baseline d{d}"])
            expect(ps.backend == FLOAT64 and ps.dim == d and len(ps) >= 3
                   and all(0.0 <= x < 1.0 for p in ps.points for x in p),
                   "baseline points outside the unit cube")
            expect(scan(f"baseline-d{d}").margin > 0,
                   "the baseline kept a non-acute triple")

        def verified(name, check, mode):
            key = {"acute": mode, "antipodal": "antipodal"}[check]
            rep = ok(results[f"{key} {name}"])
            oracle.check_report(rep, scan(name), len(sets[name]), check,
                                mode, FLOAT64)

        checks = [(f"construct_full d{d}", lambda d=d: design(d))
                  for d in self.DESIGNS]
        checks += [(f"random_baseline d{d}", lambda d=d: baseline(d))
                   for d in self.BASELINE_DIMS]
        for name in sets:
            checks += [
                (f"margin {name}", lambda n=name: verified(n, "acute",
                                                           "margin")),
                (f"verdict {name}", lambda n=name: verified(n, "acute",
                                                            "verdict")),
                (f"antipodal {name}", lambda n=name: verified(n, "antipodal",
                                                              "margin")),
            ]
        return _run_checks(checks)

    def check_cli(self, inputs, results, code, out):
        rep = ok(results[f"margin {self.CLI_SET}"])
        _cli_matches(rep, code, out, float)


WORKLOADS = {w.name: w for w in (LadderDyadic(), RationalFiles(),
                                 FloatScreen())}
