"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints exactly one line of the
form ``CRITERION n: PASS - ...`` or ``CRITERION n: FAIL - ...`` straight to
the terminal (bypassing capture) before asserting.  The scale
ladder's displacement scales collapse doubly exponentially with dimension
(2**-12028 at d = 5), so float64 construction stops at d = 4 and criterion 1
fails by design.  Exact construction runs on sparse dyadic values through
d = 10, which criterion 5 asks for (6.7e7 apex dots at d = 10).  The
README's honest-limits section carries the analysis; the tests state the
facts and fail rather than hiding them.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from acuta import (ConstructionConfig, ConstructionError, PointSet,
                   apex_point, construct_full, hypercube_vertices,
                   legacy_bounds, lemma_check, random_baseline, safe_radius,
                   set_margin, target_size, verify_acute,
                   verify_antipodal_witness, verify_cardinality_bounds,
                   verify_nonobtuse)
from acuta.cli import main as cli_main
from tests.conftest import naive_margin, random_rational_points

F = Fraction


def _criterion(num, ok, detail, capsys):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


@pytest.fixture(scope="module")
def exact_sets():
    """Exact constructions for every dimension the schedule can reach."""
    built = {}
    for d in (2, 3, 4, 5):
        t0 = time.perf_counter()
        ps, trace, report = construct_full(ConstructionConfig(dim=d))
        built[d] = (ps, trace, report, time.perf_counter() - t0)
    return built


def _float_acute_sets(count):
    """Greedy random acute sets (float64, n <= 30) with their exact margins."""
    sets = []
    seed = 0
    dims = itertools.cycle([2, 3, 4])
    while len(sets) < count:
        d = next(dims)
        ps = random_baseline(d, trials=200, seed=seed)
        seed += 1
        if len(ps) < 3:
            continue
        report = verify_acute(ps, mode="margin")
        if report.verdict:
            sets.append((ps, report.margin))
    return sets


def _exact_unit_scale(n2, bits=24):
    """A rational r with r <= 1/sqrt(n2) <= r * (1 + 2**-bits), n2 > 0."""
    p, q = F(n2).numerator, F(n2).denominator
    t = isqrt(p * q << (2 * bits))
    return F(t, p << bits)


def _kick_exact(ps, idx, direction, magnitude):
    """Move one point by exactly |magnitude| * unit(direction), rationally."""
    n2 = sum(c * c for c in direction)
    r = _exact_unit_scale(n2)
    step = tuple(F(c) * magnitude * r for c in direction)
    pts = list(ps.points)
    pts[idx] = tuple(x + dx for x, dx in zip(pts[idx], step))
    return PointSet(dim=ps.dim, points=tuple(pts), backend="rational")


def _kick_float(ps, idx, direction, magnitude):
    arr = ps.as_array().copy()
    u = np.asarray(direction, dtype=float)
    arr[idx] = arr[idx] + magnitude * u / np.linalg.norm(u)
    return PointSet(dim=ps.dim, points=tuple(map(tuple, arr)),
                    backend="float64")


def _bisector_probe(ps, margin, scale=10):
    """Push the witness apex toward the far side by ~scale * safe_radius.

    Moving the apex q of the tightest angle along i + j - 2q shrinks the
    apex dot at first order by |i + j - 2q| per unit step, which at ten
    times the certified radius is enough to cross zero whenever the legs
    are a decent fraction of the diameter.  Returns the perturbed set.
    """
    delta = safe_radius(ps, margin)
    _, wit = set_margin(ps)
    q, i, j = wit.indices()
    pq, pi, pj = ps.points[q], ps.points[i], ps.points[j]
    v = tuple(a + b - 2 * c for a, b, c in zip(pi, pj, pq))
    if all(c == 0 for c in v):
        return None
    if ps.backend == "rational":
        return _kick_exact(ps, q, v, scale * delta)
    return _kick_float(ps, q, v, scale * delta)


def _breaks(ps):
    return not verify_acute(ps, mode="verdict").verdict


class TestCriterion1:
    def test_criterion_1_float_construction_family(self, capsys):
        ok = True
        notes = []
        for d in range(2, 13):
            try:
                ps, _, report = construct_full(
                    ConstructionConfig(dim=d, backend="float64"))
            except ConstructionError:
                ok = False
                notes.append(f"d={d}: no float64-representable schedule")
                continue
            if len(ps) != target_size(d) or not report.verdict:
                ok = False
                notes.append(f"d={d}: wrong size or verification failure")
        detail = ("2^(d-1)+1 points with positive scaled margin for d=2..12"
                  if ok else
                  "holds for d=2..4 only; the scale ladder's deepest "
                  "displacement scale is 2**-12028 at d=5, far below the "
                  "float64 range, so d>=5 (incl. the d=12 runtime target) is "
                  "unreachable in float; see README (honest limits)")
        _criterion(1, ok, detail, capsys)


class TestCriterion2:
    def test_criterion_2_exact_certificates(self, capsys, exact_sets):
        ok = True
        times = {}
        notes = []
        for d in range(2, 9):
            if d in exact_sets:
                ps, _, report, dt = exact_sets[d]
                times[d] = dt
                if not (report.verdict and report.margin > 0
                        and report.backend == "rational"):
                    ok = False
                    notes.append(f"d={d}: no positive exact margin")
            else:
                try:
                    t0 = time.perf_counter()
                    construct_full(ConstructionConfig(dim=d))
                    times[d] = time.perf_counter() - t0
                except ConstructionError as exc:
                    ok = False
                    notes.append(f"d={d}: {exc}")
        budget_ok = times.get(5, math.inf) < 300
        if not budget_ok:
            notes.append(f"d=5 took {times.get(5, float('nan')):.1f}s")
        detail = (f"zero-tolerance certificates for d=2..8 (d=5: "
                  f"{times[5]:.1f}s, d=8: {times[8]:.1f}s)"
                  if ok and budget_ok else "; ".join(notes))
        _criterion(2, ok and budget_ok, detail, capsys)


class TestCriterion3:
    def test_criterion_3_lemma_exhaustive(self, capsys):
        ok = True
        worst = None
        for d in range(2, 7):
            for s in (F(1, 10), F(1, 100)):
                rep = lemma_check(d, s)
                if not (rep.ok and rep.coupling_residual == 0):
                    ok = False
                if d > 2 and not (rep.min_case2 is not None
                                  and rep.min_case2 > 0):
                    ok = False
                if rep.min_case2 is not None:
                    if worst is None or rep.min_case2 < worst:
                        worst = rep.min_case2
        detail = (f"all apex angles positive for d=2..6, s in {{1/10, 1/100}}; "
                  f"middle-apex dot >= (d-1)*a**2 with zero coupling residual "
                  f"(smallest case-2 dot {worst})"
                  if ok else "an apex angle or the case-2 bound failed")
        _criterion(3, ok, detail, capsys)


class TestCriterion4:
    def test_criterion_4_apex_geometry(self, capsys):
        ok = True
        for d in range(2, 11):
            c = F(d, 2)
            apex = apex_point(d, c)
            want = F(d - 1, 4) + c * c
            verts = hypercube_vertices(d).points
            for v in verts:
                if sum((x - y) ** 2 for x, y in zip(apex, v)) != want:
                    ok = False
            lim = 2 * want
            for a, b in itertools.combinations(verts, 2):
                gap = sum((x - y) ** 2 for x, y in zip(a, b))
                if not gap < lim:
                    ok = False
        detail = ("apex at height d/2 is exactly sqrt((d-1)/4 + c^2) from "
                  "every cube vertex for d=2..10, and every vertex pair sits "
                  "inside the apex-angle bound"
                  if ok else "apex distance or pair bound failed")
        _criterion(4, ok, detail, capsys)


class TestCriterion5:
    def test_criterion_5_strictly_antipodal(self, capsys, exact_sets):
        ok = True
        notes = []
        for d in range(2, 11):
            if d in exact_sets:
                ps = exact_sets[d][0]
            else:
                try:
                    ps = construct_full(ConstructionConfig(dim=d))[0]
                except ConstructionError as exc:
                    ok = False
                    notes.append(f"d={d}: {exc}")
                    continue
            rep = verify_antipodal_witness(ps)
            record = legacy_bounds(d)["three_power"]
            if not (rep.verdict and len(ps) == target_size(d)
                    and len(ps) > record):
                ok = False
                notes.append(f"d={d}: {len(ps)} points, antipodal verdict "
                             f"{rep.verdict}, old record {record}")
        detail = ("strictly antipodal witnesses for every d=2..10"
                  if ok else "; ".join(notes))
        _criterion(5, ok, detail, capsys)


class TestCriterion6:
    def test_criterion_6_negative_controls(self, capsys):
        sq = PointSet(dim=2,
                      points=((F(0), F(0)), (F(0), F(1)),
                              (F(1), F(0)), (F(1), F(1))),
                      backend="rational")
        r1 = verify_acute(sq, mode="margin")
        r2 = verify_acute(sq, mode="margin")
        ok = (not r1.verdict and r1.margin == 0
              and r1.witness == r2.witness
              and r1.witness.indices() == (0, 1, 2))
        for d in range(3, 7):
            cube = hypercube_vertices(d)
            if verify_acute(cube, mode="verdict").verdict:
                ok = False
            if not verify_nonobtuse(cube, mode="verdict").verdict:
                ok = False
        detail = ("unit square margin exactly 0 with stable witness (0,1,2); "
                  "cube vertex sets for d=3..6 fail the acute check and pass "
                  "the nonobtuse check"
                  if ok else "a negative control misbehaved")
        _criterion(6, ok, detail, capsys)


class TestCriterion7:
    def test_criterion_7_safe_radius_soundness(self, capsys, exact_sets):
        rng = np.random.default_rng(20260817)
        trials = 0
        breaks_within = 0

        float_sets = _float_acute_sets(20)
        for ps, margin in float_sets:
            delta = safe_radius(ps, margin)
            for _ in range(44):
                idx = int(rng.integers(len(ps)))
                direction = rng.normal(size=ps.dim)
                mag = float(rng.uniform(0, delta))
                if mag == 0 or not np.linalg.norm(direction):
                    continue
                trials += 1
                if _breaks(_kick_float(ps, idx, direction, mag)):
                    breaks_within += 1

        exact_budget = {2: 40, 3: 40, 4: 34, 5: 6}
        for d, n_trials in exact_budget.items():
            ps, _, report, _ = exact_sets[d]
            delta = safe_radius(ps, report.margin)
            for _ in range(n_trials):
                idx = int(rng.integers(len(ps)))
                direction = tuple(int(x) for x in
                                  rng.integers(-1024, 1025, size=ps.dim))
                if all(c == 0 for c in direction):
                    continue
                rho = F(int(rng.integers(1, 1 << 16)), 1 << 16)
                trials += 1
                if _breaks(_kick_exact(ps, idx, direction, rho * delta)):
                    breaks_within += 1

        # Non-vacuity: ten times the certified radius must break something.
        broke_at_10x = False
        candidates = [exact_sets[3][0], exact_sets[4][0]]
        candidates += [ps for ps, _ in float_sets]
        margins = [exact_sets[3][2].margin, exact_sets[4][2].margin]
        margins += [m for _, m in float_sets]
        for ps, margin in zip(candidates, margins):
            probed = _bisector_probe(ps, margin, scale=10)
            if probed is not None and _breaks(probed):
                broke_at_10x = True
                break
            delta = safe_radius(ps, margin)
            if ps.backend == "float64":
                for _ in range(20):
                    idx = int(rng.integers(len(ps)))
                    direction = rng.normal(size=ps.dim)
                    if _breaks(_kick_float(ps, idx, direction,
                                           10 * float(delta))):
                        broke_at_10x = True
                        break
            if broke_at_10x:
                break

        ok = trials >= 1000 and breaks_within == 0 and broke_at_10x
        detail = (f"{trials} perturbations within safe_radius kept every set "
                  f"acute (20 random sets + generated d=2..5); a 10x kick "
                  f"broke acuteness"
                  if ok else
                  f"trials={trials}, breaks within radius={breaks_within}, "
                  f"10x break found={broke_at_10x}")
        _criterion(7, ok, detail, capsys)


class TestCriterion8:
    def test_criterion_8_oracle_equivalence(self, capsys):
        rng = random.Random(8)
        ok = True
        for _ in range(100):
            n = rng.randint(3, 50)
            dim = rng.randint(2, 4)
            pts = random_rational_points(rng, n, dim)
            ps = PointSet(dim=dim, points=pts, backend="rational")
            margin, wit = set_margin(ps, threads=3)
            ref_margin, ref_indices = naive_margin(ps.points)
            if margin != ref_margin or wit.indices() != ref_indices:
                ok = False
                break
        detail = ("set_margin matches an independent naive triple loop "
                  "bit-for-bit (margin and witness) on 100 random rational "
                  "sets with n <= 50"
                  if ok else "optimized and naive margins disagreed")
        _criterion(8, ok, detail, capsys)


class TestCriterion9:
    def test_criterion_9_bounds_table(self, capsys):
        assert cli_main(["table", "2", "7"]) == 0
        out = capsys.readouterr().out
        rows = {}
        for line in out.splitlines()[1:]:
            cells = [c.strip() for c in line.split("|")]
            rows[int(cells[0])] = [int(c) for c in cells]
        ok = (rows[5][1] == 17          # construction size at d=5
              and rows[4][3] == 8       # fib(6), the d=4 record
              and rows[5][3] == 13      # fib(7), the d=5 record
              and rows[3][5] == 5       # 2d-1 at d=3
              and rows[5][2] == 31)     # hard cap 2^d-1
        detail = ("table reproduces 17 at d=5, fib records 8 (d=4) and 13 "
                  "(d=5), and 2d-1 = 5 at d=3, all in exact integers"
                  if ok else f"table rows wrong: {rows}")
        _criterion(9, ok, detail, capsys)
