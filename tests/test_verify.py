import os
import random
from fractions import Fraction

import pytest

from acuta import (ConstructionConfig, PointSet, apex_point,
                   construct_acute_cube, construct_full,
                   ef_bound, fibonacci, hard_cap, hypercube_vertices,
                   legacy_bounds, set_margin, target_size,
                   verify_acute, verify_antipodal_witness,
                   verify_cardinality_bounds, verify_nonobtuse)
from acuta.geometry import ExactGram, FloatGram, kernel
from tests.conftest import (naive_first_failure, naive_slab,
                            random_rational_set)

F = Fraction

UNIT_SQUARE = PointSet(
    dim=2,
    points=((F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))),
    backend="rational",
)


class TestUnitSquare:
    def test_margin_is_exactly_zero(self):
        report = verify_acute(UNIT_SQUARE, mode="margin")
        assert not report.verdict
        assert report.margin == 0
        assert report.triples_checked == 4

    def test_witness_is_deterministic(self):
        r1 = verify_acute(UNIT_SQUARE, mode="margin")
        r2 = verify_acute(UNIT_SQUARE, mode="margin")
        assert r1.witness == r2.witness
        assert r1.witness.indices() == (0, 1, 2)

    def test_verdict_mode_stops_early(self):
        report = verify_acute(UNIT_SQUARE, mode="verdict")
        assert not report.verdict
        assert report.triples_checked == 1

    def test_float_square_fails_too(self):
        sq = PointSet(dim=2, points=((0.0, 0.0), (0.0, 1.0),
                                     (1.0, 0.0), (1.0, 1.0)),
                      backend="float64")
        assert not verify_acute(sq).verdict

    def test_square_is_nonobtuse(self):
        assert verify_nonobtuse(UNIT_SQUARE).verdict


class TestHypercubes:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_right_angles_kill_acuteness_only(self, d):
        cube = hypercube_vertices(d)
        assert not verify_acute(cube).verdict
        assert verify_nonobtuse(cube).verdict


class TestImplications:
    @pytest.mark.parametrize("seed", range(4))
    def test_acute_implies_nonobtuse_and_antipodal(self, seed):
        ps = random_rational_set(seed, n=7, dim=3)
        acute = verify_acute(ps)
        if acute.verdict:
            assert verify_nonobtuse(ps).verdict
            assert verify_antipodal_witness(ps).verdict

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_generated_sets_pass_all_three(self, d):
        ps, _, _ = construct_full(ConstructionConfig(dim=d))
        assert verify_acute(ps).verdict
        assert verify_nonobtuse(ps).verdict
        assert verify_antipodal_witness(ps).verdict

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_antipodal_margin_equals_acute_margin_exactly(self, d):
        # In exact arithmetic the slab depth min(t, L - t) sweeps exactly the
        # apex dots that the acute scan minimizes, so the two margins agree.
        ps, _, _ = construct_full(ConstructionConfig(dim=d))
        a = verify_acute(ps, mode="margin")
        b = verify_antipodal_witness(ps)
        assert a.margin == b.margin

    @pytest.mark.parametrize("seed", range(12))
    def test_antipodal_witness_matches_naive_slab_loop(self, seed):
        ps = random_rational_set(seed + 300, n=4 + seed % 9, dim=2 + seed % 3)
        report = verify_antipodal_witness(ps)
        assert (report.margin, report.witness.indices()) == naive_slab(ps.points)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_antipodal_witness_on_tied_hypercubes(self, d):
        cube = hypercube_vertices(d)
        report = verify_antipodal_witness(cube)
        assert (report.margin, report.witness.indices()) == naive_slab(cube.points)

    def test_square_has_zero_slab_depth(self):
        report = verify_antipodal_witness(UNIT_SQUARE)
        assert not report.verdict
        assert report.margin == 0


class TestCardinality:
    def test_impossible_beyond_hard_cap(self):
        ps = random_rational_set(0, n=4, dim=2)
        report = verify_cardinality_bounds(ps)
        assert report.verdict == "impossible"
        assert report.cap == 3

    def test_designed_set_matches_target(self):
        ps, _, _ = construct_full(ConstructionConfig(dim=3))
        report = verify_cardinality_bounds(ps)
        assert report.verdict == "matches_target"
        assert report.target == 5

    def test_below_target_notes_beaten_records(self):
        ps = random_rational_set(1, n=9, dim=5)
        report = verify_cardinality_bounds(ps)
        assert report.verdict == "below_target"
        assert "three_power" in report.note

    def test_above_target_within_cap(self):
        ps = random_rational_set(2, n=6, dim=3)
        report = verify_cardinality_bounds(ps)
        assert report.verdict == "above_target"


class TestToleranceHandling:
    @pytest.mark.parametrize("t, acute, nonobtuse", [
        (4e-9, True, True), (2e-9, False, True), (-2e-9, False, True),
        (-4e-9, False, False)])
    def test_float_rule_is_the_documented_margin(self, t, acute, nonobtuse):
        # The smallest apex dot and slab depth is t, at corner 0, and the
        # squared diameter is (1 - t)**2 + 1, so the strict margin
        # 1e-9 * (1 + squared diameter) is about 3e-9.
        ps = PointSet(dim=2, backend="float64",
                      points=((0.0, 0.0), (1.0, 0.0), (t, 1.0)))
        assert verify_acute(ps).verdict == acute
        assert verify_acute(ps, mode="verdict").verdict == acute
        assert verify_nonobtuse(ps).verdict == nonobtuse
        assert verify_antipodal_witness(ps).verdict == acute

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            verify_acute(UNIT_SQUARE, mode="fuzzy")


class TestThreadDeterminism:
    @pytest.mark.parametrize("threads", [1, 3, 8])
    def test_exact_margin_and_witness_stable(self, threads, monkeypatch):
        monkeypatch.setenv("ACUTA_THREADS", str(threads))
        ps = random_rational_set(7, n=20, dim=3)
        report = verify_acute(ps, mode="margin")
        monkeypatch.setenv("ACUTA_THREADS", "1")
        base = verify_acute(ps, mode="margin")
        assert report.margin == base.margin
        assert report.witness == base.witness
        assert report.triples_checked == base.triples_checked

    @pytest.mark.parametrize("threads", [1, 3, 8])
    def test_float_margin_stable(self, threads, monkeypatch):
        ps, _, _ = construct_full(ConstructionConfig(dim=4, backend="float64"))
        monkeypatch.setenv("ACUTA_THREADS", str(threads))
        report = verify_acute(ps, mode="margin")
        monkeypatch.setenv("ACUTA_THREADS", "1")
        base = verify_acute(ps, mode="margin")
        assert report.margin == base.margin
        assert report.witness == base.witness


class TestVerifyAgainstGeometry:
    @pytest.mark.parametrize("seed", range(6))
    def test_margin_agrees_with_construction_side_scan(self, seed):
        # geometry.set_margin and verify_acute share one kernel, so this
        # checks only that both read it alike; the independent check of that
        # kernel is the naive triple loop conftest.naive_margin (criterion 8).
        # On exact inputs the two must agree to the bit.
        ps = random_rational_set(seed + 100, n=15, dim=3)
        m, w = set_margin(ps)
        report = verify_acute(ps, mode="margin")
        assert report.margin == m
        assert report.witness == w


def _float_copy(ps):
    return PointSet(dim=ps.dim, backend="float64",
                    points=[[float(x) for x in p] for p in ps.points])


class TestVerdictMode:
    """Verdict mode reads the kernel's minimum and sweeps only when it
    fails: its report must equal the naive early-exit sweep of conftest,
    and its verdict the margin-mode verdict."""

    @staticmethod
    def rules(rep):
        strict = (0 if rep.backend == "rational"
                  else 1e-9 * (1.0 + rep.squared_diameter))
        return {verify_acute: lambda dot: not dot > strict,
                verify_nonobtuse: lambda dot: dot < -strict}

    @pytest.mark.parametrize("first", ["margin", "verdict"])
    @pytest.mark.parametrize("kind", ["rational", "float-of-rational",
                                      "float"])
    @pytest.mark.parametrize("seed", range(6))
    def test_reports_equal_the_naive_sweep(self, seed, kind, first):
        dim = 2 + seed % 3
        ps = random_rational_set(seed + 500, n=5 + seed, dim=dim)
        if kind == "float-of-rational":
            ps = _float_copy(ps)
        elif kind == "float":
            rng = random.Random(seed)
            ps = PointSet(dim=dim, backend="float64", points=[
                [rng.random() for _ in range(dim)] for _ in range(5 + seed)])
        failed = 0
        for check, fails in self.rules(verify_acute(ps)).items():
            modes = ["margin", "verdict"]
            if first == "verdict":
                modes.reverse()
            reps = {mode: check(ps, mode=mode) for mode in modes}
            rep = reps["verdict"]
            checked, angle, dot = naive_first_failure(ps.points, fails)
            assert rep.triples_checked == checked
            assert rep.margin == dot
            assert (rep.witness and rep.witness.indices()) == angle
            assert (rep.witness and rep.witness.dot_value) == dot
            assert rep.verdict == (angle is None) == reps["margin"].verdict
            failed += angle is not None
        assert failed     # no random set here is acute

    def test_a_rounding_split_fails_with_the_minimums_witness(
            self, monkeypatch):
        # The float minimum is scanned with numpy and the sweep's dots in
        # Python, whose roundings can differ. Simulate a minimum at the
        # strict margin, below every dot the sweep computes: the sweep
        # finds no failing angle, and the report must still fail, with the
        # minimum's witness and every triple.
        ps = PointSet(dim=3, backend="float64", points=(
            (0.0, 0.0, 0.0), (2.0, 0.1, 0.0), (0.9, 1.8, 0.0),
            (1.0, 0.6, 1.7)))
        gram = kernel(ps)
        raw, args = FloatGram.min_dots(gram, range(4))
        low = 1e-9 * (1.0 + gram.sqdiam())
        assert low < raw
        monkeypatch.setattr(FloatGram, "min_dots",
                            lambda self, apexes: (low, args))
        ps = PointSet(dim=3, backend="float64", points=ps.points)
        rep = verify_acute(ps, mode="verdict")
        assert not rep.verdict and not verify_acute(ps).verdict
        assert rep.witness.indices() == args[0]
        assert rep.margin == rep.witness.dot_value == low
        assert rep.triples_checked == 4

    def test_passing_sets_report_no_witness(self):
        ps, _, _ = construct_full(ConstructionConfig(dim=4))
        for check in (verify_acute, verify_nonobtuse):
            rep = check(ps, mode="verdict")
            assert rep.verdict and check(ps).verdict
            assert rep.margin is None and rep.witness is None
            assert rep.triples_checked == 9 * 8 * 7 // 6

    def test_one_set_converts_its_minimum_once(self, monkeypatch):
        built, _, _ = construct_full(ConstructionConfig(dim=5))
        ps = PointSet(dim=5, points=built.points, backend="rational")
        calls = []
        value = ExactGram.value

        def spy(gram, raw):
            calls.append(raw)
            return value(gram, raw)

        monkeypatch.setattr(ExactGram, "value", spy)
        margin = verify_acute(ps)
        verdict = verify_acute(ps, mode="verdict")
        slab = verify_antipodal_witness(ps)
        got, witness = set_margin(ps)
        raw = kernel(ps).minimum()[0]
        assert sum(r is raw for r in calls) == 1
        assert len(calls) == 2          # the minimum and the diameter
        assert verdict.verdict
        assert verdict.margin is None and verdict.witness is None
        assert margin.margin is slab.margin is got
        assert witness == margin.witness


class TestTranslation:
    """float64 scans take every dot between differences from the apex, so a
    set moved far from the origin keeps its verdicts and, up to rounding,
    its margin. Expanding the dots around the origin loses both."""

    @staticmethod
    def moved(points, offset):
        return PointSet(dim=len(points[0]), backend="float64", points=tuple(
            tuple(x + offset for x in p) for p in points))

    def test_translated_obtuse_triangle_fails_in_every_mode(self):
        # obtuse at the first corner, and still so in the moved coordinates
        ps = self.moved(((0.0, 0.0), (1.0, 0.0), (-0.018110725330225206, 1.0)),
                        17401278.46708691)
        assert not verify_acute(ps, mode="margin").verdict
        assert not verify_acute(ps, mode="verdict").verdict
        assert not verify_antipodal_witness(ps).verdict

    def test_translated_d4_design_keeps_its_margin(self):
        cube, _ = construct_acute_cube(
            ConstructionConfig(dim=4, backend="float64"))
        pts = cube.points + (apex_point(4, backend="float64"),)
        ps = self.moved(pts, 1e7)
        tol = 1e-9 * (1 + verify_acute(self.moved(pts, 0.0)).squared_diameter)
        margin = verify_acute(ps)
        assert margin.verdict
        assert abs(margin.margin - 0.0200042724609375) <= tol
        assert verify_acute(ps, mode="verdict").verdict
        slab = verify_antipodal_witness(ps)
        assert slab.verdict
        assert abs(slab.margin - 0.0200042724609375) <= tol

    def test_float_slab_margin_is_the_acute_margin(self):
        # Each slab depth is an apex dot, in floats as in exact arithmetic.
        for seed in range(3):
            rng = random.Random(seed)
            ps = PointSet(dim=4, backend="float64", points=tuple(
                tuple(rng.random() for _ in range(4)) for _ in range(20)))
            assert (verify_antipodal_witness(ps).margin
                    == verify_acute(ps).margin)


class TestBoundsTables:
    def test_fibonacci_frozen(self):
        assert [fibonacci(k) for k in range(1, 11)] == [
            1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        assert fibonacci(6) == 8
        assert fibonacci(7) == 13

    def test_fibonacci_domain(self):
        with pytest.raises(ValueError):
            fibonacci(0)

    def test_exponential_floor_frozen(self):
        # floor(2^(d-1) / 3^(d/2)) for d = 2..7, then d = 12
        assert [ef_bound(d) for d in range(2, 8)] == [0, 0, 0, 1, 1, 1]
        assert ef_bound(12) == 2

    def test_targets_and_caps(self):
        assert target_size(5) == 17
        assert hard_cap(5) == 31
        assert target_size(12) == 2049

    def test_legacy_bounds_d5(self):
        b = legacy_bounds(5)
        assert b["fibonacci"] == 13
        assert b["linear"] == 9
        assert b["three_power"] == 2

    def test_legacy_bounds_d10(self):
        assert legacy_bounds(10)["three_power"] == 80
