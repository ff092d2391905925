import ast
import dataclasses
import math
import operator
import re
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acuta import (ConstructionConfig, ConstructionError, ConstructionTrace,
                   Dyadic, GeometryError, PointSet, TraceStep, apex_point,
                   dot_at_apex, construct_acute_cube, construct_full,
                   hypercube_vertices, lemma_check, perturb_vertex,
                   random_baseline, safe_radius, set_margin,
                   squared_diameter, verify_acute, verify_nonobtuse)
from acuta._designs import (DESIGN_MARGINS, LADDER_MAX_DIM,
                            LADDER_MAX_DIM_SECONDS, ladder_ks)
from acuta import construct
from acuta.cli import EXIT_CONSTRUCTION, EXIT_INPUT, main
from conftest import naive_baseline, naive_lemma

F = Fraction


def exact_value(text):
    """A printed figure, digits with commas or an expression of numbers,
    +, -, * and **, evaluated in exact arithmetic."""
    ops = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Pow: operator.pow}

    def ev(node):
        if isinstance(node, ast.BinOp):
            return ops[type(node.op)](ev(node.left), ev(node.right))
        assert isinstance(node, ast.Constant), ast.dump(node)
        return F(str(node.value))
    return ev(ast.parse(text.replace(",", ""), mode="eval").body)


class TestHypercube:
    def test_d3_lexicographic_order(self):
        ps = hypercube_vertices(3)
        assert ps.points == (
            (F(0), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(1), F(0), F(0)),
            (F(1), F(1), F(0)),
        )

    @pytest.mark.parametrize("d", range(2, 8))
    def test_counts(self, d):
        assert len(hypercube_vertices(d)) == 2 ** (d - 1)

    def test_d1_rejected(self):
        with pytest.raises(ValueError):
            hypercube_vertices(1)

    @pytest.mark.parametrize("build, message", [
        (lambda: perturb_vertex((F(0),), F(1, 10)), "d >= 2"),
        (lambda: lemma_check(1, F(1, 10)), "need d >= 2, got 1"),
        (lambda: apex_point(1), "need d >= 2, got 1"),
        (lambda: random_baseline(1), "need dim >= 2, got 1"),
    ], ids=["perturb_vertex", "lemma_check", "apex_point", "random_baseline"])
    def test_every_builder_refuses_d1(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_float_backend(self):
        ps = hypercube_vertices(3, backend="float64")
        assert ps.points[3] == (1.0, 1.0, 0.0)


class TestPerturb:
    def test_frozen_value_d3(self):
        v = (F(0), F(0), F(0))
        assert perturb_vertex(v, F(1, 10)) == (F(1, 50), F(1, 50), F(1, 5))

    def test_one_coordinates_move_inward(self):
        v = (F(1), F(1), F(0))
        a = 2 * F(1, 10) ** 2
        assert perturb_vertex(v, F(1, 10)) == (1 - a, 1 - a, F(1, 5))

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(GeometryError):
            perturb_vertex((F(0), F(0), F(0)), F(0))

    def test_oversized_scale_rejected(self):
        with pytest.raises(GeometryError):
            perturb_vertex((F(0), F(0), F(0)), F(1))

    def test_non_vertex_rejected(self):
        with pytest.raises(GeometryError):
            perturb_vertex((F(1, 2), F(0), F(0)), F(1, 10))
        with pytest.raises(GeometryError):
            perturb_vertex((F(0), F(0), F(1)), F(1, 10))


class TestLemma:
    def test_frozen_minima_d3(self):
        rep = lemma_check(3, F(1, 10))
        assert rep.ok
        assert rep.min_case1 == F(1, 50)       # = a
        assert rep.min_case2 == F(1, 1250)     # = (d-1) a^2
        assert rep.coupling_residual == 0
        assert rep.checks == 36

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 12, 24, 64])
    @pytest.mark.parametrize("s", [F(1, 10), F(1, 100)])
    def test_small_dims(self, d, s):
        rep = lemma_check(d, s)
        assert rep.ok
        assert rep.coupling_residual == 0
        if d > 2:
            a = (d - 1) * s ** 2
            assert rep.min_case2 == (d - 1) ** 3 * s ** 4
            assert rep.min_case1 == min(a, 1 - a)

    @pytest.mark.parametrize("d, s", [
        (d, s) for d in range(2, 6)
        for s in (F(1, 10), F(1, 100), F(1, 3), F(2, 5), F(1, 4))
    ] + [(6, F(1, 10))], ids=lambda v: str(v).replace("/", "_"))
    def test_equals_the_naive_loop(self, d, s):
        rep, ref = lemma_check(d, s), naive_lemma(d, s)
        assert rep == ref
        assert [type(v) for v in dataclasses.astuple(rep)] == [
            type(v) for v in dataclasses.astuple(ref)]

    def test_vacuous_at_d2(self):
        rep = lemma_check(2, F(1, 10))
        assert rep.ok and rep.checks == 0

    def test_out_of_range_scale_rejected(self):
        with pytest.raises(ValueError):
            lemma_check(3, F(2, 1))


class TestSafeRadius:
    def test_frozen_small_diameter(self):
        # squared diameter 2 -> Dhat = 2; margin 1/2 -> 1/20
        ps = PointSet(dim=2, points=((F(0), F(0)), (F(1), F(0)), (F(0), F(1))),
                      backend="rational")
        assert safe_radius(ps, F(1, 2)) == F(1, 20)

    def test_frozen_equilateral(self):
        eq = PointSet(dim=2, points=(
            (0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)),
            backend="float64")
        assert safe_radius(eq, 0.5) == pytest.approx(1 / 12)

    def test_capped_at_one(self):
        ps = PointSet(dim=2, points=((F(0), F(0)), (F(1), F(0)), (F(0), F(1))),
                      backend="rational")
        assert safe_radius(ps, F(1000)) == 1

    def test_nonpositive_margin_rejected(self):
        ps = PointSet(dim=2, points=((F(0), F(0)), (F(1), F(0)), (F(0), F(1))),
                      backend="rational")
        with pytest.raises(ValueError):
            safe_radius(ps, F(0))

    def test_refusal_names_a_margin_below_the_float_range(self):
        ps, _, report = construct_full(ConstructionConfig(dim=5))
        with pytest.raises(ValueError, match=re.escape(
                "needs a positive margin, got exact<0 (~-2^-16031)")):
            safe_radius(ps, -report.margin)

    # Squared diameters 37/36 and 37/324, neither of them dyadic.
    THIRDS = ((0, 0), (F(1, 3), 0), (F(1, 6), 1))
    NINTHS = ((0, 0), (F(1, 9), 0), (F(1, 18), F(1, 3)))
    TINY = Dyadic.pow2(-10 ** 8)

    @pytest.mark.parametrize("points, margin, radius", [
        # The d = 6 ladder's values are too large for a Fraction, so any
        # margin takes the power-of-two bound: h = 2, margin / 2**5.
        (None, F(1, 3), F(1, 96)),
        (None, F(1, 4), F(1, 128)),
        # A Dyadic that fits is the Fraction of its value: Dhat = 2.
        (THIRDS, Dyadic.pow2(-10), F(1, 10240)),
        (THIRDS, F(1, 1024), F(1, 10240)),
        # A margin too large for a Fraction: h = 1 above 1, h = 0 below.
        (THIRDS, TINY, Dyadic.pow2(-10 ** 8 - 4)),
        (NINTHS, TINY, Dyadic.pow2(-10 ** 8 - 3)),
    ], ids=["d6-third", "d6-quarter", "thirds-dyadic", "thirds-fraction",
            "thirds-tiny", "ninths-tiny"])
    def test_non_dyadic_values_beside_dyadic_ones(self, points, margin,
                                                  radius):
        if points is None:
            ps = construct_full(ConstructionConfig(dim=6))[0]
        else:
            ps = PointSet(dim=2, points=points, backend="rational")
        r = safe_radius(ps, margin)
        assert r == radius and type(r) is type(radius)

    def test_dyadic_ladder_set_d6(self):
        # Squared diameter and margin of the d = 6 ladder are Dyadic values
        # no Fraction can hold; the radius must still satisfy the bound
        # 2 r (2 sqrt(D^2) + 1) <= margin, checked here exactly as
        # slack = margin - 2r >= 0 and slack^2 >= 16 r^2 D^2.
        ps, _, report = construct_full(ConstructionConfig(dim=6))
        r = safe_radius(ps, report.margin)
        sqd = squared_diameter(ps)
        assert 0 < r <= 1
        slack = report.margin - 2 * r
        assert slack >= 0 and slack * slack >= 16 * r * r * sqd


class TestApex:
    def test_frozen_d3(self):
        assert apex_point(3, F(3, 2)) == (F(1, 2), F(1, 2), F(3, 2))

    def test_equidistant_from_original_vertices(self):
        d = 4
        c = F(d, 2)
        apex = apex_point(d, c)
        want = F(d - 1, 4) + c * c
        for v in hypercube_vertices(d).points:
            dist = sum((x - y) ** 2 for x, y in zip(apex, v))
            assert dist == want

    def test_boundary_height_rejected(self):
        # d = 5: c = 1 gives c^2 = (d-1)/4 exactly
        with pytest.raises(ValueError):
            apex_point(5, F(1))

    def test_below_boundary_rejected(self):
        with pytest.raises(ValueError):
            apex_point(5, F(1, 2))


class TestConfig:
    def test_defaults(self):
        cfg = ConstructionConfig(dim=4)
        assert cfg.backend == "rational"
        assert cfg.apex_height == F(2)

    def test_float_backend_coerces(self):
        cfg = ConstructionConfig(dim=3, backend="float64")
        assert isinstance(cfg.apex_height, float)

    @pytest.mark.parametrize("kwargs", [
        dict(schedule="geometric"),
        dict(s1="1/10"),
        dict(gamma="1/4"),
        dict(max_retries=40),
    ])
    def test_removed_keywords_raise_type_error(self, kwargs):
        with pytest.raises(TypeError):
            ConstructionConfig(dim=3, **kwargs)

    # Fixed ids: each case keeps the name it has always printed under.
    @pytest.mark.parametrize("kwargs", [
        pytest.param(dict(dim=1), id="kwargs0"),
        pytest.param(dict(dim=3, backend="decimal"), id="kwargs1"),
        pytest.param(dict(dim=5, apex_height="1"),   # boundary exactly
                     id="kwargs7"),
        pytest.param(dict(dim=3, backend="float64", apex_height="1e400"),
                     id="float-height-overflow"),
    ])
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ConstructionConfig(**kwargs)

    @pytest.mark.parametrize("height, text", [
        ("1e-5000", "exact>0 (~2^-16610)"),
        ("0.1", "1/10 (0.1)"),
    ])
    def test_low_apex_height_is_named_in_one_line(self, height, text):
        # The refusal names c as the CLI's summary line names a value: the
        # denominator of 1e-5000 has more digits than str() may print.
        with pytest.raises(ValueError) as exc:
            ConstructionConfig(dim=3, apex_height=height)
        assert str(exc.value) == (f"apex height {text} violates "
                                  "c^2 > (d-1)/4 (boundary included)")

    def test_cli_refuses_a_tiny_apex_height_in_one_line(self, capsys):
        assert main(["generate", "3", "--apex-height", "1e-5000"]) == (
            EXIT_INPUT)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: apex height exact>0 (~2^-16610) "
                                "violates c^2 > (d-1)/4 (boundary included)\n")
        assert "Traceback" not in captured.err


class TestTraceValidation:
    def test_eps_must_not_increase(self):
        mk = lambda i, e, s: TraceStep(index=i, eps=F(e), s=F(s))
        with pytest.raises(ValueError):
            ConstructionTrace(dim=3, backend="rational",
                              steps=(mk(0, "1/10", "1/20"),
                                     mk(1, "1/5", "1/10")))

    def test_eps_must_not_be_negative(self):
        with pytest.raises(ValueError, match="negative eps in step 1"):
            ConstructionTrace(dim=2, backend="rational",
                              steps=(TraceStep(index=0, eps=F(0)),
                                     TraceStep(index=1, eps=F(-1))))

    def test_vertex_order_must_be_permutation(self):
        mk = lambda i: TraceStep(index=i, eps=F(0), s=F(0))
        with pytest.raises(ValueError):
            ConstructionTrace(dim=3, backend="rational",
                              steps=(mk(0), mk(0)))


class TestAdaptive:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_designed_margins_exact(self, d):
        ps, trace, report = construct_full(ConstructionConfig(dim=d))
        assert len(ps) == 2 ** (d - 1) + 1
        assert report.verdict
        assert report.margin == DESIGN_MARGINS[d]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_float_mirrors_exact(self, d):
        ps, trace, report = construct_full(
            ConstructionConfig(dim=d, backend="float64"))
        assert report.verdict
        assert report.margin == pytest.approx(float(DESIGN_MARGINS[d]), rel=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_trace_bounds_actual_displacement(self, d):
        cfg = ConstructionConfig(dim=d)
        cube, trace = construct_acute_cube(cfg)
        originals = hypercube_vertices(d).points
        eps_by_vertex = {st.index: st.eps for st in trace.steps}
        for i, (o, p) in enumerate(zip(originals, cube.points)):
            d2 = sum((x - y) ** 2 for x, y in zip(o, p))
            assert d2 <= eps_by_vertex[i] ** 2

    def test_d5_exact_cube_shape_and_trace(self):
        cfg = ConstructionConfig(dim=5)
        cube, trace = construct_acute_cube(cfg)
        assert len(cube) == 16
        # scales fall in antipodal pairs: 8 distinct scales, 2 vertices each
        scales = [st.s for st in trace.steps]
        assert len(set(scales)) == 8
        assert all(scales.count(s) == 2 for s in set(scales))
        originals = hypercube_vertices(5).points
        eps_by_vertex = {st.index: st.eps for st in trace.steps}
        for i, (o, p) in enumerate(zip(originals, cube.points)):
            d2 = sum((x - y) ** 2 for x, y in zip(o, p))
            eps = eps_by_vertex[i]      # a Dyadic, which has no **
            assert d2 <= eps * eps

    def test_d5_ladder_regression(self):
        # The d = 5 ladder as first frozen: k_1 = 5, k_{l+1} = 3 k_l + 1 on
        # the 8 antipodal classes, built here with plain Fractions.
        ks = [5]
        while len(ks) < 8:
            ks.append(3 * ks[-1] + 1)
        originals = hypercube_vertices(5).points
        flip = lambda v: tuple(1 - x for x in v[:-1]) + (0,)
        reps = sorted({min(v, flip(v)) for v in originals})
        level = {}
        for k, rep in zip(ks, reps):
            level[rep] = level[flip(rep)] = k
        want = tuple(perturb_vertex(v, F(1, 2 ** level[v])) for v in originals)
        ps, _, report = construct_full(ConstructionConfig(dim=5))
        assert ps.points[:-1] == want
        assert ps.points[-1] == (F(1, 2),) * 4 + (F(5, 2),)
        assert report.witness.indices() == (6, 7, 8)
        q, i, j = report.witness.indices()
        assert report.margin == dot_at_apex(ps.points[q], ps.points[i],
                                            ps.points[j])
        m = report.margin
        assert m > 0
        assert m.numerator.bit_length() - m.denominator.bit_length() == -16031

    def test_d5_float_fails_with_scale_explanation(self):
        with pytest.raises(ConstructionError, match="float64"):
            construct_full(ConstructionConfig(dim=5, backend="float64"))

    @pytest.mark.parametrize("d", [6, 7, 12])
    def test_high_dims_fail_fast_and_honestly(self, d):
        # The sparse dyadic ladder certifies d = 6 and 7 exactly; d = 12
        # (over 4e9 apex dots) must refuse at once, naming its scale.
        if d > LADDER_MAX_DIM:
            t0 = time.perf_counter()
            with pytest.raises(ConstructionError, match="scale"):
                construct_full(ConstructionConfig(dim=d))
            assert time.perf_counter() - t0 < 5.0
            return
        ps, _, report = construct_full(ConstructionConfig(dim=d))
        assert len(ps) == 2 ** (d - 1) + 1
        assert report.verdict
        assert report.margin > 0
        assert report.backend == "rational"

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("d", [342, 343, 1026, 4800, 10 ** 6, 10 ** 18,
                                   10 ** 309])
    def test_huge_dims_refuse_at_once(self, capsys, d, mode):
        # Past the float64 and int<->str digit ranges the refusal's figures
        # become expressions in d; none may crash, read inf or build 2**(d-1).
        t0 = time.perf_counter()
        assert main(["generate", str(d), "--mode", mode]) == EXIT_CONSTRUCTION
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: construction at d = {d} ")
        assert "scale is 2**-" in err and "inf" not in err
        if mode == "exact":
            assert re.search(r"would take about [\d.]+ s \* 8\*\*\d+$",
                             err.strip())

    @pytest.mark.parametrize("backend", ["rational", "float64"])
    def test_dim_too_long_to_print_is_refused(self, backend):
        # A refusal names d, so a d that CPython's int-to-str guard (at its
        # default, which writing a large exact value lifts) cannot print
        # is refused up front, by its bit length.
        d = 10 ** 5000
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            t0 = time.perf_counter()
            with pytest.raises(ValueError,
                               match=f"dim of {d.bit_length():,} bits"):
                ConstructionConfig(dim=d, backend=backend)
            assert time.perf_counter() - t0 < 1.0
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("backend", ["rational", "float64"])
    def test_dim_too_long_to_print_is_refused_after_a_save(self, tmp_path,
                                                           backend):
        # Saving the d = 5 set lifts the guard for the process, past the
        # 5001 digits of this d; the refusal must not depend on that.
        from acuta import save_point_set
        d = 10 ** 5000
        ps, trace, _ = construct_full(ConstructionConfig(dim=5))
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            save_point_set(tmp_path / "d5.json", ps, trace=trace)
            assert sys.get_int_max_str_digits() > 5001
            with pytest.raises(ValueError,
                               match=f"dim of {d.bit_length():,} bits"):
                ConstructionConfig(dim=d, backend=backend)
        finally:
            sys.set_int_max_str_digits(old)

    def test_float_ladder_dim_is_refused_by_construction_only(self):
        # No float design exists at d = 5, so an apex height past the
        # float range is kept as given and construction refuses the d.
        cfg = ConstructionConfig(dim=5, backend="float64", apex_height="1e400")
        with pytest.raises(ConstructionError, match="below the float64 range"):
            construct_acute_cube(cfg)

    @pytest.mark.parametrize("d", [11, 17, 18, 26, 27, 60])
    def test_refusal_figures_match_exact_arithmetic(self, d):
        # Up to d = 17 the figures are printed in full; beyond, as
        # expressions in d. Either way they evaluate to the true counts.
        with pytest.raises(ConstructionError) as exc:
            construct_acute_cube(ConstructionConfig(dim=d))
        m = re.fullmatch(
            rf"construction at d = {d} is beyond the ladder's limit "
            rf"d = {LADDER_MAX_DIM}: the certificate of its (.+) points covers "
            r"(.+) exact apex dots, about half of them computed, and its "
            r"deepest ladder scale is 2\*\*-\(.+\); "
            r"d = \d+ covers ([\d,]+) dots in ([\d.]+) s, "
            rf"so d = {d} would take about (.+) s(?: \* (8\*\*\d+))?",
            str(exc.value))
        assert m, str(exc.value)
        points, dots, dots_top, secs, took, growth = m.groups()

        n = 2 ** (d - 1) + 1
        n_dots = n * (n - 1) * (n - 2) // 2
        top = 2 ** (LADDER_MAX_DIM - 1) + 1
        assert exact_value(dots_top) == top * (top - 1) * (top - 2) // 2
        assert exact_value(points) == n
        assert exact_value(dots) == n_dots
        if d <= 17:
            assert growth is None
            for figure in (points, dots, took):
                assert re.fullmatch(r"[\d,]+", figure)
            want = F(LADDER_MAX_DIM_SECONDS) * n_dots / exact_value(dots_top)
            assert abs(exact_value(took) - want) <= F(1, 2)
        else:
            # secs * 8**(d - top) undercounts the scaled time by a factor
            # below 1 + 4**(2 - top).
            assert took == secs == f"{LADDER_MAX_DIM_SECONDS:.1f}"
            want = exact_value(secs) * n_dots / exact_value(dots_top)
            low = exact_value(secs) * exact_value(growth)
            assert low < want < low * (1 + F(1, 4 ** (LADDER_MAX_DIM - 2)))

    @pytest.mark.parametrize("d", range(5, 13))
    def test_refused_deepest_scale_is_the_ladders(self, d):
        # k_L in full for d <= 6, beyond as (k_1 + 1/2) 3**(L-1) - 1/2.
        backends = ["float64"] + ["rational"] * (d > LADDER_MAX_DIM)
        for backend in backends:
            with pytest.raises(ConstructionError) as exc:
                construct_acute_cube(ConstructionConfig(dim=d,
                                                        backend=backend))
            k = re.search(r"scale is 2\*\*-(\d+|\(\d+\.5 \* 3\*\*\(2\*\*"
                          rf"{d - 2} - 1\) - 0\.5\))[;)]",
                          str(exc.value)).group(1)
            assert k.isdigit() == (d <= 6)
            assert exact_value(k) == ladder_ks(d)[-1]

    def test_apex_near_boundary_fails_guard_or_verification(self):
        # The d=3 table design was built for c = 3/2; squeezing the apex down
        # to just above the legal floor must be caught, not silently emitted.
        cfg = ConstructionConfig(dim=3, apex_height="3/4")
        with pytest.raises(ConstructionError):
            construct_full(cfg)

    @pytest.mark.parametrize("backend, shown", [
        ("rational", "78805/32768"), ("float64", "2.404937744140625")])
    def test_guard_names_the_first_pair_and_its_true_distance(self, backend,
                                                              shown):
        cfg = ConstructionConfig(dim=3, apex_height="3/4", backend=backend)
        with pytest.raises(ConstructionError,
                           match=rf"guard failed: \|x_0 - x_1\|\^2 = {shown} "):
            construct_full(cfg)

    @pytest.mark.parametrize("d, text", [
        (3, "-50175902093/65536 (-765624) at (0, 1, 4)"),
        (5, "-124999 at (0, 8, 16)"),
        (6, "exact<0 (~-2^17) at (0, 16, 32)"),
    ])
    def test_failed_certification_names_its_margin(self, d, text):
        # A tall apex fails the final certificate. The d = 5 margin has too
        # many digits for str() and the d = 6 one is a Dyadic, so the
        # refusal names each as the CLI's summary line does.
        with pytest.raises(ConstructionError) as exc:
            construct_full(ConstructionConfig(dim=d, apex_height=10 ** 6))
        assert str(exc.value) == f"final certification failed: margin {text}"

    def test_cli_refuses_a_failed_construction_in_one_line(self, capsys):
        assert main(["generate", "5", "--apex-height", "1000000"]) == (
            EXIT_CONSTRUCTION)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: final certification failed: "
                                "margin -124999 at (0, 8, 16)\n")


class TestLadderBuild:
    """The ladder builds each antipodal class's values once. Its points and
    trace must equal a per-vertex build through perturb_vertex and the
    eps formula mu s + mu^2 s^3, term for term, with the classes found as
    first frozen (pairs sorted by their lexicographically smaller member)."""

    @staticmethod
    def exact(x):
        if isinstance(x, Dyadic):
            return "dyadic", x.terms
        assert type(x) is Fraction
        return "fraction", x.numerator, x.denominator

    @staticmethod
    def per_vertex(d):
        originals = hypercube_vertices(d).points
        flip = lambda v: tuple(1 - x for x in v[:-1]) + (0,)
        reps = sorted({min(v, flip(v)) for v in originals})
        k_of = {}
        for k, rep in zip(ladder_ks(d), reps):
            k_of[rep] = k_of[flip(rep)] = k
        ks = [k_of[v] for v in originals]
        pts = tuple(perturb_vertex(v, Dyadic.pow2(-k))
                    for v, k in zip(originals, ks))
        mu = d - 1
        steps = []
        for i in sorted(range(len(ks)), key=lambda i: (ks[i], i)):
            s = Dyadic.pow2(-ks[i])
            steps.append((i, mu * s + mu * mu * s * s * s, s))
        return PointSet(dim=d, points=pts, backend="rational"), steps

    @pytest.mark.parametrize("d", [5, 6, 7, 8])
    def test_equals_a_per_vertex_build(self, d):
        cube, trace = construct_acute_cube(ConstructionConfig(dim=d))
        want, steps = self.per_vertex(d)
        ex = self.exact
        assert [[ex(x) for x in p] for p in cube.points] == \
            [[ex(x) for x in p] for p in want.points]
        assert [(st.index, ex(st.eps), ex(st.s)) for st in trace.steps] == \
            [(i, ex(eps), ex(s)) for i, eps, s in steps]
        # Fractions at d = 5; from d = 6 on every value stays sparse.
        form = Fraction if d == 5 else Dyadic
        assert all(type(x) is form for p in cube.points for x in p)

    @pytest.mark.parametrize("d", [5, 6, 7, 8])
    def test_a_class_shares_its_values(self, d):
        cube, trace = construct_acute_cube(ConstructionConfig(dim=d))
        pts, top = cube.points, len(cube) - 1
        for ell in range(len(pts) // 2):
            p, q = pts[ell], pts[top - ell]
            # a, 1 - a and b: three objects between the two vertices
            assert len({id(x) for x in p + q}) == 3
            assert p[-1] is q[-1]
            assert all(x is not y for x, y in zip(p[:-1], q[:-1]))
        for one, two in zip(trace.steps[::2], trace.steps[1::2]):
            assert one.index + two.index == top
            assert one.eps is two.eps and one.s is two.s


class TestBaseline:
    def test_d3_default_seed_stalls_small(self):
        ps = random_baseline(3, trials=200, seed=0)
        assert len(ps) <= 4
        if len(ps) >= 3:
            assert verify_acute(ps).verdict

    def test_results_are_reproducible(self):
        a = random_baseline(3, trials=100, seed=5)
        b = random_baseline(3, trials=100, seed=5)
        assert a.points == b.points

    def test_far_below_target(self):
        ps = random_baseline(4, trials=300, seed=1)
        assert len(ps) < 2 ** 3 + 1

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_equals_the_naive_greedy_loop(self, dim):
        # One more trial than a block crosses into a second draw.
        for seed in range(30):
            for trials in (-1, 0, 1, 2, 3, 200, construct._DRAWS + 1):
                ps = random_baseline(dim, trials=trials, seed=seed)
                assert ps.points == naive_baseline(dim, trials, seed)

    def test_a_kept_point_is_not_kept_again(self):
        # Uniform draws repeat with a chance near 2**-53 per pair, so the
        # check is tested directly: against the first kept point by
        # comparison, against a later one through its pair's zero dot.
        kept = np.array([[0.5, 0.5], [0.9, 0.1]])
        cands = np.array([[0.5, 0.5], [0.9, 0.1], [0.9, 0.6]])
        assert construct._acute_with(kept, 0, cands).tolist() == [
            False, True, True]
        assert construct._acute_with(kept, 1, cands).tolist() == [
            False, False, True]

    def test_memory_does_not_grow_with_trials(self):
        random_baseline(4, trials=10)       # numpy's first-call allocations
        peaks = []
        for trials in (10 ** 3, 10 ** 5):
            tracemalloc.start()
            try:
                random_baseline(4, trials=trials)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]


class TestFullSets:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cube_plus_apex_cardinality(self, d):
        ps, _, _ = construct_full(ConstructionConfig(dim=d))
        assert len(ps) == 2 ** (d - 1) + 1
        # apex is the last point at the configured height
        assert ps.points[-1][-1] == F(d, 2)

    def test_original_cube_fails_but_perturbed_passes(self):
        d = 4
        cube = hypercube_vertices(d)
        assert not verify_acute(cube).verdict
        assert verify_nonobtuse(cube).verdict
        built, _ = construct_acute_cube(ConstructionConfig(dim=d))
        assert verify_acute(built).verdict
