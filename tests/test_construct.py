import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acuta import (ConstructionConfig, ConstructionError, ConstructionTrace,
                   GeometryError, PointSet, TraceStep, apex_point, dot_at_apex,
                   construct_acute_cube, construct_full, hypercube_vertices,
                   lemma_check, perturb_vertex, random_baseline, safe_radius,
                   set_margin, squared_diameter, verify_acute,
                   verify_nonobtuse)
from acuta._designs import DESIGN_MARGINS, LADDER_MAX_DIM

F = Fraction


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

    @pytest.mark.parametrize("d", range(2, 6))
    @pytest.mark.parametrize("s", [F(1, 10), F(1, 100)])
    def test_small_dims(self, d, s):
        rep = lemma_check(d, s)
        assert rep.ok
        assert rep.coupling_residual == 0
        if d > 2:
            assert rep.min_case2 == (d - 1) ** 3 * s ** 4

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
        assert cfg.schedule == "adaptive"
        assert cfg.apex_height == F(2)

    def test_geometric_defaults(self):
        cfg = ConstructionConfig(dim=3, schedule="geometric")
        assert cfg.s1 == F(1, 10)
        assert cfg.gamma == F(1, 4)

    def test_float_backend_coerces(self):
        cfg = ConstructionConfig(dim=3, backend="float64",
                                 schedule="geometric", s1="1/8")
        assert cfg.s1 == 0.125
        assert isinstance(cfg.apex_height, float)

    @pytest.mark.parametrize("kwargs", [
        dict(dim=1),
        dict(dim=3, backend="decimal"),
        dict(dim=3, schedule="annealed"),
        dict(dim=3, schedule="geometric", s1="0"),
        dict(dim=3, schedule="geometric", gamma="1"),
        dict(dim=3, schedule="geometric", gamma="-1/2"),
        dict(dim=3, s1="1/10"),             # adaptive takes no s1
        dict(dim=5, apex_height="1"),       # boundary exactly
        dict(dim=3, max_retries=-1),
    ])
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ConstructionConfig(**kwargs)


class TestTraceValidation:
    def test_eps_must_not_increase(self):
        mk = lambda i, e, s: TraceStep(index=i, eps=F(e), s=F(s),
                                       a=2 * F(s) ** 2, b=2 * F(s))
        with pytest.raises(ValueError):
            ConstructionTrace(dim=3, backend="rational", vertex_order=(0, 1),
                              steps=(mk(0, "1/10", "1/20"),
                                     mk(1, "1/5", "1/10")))

    def test_coupling_enforced(self):
        bad = TraceStep(index=0, eps=F(1, 10), s=F(1, 20),
                        a=F(1, 7), b=F(1, 10))
        with pytest.raises(ValueError):
            ConstructionTrace(dim=3, backend="rational", vertex_order=(0,),
                              steps=(bad,))

    def test_vertex_order_must_be_permutation(self):
        mk = lambda i: TraceStep(index=i, eps=F(0), s=F(0), a=F(0), b=F(0))
        with pytest.raises(ValueError):
            ConstructionTrace(dim=3, backend="rational", vertex_order=(0, 0),
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
            assert d2 <= eps_by_vertex[i] ** 2

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

    def test_apex_near_boundary_fails_guard_or_verification(self):
        # The d=3 table design was built for c = 3/2; squeezing the apex down
        # to just above the legal floor must be caught, not silently emitted.
        cfg = ConstructionConfig(dim=3, apex_height="3/4")
        with pytest.raises(ConstructionError):
            construct_full(cfg)


class TestGeometric:
    def test_d2_succeeds(self):
        ps, trace, report = construct_full(
            ConstructionConfig(dim=2, schedule="geometric"))
        assert report.verdict
        assert len(ps) == 3
        assert trace.vertex_order == (0, 1)

    def test_d2_trace_scales_decay_geometrically(self):
        cfg = ConstructionConfig(dim=2, schedule="geometric",
                                 s1="1/10", gamma="1/4")
        _, trace = construct_acute_cube(cfg)
        s = [st.s for st in trace.steps]
        assert s[1] == s[0] * F(1, 4)

    @pytest.mark.parametrize("d", [3, 4])
    def test_small_dims_fail_after_restarts(self, d):
        with pytest.raises(ConstructionError, match="halvings"):
            construct_full(ConstructionConfig(dim=d, schedule="geometric"))

    def test_float_backend_also_fails_honestly(self):
        with pytest.raises(ConstructionError):
            construct_full(ConstructionConfig(dim=3, schedule="geometric",
                                              backend="float64"))


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
