import dataclasses
import itertools
import math
import random
import sys
import threading
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from acuta import (Dyadic, GeometryError, PointSet, TripleWitness,
                   dot_at_apex, set_margin, squared_diameter)
from acuta import geometry
from acuta.construct import (ConstructionConfig, apex_point,
                             construct_acute_cube, construct_full,
                             hypercube_vertices, perturb_vertex, safe_radius)
from acuta.geometry import (_GAP_CAP, _LEAD_TERMS, ExactGram, FloatGram,
                            _digits, _keys, _pair_sums, kernel)
from acuta.scalars import FRACTION_BITS
from acuta.verify import (verify_acute, verify_antipodal_witness,
                          verify_nonobtuse)
from conftest import (naive_first_failure, naive_margin, naive_minima,
                      naive_slab, naive_sqdiam, random_rational_points,
                      random_rational_set)

F = Fraction


def _odd_part(q):
    while q % 2 == 0:
        q //= 2
    return q


# Exact coordinates of every shape the kernel converts: integers, zero,
# p / 2**k, all-ones numerators (2**k - 1) / 2**k, and dense numerators
# over odd denominators (times a power of two).
_coords = st.one_of(
    st.integers(-2 ** 80, 2 ** 80).map(F),
    st.builds(lambda p, k: F(p, 2 ** k), st.integers(-2 ** 40, 2 ** 40),
              st.integers(0, 90)),
    st.builds(lambda k, s: F(s * (2 ** k - 1), 2 ** k), st.integers(1, 200),
              st.sampled_from((-1, 1))),
    st.builds(lambda p, o, k: F(p, o << k), st.integers(-2 ** 200, 2 ** 200),
              st.sampled_from((3, 7, 15, 3 ** 30, 10 ** 9 + 7)),
              st.integers(0, 60)))


def rat_ps(*rows, dim=None):
    pts = tuple(tuple(F(x) for x in row) for row in rows)
    return PointSet(dim=dim or len(pts[0]), points=pts, backend="rational")


class TestBasics:
    def test_dot_at_apex(self):
        q, p, r = (F(0), F(0)), (F(1), F(0)), (F(0), F(1))
        assert dot_at_apex(q, p, r) == 0
        assert dot_at_apex(p, q, r) == 1

    def test_squared_diameter(self):
        ps = rat_ps((0, 0), (3, 4))
        assert squared_diameter(ps) == 25

    def test_duplicates_rejected(self):
        with pytest.raises(GeometryError):
            rat_ps((0, 0), (1, 1), (0, 0))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            PointSet(dim=3, points=((F(0), F(0)),), backend="rational")

    def test_unknown_backend_rejected(self):
        # An unknown backend is neither exact nor float64: it must not pass
        # as a float set and fail later inside a kernel.
        with pytest.raises(GeometryError, match="unknown backend"):
            PointSet(dim=2, points=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
                     backend="float32")

    def test_nonfinite_float_rejected(self):
        with pytest.raises(GeometryError):
            PointSet(dim=2, points=((0.0, math.inf),), backend="float64")

    @pytest.mark.parametrize("call, message", [
        (lambda: PointSet(dim=0, points=(), backend="rational"),
         "dim must be >= 1, got 0"),
        (lambda: rat_ps((0, 0), (1, 1)).as_array(),
         r"as_array\(\) requires the float64 backend"),
    ], ids=["dim-0", "exact-as_array"])
    def test_public_refusals(self, call, message):
        with pytest.raises(GeometryError, match=message):
            call()

    def test_witness_indices_distinct(self):
        with pytest.raises(GeometryError):
            TripleWitness(1, 1, 2, F(0))

    # Every verify call takes its refusals from set_margin: one message
    # for a set too small, one for a float64 set whose diameter overflows.
    MARGIN_CALLS = {
        "set_margin": set_margin,
        "acute": verify_acute,
        "acute-verdict": lambda ps: verify_acute(ps, mode="verdict"),
        "nonobtuse": verify_nonobtuse,
        "nonobtuse-verdict": lambda ps: verify_nonobtuse(ps, mode="verdict"),
        "antipodal": verify_antipodal_witness,
    }

    @pytest.mark.parametrize("call", MARGIN_CALLS)
    def test_set_margin_needs_three_points(self, call):
        with pytest.raises(GeometryError,
                           match="need at least 3 points, got 2"):
            self.MARGIN_CALLS[call](rat_ps((0, 0), (1, 1)))

    # Finite coordinates whose squared diameter is not: four points near
    # the float64 maximum, and two triangles with one or two sides at
    # 1e200. The radius divides by the diameter's integer square root,
    # which an infinite squared diameter has none of: the same refusal.
    OVERFLOWING = {
        "": ((1e308, 0), (-1e308, 0), (0, 1e308), (1, -1e308)),
        "-1e200": ((0.0, 0.0), (1e200, 0.0), (0.0, 1e200)),
        "-1e200-flat": ((0.0, 0.0), (1e200, 0.0), (0.5, 3.0)),
    }

    @pytest.mark.parametrize("call, points", [
        pytest.param(call, points, id=call + tag)
        for (tag, points), call in itertools.product(
            OVERFLOWING.items(), [*MARGIN_CALLS, "safe_radius"])])
    def test_set_margin_refuses_an_overflowing_float_set(self, call, points):
        ps = PointSet(dim=2, points=points, backend="float64")
        check = self.MARGIN_CALLS.get(call, lambda ps: safe_radius(ps, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="squared diameter is inf"):
                check(ps)


class TestSparseCoercion:
    """A set keeps its Dyadic values sparse exactly when one of them is too
    large for a Fraction; either way it equals and hashes like the same
    set written with Fractions."""

    def test_a_value_too_large_keeps_every_dyadic_sparse(self):
        tiny = Dyadic.pow2(-10 ** 6)
        fits = Dyadic([(0, 1), (-40, -3)])
        mixed = PointSet(dim=2, points=((tiny, fits), (fits, F(1, 2)),
                                        (F(0), F(3))), backend="rational")
        dense = PointSet(dim=2, points=((tiny, fits.to_fraction()),
                                        (fits.to_fraction(), F(1, 2)),
                                        (F(0), F(3))), backend="rational")
        assert [type(x) for p in mixed.points for x in p] == [
            Dyadic, Dyadic, Dyadic, F, F, F]
        assert [type(x) for p in dense.points for x in p] == [
            Dyadic, F, F, F, F, F]
        assert mixed == dense and hash(mixed) == hash(dense)
        assert set_margin(mixed) == set_margin(dense)

    def test_values_that_fit_become_fractions(self):
        fits = Dyadic([(0, 1), (-40, -3)])
        ps = PointSet(dim=2, points=((fits, F(0)), (F(0), fits),
                                     (Dyadic.pow2(-3), F(1))),
                      backend="rational")
        assert all(type(x) is F for p in ps.points for x in p)
        assert ps == PointSet(dim=2, points=tuple(
            tuple(F(x) if isinstance(x, F) else x.to_fraction() for x in p)
            for p in ps.points), backend="rational")


class TestSetMargin:
    def test_tall_triangle(self):
        m, w = set_margin(rat_ps((0, 0), (2, 0), (1, 10)))
        assert m == 2
        assert w.indices() == (0, 1, 2)
        assert w.dot_value == 2

    def test_unit_square_margin_zero_with_first_witness(self):
        m, w = set_margin(rat_ps((0, 0), (0, 1), (1, 0), (1, 1)))
        assert m == 0
        # several triples achieve 0; the lexicographically first wins
        assert w.indices() == (0, 1, 2)

    def test_float_matches_exact_on_dyadic_input(self):
        rows = ((0, 0), (2, 0), (1, 10), (F(1, 2), F(5, 2)))
        exact = rat_ps(*rows)
        approx = PointSet(dim=2, points=tuple(
            tuple(float(x) for x in r) for r in rows), backend="float64")
        me, we = set_margin(exact)
        mf, wf = set_margin(approx)
        assert float(me) == mf
        assert we.indices() == wf.indices()

    @pytest.mark.parametrize("threads", [1, 2, 3, 7, 16])
    def test_thread_count_never_changes_answer(self, threads):
        ps = random_rational_set(seed=7, n=14, dim=3)
        base_m, base_w = set_margin(ps, threads=1)
        m, w = set_margin(ps, threads=threads)
        assert m == base_m
        assert w.indices() == base_w.indices()

    def test_env_var_thread_count(self, monkeypatch):
        ps = random_rational_set(seed=11, n=10, dim=2)
        base = set_margin(ps)
        monkeypatch.setenv("ACUTA_THREADS", "5")
        assert set_margin(ps) == base
        monkeypatch.setenv("ACUTA_THREADS", "not-a-number")
        assert set_margin(ps) == base


class TestProperties:
    @given(st.integers(0, 10 ** 6),
           st.fractions(min_value=F(1, 8), max_value=8, max_denominator=64),
           st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
    @settings(max_examples=40)
    def test_margin_scales_quadratically_exact(self, seed, lam, shift):
        import random
        pts = random_rational_points(random.Random(seed), 5, 2)
        ps = PointSet(dim=2, points=pts, backend="rational")
        moved = tuple(tuple(lam * x + t for x, t in zip(p, shift))
                      for p in pts)
        ps2 = PointSet(dim=2, points=moved, backend="rational")
        m1, w1 = set_margin(ps)
        m2, w2 = set_margin(ps2)
        assert m2 == lam * lam * m1
        assert w1.indices() == w2.indices()

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25)
    def test_similarity_invariance_float(self, seed):
        """Rigid motions keep the float margin stable, up to tolerance."""
        import random
        rnd = random.Random(seed)
        pts = [tuple(rnd.uniform(-1, 1) for _ in range(2)) for _ in range(5)]
        ps = PointSet(dim=2, points=tuple(pts), backend="float64")
        theta = rnd.uniform(0, 2 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        moved = tuple((c * x - s * y + 0.25, s * x + c * y - 3.0)
                      for x, y in ps.points)
        ps2 = PointSet(dim=2, points=moved, backend="float64")
        m1, _ = set_margin(ps)
        m2, _ = set_margin(ps2)
        strict = 1e-9 * (1.0 + float(squared_diameter(ps)))
        if abs(m1) > 10 * strict:
            assert m2 == pytest.approx(m1, rel=1e-6, abs=10 * strict)

    @given(st.integers(0, 10 ** 6), st.integers(4, 12), st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_reference(self, seed, n, dim):
        ps = random_rational_set(seed=seed, n=n, dim=dim)
        m, w = set_margin(ps, threads=3)
        ref_m, ref_idx = naive_margin(ps.points)
        assert m == ref_m
        assert w.indices() == ref_idx


class TestExactGram:
    @given(st.integers(0, 10 ** 6), st.integers(3, 10), st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_sparse_dyadic_entries_agree_with_integer_entries(self, seed, n,
                                                              dim):
        # random_rational_points draws dyadic coordinates, so the same set
        # enters the kernel both as Fractions and as Dyadic values.
        pts = random_rational_set(seed=seed, n=n, dim=dim).points
        dense = ExactGram(pts)
        sparse = ExactGram([[Dyadic.of(x) for x in p] for p in pts])
        ref_margin, ref_witness = naive_margin(pts)
        (m1, a1), (m2, a2) = (g.min_dots(range(n)) for g in (dense, sparse))
        assert dense.value(m1) == sparse.value(m2) == ref_margin
        assert a1 == a2 and a1[0] == ref_witness
        (s1, w1), (s2, w2) = dense.min_slab(), sparse.min_slab()
        assert dense.value(s1) == sparse.value(s2) and w1 == w2
        assert dense.value(dense.max_sqdist()) == sparse.value(sparse.max_sqdist())

    @given(st.integers(0, 10 ** 6), st.integers(2, 12), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_entries_scale_by_the_odd_denominator_lcm(self, seed, n, dim):
        # Denominators repeat across coordinates; every entry must still be
        # m**2 times the true inner product, m the lcm of the odd parts of
        # all denominators.
        rng = random.Random(seed)
        pts = {tuple(F(rng.randint(-50, 50), rng.choice((1, 3, 4, 7, 12, 35)))
                     for _ in range(dim)) for _ in range(n)}
        pts = sorted(pts)
        gram = ExactGram(pts)
        m = math.lcm(*(_odd_part(x.denominator) for p in pts for x in p))
        assert gram.value(Dyadic.pow2(0)) == F(1, m * m)
        for i, j in itertools.product(range(len(pts)), repeat=2):
            assert gram.g[i][j] == m * m * sum(
                a * b for a, b in zip(pts[i], pts[j]))

    @given(st.lists(_coords, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_every_coordinate_becomes_x_times_m(self, xs):
        m = math.lcm(*(_odd_part(x.denominator) for x in xs))
        for x in xs:
            for y in (x, -x):
                d = _digits(y, m)
                assert d == y * m
                # One term, or up to _LEAD_TERMS signed binary digits of
                # the numerator, each scaled by m over the odd part of the
                # denominator.
                scale = m // _odd_part(y.denominator)
                assert len(d.terms) <= 1 or (
                    len(d.terms) <= _LEAD_TERMS
                    and all(abs(c) == scale for _, c in d.terms))

    @pytest.mark.parametrize("k", [25, 26, 100, 12028])
    def test_all_ones_numerators_become_two_digits(self, k):
        assert _digits(F(2 ** k - 1, 2 ** k), 1).terms == ((0, 1), (-k, -1))
        assert _digits(F(1 - 2 ** k, 2 ** k), 1).terms == ((0, -1), (-k, 1))

    def test_large_odd_denominators_keep_one_term_per_coordinate(self):
        rng = random.Random(11)
        dens = (10 ** 9 + 7, 3 ** 40, 998244353 << 7)
        pts = sorted({tuple(F(rng.randint(-10 ** 12, 10 ** 12),
                              rng.choice(dens)) for _ in range(3))
                      for _ in range(9)})
        m = math.lcm(*(_odd_part(x.denominator) for p in pts for x in p))
        assert all(len(_digits(x, m).terms) == 1 for p in pts for x in p)
        TestHeadFilter.check(pts)

    def test_huge_dyadic_cannot_mix_with_non_dyadic_values(self):
        pts = [(Dyadic.pow2(-10 ** 8), F(0)), (F(1, 3), F(0)), (F(0), F(1))]
        with pytest.raises(GeometryError):
            ExactGram(pts)


def _kicked_d5(den):
    """The d = 5 ladder set with point 3 moved by its safe radius times a
    seeded direction over ``den``."""
    full, _, rep = construct_full(ConstructionConfig(dim=5))
    radius = safe_radius(full, rep.margin)
    rng = random.Random(5)
    pts = list(full.points)
    pts[3] = tuple(x + radius * rng.randint(-4, 4) / den for x in pts[3])
    return pts


class TestKickedLadder:
    """A d = 5 ladder set kicked by its safe radius: one point's coordinates
    are dense numerators of about 48 000 bits, which stay one term each,
    beside the ladder's one- and two-term coordinates."""

    def test_scans_equal_the_naive_loops(self):
        # The kick over 2**5 keeps every coordinate dyadic, so the naive
        # loops can run on Dyadic copies of the values; on these Fractions
        # they take about a minute.
        pts = _kicked_d5(32)
        TestHeadFilter.check(pts, oracle=[[Dyadic.of(x) for x in p]
                                          for p in pts])

    def test_value_is_an_exact_fraction_beyond_fraction_bits(self):
        pts = _kicked_d5(7 * 32)
        gram = ExactGram(pts)
        assert gram.value(Dyadic.pow2(0)) == F(1, 49)
        for i, j in ((3, 3), (3, 0), (0, 0)):
            v = gram.value(gram.g[i][j])
            assert type(v) is F and v == sum(
                a * b for a, b in zip(pts[i], pts[j]))
        big = gram.value(gram.g[3][3])
        assert (big.numerator.bit_length()
                + big.denominator.bit_length()) > FRACTION_BITS
        raw, args = gram.minimum()
        q, i, j = args[0]
        assert gram.value(raw) == sum((a - z) * (b - z) for a, b, z in
                                      zip(pts[i], pts[j], pts[q])) > 0


def _bracketed(gram):
    """Every entry x of the kernel has h <= x * 2**H <= h + t, in integers
    scaled by 2**-low (a Fraction check would spend its time in gcds)."""
    shift = gram._shift
    for i, j in itertools.product(range(gram.n), repeat=2):
        x = gram.g[i][j]
        h, t = int(gram.heads[i, j]), int(gram.tails[i, j])
        low = min([0] + [e + shift for e, _ in x.terms])
        v = sum(c << (e + shift - low) for e, c in x.terms)
        assert h << -low <= v <= (h + t) << -low


# Dyadic coordinates whose terms cancel: c * 2**(e + 1) - 2c * 2**e is kept
# as two terms, so products of such coordinates make entries of large terms
# with small sums. Coefficients range from a few bits to past the oversize
# mass 2**31 of a row.
_coefs = st.one_of(st.integers(-9, 9), st.integers(-2 ** 29, 2 ** 29),
                   st.integers(-2 ** 100, 2 ** 100))
_cancelling = st.builds(
    lambda terms, pairs: Dyadic(
        terms + [t for e, c in pairs for t in ((e + 1, c), (e, -2 * c))]),
    st.lists(st.tuples(st.integers(-90, 90), _coefs), max_size=3),
    st.lists(st.tuples(st.integers(-90, 90), _coefs), max_size=2))


def _oversize_point(rng, dim):
    """A point whose first coordinate has a numerator of 100 bits and more
    than _LEAD_TERMS signed binary digits: one term, an oversize row."""
    big = rng.choice((-1, 1)) * (2 ** 100 // 3 + rng.randint(0, 2 ** 20))
    return (F(big, 2 ** rng.randint(0, 40)),) + tuple(
        F(rng.randint(-9, 9), rng.choice((1, 2, 4))) for _ in range(dim - 1))


class TestRankSpaceBuild:
    """The build forms entries, heads and tails from int64 runs, and the
    rows of oversize points with Python ints: every entry must be the
    exact inner product, and every head must bracket it."""

    @given(st.lists(st.lists(_cancelling, min_size=3, max_size=3),
                    min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_entries_and_heads_of_cancelling_terms(self, rows):
        gram = ExactGram(rows)
        assert len(gram.g) == len(rows)
        for i, j in itertools.product(range(len(rows)), repeat=2):
            x = gram.g[i][j]
            assert x.to_fraction() == sum(
                (a.to_fraction() * b.to_fraction()
                 for a, b in zip(rows[i], rows[j])), F(0))
            assert all(c for _, c in x.terms)
            assert x.terms == tuple(sorted(x.terms, reverse=True))
        _bracketed(gram)

    @given(st.integers(0, 10 ** 6), st.integers(3, 9), st.integers(2, 3))
    @settings(max_examples=25, deadline=None)
    def test_heads_bracket_entries_below_h_zero(self, seed, n, dim):
        gram = ExactGram(_near_2_70(seed, n, dim))
        assert gram._shift < 0
        _bracketed(gram)

    @given(st.integers(0, 10 ** 6), st.integers(3, 8), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_an_oversize_row_among_int64_rows(self, seed, n, dim):
        # One point with a 2**100 coefficient: its row is built with Python
        # ints, every other entry from int64 runs; scans, first failures
        # and the margin must still equal the naive loops.
        rng = random.Random(seed)
        pts = list(random_rational_set(seed=seed, n=n, dim=dim).points)
        pts[rng.randrange(n)] = _oversize_point(rng, dim)
        gram = ExactGram(pts)
        m = math.lcm(*(_odd_part(x.denominator) for p in pts for x in p))
        for i, j in itertools.product(range(len(pts)), repeat=2):
            assert gram.value(gram.g[i][j]) == sum(
                a * b for a, b in zip(pts[i], pts[j]))
        assert gram.value(Dyadic.pow2(0)) == F(1, m * m)
        _bracketed(gram)
        TestHeadFilter.check(pts)
        TestHeadFilter.check(pts, sparse=True)
        ps = PointSet(dim=dim, points=pts, backend="rational")
        margin, witness = set_margin(ps)
        assert (margin, witness.indices()) == naive_margin(pts)


def _not_acute(dot):
    return not dot > 0


def _obtuse(dot):
    return dot < 0


def _check_sweep(gram, oracle):
    """The kernel's sweep (``_Kernel.first_failure``) under both rules must
    equal the naive early-exit loop on ``oracle``, triple count included."""
    for rule in (_not_acute, _obtuse):
        checked, angle, dot = gram.first_failure(rule)
        dot = None if dot is None else gram.value(dot)
        assert (checked, angle, dot) == naive_first_failure(oracle, rule)


def _near_2_70(seed, n, dim):
    """Integer points within 3 of (2**70, ..., 2**70): Gram entries near
    2**141, so the heads keep nothing of any dot (H < 0)."""
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(F(2 ** 70 + rng.randint(-3, 3)) for _ in range(dim)))
    return sorted(pts)


def _fine_cube(seed, dim):
    """Cube vertices moved by multiples of 2**-80: every dot is a cube dot
    plus terms below 2**-80, which the heads (H = 52 or 53) cannot see."""
    rng = random.Random(seed)
    return [tuple(v + F(rng.randint(-3, 3), 2 ** 80) for v in vertex)
            for vertex in itertools.product((0, 1), repeat=dim)]


class TestHeadFilter:
    """The int64 head bounds decide which dots the exact test sees; every
    scan must still equal the naive loops of conftest, most of all where
    the bounds cannot tell the dots apart."""

    @staticmethod
    def check(points, sparse=False, oracle=None):
        """Compare every scan of ``points`` with the naive loops, run on
        ``oracle``: the same values, by default ``points`` themselves."""
        gram = ExactGram([[Dyadic.of(x) for x in p] for p in points]
                         if sparse else points)
        oracle = points if oracle is None else oracle
        n = len(points)
        raw, args = gram.min_dots(range(n))
        assert (gram.value(raw), args) == naive_minima(oracle)
        raw, witness = gram.min_slab()
        assert (gram.value(raw), witness) == naive_slab(oracle)
        assert gram.value(gram.max_sqdist()) == max(
            dot_at_apex(p, r, r) for p, r in itertools.combinations(oracle, 2))
        _check_sweep(gram, oracle)

    @given(st.integers(0, 10 ** 6), st.integers(3, 10), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_random_rational_sets(self, seed, n, dim):
        pts = random_rational_set(seed=seed, n=n, dim=dim).points
        self.check(pts)
        self.check(pts, sparse=True)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_tie_heavy_hypercubes(self, dim):
        cube = [tuple(F(x) for x in v)
                for v in itertools.product((0, 1), repeat=dim)]
        self.check(cube)
        self.check(cube + [tuple([F(1, 2)] * (dim - 1) + [F(dim, 2)])],
                   sparse=True)

    @given(st.integers(0, 10 ** 6), st.integers(3, 9), st.integers(2, 3))
    @settings(max_examples=25, deadline=None)
    def test_coordinates_near_2_70(self, seed, n, dim):
        pts = _near_2_70(seed, n, dim)
        # Every term but each entry's leading dim * 2**140 is floored: the
        # heads keep nothing of any dot.
        gram = ExactGram(pts)
        assert all(gram.tails[i, j] == len(gram.g[i][j].terms) - 1
                   for i, j in itertools.product(range(n), repeat=2))
        self.check(pts)
        m, w = set_margin(PointSet(dim=dim, points=pts, backend="rational"))
        assert (m, w.indices()) == naive_margin(pts)

    @given(st.integers(0, 10 ** 6), st.integers(2, 3))
    @settings(max_examples=25, deadline=None)
    def test_dyadic_dots_that_differ_below_the_heads(self, seed, dim):
        pts = _fine_cube(seed, dim)
        assert ExactGram([[Dyadic.of(x) for x in p] for p in pts]).tails.any()
        self.check(pts, sparse=True)

    def test_d6_ladder_sweeps(self):
        # The certified d = 6 set sweeps every angle, most of them settled
        # only by the leading-term keys; with its apex moved to the centre
        # of the cube it fails at triple 196, the first whose angle at the
        # centre spans an antipodal pair.
        pts = list(construct_full(ConstructionConfig(dim=6))[0].points)
        gram = ExactGram(pts)
        assert gram.leads is not None
        for rule in (_not_acute, _obtuse):
            assert gram.first_failure(rule) == (math.comb(33, 3), None, None)
        pts[-1] = (F(1, 2),) * 5 + (F(0),)
        gram = ExactGram(pts)
        oracle = [[Dyadic.of(x) for x in p] for p in pts]
        for rule in (_not_acute, _obtuse):
            checked, angle, dot = gram.first_failure(rule)
            assert checked == 196
            assert (checked, angle, dot) == naive_first_failure(oracle, rule)


class TestSweep:
    """``_Kernel.first_failure`` is the one sweep of both kernels."""

    @given(st.integers(0, 10 ** 6), st.integers(3, 12), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_float_kernel_equals_the_naive_sweep(self, seed, n, dim):
        rng = random.Random(seed)
        pts = [tuple(rng.uniform(-1, 1) for _ in range(dim))
               for _ in range(n)]
        _check_sweep(FloatGram(pts), pts)

    def test_exact_failure_past_block_0(self):
        # The d = 5 ladder set with its apex first and a copy of the apex
        # lowered to height 0 last: every triangle of the apex and two
        # ladder points is acute, so the first failure, an angle at the
        # lowered apex, lies past the block of i = 0.
        pts = list(construct_full(ConstructionConfig(dim=5))[0].points)
        pts = [pts[-1]] + pts[:-1] + [pts[-1][:-1] + (F(0),)]
        gram = ExactGram(pts)
        assert gram.leads is not None
        for rule in (_not_acute, _obtuse):
            assert gram.first_failure(rule)[0] > math.comb(len(pts) - 1, 2)
        _check_sweep(gram, pts)

    def test_float_failure_past_block_0(self):
        # The d = 4 float design with its apex first and its next point
        # moved to the origin: every triangle with the apex stays acute, and
        # the first failure is the obtuse angle at the origin, triple 29.
        ps = construct_full(ConstructionConfig(dim=4, backend="float64"))[0]
        pts = [ps.points[-1]] + list(ps.points[:-1])
        pts[1] = hypercube_vertices(4, "float64").points[0]
        gram = FloatGram(pts)
        for rule in (_not_acute, _obtuse):
            assert gram.first_failure(rule)[0] > math.comb(len(pts) - 1, 2)
        _check_sweep(gram, pts)

    @pytest.mark.parametrize("n", [3, 4, 18, 50])
    def test_chunks_list_every_angle_in_order(self, n):
        # At n = 50 the chunks grow from 16 triples to the cap of 1024 and
        # cross the blocks of one i: block 0 (1176 triples) ends inside the
        # seventh chunk, triples 1009 to 2032.
        seen = []

        class Spy(FloatGram):
            def dot(self, q, a, b):
                seen.append((q, a, b))
                return super().dot(q, a, b)

        rng = random.Random(n)
        gram = Spy([(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    for _ in range(n)])
        assert gram.first_failure(lambda dot: False) == (
            math.comb(n, 3), None, None)
        assert seen == [angle
                        for i, j, k in itertools.combinations(range(n), 3)
                        for angle in ((i, j, k), (j, i, k), (k, i, j))]

    def test_exact_failure_past_several_chunks(self):
        # The d = 6 ladder set with a copy of its apex lowered to height 0
        # last: the first failure, the angle at the copy in triple (0, 7,
        # 33), is triple 203, in the fourth chunk of the sweep (chunks of
        # 16, 32, 64, then 128 triples: triples 113 to 240).
        pts = list(construct_full(ConstructionConfig(dim=6))[0].points)
        pts.append(pts[-1][:-1] + (F(0),))
        gram = ExactGram(pts)
        assert gram.first_failure(_not_acute)[:2] == (203, (33, 0, 7))
        _check_sweep(gram, pts)

    def test_no_chunk_exceeds_1024_triples(self):
        # 1100 points: block 0's rows hold up to 1098 triples each, more
        # than a chunk's cap, and the failing angle (at j of triple 3101)
        # lies in the ninth chunk, the third at the cap (triples 3057 to
        # 4080).
        n = 1100
        target = next(itertools.islice(
            itertools.combinations(range(n), 3), 3100, None))
        bad = (target[1], target[0], target[2])
        sizes = []

        class Scripted(FloatGram):
            def dot(self, q, a, b):
                return -1.0 if (q, a, b) == bad else 1.0

            def _may_fail(self, q, a, b, fails):
                sizes.append(q.size)
                return super()._may_fail(q, a, b, fails)

        gram = Scripted([(float(x),) for x in range(n)])
        naive = next(
            (m + 1, angle, -1.0)
            for m, (i, j, k) in enumerate(itertools.combinations(range(n), 3))
            for angle in ((i, j, k), (j, i, k), (k, i, j))
            if gram.dot(*angle) < 0)
        assert gram.first_failure(_obtuse) == naive == (3101, bad, -1.0)
        assert sizes and max(sizes) <= 3 * 1024

    def test_a_rule_failing_no_sign_sweeps_every_triple(self):
        exact = construct_full(ConstructionConfig(dim=5))[0]
        design = construct_full(ConstructionConfig(dim=4,
                                                   backend="float64"))[0]
        for gram in (ExactGram(exact.points), FloatGram(design.points)):
            assert gram.first_failure(lambda dot: False) == (
                math.comb(gram.n, 3), None, None)


def _apex(dim):
    return tuple([F(1, 2)] * (dim - 1) + [F(dim, 2)])


def _deep_cube(seed, dim, lo, hi, coefs=(-3, -1, 1, 3)):
    """Cube vertices and the apex over them, every cube coordinate moved by
    c * 2**-k with c from ``coefs`` and k from [lo, hi]: the dots of the
    originally right angles differ only far below 2**-H."""
    rng = random.Random(seed)
    pts = [tuple(x + Dyadic([(-rng.randint(lo, hi), rng.choice(coefs))])
                 for x in vertex)
           for vertex in itertools.product((0, 1), repeat=dim - 1)]
    return [p + (F(0),) for p in pts] + [_apex(dim)]


def _two_levels(dim, k, gap, coefs=(1, 3)):
    """Cube vertices and the apex, each cube coordinate moved by c * 2**e
    with e = -k, -k - gap or -k - 2 gap by the parities of the vertex and
    the coordinate: the Gram exponents include neighbours ``gap`` apart."""
    pts = []
    for n, vertex in enumerate(itertools.product((0, 1), repeat=dim - 1)):
        e = -k - gap * (n % 2)
        pts.append(tuple(x + Dyadic([(e - (m % 2) * gap, coefs[m % 2])])
                         for m, x in enumerate(vertex)) + (F(0),))
    return pts + [_apex(dim)]


def _exponents(gram):
    return sorted({e for row in gram.g for x in row for e, _ in x.terms})


class TestLeadingTermFilter:
    """The leading-term keys decide which of the dots the heads leave reach
    the exact test. Scans must equal the naive loops, and wherever a key
    holds, the keys must order the exact values."""

    @staticmethod
    def keys_order_values(gram):
        """The keys of every apex dot they hold for order it among the
        others as its exact value does: a dot never reaches (with its upper
        key) past the lower key of a dot at or below it, and a positive
        lower key (negative upper key) means a positive (negative) dot.
        Returns the numbers of dots the keys hold for and do not."""
        n = gram.n
        if gram.leads is None:
            return 0, n * math.comb(n - 1, 2)
        dots, lo, hi = [], [], []
        undecided = 0
        for q in range(n):
            legs = [(i, j) for i, j in itertools.combinations(range(n), 2)
                    if q not in (i, j)]
            a, b = (np.array(x) for x in zip(*legs))
            low, high, sure = gram._lead_bounds(q, a, b)
            undecided += int((~sure).sum())
            for t in np.flatnonzero(sure).tolist():
                dots.append(gram.dot(q, *legs[t]))
                lo.append(int(low[t]))
                hi.append(int(high[t]))
        for d, low, high in zip(dots, lo, hi):
            assert low < high
            assert (d > 0 or low <= 0) and (d < 0 or high >= 0)
        order = sorted(range(len(dots)), key=dots.__getitem__)
        rank = [0] * len(dots)
        for s in range(1, len(order)):
            t, u = order[s], order[s - 1]
            rank[t] = rank[u] + (dots[t] != dots[u])
        reach = [None] * (max(rank, default=0) + 1)
        for t in order:     # largest lower key of a dot at this rank
            r = rank[t]
            reach[r] = lo[t] if reach[r] is None else max(reach[r], lo[t])
        for r in range(1, len(reach)):      # ... or below it
            reach[r] = max(reach[r], reach[r - 1])
        for t in range(len(dots)):
            assert hi[t] > reach[rank[t]]
        return len(dots), undecided

    @staticmethod
    def check(points):
        """Scans equal the naive loops, and the keys order the values.
        Returns the gram and the numbers of dots the keys decide and not."""
        TestHeadFilter.check(points)
        gram = ExactGram(points)
        return (gram,) + TestLeadingTermFilter.keys_order_values(gram)

    @given(st.integers(0, 10 ** 6), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_dots_that_differ_far_below_the_heads(self, seed, dim):
        gram, decided, undecided = self.check(
            _deep_cube(seed, dim, 10 ** 3, 10 ** 6))
        assert gram.tails.any() and decided

    @given(st.integers(0, 10 ** 6), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_close_exponents_leave_leading_terms_unisolated(self, seed, dim):
        # Exponents within a few bits of each other make leading terms
        # that the next term can still outweigh, and cancel at the top.
        gram, decided, undecided = self.check(
            _deep_cube(seed, dim, 2000, 2003, coefs=(-7, -5, 5, 7)))
        assert decided and undecided

    @pytest.mark.parametrize("dim", [3, 4])
    def test_ties_at_one_deep_exponent(self, dim):
        # One ladder level for every vertex: a symmetric set whose margin
        # is attained many times, at one exponent far below 2**-H.
        s = Dyadic.pow2(-5000)
        pts = [perturb_vertex(v, s)
               for v in hypercube_vertices(dim).points] + [_apex(dim)]
        gram = self.check(pts)[0]
        assert len(gram.min_dots(range(gram.n))[1]) > 1

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_exponent_gaps_around_the_cap(self, offset):
        cap = ExactGram(_two_levels(4, 3000, 500)).leads.bits
        pts = _two_levels(4, 3000, cap + offset)
        gram = self.check(pts)[0]
        assert gram.leads.bits == cap
        assert cap + offset in np.diff(_exponents(gram))

    def test_leading_terms_a_binade_apart(self):
        # The two smallest dots, at apex 0, are A = 2**(e+1) - 3 * 2**(e-2)
        # and B = 2**e + 3 * 2**(e-3) with A < B, although A's leading term
        # is twice B's: only the half-unit slack keeps A from being cut.
        e = -1000
        a = Dyadic([(e + 1, 1), (e - 2, -3)])
        b = Dyadic([(e, 1), (e - 3, 3)])
        pts = [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (a, F(1), F(0)),
               (b, F(1, 2), F(1))]
        gram = self.check(pts)[0]
        assert gram.value(gram.min_dots(range(4))[0]) == a < b

    @pytest.mark.parametrize("gap", [1, 2, 3, 4, 5, 6, 40])
    def test_capped_positions_order_every_pair_of_ends(self, gap):
        # Points 2**(f + d) on a line, f = -100 far below 2**-H: every entry
        # is one unit term (mass 1, so C = bitlen(9) = 4) at an exponent
        # 2f + d1 + d2, and their neighbours lie gap and C - 1, C and C + 1
        # apart, among others. Positions are taken over all pair sums; every
        # two exponents must lie as far apart at their positions, or both
        # at least C apart, and every odd a, b up to 2 * 4 + 1 must compare
        # at their positions as at their exponents.
        ds = [0, -gap, -gap - 3, -gap - 7, -gap - 12]
        pts = [(F(2) ** (-100 + d),) for d in ds]
        gram = ExactGram(pts)
        leads = gram.leads
        assert leads.bits == 4 and leads.ok.all()
        at = {gram.g[i][j].terms[0][0]: int(leads.words[i, j, 0] >> 25)
              for i, j in itertools.product(range(5), repeat=2)}
        gaps = set(np.diff(sorted(at)).tolist())
        assert {gap, 3, 4, 5} <= gaps
        odd = np.array([a for a in range(-9, 10, 2)])
        for e1, e2 in itertools.product(at, repeat=2):
            if e1 > e2:
                apart = at[e1] - at[e2]
                assert apart == e1 - e2 or min(apart, e1 - e2) >= 4
            k1 = _keys(odd, np.full(odd.shape, at[e1]), leads.bits)
            k2 = _keys(odd, np.full(odd.shape, at[e2]), leads.bits)
            for a, x in zip(odd.tolist(), k1.tolist()):
                for b, y in zip(odd.tolist(), k2.tolist()):
                    u, v = F(a) * F(2) ** e1, F(b) * F(2) ** e2
                    assert (x > y, x == y) == (u > v, u == v)

    @given(st.integers(0, 10 ** 6), st.integers(3, 4))
    @settings(max_examples=15, deadline=None)
    def test_entries_too_large_to_pack(self, seed, dim):
        # A coefficient of 2**13 + 1 gives point 0 a squared norm of mass
        # over 2**24: the dots at apex 0 go to the exact test, the others
        # still use their keys.
        pts = _deep_cube(seed, dim, 10 ** 3, 10 ** 4)
        pts[0] = (Dyadic([(-1500, 2 ** 13 + 1)]),) + pts[0][1:]
        gram, decided, undecided = self.check(pts)
        assert not gram.leads.ok[0, 0] and gram.leads.ok.any()
        assert decided and undecided


class TestKernelReuse:
    """Consecutive scans of one set share its kernel (``geometry.kernel``)."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = [0]
        init = ExactGram.__init__

        def counted(self, points):
            count[0] += 1
            init(self, points)
        monkeypatch.setattr(ExactGram, "__init__", counted)
        return count

    @pytest.fixture
    def scans(self, monkeypatch):
        count = [0]
        min_dots = ExactGram.min_dots

        def counted(self, apexes):
            count[0] += 1
            return min_dots(self, apexes)
        monkeypatch.setattr(ExactGram, "min_dots", counted)
        return count

    def test_a_certificate_and_its_rechecks_build_once(self, builds, scans):
        full, _, rep = construct_full(ConstructionConfig(dim=6))
        verify_acute(full, mode="verdict")
        verify_nonobtuse(full)
        verify_antipodal_witness(full)
        set_margin(full)
        squared_diameter(full)
        safe_radius(full, rep.margin)
        assert builds[0] == 1
        assert scans[0] == 1

    def test_alternating_sets_rebuild_each_time(self, builds):
        a = random_rational_set(1, 10, 3)
        b = random_rational_set(2, 10, 3)
        for ps in (a, b, a, b):
            set_margin(ps)
        assert builds[0] == 4
        verify_acute(b, mode="verdict")
        verify_antipodal_witness(b)
        assert builds[0] == 4

    @pytest.mark.parametrize("backend", ["rational", "float64"])
    def test_an_equal_copy_gets_its_own_kernel_and_the_same_reports(
            self, builds, backend):
        a = random_rational_set(3, 12, 3)
        if backend == "float64":
            a = PointSet(dim=3, backend=backend,
                         points=[[float(x) for x in p] for p in a.points])
        b = PointSet(dim=a.dim, points=a.points, backend=a.backend)
        assert a == b and a is not b

        def reports(ps):
            return [dataclasses.replace(r, elapsed=0.0) for r in (
                verify_acute(ps), verify_acute(ps, mode="verdict"),
                verify_nonobtuse(ps, mode="verdict"),
                verify_antipodal_witness(ps))]
        ka = kernel(a)
        first = reports(a)
        kb = kernel(b)
        assert kb is not ka
        assert reports(b) == first
        assert builds[0] == (2 if backend == "rational" else 0)

    @pytest.mark.parametrize("backend", ["rational", "float64"])
    def test_the_kept_minimum_cannot_be_changed(self, backend):
        # The unit cube's margin 0 is attained by many angles.
        cube = hypercube_vertices(4, backend)
        gram = kernel(cube)
        kept = gram.minimum()
        args = kept[1]
        assert len(args) > 1 and gram.minimum() is kept
        with pytest.raises(TypeError):
            args[0] = (0, 1, 2)
        with pytest.raises(TypeError):
            args[0][0] = 1
        with pytest.raises(TypeError):
            kept[0] = -1
        want, every = gram.min_dots(range(gram.n))
        assert kept == (want, tuple(every))
        assert verify_acute(cube).witness.indices() == args[0]


class TestKernelSlot:
    def test_the_kept_kernel_dies_with_its_set(self):
        ps = random_rational_set(4, 9, 3)
        verify_acute(ps)
        kept = weakref.ref(kernel(ps))
        assert geometry._last[1] is kept()
        del ps
        assert geometry._last == (None, None)
        assert kept() is None

    def test_another_set_replaces_the_kept_kernel(self):
        a, b = random_rational_set(5, 9, 3), random_rational_set(6, 9, 3)
        kept = weakref.ref(kernel(a))
        kernel(b)
        assert kept() is None and geometry._last[1] is kernel(b)

    def test_a_build_starts_with_an_empty_slot(self, monkeypatch):
        # The kept kernel is dropped before the next one is built, so two
        # kernels are never alive at once.
        seen = []
        init = ExactGram.__init__

        def watched(self, points):
            seen.append(geometry._last)
            init(self, points)
        monkeypatch.setattr(ExactGram, "__init__", watched)
        a, b = random_rational_set(8, 9, 3), random_rational_set(9, 9, 3)
        set_margin(a)
        set_margin(b)
        assert seen == [(None, None)] * 2

    def test_threads_only_ever_get_their_own_sets_kernel(self):
        # Four threads on two cores scan a shared set and their own, with
        # a tiny switch interval: a race may cost builds, never a wrong
        # kernel, so every margin must match its set.
        sets = [random_rational_set(10 + k, 8, 3) for k in range(5)]
        want = [naive_margin(ps.points)[0] for ps in sets]
        wrong = []

        def work(mine):
            for step in range(200):
                k = mine if step % 2 else 0
                try:
                    if set_margin(sets[k])[0] != want[k]:
                        wrong.append(k)
                except Exception as exc:        # a kernel of no set
                    wrong.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(1, 5)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not wrong

    def test_kernel_arrays_are_read_only(self):
        ps = random_rational_set(7, 9, 3)
        sparse = ExactGram(_deep_cube(7, 3, 10 ** 3, 10 ** 4))
        arrays = [kernel(ps).heads, kernel(ps).tails, sparse.heads,
                  sparse.leads.words, sparse.leads.ok,
                  kernel(hypercube_vertices(3, "float64")).arr]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]

    @given(st.integers(0, 10 ** 6), st.integers(3, 4))
    @settings(max_examples=10, deadline=None)
    def test_scans_leave_a_sparse_kernel_unchanged(self, seed, dim):
        # _lead_bounds negates and sorts a gathered copy of the table, never
        # the table itself.
        gram = ExactGram(_deep_cube(seed, dim, 10 ** 3, 10 ** 4))
        before = [a.copy() for a in (gram.heads, gram.tails,
                                     gram.leads.words, gram.leads.ok)]
        gram.min_dots(range(gram.n))
        gram.first_failure(_not_acute)
        gram.max_sqdist()
        after = (gram.heads, gram.tails, gram.leads.words, gram.leads.ok)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))


def _reflect(p):
    """R(p) = (1 - p_1, ..., 1 - p_(d-1), p_d)."""
    return tuple(1 - x for x in p[:-1]) + tuple(p[-1:])


# Coordinates on a coarse grid, so that many dots tie; 1/2 makes points on
# the axis of R, which the mirror permutation fixes.
_grid = st.sampled_from([F(0), F(1), F(1, 2), F(1, 4), F(3, 4), F(1, 3),
                         F(-2, 3), F(5, 7)])


@st.composite
def _mirrored_sets(draw):
    """A shuffled rational set closed under R, at least 3 points, some of
    them on the axis when drawn so."""
    dim = draw(st.integers(2, 4))
    pts = set()
    for p in draw(st.lists(st.tuples(*[_grid] * dim), min_size=1,
                           max_size=5)):
        pts.update((p, _reflect(p)))
    pts.update((F(1, 2),) * (dim - 1) + (h,)
               for h in draw(st.lists(_grid, max_size=2)))
    assume(len(pts) >= 3)
    return draw(st.permutations(sorted(pts)))


class TestMirrorScan:
    """``ExactGram.minimum`` scans one apex per orbit of R when R maps the
    set onto itself. Its minimum must be the one a scan of every apex
    keeps, term for term, with the same lex-ordered angles, and equal the
    naive loops; a set that R does not quite map onto itself is scanned at
    every apex."""

    @staticmethod
    def scanned(points, kind=ExactGram):
        """The kept minimum of a new ``kind`` kernel of ``points``, and the
        apex list that its ``min_dots`` got."""
        gram = kind(points)
        seen = []

        def spy(apexes):
            seen.append(list(apexes))
            return kind.min_dots(gram, seen[-1])
        gram.min_dots = spy
        return gram.minimum(), seen[0]

    @classmethod
    def check(cls, points, oracle=None):
        """``minimum()`` against ``min_dots(range(n))`` on a second kernel
        and, given an ``oracle`` copy of the values, against the naive
        loops; returns the number of apexes scanned."""
        (raw, args), apexes = cls.scanned(points)
        gram = ExactGram(points)
        full, every = gram.min_dots(range(len(points)))
        assert raw.terms == full.terms and args == tuple(every)
        if oracle is not None:
            assert (gram.value(raw), every) == naive_minima(oracle)
        return len(apexes)

    @pytest.mark.parametrize("dim", [5, 6])
    def test_ladder_sets(self, dim):
        pts = construct_full(ConstructionConfig(dim=dim))[0].points
        oracle = [[Dyadic.of(x) for x in p] for p in pts]
        assert self.check(pts, oracle) == len(pts) // 2 + 1

    def test_d6_scans_17_apexes_and_its_kicked_copy_33(self):
        pts = list(construct_full(ConstructionConfig(dim=6))[0].points)
        assert len(self.scanned(pts)[1]) == 17
        pts[3] = (pts[3][0] + Dyadic.pow2(-40),) + pts[3][1:]
        assert len(self.scanned(pts)[1]) == 33

    @given(_mirrored_sets())
    @settings(max_examples=60, deadline=None)
    def test_sets_closed_under_the_reflection(self, pts):
        fixed = sum(_reflect(p) == p for p in pts)
        assert self.check(pts, pts) == (len(pts) + fixed) // 2

    @staticmethod
    def _d5():
        pts = construct_full(ConstructionConfig(dim=5))[0].points
        return [list(p) for p in pts]

    @pytest.mark.parametrize("k", [1, 30, 12000])
    def test_one_coordinate_off_takes_the_full_scan(self, k):
        pts = self._d5()
        pts[2][1] += F(1, 2 ** k)
        assert self.check(pts) == len(pts)

    @pytest.mark.parametrize("k", [1, 30, 12000])
    def test_partners_at_different_heights_take_the_full_scan(self, k):
        pts = self._d5()
        assert _reflect(pts[0]) == tuple(pts[-2])
        pts[-2][-1] += F(1, 2 ** k)
        assert self.check(pts) == len(pts)

    # sigma's x + y == 1 is one merge on the scaled rows, x + y == m;
    # near-misses must still find no sigma.
    @staticmethod
    def _pairs(x, y):
        """Five points in R^3: a pair that R swaps, a point that R fixes,
        and a pair at height 1 whose first coordinates are x and y."""
        half = F(1, 2)
        return [(F(0), F(1, 4), F(0)), (F(1), F(3, 4), F(0)),
                (half, half, F(3)), (x, F(1, 3), F(1)), (y, F(2, 3), F(1))]

    @pytest.mark.parametrize("x, y", [
        (F(1, 5), F(2, 5)),             # equal denominators, sum 3/5
        (F(2, 7), F(4, 7)),
        (F(1, 4), F(3, 8)),             # numerators sum to x's denominator
        (F(3, 8), F(1, 4)),
        (F(1, 3), F(1, 2)),
    ])
    def test_fraction_pairs_that_miss_one_take_the_full_scan(self, x, y):
        pts = self._pairs(x, y)
        assert ExactGram(pts)._sigma is None
        assert self.check(pts, pts) == len(pts)

    def test_fraction_pairs_that_sum_to_one_pair(self):
        pts = self._pairs(F(2, 7), F(5, 7))
        assert ExactGram(pts)._sigma == [1, 0, 2, 4, 3]
        assert self.check(pts, pts) == 3

    def test_sparse_set_mixing_dyadic_and_fraction(self):
        # Values too large for a Fraction beside Fractions, such as the
        # apex's 1/2; a partner may hold the other type, or 1/2 in terms
        # that are not a single power of two.
        tiny = Dyadic.pow2(-100_000)
        one = Dyadic.pow2(0)
        pts = [(tiny, F(1, 4), F(0)), (one - tiny, F(3, 4), F(0)),
               (F(1, 2), Dyadic([(0, 1), (-1, -1)]), F(3)),
               (F(1, 8), one - tiny, tiny),
               (Dyadic([(-2, 3), (-3, 1)]), tiny, tiny)]
        assert ExactGram(pts)._sigma == [1, 0, 2, 4, 3]
        oracle = [[Dyadic.of(x) for x in p] for p in pts]
        assert self.check(pts, oracle) == 3
        pts[4] = (Dyadic([(-2, 3), (-3, 1), (-100_000, 1)]), tiny, tiny)
        assert ExactGram(pts)._sigma is None
        oracle = [[Dyadic.of(x) for x in p] for p in pts]
        assert self.check(pts, oracle) == len(pts)

    @pytest.mark.parametrize("idx", [0, 16])
    def test_kicked_d5_set_takes_the_full_scan(self, idx):
        # A d = 5 set with one point moved within its safe radius, as the
        # benchmark's kicked sets are: no sigma, so every apex is scanned.
        ps, _, report = construct_full(ConstructionConfig(dim=5))
        step = safe_radius(ps, report.margin) / 17
        pts = self._d5()
        pts[idx] = [x + c * step for x, c in zip(pts[idx], (3, -5, 7, 1, 1))]
        assert ExactGram(pts)._sigma is None
        assert self.check(pts) == len(pts)

    @pytest.mark.parametrize("dim", [8, 9])
    def test_sigma_search_is_linear(self, dim, monkeypatch):
        # Each point finds its image by the residues of its values: one
        # exact height comparison and d - 1 merges per antipodal class,
        # none for a point that its partner has already paired.
        cube = construct_acute_cube(ConstructionConfig(dim=dim))[0]
        pts = list(cube.points) + [apex_point(dim)]
        calls = {"cmp": 0, "merge": 0}
        cmp, merge = Dyadic._cmp, geometry.dyadic_diff_sign

        def counted_cmp(x, y):
            calls["cmp"] += 1
            return cmp(x, y)

        def counted_merge(a, b, c):
            calls["merge"] += 1
            return merge(a, b, c)
        monkeypatch.setattr(Dyadic, "_cmp", counted_cmp)
        monkeypatch.setattr(geometry, "dyadic_diff_sign", counted_merge)
        gram = ExactGram(pts)
        n = len(pts)
        assert gram._sigma == [n - 2 - i for i in range(n - 1)] + [n - 1]
        assert calls["cmp"] <= 2 * n
        assert calls["merge"] <= (dim - 1) * n

    @staticmethod
    def brute_sigma(pts):
        """Each point's image found by comparing it with every point, the
        first match taken; None if some point has none."""
        sigma = []
        for p in pts:
            match = [j for j, q in enumerate(pts) if tuple(q) == _reflect(p)]
            if not match:
                return None
            sigma.append(match[0])
        return sigma

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
    def test_sigma_equals_the_brute_force_one(self, dim):
        # An unperturbed cube has every height at 0, so only its other
        # coordinates' residues tell its points apart; a ladder set's
        # heights differ between antipodal classes.
        sets = [hypercube_vertices(dim).points + (apex_point(dim),)]
        if dim >= 5:
            sets.append(construct_full(ConstructionConfig(dim=dim))[0].points)
        for pts in sets:
            sigma = ExactGram(pts)._sigma
            assert sigma is not None and sigma == self.brute_sigma(pts)

    def test_cube_point_without_an_image_has_no_sigma(self):
        # With 3/2 in place of a 1, the point's antipode finds no point
        # under its image's residues, and no point holds -1/2, the image
        # of 3/2.
        pts = [list(p) for p in hypercube_vertices(5).points]
        assert pts[8][:4] == [1, 0, 0, 0]
        pts[8][0] = F(3, 2)
        pts.append(apex_point(5))
        assert self.brute_sigma(pts) is None
        assert ExactGram(pts)._sigma is None
        pts[8][0] = F(1)
        assert ExactGram(pts)._sigma == self.brute_sigma(pts)

    def test_cancelling_zero_height_beside_a_fraction_zero(self):
        # Non-empty terms that sum to 0 have the residue of 0, so the
        # search must still pair the two zero heights.
        zero = Dyadic([(0, 1), (-1, -2)])
        assert zero.terms and zero.sign() == 0
        pts = [(F(0), zero), (F(1), F(0)), (F(1, 2), F(3))]
        assert ExactGram(pts)._sigma == [1, 0, 2]
        oracle = [[Dyadic.of(x) for x in p] for p in pts]
        assert self.check(pts, oracle) == 2

    @pytest.mark.parametrize("a, b", [(F(1, 4), F(3, 4)), (F(1, 3), F(2, 3))])
    def test_residue_collisions_are_compared_exactly(self, a, b):
        # b + P and a - P have the residues of b and a, so each point at
        # height 1 finds two candidates under its image's key, and only
        # the exact check tells them apart; 1/3 and 2/3 scale by m = 3.
        p = sys.hash_info.modulus
        pts = [(b + p, F(1)), (a, F(1)), (a - p, F(1)), (b, F(1)),
               (F(0), F(0)), (F(1), F(0)), (F(1, 2), F(3))]
        assert ExactGram(pts)._sigma == self.brute_sigma(pts) == [
            2, 3, 0, 1, 5, 4, 6]
        assert self.check(pts, pts) == 4
        del pts[2]
        assert ExactGram(pts)._sigma is None
        assert self.check(pts, pts) == len(pts)

    def test_equal_heights_in_different_terms_pair(self):
        tiny = Dyadic.pow2(-100_000)
        pts = [(tiny, F(1, 4), Dyadic([(-1, 1)])),
               (Dyadic.pow2(0) - tiny, F(3, 4), Dyadic([(0, 1), (-1, -1)])),
               (F(1, 2), F(1, 2), F(3))]
        assert ExactGram(pts)._sigma == [1, 0, 2]
        oracle = [[Dyadic.of(x) for x in p] for p in pts]
        assert self.check(pts, oracle) == 2

    def test_float_kernel_scans_every_apex(self):
        # R maps the cube and its apex onto itself, but only the exact
        # kernel looks for sigma.
        pts = (hypercube_vertices(4, "float64").points
               + (apex_point(4, backend="float64"),))
        assert FloatGram(pts)._sigma is None
        (raw, args), apexes = self.scanned(pts, FloatGram)
        assert apexes == list(range(len(pts)))
        full, every = FloatGram(pts).min_dots(range(len(pts)))
        assert (raw, args) == (full, tuple(every))


def _eighths(seed, n, dim, offset=0.0, span=16):
    """n distinct float points with coordinates k/8, |k| <= ``span``, all
    moved by ``offset``. Every difference, product and sum a kernel forms on them is
    exact, so every summation order gives the same bits, and the coarse
    grid ties many dots."""
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(rng.randint(-span, span) / 8 for _ in range(dim)))
    return [tuple(x + offset for x in p) for p in sorted(pts)]


class TestFloatGram:
    """``FloatGram`` takes each apex's minimum from its whole symmetric
    product and the diameter a block of rows at a time. On sets whose
    arithmetic is exact its minimum, witnesses and diameter equal the
    naive loops bit for bit."""

    @staticmethod
    def sets():
        cubes = [hypercube_vertices(d, "float64").points
                 + (apex_point(d, backend="float64"),) for d in (2, 3, 4, 5)]
        grids = [_eighths(seed, n, dim, span=span)
                 for seed, (n, dim, span) in enumerate([
                     (3, 1, 16), (9, 1, 16), (5, 2, 16), (17, 2, 16),
                     (12, 3, 16), (33, 4, 16), (40, 6, 16), (8, 2, 1),
                     (20, 3, 1), (30, 4, 1), (24, 5, 1)])]
        return [[tuple(x + offset for x in p) for p in pts]
                for pts in cubes + grids for offset in (0.0, 1e7)]

    @pytest.mark.parametrize("block", [None, 1, 50])
    def test_equals_the_naive_loops(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(geometry, "_FLOAT_BLOCK", block)
        ties = 0
        for pts in self.sets():
            gram = FloatGram(pts)
            low, every = naive_minima(pts)
            assert gram.min_dots(range(len(pts))) == (low, every)
            assert gram.minimum() == (low, tuple(every))
            assert gram.max_sqdist() == naive_sqdiam(pts)
            ties += len(every) > 1
        assert ties >= 10

    def test_every_product_is_bitwise_symmetric(self):
        # min_dots reads each angle from the whole product, so the lower
        # triangle must repeat the upper one bit for bit; the uint64 view
        # tells signed zeros and NaN payloads apart.
        overflowing = [(1e308, 0.0), (-1e308, 0.0), (0.0, 1e308),
                       (1.0, -1e308)]
        sets = [np.asarray(pts, dtype=np.float64)
                for pts in self.sets() + [overflowing]]
        rng = np.random.default_rng(5)
        sets += [rng.standard_normal((n, dim)) + offset
                 for n, dim, offset in itertools.product(
                     (3, 4, 9, 17, 64, 129, 257, 513), range(2, 13),
                     (0.0, 1e7))]
        checked = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for arr in sets:
                for q in {0, len(arr) // 2, len(arr) - 1}:
                    diffs = arr - arr[q]
                    bits = (diffs @ diffs.T).view(np.uint64)
                    assert np.array_equal(bits, bits.T)
                    checked += 1
        assert checked > 500

    @pytest.mark.parametrize("block", [None, 7, 1000])
    def test_diameter_over_many_blocks(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(geometry, "_FLOAT_BLOCK", block)
        for offset in (0.0, 1e7):
            pts = _eighths(7, 300, 3, offset)
            assert FloatGram(pts).max_sqdist() == naive_sqdiam(pts)

    def test_overflowing_set_keeps_its_results(self):
        # The results this set gave when every apex's product was
        # gathered and the diameter taken one row at a time: differences
        # overflow to inf, and two apexes see a dot of -inf.
        pts = [(1e308, 0.0), (-1e308, 0.0), (0.0, 1e308), (1.0, -1e308)]
        gram = FloatGram(pts)
        with np.errstate(over="ignore", invalid="ignore"):
            assert gram.min_dots(range(4)) == (-math.inf,
                                               [(2, 0, 1), (3, 0, 1)])
        assert gram.max_sqdist() == math.inf


def _filter_sets():
    """One set of each shape of TestLeadingTermFilter."""
    e = -1000
    a = Dyadic([(e + 1, 1), (e - 2, -3)])
    b = Dyadic([(e, 1), (e - 3, 3)])
    heavy = _deep_cube(5, 4, 10 ** 3, 10 ** 4)
    heavy[0] = (Dyadic([(-1500, 2 ** 13 + 1)]),) + heavy[0][1:]
    return [_deep_cube(1, 4, 10 ** 3, 10 ** 6),
            _deep_cube(2, 4, 2000, 2003, coefs=(-7, -5, 5, 7)),
            [perturb_vertex(v, Dyadic.pow2(-5000))
             for v in hypercube_vertices(4).points] + [_apex(4)],
            _two_levels(4, 3000, 5),
            [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (a, F(1), F(0)),
             (b, F(1, 2), F(1))],
            [(F(2) ** (-100 + d),) for d in (0, -5, -8, -12, -17)],
            heavy]


class TestBuildBlocks:
    """The build ranks the pair sums by a merge and forms its runs, heads
    and leading-term table a block of ``_BLOCK`` products at a time: any
    block size must build the same kernel, bit for bit, and the build's
    peak must stay near what it keeps."""

    @given(st.lists(st.one_of(st.integers(-40, 40),
                              st.integers(-2 ** 200, 2 ** 200)),
                    max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_ranks_equal_a_sort_of_every_pair_sum(self, xs):
        # Small exponents tie often; each distinct sum keeps the pair with
        # the least r, and its gap to the sum below capped at _GAP_CAP.
        exps = sorted(set(xs))
        table, lo, hi, gaps = _pair_sums(exps)
        sums = sorted({x + y for x in exps for y in exps})
        pairs = list(zip(lo.tolist(), hi.tolist()))
        assert [exps[r] + exps[c] for r, c in pairs] == sums
        assert all(r <= c for r, c in pairs)
        for r, c in pairs:
            assert not any(exps[x] + exps[y] == exps[r] + exps[c]
                           for x in range(r) for y in range(len(exps)))
        for r, c in itertools.product(range(len(exps)), repeat=2):
            assert sums[table[r, c]] == exps[r] + exps[c]
        assert gaps.tolist() == [min(y - x, _GAP_CAP)
                                 for x, y in zip(sums[:1] + sums, sums)]

    @staticmethod
    def built(points):
        gram = ExactGram(points)
        leads = gram.leads
        raw, args = gram.minimum()
        return (gram.heads.tobytes(), gram.tails.tobytes(),
                None if leads is None else (
                    leads.words.shape, leads.words.tobytes(),
                    leads.ok.tobytes(), leads.bits),
                raw.terms, args, [[x.terms for x in row] for row in gram.g])

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_every_block_size_builds_the_same_kernel(self, block,
                                                     monkeypatch):
        sets = [construct_full(ConstructionConfig(dim=d))[0].points
                for d in (5, 6, 7, 8)] + [_kicked_d5(32)] + _filter_sets()
        want = [self.built(pts) for pts in sets]
        assert all(w[2] is not None for w in want)
        monkeypatch.setattr(geometry, "_BLOCK", block)
        for pts, w in zip(sets, want):
            assert self.built(pts) == w

    def test_build_peak_stays_near_what_it_keeps(self):
        # The d = 8 ladder build peaks 0.54 MB above what it keeps
        # (tracemalloc); the bound, 1 MiB, is about twice that. A build
        # that holds a list of every pair sum, or temporaries over all the
        # runs at once, peaks about 2.1 MB above.
        points = construct_full(ConstructionConfig(dim=8))[0].points
        ExactGram(points)                   # numpy's first-call allocations
        tracemalloc.start()
        try:
            gram = ExactGram(points)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gram.leads is not None
        assert peak - kept < 1 << 20
