import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acuta import (Dyadic, GeometryError, PointSet, TripleWitness,
                   dot_at_apex, set_margin, squared_diameter, triangle_margin)
from acuta.geometry import ExactGram
from conftest import (naive_first_failure, naive_margin, naive_minima,
                      naive_slab, random_rational_points, random_rational_set)

F = Fraction


def rat_ps(*rows, dim=None):
    pts = tuple(tuple(F(x) for x in row) for row in rows)
    return PointSet(dim=dim or len(pts[0]), points=pts, backend="rational")


class TestBasics:
    def test_dot_at_apex(self):
        q, p, r = (F(0), F(0)), (F(1), F(0)), (F(0), F(1))
        assert dot_at_apex(q, p, r) == 0
        assert dot_at_apex(p, q, r) == 1

    def test_tall_triangle_margin(self):
        m = triangle_margin((F(0), F(0)), (F(2), F(0)), (F(1), F(10)))
        assert m == 2

    def test_coincident_points_raise(self):
        with pytest.raises(GeometryError):
            triangle_margin((F(0), F(0)), (F(0), F(0)), (F(1), F(1)))

    def test_collinear_is_allowed_with_nonpositive_margin(self):
        m = triangle_margin((F(0), F(0)), (F(1), F(0)), (F(2), F(0)))
        assert m <= 0

    def test_squared_diameter(self):
        ps = rat_ps((0, 0), (3, 4))
        assert squared_diameter(ps) == 25

    def test_duplicates_rejected(self):
        with pytest.raises(GeometryError):
            rat_ps((0, 0), (1, 1), (0, 0))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            PointSet(dim=3, points=((F(0), F(0)),), backend="rational")

    def test_nonfinite_float_rejected(self):
        with pytest.raises(GeometryError):
            PointSet(dim=2, points=((0.0, math.inf),), backend="float64")

    def test_witness_indices_distinct(self):
        with pytest.raises(GeometryError):
            TripleWitness(1, 1, 2, F(0))

    def test_set_margin_needs_three_points(self):
        with pytest.raises(GeometryError):
            set_margin(rat_ps((0, 0), (1, 1)))


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
    @given(st.integers(0, 10 ** 6), st.permutations([0, 1, 2]))
    @settings(max_examples=40)
    def test_triangle_margin_symmetric_under_permutation(self, seed, perm):
        import random
        pts = random_rational_points(random.Random(seed), 3, 3)
        permuted = tuple(pts[i] for i in perm)
        assert triangle_margin(*permuted) == triangle_margin(*pts)

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
        # runs on both representations of the kernel.
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

    def test_huge_dyadic_cannot_mix_with_non_dyadic_values(self):
        pts = [(Dyadic.pow2(-10 ** 8), F(0)), (F(1, 3), F(0)), (F(0), F(1))]
        with pytest.raises(GeometryError):
            ExactGram(pts)


def _not_acute(dot):
    return not dot > 0


def _obtuse(dot):
    return dot < 0


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
    def check(points, sparse=False):
        gram = ExactGram([[Dyadic.of(x) for x in p] for p in points]
                         if sparse else points)
        n = len(points)
        raw, args = gram.min_dots(range(n))
        assert (gram.value(raw), args) == naive_minima(points)
        raw, witness = gram.min_slab()
        assert (gram.value(raw), witness) == naive_slab(points)
        assert gram.value(gram.max_sqdist()) == max(
            dot_at_apex(p, r, r) for p, r in itertools.combinations(points, 2))
        for rule in (_not_acute, _obtuse):
            checked, angle, dot = gram.first_failure(rule)
            dot = None if dot is None else gram.value(dot)
            assert (checked, angle, dot) == naive_first_failure(points, rule)

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
        assert ExactGram(pts).tails.min() == 1      # every head is floored
        self.check(pts)
        m, w = set_margin(PointSet(dim=dim, points=pts, backend="rational"))
        assert (m, w.indices()) == naive_margin(pts)

    @given(st.integers(0, 10 ** 6), st.integers(2, 3))
    @settings(max_examples=25, deadline=None)
    def test_dyadic_dots_that_differ_below_the_heads(self, seed, dim):
        pts = _fine_cube(seed, dim)
        assert ExactGram([[Dyadic.of(x) for x in p] for p in pts]).tails.any()
        self.check(pts, sparse=True)
