from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acuta import Dyadic, ScalarError
from acuta.scalars import as_exact, head_split


dyadic_terms = st.lists(
    st.tuples(st.integers(-40, 40), st.integers(-50, 50)), max_size=5)
dyadic_fractions = st.builds(
    lambda n, k: Fraction(n, 2 ** k), st.integers(-10 ** 6, 10 ** 6),
    st.integers(0, 30))


def dyadic_value(terms):
    return Dyadic(terms), sum((Fraction(c) * Fraction(2) ** e
                               for e, c in terms), Fraction(0))


class TestDyadicAgainstFraction:
    @given(dyadic_terms, dyadic_terms)
    @settings(max_examples=200)
    def test_arithmetic(self, t1, t2):
        (a, fa), (b, fb) = dyadic_value(t1), dyadic_value(t2)
        assert (a + b).to_fraction() == fa + fb
        assert (a - b).to_fraction() == fa - fb
        assert (a * b).to_fraction() == fa * fb
        assert (-a).to_fraction() == -fa

    @given(dyadic_terms, dyadic_terms)
    @settings(max_examples=200)
    def test_sign_order_equality_hash(self, t1, t2):
        (a, fa), (b, fb) = dyadic_value(t1), dyadic_value(t2)
        assert a.sign() == (fa > 0) - (fa < 0)
        assert (a < b, a <= b, a > b, a >= b) == (fa < fb, fa <= fb,
                                                 fa > fb, fa >= fb)
        assert (a == b) == (fa == fb)
        assert a == fa and fa == a
        assert hash(a) == hash(fa)

    @given(dyadic_terms, dyadic_fractions)
    @settings(max_examples=100)
    def test_mixes_with_fractions_and_ints(self, t, q):
        a, fa = dyadic_value(t)
        assert a + q == fa + q and q - a == q - fa and a * 3 == fa * 3
        assert (a < q) == (fa < q) and (q < a) == (q < fa)

    @given(dyadic_terms, st.fractions(max_denominator=99))
    @settings(max_examples=100)
    def test_non_dyadic_fractions_compare_exactly(self, t, q):
        a, fa = dyadic_value(t)
        assert (a < q, a == q, a > q) == (fa < q, fa == q, fa > q)
        assert a + q == fa + q

    @given(dyadic_terms)
    @settings(max_examples=100)
    def test_floor_log2(self, t):
        a, fa = dyadic_value(t)
        if fa == 0:
            return
        e = a.floor_log2()
        assert Fraction(2) ** e <= abs(fa) < Fraction(2) ** (e + 1)

    def test_sign_across_huge_gaps(self):
        one = Dyadic.pow2(0)
        tiny = Dyadic.pow2(-10 ** 30)
        assert (one - tiny).sign() == 1
        assert (tiny - Dyadic.pow2(-10 ** 30 - 1)).sign() == 1
        assert (one - one + tiny).sign() == 1
        x = one - tiny
        assert x.floor_log2() == -1 and (x - one).floor_log2() == -10 ** 30
        assert hash(tiny) == hash(Dyadic.pow2(-10 ** 30))
        assert tiny > 0 and tiny != 0

    def test_values_too_large_for_fraction_refuse_to_convert(self):
        tiny = Dyadic.pow2(-10 ** 8)
        assert not tiny.fits_fraction()
        with pytest.raises(ScalarError):
            tiny.to_fraction()
        with pytest.raises(ScalarError):
            tiny + Fraction(1, 3)      # would need a dense Fraction
        assert tiny < Fraction(1, 3)   # comparison stays exact and cheap

    def test_as_exact_keeps_fractions_where_they_fit(self):
        assert as_exact(Dyadic([(-5, 3)])) == Fraction(3, 32)
        assert isinstance(as_exact(Dyadic([(-5, 3)])), Fraction)
        assert isinstance(as_exact(Dyadic.pow2(-10 ** 8)), Dyadic)


def exact_value(terms):
    return sum((c * Fraction(2) ** e for e, c in terms), Fraction(0))


def brackets(terms, shift, h, t):
    """h <= (sum of c * 2**e) * 2**shift <= h + t, in integers scaled by
    2**-low (a Fraction check would spend its time in gcds of 10**6 bits)."""
    low = min([0] + [e + shift for e, _ in terms])
    x = sum(c << (e + shift - low) for e, c in terms)
    return h << -low <= x <= (h + t) << -low


big_terms = st.lists(st.tuples(
    st.one_of(st.integers(-60, 60), st.integers(-10 ** 6 - 60, -10 ** 6 + 60),
              st.integers(10 ** 6 - 60, 10 ** 6 + 60)),
    st.integers(-2 ** 300, 2 ** 300)), max_size=5)


class TestHeadSplit:
    """head_split(x, H) = (h, t) must bracket x * 2**H in [h, h + t]."""

    @given(st.integers(-2 ** 300, 2 ** 300), st.integers(-400, 400))
    @settings(max_examples=200)
    def test_ints(self, x, shift):
        h, t = head_split(Dyadic.of(x), shift)
        assert h <= x * Fraction(2) ** shift <= h + t

    @given(big_terms, st.integers(-10 ** 6 - 400, 10 ** 6 + 400))
    @settings(max_examples=100, deadline=None)
    def test_dyadics_with_big_coefficients_and_exponents(self, terms, shift):
        assert brackets(terms, shift, *head_split(Dyadic(terms), shift))

    @given(st.integers(-2 ** 300, 2 ** 300).filter(bool), st.integers(-80, 80),
           st.integers(-400, 40), big_terms)
    @settings(max_examples=100, deadline=None)
    def test_dyadics_that_cancel_to_zero(self, c, e, shift, terms):
        # c * 2**(e + 1) - 2c * 2**e keeps two terms that sum to zero.
        zero = Dyadic([(e + 1, c), (e, -2 * c)])
        assert len(zero.terms) == 2 and zero.sign() == 0
        h, t = head_split(zero, shift)
        assert h <= 0 <= h + t
        x = Dyadic(terms + [(e + 1, c), (e, -2 * c)])
        assert brackets(terms, shift, *head_split(x, shift))
