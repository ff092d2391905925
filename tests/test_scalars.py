import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acuta import Dyadic, ScalarError
from acuta.scalars import _Reduced, as_exact, floor_log2, head_split


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

    @pytest.mark.parametrize("op", [
        lambda a, q: a - q, lambda a, q: q - a, lambda a, q: a * q,
        lambda a, q: q * a,
    ], ids=["dyadic-minus", "minus-dyadic", "dyadic-times", "times-dyadic"])
    def test_non_dyadic_fractions_fall_back_to_fractions(self, op):
        a, fa = dyadic_value([(3, 5), (-4, -1)])
        q = Fraction(1, 3)
        r = op(a, q)
        assert type(r) is Fraction and r == op(fa, q)

    @pytest.mark.parametrize("call, message", [
        (lambda: Dyadic.of(Fraction(1, 3)), "not a dyadic rational"),
        (lambda: floor_log2(Dyadic()), "log2 of zero"),
    ], ids=["of-a-third", "floor_log2-of-zero"])
    def test_refusals(self, call, message):
        with pytest.raises(ScalarError, match=message):
            call()

    @given(st.one_of(dyadic_terms.map(Dyadic), st.integers(), st.fractions(),
                     st.floats(allow_nan=False, allow_infinity=False)))
    @settings(max_examples=300)
    def test_floor_log2(self, x):
        # Exact for an int, float, Fraction or Dyadic; zero is refused.
        f = x.to_fraction() if isinstance(x, Dyadic) else Fraction(x)
        if f == 0:
            with pytest.raises(ScalarError, match="log2 of zero"):
                floor_log2(x)
        else:
            e = floor_log2(x)
            assert Fraction(2) ** e <= abs(f) < Fraction(2) ** (e + 1)

    def test_sign_across_huge_gaps(self):
        one = Dyadic.pow2(0)
        tiny = Dyadic.pow2(-10 ** 30)
        assert (one - tiny).sign() == 1
        assert (tiny - Dyadic.pow2(-10 ** 30 - 1)).sign() == 1
        assert (one - one + tiny).sign() == 1
        x = one - tiny
        assert floor_log2(x) == -1 and floor_log2(x - one) == -10 ** 30
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


# Exponents near 0 and 48 000 bits below, as in a kicked d = 5 set.
gap_terms = st.lists(st.tuples(
    st.one_of(st.integers(-40, 40), st.integers(-48_040, -47_960)),
    st.integers(-2 ** 70, 2 ** 70)), max_size=5)
odd = st.integers(0, 2 ** 20).map(lambda k: 2 * k + 1)
dens = st.one_of(st.just(1), odd, st.builds(lambda o, k: o << k, odd,
                                             st.integers(1, 60)))


class TestLowestTerms:
    """Dyadic.over and to_fraction reduce without a gcd of long numbers;
    Fraction(n, d)'s own gcd is the reference."""

    @given(gap_terms, dens, st.integers(-48_000, 40), st.integers(-50, 50))
    @example([], 1, 0, 0)
    @example([(0, 1), (-1, -2)], 4, 0, 0)
    @example([(0, 1), (-1, -2)], 1, 0, 0)
    @settings(max_examples=200, deadline=None)
    def test_over_and_to_fraction_match_fraction(self, terms, den, e0, c0):
        # (e0 + 1, c0) and (e0, -2 c0) cancel across exponents.
        x = Dyadic(terms + [(e0 + 1, c0), (e0, -2 * c0)])
        low = min([0] + [e for e, _ in x.terms])
        n = sum(c << (e - low) for e, c in x.terms)
        for got, want in ((x.over(den), Fraction(n, den << -low)),
                          (x.to_fraction(), Fraction(n, 1 << -low))):
            assert type(got) is Fraction
            assert got.numerator == want.numerator
            assert got.denominator == want.denominator
            assert hash(got) == hash(want)

    def test_fraction_copies_a_rationals_terms(self):
        # over relies on this CPython behaviour: Fraction(r) takes a
        # numbers.Rational's numerator and denominator as they are.
        f = Fraction(_Reduced(6, 4))
        assert (f.numerator, f.denominator) == (6, 4)


class TestHashAndShortcuts:
    """A Dyadic caches its hash, and compares with itself and with the int
    0 without a merge; neither may change an answer."""

    @given(st.one_of(dyadic_terms, gap_terms))
    @settings(max_examples=200, deadline=None)
    def test_cached_hash_is_the_fractions(self, terms):
        x = Dyadic(terms)
        first = hash(x)
        assert first == hash(x.to_fraction())
        assert hash(x) == hash(x) == first
        assert hash(-x) == hash(-x.to_fraction())

    @given(st.one_of(dyadic_terms, gap_terms), st.integers(1, 70),
           st.integers(-48_040, 40), st.integers(-50, 50))
    @example([], 1, 0, 1)
    @settings(max_examples=200, deadline=None)
    def test_equal_values_in_other_terms_hash_alike(self, terms, k, e0, c0):
        # c * 2**e as (c << k) * 2**(e - k), and a pair of terms that
        # cancels across exponents: the same value in other terms.
        x = Dyadic(terms)
        y = Dyadic([(e - k, c << k) for e, c in terms]
                   + [(e0 + 1, c0), (e0, -2 * c0)])
        assert x == y and hash(x) == hash(y)
        assert -x == -y and hash(-x) == hash(-y) == hash(-x.to_fraction())

    @given(st.one_of(dyadic_terms, gap_terms), st.integers(1, 70),
           st.integers(-48_040, 40), st.integers(-50, 50))
    @example([(-100, 3), (-7, -1)], 1, -200, 5)     # negative exponents
    @example([(0, 1), (-1, -2)], 3, 0, 1)           # terms that cancel to 0
    @settings(max_examples=200, deadline=None)
    def test_residue_is_the_value_mod_p(self, terms, k, e0, c0):
        # The same value in other terms, as in the hash test above.
        x = Dyadic(terms)
        y = Dyadic([(e - k, c << k) for e, c in terms]
                   + [(e0 + 1, c0), (e0, -2 * c0)])
        f = x.to_fraction()
        p = sys.hash_info.modulus
        assert x.residue() == y.residue() == (
            f.numerator * pow(f.denominator, -1, p) % p)

    def test_one_in_other_terms(self):
        for x in (Dyadic([(-1, 2)]), Dyadic([(1, 1), (0, -1)])):
            assert x == 1 and hash(x) == hash(1) == hash(Fraction(1))
            assert hash(-x) == hash(-1) == hash(Fraction(-1))

    @given(st.one_of(dyadic_terms, gap_terms))
    @settings(max_examples=200, deadline=None)
    def test_self_and_zero_compare_by_sign(self, terms):
        x = Dyadic(terms)
        s = x.sign()
        assert x == x and x <= x and x >= x
        assert not (x != x or x < x or x > x)
        assert (x < 0, x == 0, x > 0) == (s < 0, s == 0, s > 0)
        assert (x <= 0, x >= 0, x != 0) == (s <= 0, s >= 0, s != 0)
        assert (0 < x, 0 == x, 0 > x) == (s > 0, s == 0, s < 0)
        # The same answers through a merge: a zero Dyadic, and a copy.
        assert (x < Dyadic(), x == Dyadic(), x > Dyadic()) == (
            s < 0, s == 0, s > 0)
        assert x == Dyadic(x.terms) and not x < Dyadic(x.terms)


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
