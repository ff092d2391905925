"""Exact scalars for geometric predicates.

Two backends are supported: exact rationals (``"rational"``) and IEEE-754
doubles (``"float64"``). Exact values are :class:`fractions.Fraction`, or
:class:`Dyadic` where a value is too large for a dense Fraction (the scale
ladder for d >= 6 needs exponents around 2**-(10**8) and beyond); a point
set that holds such a value keeps all of its Dyadic values sparse. All
predicates downstream work with squared distances and inner products, so no
square roots appear anywhere and exact values are never rounded. float64
values are plain floats; the strict margin that float checks demand is
set in :mod:`acuta.verify`.
"""
from __future__ import annotations

import math
import numbers
import operator
import sys
from fractions import Fraction
from typing import Literal, Union

Backend = Literal["rational", "float64"]

RATIONAL: Backend = "rational"
FLOAT64: Backend = "float64"


class ScalarError(ValueError):
    """Raised for invalid scalar values or mixed-backend operations."""


# Largest exact value, in bits of numerator plus denominator, that is kept
# as a dense Fraction. The d = 5 ladder needs about 24 000 bits; d = 6 needs
# about 10**8, which only the sparse form can hold.
FRACTION_BITS = 1 << 16

_HASH_P = sys.hash_info.modulus          # 2**k - 1, so 2**e == 2**(e % k)
_HASH_K = _HASH_P.bit_length()


def _lead(terms, rest=None):
    """Leading part of a term list sorted by exponent, descending.

    Returns ``(r, cur, idx)`` with value = r * 2**cur + tail, where tail is
    the sum of ``terms[idx:]`` and |tail| < 2**(cur - 1). Terms are folded
    into the integer r until the gap to the next exponent exceeds the bit
    length of the remaining coefficient mass, so r stays small however far
    apart the exponents are. r == 0 only when the whole value is zero.
    ``rest`` may pass any upper bound on the sum of |c|.
    """
    if rest is None:
        rest = sum(abs(c) for _, c in terms)
    r = 0
    cur = terms[0][0] if terms else 0
    for idx, (e, c) in enumerate(terms):
        g = cur - e
        if r and g > rest.bit_length():
            return r, cur, idx
        r = (r << g) + c
        cur = e
        rest -= abs(c)
    return r, cur, len(terms)


def _sign(terms, rest=None) -> int:
    if not terms:
        return 0
    r = _lead(terms, rest)[0]
    return (r > 0) - (r < 0)


def _sorted_terms(acc: dict) -> tuple:
    return tuple(sorted(((e, c) for e, c in acc.items() if c), reverse=True))


def dyadic_diff_sign(a: "Dyadic", b: "Dyadic", c: "Dyadic") -> int:
    """Exactly sign(a - b - c), merging the three term lists in one pass."""
    acc = dict(a.terms)
    get = acc.get
    for e, x in b.terms:
        acc[e] = get(e, 0) - x
    for e, x in c.terms:
        acc[e] = get(e, 0) - x
    terms = [(e, acc[e]) for e in sorted(acc, reverse=True) if acc[e]]
    return _sign(terms, a.mass + b.mass + c.mass)


def head_split(x: "Dyadic", shift: int):
    """Integer head ``h`` and tail count ``t`` with
    ``h <= x * 2**shift <= h + t``.

    Each term c * 2**e adds ``c << (e + shift)`` to h exactly when
    e + shift >= 0, and its floor ``c >> -(e + shift)`` otherwise; a floored
    term falls short of its value by less than 1, and t counts the floored
    terms. Any shift is sound; it only decides how much of x the head holds.
    """
    h = t = 0
    for e, c in x.terms:
        s = e + shift
        if s >= 0:
            h += c << s
        else:
            h += c >> -s
            t += 1
    return h, t


class Dyadic:
    """An exact sparse dyadic rational: a finite sum of terms ``c * 2**e``.

    Coefficients and exponents are Python integers, so 2**-(10**31) costs a
    few machine words instead of a dense integer of 10**31 bits. Values
    equal, hash and order exactly like the :class:`Fraction` of the same
    value, and mix with ints and Fractions. The sign is decided exactly from
    the leading terms (see :func:`_lead`). An operation with a non-dyadic
    Fraction falls back to Fraction arithmetic, which works only while the
    value fits :data:`FRACTION_BITS`; comparisons never need that fallback.
    """

    __slots__ = ("terms", "mass")

    def __init__(self, terms=()):
        acc: dict = {}
        for e, c in terms:
            acc[e] = acc.get(e, 0) + c
        self._set(_sorted_terms(acc))

    def _set(self, terms: tuple) -> None:
        self.terms = terms              # (e, c), e descending, c != 0
        self.mass = sum(abs(c) for _, c in terms)

    @classmethod
    def _of_acc(cls, acc: dict) -> "Dyadic":
        out = cls.__new__(cls)
        out._set(_sorted_terms(acc))
        return out

    @classmethod
    def pow2(cls, e: int) -> "Dyadic":
        """The value ``2**e``."""
        return cls(((e, 1),))

    @classmethod
    def of(cls, x) -> "Dyadic":
        """Convert an int, a dyadic Fraction or a Dyadic; else ScalarError."""
        d = _as_dyadic(x)
        if d is None:
            raise ScalarError(f"{x!r} is not a dyadic rational")
        return d

    # -- exact queries ----------------------------------------------------

    def sign(self) -> int:
        return _sign(self.terms, self.mass)

    def floor_log2(self) -> int:
        """floor(log2 |x|), exactly; ScalarError for zero."""
        t = self.terms
        r, cur, idx = _lead(t) if t else (0, 0, 0)
        if r == 0:
            raise ScalarError("log2 of zero")
        m = abs(r)
        f = m.bit_length() - 1 + cur
        # |x| lies within half a unit of m * 2**cur; only a power of two
        # pulled down by a tail of the opposite sign drops a binade.
        if m & (m - 1) == 0 and _sign(t[idx:]) == -_sign(t):
            f -= 1
        return f

    def fits_fraction(self) -> bool:
        t = self.terms
        return not t or max(t[0][0], 0) - min(t[-1][0], 0) <= FRACTION_BITS

    def to_fraction(self) -> Fraction:
        """The same value as a Fraction; ScalarError if it is too large."""
        t = self.terms
        if not self.fits_fraction():
            raise ScalarError(
                f"dyadic value spans exponents 2**{t[-1][0]}..2**{t[0][0]}, "
                f"beyond the {FRACTION_BITS}-bit limit of a dense Fraction")
        return self.over(1)

    def over(self, den: int) -> Fraction:
        """The Fraction self / den, for an int den > 0, whatever its size.

        Linear in the bits of self for a den of a few words: with
        self = n * 2**lo, the common power of two leaves by shifts and the
        rest of the common factor is gcd(den, n % den), so no gcd of two
        long numbers is taken.
        """
        t = self.terms
        lo = t[-1][0] if t else 0
        n = sum(c << (e - lo) for e, c in t)
        if not n:       # terms may cancel: 1 - 2 * 2**-1
            return Fraction(0)
        z = (n & -n).bit_length() - 1
        k = (den & -den).bit_length() - 1
        n >>= z
        den >>= k
        lo += z - k
        g = math.gcd(den, n % den)
        if g > 1:
            n //= g
            den //= g
        # n and den are odd and coprime now
        if lo >= 0:
            return Fraction(_Reduced(n << lo, den))
        return Fraction(_Reduced(n, den << -lo))

    # -- arithmetic -------------------------------------------------------

    def _combine(self, other, sgn: int) -> "Dyadic":
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + sgn * c
        return Dyadic._of_acc(acc)

    def _fallback(self, other, op, reflected: bool):
        if isinstance(other, Fraction):
            mine = self.to_fraction()
            return op(other, mine) if reflected else op(mine, other)
        return NotImplemented

    def __add__(self, other):
        o = _as_dyadic(other)
        if o is None:
            return self._fallback(other, operator.add, False)
        return self._combine(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_dyadic(other)
        if o is None:
            return self._fallback(other, operator.sub, False)
        return self._combine(o, -1)

    def __rsub__(self, other):
        o = _as_dyadic(other)
        if o is None:
            return self._fallback(other, operator.sub, True)
        return o._combine(self, -1)

    def __mul__(self, other):
        o = _as_dyadic(other)
        if o is None:
            return self._fallback(other, operator.mul, False)
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in o.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return Dyadic._of_acc(acc)

    __rmul__ = __mul__

    def __neg__(self) -> "Dyadic":
        out = Dyadic.__new__(Dyadic)
        out._set(tuple((e, -c) for e, c in self.terms))
        return out

    # -- comparison and hashing -------------------------------------------

    def _cmp(self, other):
        """sign(self - other), or None for a type that cannot be compared."""
        o = _as_dyadic(other)
        if o is not None:
            return self._combine(o, -1).sign()
        if isinstance(other, Fraction):
            # x < p/q  <=>  x*q < p, and x*q is dyadic again
            return (self * other.denominator - other.numerator).sign()
        return None

    def __eq__(self, other):
        if isinstance(other, Fraction) and _as_dyadic(other) is None:
            return False
        s = self._cmp(other)
        return NotImplemented if s is None else s == 0

    def __lt__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s >= 0

    def __bool__(self) -> bool:
        return self.sign() != 0

    def __hash__(self) -> int:
        # Python hashes a rational x as |x| mod P, negated for x < 0; P is
        # a Mersenne prime, so 2**e reduces to 2**(e mod k) for any e.
        r = sum(c * pow(2, e % _HASH_K, _HASH_P)
                for e, c in self.terms) % _HASH_P
        if self.sign() < 0:
            r = -((-r) % _HASH_P)
        return -2 if r == -1 else r

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*2**{e}" for e, c in self.terms) or "0"
        return f"Dyadic({body})"


class _Reduced:
    """A numerator and a denominator > 0 already in lowest terms.

    ``Fraction(r)`` copies the two from any :class:`numbers.Rational`,
    which must keep them in lowest terms, and so takes no gcd.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator = numerator
        self.denominator = denominator


numbers.Rational.register(_Reduced)


def _as_dyadic(x):
    if isinstance(x, Dyadic):
        return x
    if isinstance(x, int):
        return Dyadic._of_acc({0: x})
    if isinstance(x, Fraction):
        q = x.denominator
        if q & (q - 1) == 0:
            return Dyadic._of_acc({1 - q.bit_length(): x.numerator})
    return None


def as_exact(x) -> Union[Fraction, Dyadic]:
    """Canonical exact value: a Fraction, or a Dyadic too large for one.

    This is the rule for a single value. A :class:`~acuta.geometry.PointSet`
    applies it per set: a set that holds any Dyadic too large for a Fraction
    keeps all of its Dyadic values sparse, so that its Gram entries stay
    short sums of small terms; every other set holds Fractions only.
    """
    if isinstance(x, Dyadic):
        return x.to_fraction() if x.fits_fraction() else x
    return Fraction(x)


RawScalar = Union[Fraction, Dyadic, float]
