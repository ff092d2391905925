"""Points, point sets, and acuteness margins.

Everything here is phrased in squared quantities: the margin of a triangle is
the smallest of its three apex inner products, so a configuration is acute
exactly when its margin is positive and right angles show up as margin zero.

Every scan (the apex minimum, which margins, verdicts and slabs all read;
diameters; the construction guard) runs on one kernel per backend, chosen
by :func:`kernel`. Exact sets use
:class:`ExactGram`: every coordinate becomes a sparse :class:`Dyadic` (a
Fraction set's scaled by the lcm of its denominators' odd parts), the Gram
matrix is built once and each apex inner product is a 4-term sum of its
entries. The build runs in rank space: every entry is a run of int64
(rank of its exponent among all pair sums, coefficient) pairs formed in
numpy, and only the entries an exact test touches become Dyadic objects.
Two filters settle most of the sums in numpy first, and only dots neither
can decide reach the exact sparse sign test:

* an int64 **head filter**: every entry x carries a head h and a count t
  of floored terms with x * 2**H in [h, h + t], so each dot times 2**H
  lies within R, the sum of its four counts, of D, the sum of its four
  heads. The bound holds for any H, since flooring a term loses less than
  1 and never adds.
* a **leading-term filter** on the dots the heads leave: with v * 2**p the leading term of a dot's merged
  terms and everything after it summing to less than 2**(p - 1) in size
  (its gap to the next term exceeds the bit length of the mass after it),
  the dot lies strictly inside ((2v - 1) * 2**(p - 1), (2v + 1) * 2**(p - 1)).
  Exponents become int64 positions that keep their order and each gap up
  to a cap C, which is at least the bit length of every 2v +- 1 and of
  every mass, so every comparison the filter makes comes out as with the
  true exponents.

float64 sets use :class:`FloatGram`, which takes every inner product
between differences from the apex.

Both kernels sweep for a first failing angle in one method and one order,
:meth:`_Kernel.first_failure`; the exact kernel's filters name, per chunk
of the sweep, only the angles whose sign may fail.

Consecutive scans of one :class:`PointSet` object share its kernel:
:func:`kernel` keeps the last set's kernel, and at most that one outlives
its call, until the set dies or another set is scanned. A kernel scans its
apex minimum once (:meth:`_Kernel.minimum`) and keeps it. An exact kernel
finds, as it is built, the permutation of its points that the reflection
R(x) = (1 - x_1, ..., 1 - x_(d-1), x_d) induces, if R maps the set onto
itself, and then scans one apex of each orbit (see :class:`ExactGram`).
"""
from __future__ import annotations

import bisect
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .scalars import (FLOAT64, RATIONAL, Backend, Dyadic, RawScalar,
                      ScalarError, as_exact, dyadic_diff_sign, head_split)

Point = Tuple[RawScalar, ...]


class GeometryError(ValueError):
    """Raised for malformed points, duplicate entries, or degenerate input."""


def _coerce_point(raw: Sequence, backend: Backend, sparse: bool) -> Point:
    if backend == RATIONAL:
        return tuple(x if sparse and isinstance(x, Dyadic) else as_exact(x)
                     for x in raw)
    vals = tuple(float(x) for x in raw)
    for x in vals:
        if not math.isfinite(x):
            raise GeometryError(f"non-finite coordinate {x!r}")
    return vals


@dataclass(frozen=True)
class TripleWitness:
    """A specific angle: the one at ``apex_index`` spanned by the two legs.

    ``dot_value`` is the inner product of the two leg directions measured at
    the apex; it is negative for obtuse, zero for right, positive for acute.
    """

    apex_index: int
    leg_index_1: int
    leg_index_2: int
    dot_value: RawScalar

    def __post_init__(self) -> None:
        trio = (self.apex_index, self.leg_index_1, self.leg_index_2)
        if len(set(trio)) != 3:
            raise GeometryError(f"witness indices must be distinct: {trio}")

    def indices(self) -> Tuple[int, int, int]:
        return (self.apex_index, self.leg_index_1, self.leg_index_2)


@dataclass(frozen=True)
class PointSet:
    """An ordered, duplicate-free collection of points in one backend.

    Exact coordinates become Fractions (:func:`~acuta.scalars.as_exact`),
    with one set-level rule: a set that holds any :class:`Dyadic` too large
    for a Fraction keeps all of its Dyadic values sparse, so its Gram
    entries stay short sums of small terms (see :class:`ExactGram`). Values
    equal and hash alike in either form, and so do the sets.
    """

    dim: int
    points: Tuple[Point, ...]
    backend: Backend

    def __post_init__(self) -> None:
        if self.backend not in (RATIONAL, FLOAT64):
            raise GeometryError(f"unknown backend: {self.backend!r}")
        if self.dim < 1:
            raise GeometryError(f"dim must be >= 1, got {self.dim}")
        rows = [tuple(p) for p in self.points]
        sparse = any(isinstance(x, Dyadic) and not x.fits_fraction()
                     for p in rows for x in p)
        coerced = tuple(_coerce_point(p, self.backend, sparse) for p in rows)
        for p in coerced:
            if len(p) != self.dim:
                raise GeometryError(
                    f"point {p} has {len(p)} coordinates, expected {self.dim}")
        if len(set(coerced)) != len(coerced):
            raise GeometryError("duplicate points are not allowed")
        object.__setattr__(self, "points", coerced)

    def __len__(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        if self.backend != FLOAT64:
            raise GeometryError("as_array() requires the float64 backend")
        return np.asarray(self.points, dtype=np.float64)


def dot_at_apex(q: Point, p: Point, r: Point) -> RawScalar:
    """Inner product <p - q, r - q> of the two legs meeting at apex q."""
    return sum((pk - qk) * (rk - qk) for qk, pk, rk in zip(q, p, r))


# The angles of a triple (i, j, k) in sweep order: at i, at j, then at k.
_ANGLES = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1]])


class _Kernel:
    """What the exact and the float kernel share.

    A kernel answers every scan in *raw* units that order like the true
    values; :meth:`value` converts one back.
    """

    n: int
    _sigma: Optional[list] = None
    _minimum = None
    _margin = None
    _sqdiam = None

    def minimum(self):
        """``min_dots(range(n))``, the smallest raw apex dot of the set with
        every ``(q, i, j)`` attaining it as a tuple: scanned once per
        kernel and kept, so that every check of a shared kernel
        (:func:`kernel`) reads the same minimum. With a mirror permutation
        ``_sigma`` (see :class:`ExactGram`) one apex of each orbit
        {q, sigma(q)} is scanned and the images of the minimal angles are
        added; without one, sigma is the identity, which adds nothing."""
        if self._minimum is None:
            sigma = self._sigma or range(self.n)
            raw, args = self.min_dots([q for q in range(self.n)
                                       if q <= sigma[q]])
            images = {(sigma[q], *sorted((sigma[i], sigma[j])))
                      for q, i, j in args}
            self._minimum = (raw, tuple(sorted(images.union(args))))
        return self._minimum

    def margin(self) -> RawScalar:
        """The true value of the :meth:`minimum`'s raw dot: converted once
        per kernel and kept, so that every check of the set reports the
        same object."""
        if self._margin is None:
            self._margin = self.value(self.minimum()[0])
        return self._margin

    def sqdiam(self) -> RawScalar:
        """The set's squared diameter, ``value(max_sqdist())``: computed
        once per kernel and kept, as :meth:`minimum` is."""
        if self._sqdiam is None:
            self._sqdiam = self.value(self.max_sqdist())
        return self._sqdiam

    def min_slab(self):
        """Smallest raw slab depth min(t, |p_y - p_x|^2 - t) over pairs
        x < y and third points z, t = <p_z - p_x, p_y - p_x>, with the
        lex-first ``(x, y, z)`` attaining it.
        """
        # t is the apex dot at x (legs y, z) and |p_y - p_x|^2 - t the one
        # at y (legs x, z), so the depths are exactly the apex dots and the
        # minimal ones come from the minimal dots (q; i, j): with u the leg
        # playing y, (q, u, w) if u > q, else (u, q, w).
        raw, args = self.minimum()
        return raw, min((q, u, w) if u > q else (u, q, w)
                        for q, i, j in args for u, w in ((i, j), (j, i)))

    def first_failure(self, fails):
        """Sweep the triples i < j < k in order, each angle at i, at j, then
        at k, and stop at the first raw dot that ``fails``. Returns the
        triples checked, the failing ``(q, a, b)`` and its raw dot, or
        ``(C(n, 3), None, None)``. Each block of angles (one i, every
        j < k after it) is listed in sweep order as index arrays, a few rows
        j at a time, and only the angles :meth:`_may_fail` names are tested.
        A chunk holds about 16 triples, doubling up to 1024, or one row
        where a row is longer: an early failure lists few angles, and below
        n = 1800 no index array reaches glibc's 128 kB mmap threshold.
        """
        n, checked, size = self.n, 0, 16
        for i in range(n - 2):
            lo = i + 1
            while lo < n - 1:
                hi = min(n - 1, lo + max(1, size // (n - 1 - lo)))
                j, k = np.nonzero(np.arange(lo + 1, n)
                                  > np.arange(lo, hi)[:, None])
                t = np.stack((np.full_like(j, i), j + lo, k + lo + 1), 1)
                q, a, b = t[:, _ANGLES].reshape(-1, 3).T
                for x in self._may_fail(q, a, b, fails):
                    angle = (int(q[x]), int(a[x]), int(b[x]))
                    dot = self.dot(*angle)
                    if fails(dot):
                        return checked + x // 3 + 1, angle, dot
                checked, lo, size = checked + len(t), hi, min(2 * size, 1024)
        return checked, None, None

    def _may_fail(self, q, a, b, fails):
        """The positions, ascending, of the angles (q; a, b) whose raw dot
        may fail: here every one."""
        return range(q.size)


# Heads are scaled so that every Gram entry's head stays below 2**55 in
# magnitude: a dot's four heads plus its four tail counts then fit int64.
_HEAD_BITS = 55
# A sparse entry joins the leading-term table only with at most this many
# terms and a coefficient mass below 2**24. A term is stored as one int64
# word, position * 2**25 + coefficient + 2**24, so that sorting words sorts
# terms by position; four entries' coefficients then sum far inside int64,
# and their masses stay exact in float64, which bit lengths are read from.
_LEAD_TERMS = 8
_LEAD_MASS_BITS = 24
_WORD = 1 << _LEAD_MASS_BITS + 1
_BIAS = 1 << _LEAD_MASS_BITS
# A point is oversize when the coefficients of its coordinates' terms sum to
# 2**31 or more in size: then its entries' coefficients may leave int64.
_ROW_MASS_BITS = 31
# Coefficient products the build forms at a time: 256 kB per int64 array,
# which keeps the d = 8 build's peak (tracemalloc) near 4 MB.
_BLOCK = 1 << 15
# Coordinate differences the float diameter forms at a time: 256 kB.
_FLOAT_BLOCK = 1 << 15


class _Leads(NamedTuple):
    """The leading-term table of a sparse Gram matrix (see
    :class:`ExactGram`): ``words`` holds each packed entry's terms, highest
    first, as position * 2**25 + coefficient + 2**24, padded with position
    -1 and coefficient 0; ``ok`` marks the packed entries; ``bits`` is C."""

    words: np.ndarray
    ok: np.ndarray
    bits: int


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, read-only: a kernel is shared between scans (:func:`kernel`)
    and none of them may change it."""
    arr.flags.writeable = False
    return arr


def _keys(a, x, bits: int):
    """int64 keys that order the values a * 2**x (a odd, |a| < 2**bits,
    x >= -1) like the values: the binade x + bitlen(a), then the mantissa
    of |a| over ``bits`` bits, negated for a < 0."""
    m = np.abs(a)
    e = np.frexp(m.astype(np.float64))[1]       # bitlen(m), m < 2**53
    k = ((x + e + 1) << bits) | (m << (bits - e))
    return np.where(a < 0, -k, k)


def _odd(q: int) -> int:
    """The odd part of q > 0."""
    return q // (q & -q)


def _digits(x: Fraction, m: int) -> Dyadic:
    """x * m as a Dyadic, for m a multiple of the odd part o of x's
    denominator: p * 2**-k * (m / o), with p = x * o * 2**k the numerator.
    A p of at least 2**_LEAD_MASS_BITS becomes its signed binary digits
    (non-adjacent form: with h = 3|p|, one digit below each bit where h and
    |p| differ) if it has at most _LEAD_TERMS of them, each with
    coefficient +-m / o, so that 1 - 2**-e is two terms whose products
    the leading-term table can pack; otherwise p * m / o stays one term.
    Taking the digits before the odd scale keeps every coefficient of a
    ladder coordinate as small as m / o, whatever m is."""
    q = x.denominator
    o = _odd(q)
    k = (q // o).bit_length() - 1
    p, s = x.numerator, m // o
    a = abs(p)
    h = 3 * a
    if a >> _LEAD_MASS_BITS == 0 or (h ^ a).bit_count() > _LEAD_TERMS:
        return Dyadic([(-k, p * s)])
    if p < 0:
        s = -s
    terms = []
    for bits, c in (((h & ~a) >> 1, s), ((a & ~h) >> 1, -s)):
        while bits:
            b = bits & -bits
            terms.append((b.bit_length() - 1 - k, c))
            bits ^= b
    return Dyadic(terms)


def _runs_sum(x: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Per-run sums of the int64 ``x`` over runs ``start[r]:start[r + 1]``,
    exact wherever the true sum fits int64: the running sum wraps modulo
    2**64 (uint64 arithmetic), and a difference of two running sums is the
    run's sum modulo 2**64."""
    run = np.zeros(x.size + 1, np.uint64)
    np.cumsum(x.view(np.uint64), out=run[1:])
    return (run[start[1:]] - run[start[:-1]]).view(np.int64)


def _mirror(rows, m: Dyadic) -> Optional[list]:
    """The permutation sigma with p_sigma(i) = R(p_i) for every point, as a
    list, or None if some point has no image in the set. ``rows`` are the
    coordinates times m, all Dyadic. Partners have equal heights, so the
    points are grouped by the sign and binade of their heights. A group of
    more than two, such as an unperturbed cube's, is split further by the
    sign and binade of every other coordinate, and a point looks only in
    the bucket of its image's, m - x_k, which equal values share; so the
    search stays linear. A pair is compared exactly with one merge per
    coordinate, x + y == m, which is x + y == 1 in the original units."""
    def key(x: Dyadic) -> tuple:
        s = x.sign()
        return s, s and x.floor_log2()

    groups: dict = {}
    for i, p in enumerate(rows):
        groups.setdefault(key(p[-1]), []).append(i)
    sigma = [None] * len(rows)
    for group in groups.values():
        buckets: dict = {}
        if len(group) > 2:
            for i in group:
                buckets.setdefault(tuple(map(key, rows[i][:-1])),
                                   []).append(i)
        for i in group:
            if sigma[i] is not None:
                continue
            p = rows[i]
            near = group if len(group) <= 2 else buckets.get(
                tuple(key(m - x) for x in p[:-1]), ())
            for j in near:
                q = rows[j]
                if sigma[j] is None and all(
                        dyadic_diff_sign(m, x, y) == 0
                        for x, y in zip(p[:-1], q)) and p[-1] == q[-1]:
                    sigma[i], sigma[j] = j, i
                    break
            else:
                return None
    return sigma


class _Entries:
    """A read-only view of an :class:`ExactGram`'s entries: its n rows, or
    with ``row`` given, that row's n entries."""

    __slots__ = ("_gram", "_row")

    def __init__(self, gram: "ExactGram", row: Optional[int] = None):
        self._gram, self._row = gram, row

    def __len__(self) -> int:
        return self._gram.n

    def __getitem__(self, k: int):
        if not 0 <= k < self._gram.n:
            raise IndexError(k)
        if self._row is None:
            return _Entries(self._gram, k)
        return self._gram._entry(self._row, k)


class ExactGram(_Kernel):
    """Gram matrix of an exact point set, in units that order exactly.

    **Coordinates.** A set holding a Dyadic (see :class:`PointSet`: a set
    with a value too large for a dense Fraction keeps all its Dyadic values
    sparse) is taken as it is, m = 1; its other values must then be dyadic
    too. A set of Fractions is scaled by m, the lcm of the odd parts of its
    denominators (1 for a dyadic set), so every coordinate x becomes the
    dyadic x * m (:func:`_digits`): one term, or the few signed binary
    digits of a long numerator, such as the two of the ladder's 1 - 2**-e.
    Raw values -- entries, squared distances, apex dots -- are the true
    values times m**2 > 0, so their signs and their order are exact;
    :meth:`value` converts one back, to a Fraction of any size for a
    Fraction set.

    **Entries in rank space.** Every entry is a sparse :class:`Dyadic`, the
    sum of the coefficient products c1 * c2 * 2**(e1 + e2) of its two rows,
    equal exponents merged. The build never forms those sums as Python
    objects. The distinct exponents e of the coordinate terms are ranked,
    every pairwise sum e1 + e2 is ranked once among all of them (``_sums``,
    ascending), and an E x E table maps two exponent ranks to the rank of
    their sum. A block of entries at a time, numpy forms every product as
    an int64 (sum rank, c1 * c2) pair, sorts each entry's pairs by rank
    and sums equal ranks (``np.add.reduceat``); the nonzero sums are kept
    as one run per entry of ``_ranks`` and ``_coefs``, the runs of the
    lower triangle in row order. ``g`` is a read-only n-row view:
    ``g[i][j]`` rebuilds the Dyadic of one entry from its run on first
    access and keeps it, with the terms that Dyadic arithmetic gives (every
    exponent's coefficients summed, zeros dropped). The scans rebuild only
    the entries their exact tests touch.

    **Oversize rule.** A point whose coordinates' coefficients sum to
    M >= 2**31 in size is oversize, and its row -- every entry with it --
    is built by Dyadic arithmetic on Python ints, heads by
    :func:`~acuta.scalars.head_split`, and joins no leading-term table.
    Every other entry fits int64: for two rows of masses M1, M2 < 2**31,
    each product and each partial sum of an entry's products is at most
    sum_k mass(x_k) * mass(y_k) <= M1 * M2 < 2**62 in size. Only a dense
    coefficient is oversize, such as a numerator of thousands of bits over
    an odd denominator; the ladder's coefficients are below 2**10.

    **Head filter.** Next to each entry x the kernel keeps, in two n x n
    int64 arrays, a head h and a tail count t with x * 2**H in [h, h + t]:
    h adds each term c * 2**e as c << (e + H) when e + H >= 0, as its floor
    c >> -(e + H) otherwise, and t counts the floored terms. H is chosen
    from the largest entry, a diagonal one, so that every x * 2**H lies
    below 2**55 in magnitude and sums of four heads and counts never
    overflow. The shift e + H is computed once per sum rank, on the sorted
    sums: below -63 it floors every int64 coefficient as -63 does, and at
    64 or more the term is 0 modulo 2**64. Numpy adds the shifted terms in
    uint64, which is exact modulo 2**64, and the true h lies within
    2**55 + t of 0, so the int64 it wraps to is h. A raw dot
    G_ij - G_qi - G_qj + G_qq times 2**H then lies in [D - R, D + R], with
    D the same sum of heads and R the sum of the four tail counts, whatever
    H is, because a floored term falls short by less than 1 and never over.
    The scans bound every dot this way in numpy and run the exact test only
    where a bound cannot decide: a dot whose lower end exceeds another
    dot's upper end can be neither the minimum nor tied with it.

    **Leading-term filter** (built only when some tail count is nonzero:
    otherwise every head is exact and the head filter decides every dot).
    One global H cannot order dots that differ only far below 2**-H, such
    as the originally right angles of a perturbed cube.
    ``leads`` keeps each entry of at most 8 terms and coefficient mass below
    2**24 as T (position, coefficient) pairs, each packed into one int64
    word, in n x n x T arrays; T is the most terms of a packed entry.
    Positions replace exponents: with M the largest mass of a packed
    entry, four entries merge into coefficients of at most 4M in size, and
    C = bitlen(8M + 1) is the bit length of the largest odd number 2v +- 1
    below. Positions are computed once over the sorted sums, each gap
    between neighbours capped at C. Two exponents of packed entries are
    then either as far apart as their positions, or both gaps are at least
    C: the sums between them split their gap into sub-gaps, and if the gap
    is below C so is every sub-gap, kept whole, while if it is C or more the
    capped sub-gaps add up to C or more. The dots that the heads leave are
    merged in numpy, their four term lists sorted by position and equal
    positions summed. Where the leading merged term v * 2**p is isolated --
    its gap to the next nonzero term exceeds the bit length of the mass
    after it, the rule of :func:`~acuta.scalars.dyadic_diff_sign` --
    everything after it sums to less than 2**(p - 1) in size, so the dot
    lies strictly inside ((2v - 1) * 2**(p - 1), (2v + 1) * 2**(p - 1)).
    Capped positions keep every decision made on these ends. A gap of C or
    more exceeds the bit length of any mass after a leading term, so it
    passes each isolation test just as the true gap does; and with odd
    |a| >= 1 and |b| < 2**C it makes |a| * 2**gap > |b|, so a * 2**x and
    b * 2**y (x > y) compare as the sign of a says, at positions as at
    exponents. The ends are stored as int64 keys that sort like the values,
    and the same cap rule as for the heads runs on them; a dot whose
    leading term is not isolated, or whose entries are not all packed, goes
    to the exact test.

    :meth:`min_dots` bounds every apex first and tests exactly only the
    dots that reach the least upper bound of all. What the exact test sees
    is a subset of what it saw before, in the same order, so every result
    is unchanged.

    **Mirror scan.** The reflection R(x) = (1 - x_1, ..., 1 - x_(d-1), x_d)
    maps every ladder set onto itself: a cube vertex to its antipode, which
    has the same scale, and the apex to itself. The build finds the
    permutation sigma with p_sigma(i) = R(p_i) on the scaled rows and keeps
    it as ``_sigma`` (:func:`_mirror`); the builder is not trusted. Points
    are bucketed by the sign and binade of their heights, and in a large
    bucket of their other coordinates too, and compared exactly within a
    bucket, a pair with one merge per coordinate. R is an isometry, so the
    dot at (q; i, j) equals the dot at (sigma(q); sigma(i), sigma(j)),
    and :meth:`minimum` scans one apex of each orbit {q, sigma(q)}, the
    smaller, then adds the images of the minimal angles it found. The
    lex-first minimal angle has the smaller apex of its orbit, since its
    image is minimal too, so the scan meets it first and keeps the same raw
    minimum, term for term, as a scan of every apex. A set that R does not
    map onto itself has ``_sigma`` None and is scanned at every apex.
    """

    def __init__(self, points: Sequence[Point]):
        n = self.n = len(points)
        if any(isinstance(x, Dyadic) for p in points for x in p):
            try:
                rows = [[Dyadic.of(x) for x in p] for p in points]
            except ScalarError as exc:
                raise GeometryError(
                    "an exact set with values too large for Fraction must be "
                    f"all dyadic: {exc}") from exc
            m, self._m2 = 1, None
        else:
            m = math.lcm(*{_odd(x.denominator) for p in points for x in p})
            rows = [[_digits(x, m) for x in p] for p in points]
            self._m2 = m * m
        self._sigma = _mirror(rows, Dyadic.of(m))
        big = np.array([sum(x.mass for x in p) >> _ROW_MASS_BITS != 0
                        for p in rows], dtype=bool)
        tri_i, tri_j = np.tril_indices(n)
        over = np.flatnonzero(big[tri_i] | big[tri_j]).tolist()
        self._runs(rows, big, tri_i, tri_j)
        self._kept = {k: sum((x * y for x, y in zip(rows[tri_i[k]],
                                                     rows[tri_j[k]])), Dyadic())
                      for k in over}
        # |G_ij| <= max(G_ii, G_jj) <= top, the largest diagonal entry
        # rounded up to an integer.
        top = max((sum(head_split(self._entry(i, i), 0)) for i in range(n)),
                  default=0)
        shift = self._shift = _HEAD_BITS - top.bit_length()
        h, t = self._heads(shift)
        for k in over:
            h[k], t[k] = head_split(self._kept[k], shift)
        heads = np.zeros((n, n), dtype=np.int64)
        tails = np.zeros((n, n), dtype=np.int64)
        heads[tri_i, tri_j] = heads[tri_j, tri_i] = h
        tails[tri_i, tri_j] = tails[tri_j, tri_i] = t
        self.heads, self.tails = _frozen(heads), _frozen(tails)
        self.leads = None
        if tails.any():
            packable = np.ones(tri_i.size, dtype=bool)
            packable[over] = False
            self.leads = self._lead_table(tri_i, tri_j, packable)

    @property
    def g(self) -> _Entries:
        """The entries as a read-only n-row view, ``g[i][j]`` a Dyadic."""
        return _Entries(self)

    @staticmethod
    def _index(i: int, j: int) -> int:
        """The run of entry (i, j) in the lower triangle, row by row."""
        return (i * (i + 1) >> 1) + j if j <= i else (j * (j + 1) >> 1) + i

    def _entry(self, i: int, j: int) -> Dyadic:
        k = self._index(i, j)
        x = self._kept.get(k)
        if x is None:
            a, b = self._start[k], self._start[k + 1]
            x = Dyadic(zip(map(self._sums.__getitem__,
                               self._ranks[a:b].tolist()),
                           self._coefs[a:b].tolist()))
            self._kept[k] = x
        return x

    def _runs(self, rows, big, tri_i, tri_j) -> None:
        """The entries' nonzero (sum rank, coefficient) runs, every
        oversize row's left empty."""
        n = self.n
        dim = len(rows[0]) if n else 1
        small = [p for p, b in zip(rows, big) if not b]
        exps = sorted({e for p in small for x in p for e, _ in x.terms})
        index = {e: r for r, e in enumerate(exps)}
        # Rank the pair sums, listed row by row of the upper triangle: each
        # row ascends, so the sort merges runs.
        flat = [a + b for r, a in enumerate(exps) for b in exps[r:]]
        sums, rank, last = [], [0] * len(flat), None
        for k in sorted(range(len(flat)), key=flat.__getitem__):
            if flat[k] != last:
                last = flat[k]
                sums.append(last)
            rank[k] = len(sums) - 1
        table = np.zeros((max(len(exps), 1),) * 2, dtype=np.int64)
        iu, ju = np.triu_indices(len(exps))
        table[iu, ju] = table[ju, iu] = rank
        w = max((len(x.terms) for p in small for x in p), default=1) or 1
        er = np.zeros((n, dim, w), dtype=np.int64)
        co = np.zeros((n, dim, w), dtype=np.int64)
        for i, p in enumerate(rows):
            if not big[i]:
                for k, x in enumerate(p):
                    for s, (e, c) in enumerate(x.terms):
                        er[i, k, s], co[i, k, s] = index[e], c
        width = dim * w * w
        counts = np.zeros(tri_i.size, dtype=np.int64)
        ranks, coefs = [], []
        step = max(1, _BLOCK // width)
        for k0 in range(0, tri_i.size, step):
            a, b = tri_i[k0:k0 + step], tri_j[k0:k0 + step]
            rk = table[er[a][..., :, None], er[b][..., None, :]]
            cf = co[a][..., :, None] * co[b][..., None, :]
            rk, cf = rk.reshape(a.size, width), cf.reshape(a.size, width)
            order = rk.argsort(axis=1)
            rk = np.take_along_axis(rk, order, 1).ravel()
            cf = np.take_along_axis(cf, order, 1).ravel()
            first = np.ones(rk.size, dtype=bool)
            first[1:] = rk[1:] != rk[:-1]
            first[::width] = True
            at = np.flatnonzero(first)
            cf = np.add.reduceat(cf, at)
            nz = cf != 0
            at = at[nz]
            counts[k0:k0 + a.size] = np.bincount(at // width,
                                                 minlength=a.size)
            ranks.append(rk[at].astype(np.int32))
            coefs.append(cf[nz])
        start = np.zeros(tri_i.size + 1, dtype=np.int64)
        np.cumsum(counts, out=start[1:])
        self._start, self._sums = start, sums
        self._ranks = np.concatenate(ranks or [np.zeros(0, np.int32)])
        self._coefs = np.concatenate(coefs or [np.zeros(0, np.int64)])

    def _heads(self, shift: int):
        """Heads and tail counts at 2**shift of every entry's run."""
        sums = self._sums
        lo = bisect.bisect_left(sums, -63 - shift)
        hi = bisect.bisect_left(sums, 64 - shift)
        at = np.full(len(sums), -63, dtype=np.int64)
        at[hi:] = 64
        at[lo:hi] = [s + shift for s in sums[lo:hi]]
        s, c = at[self._ranks], self._coefs
        up = c.view(np.uint64) << np.clip(s, 0, 63).astype(np.uint64)
        down = (c >> np.clip(-s, 0, 63)).view(np.uint64)
        terms = np.where(s < 0, down, np.where(s < 64, up, 0))
        return (_runs_sum(terms.view(np.int64), self._start),
                _runs_sum((s < 0).astype(np.int64), self._start))

    def _lead_table(self, tri_i, tri_j, packable) -> Optional[_Leads]:
        """The leading-term table of the ``packable`` entries' runs that
        fit it, or None if none does or a key would leave int64."""
        start, ranks, coefs = self._start, self._ranks, self._coefs
        size = np.diff(start)
        mass = _runs_sum(np.abs(coefs), start)
        packs = (packable & (size <= _LEAD_TERMS)
                 & (mass >> _LEAD_MASS_BITS == 0))
        if not packs.any():
            return None
        bits = (8 * int(mass[packs].max()) + 1).bit_length()
        pos = np.zeros(len(self._sums), dtype=np.int64)
        gaps = np.diff(np.array(self._sums, dtype=object))
        np.cumsum(np.minimum(gaps, bits).astype(np.int64), out=pos[1:])
        p = int(pos[-1]) if pos.size else 0
        if max((p + bits + 1) << bits, (p + 1) * _WORD) >> 63:
            return None             # keys or words would leave int64
        sel = np.flatnonzero(packs)
        size = size[sel]
        width = max(1, int(size.max()))
        pad = -_WORD + _BIAS
        words = np.full((sel.size, width), pad, dtype=np.int64)
        row = np.repeat(np.arange(sel.size), size)
        off = np.arange(row.size) - np.repeat(np.cumsum(size) - size, size)
        src = start[sel][row] + off
        words[row, size[row] - 1 - off] = (pos[ranks[src]] * _WORD
                                           + coefs[src] + _BIAS)
        i, j = tri_i[sel], tri_j[sel]
        table = np.full((self.n, self.n, width), pad, dtype=np.int64)
        table[i, j] = table[j, i] = words
        ok = np.zeros((self.n, self.n), dtype=bool)
        ok[i, j] = ok[j, i] = True
        return _Leads(_frozen(table), _frozen(ok), bits)

    def value(self, raw) -> RawScalar:
        """The true value of a raw quantity."""
        if self._m2 is None:
            return as_exact(raw)
        return raw.over(self._m2)

    def sqdist(self, i: int, j: int):
        """Raw |p_i - p_j|^2."""
        g = self.g
        return g[i][i] + g[j][j] - 2 * g[i][j]

    def dot(self, q: int, i: int, j: int):
        """Raw <p_i - p_q, p_j - p_q>, the inner product at apex q."""
        gq = self.g[q]
        return self.g[i][j] - gq[i] - gq[j] + gq[q]

    def max_sqdist(self):
        """Largest raw squared distance; only the pairs whose bound reaches
        the largest lower bound are computed exactly."""
        if self.n < 2:
            return Dyadic()
        iu, ju = np.triu_indices(self.n, k=1)
        h, t = self.heads, self.tails
        hd, td = np.diagonal(h), np.diagonal(t)
        s = hd[iu] + hd[ju] - 2 * h[iu, ju]
        r = td[iu] + td[ju] + 2 * t[iu, ju]
        keep = np.flatnonzero(s + r >= (s - r).max())
        return max(self.sqdist(i, j)
                   for i, j in zip(iu[keep].tolist(), ju[keep].tolist()))

    def _lead_bounds(self, q, a, b):
        """Keys ``lo`` and ``hi`` with lo < dot < hi for the raw dots
        (q; a, b) (``a``, ``b`` index arrays of one shape, ``q`` one apex
        or an array of that shape too), and the mask of the dots they hold
        for: all four entries packed and the leading merged term isolated.
        Elsewhere ``lo`` and ``hi`` are 0."""
        table, ok, bits = self.leads
        k = a.size
        lo, hi = np.zeros(k, np.int64), np.zeros(k, np.int64)
        sure = np.zeros(k, bool)
        if not k:
            return lo, hi, sure
        t = table.shape[2]
        words = np.concatenate((table[a, b], table[q, a], table[q, b],
                                np.broadcast_to(table[q, q], (k, t))), 1)
        minus = words[:, t:3 * t]       # G_qa and G_qb enter negated
        minus -= 2 * ((minus & _WORD - 1) - _BIAS)
        words.sort(axis=1)
        w = words.shape[1]
        words = words[:, ::-1].ravel()          # highest position first
        p = words >> _LEAD_MASS_BITS + 1
        c = (words & _WORD - 1) - _BIAS
        # Sum each run of equal positions within a row; keep the nonzero.
        start = np.ones(p.size, bool)
        start[1:] = p[1:] != p[:-1]
        start[::w] = True
        at = np.flatnonzero(start)
        merged = np.add.reduceat(c, at)
        nz = merged != 0
        at, merged = at[nz], merged[nz]
        if not at.size:
            return lo, hi, sure         # every dot is exactly zero
        row = at // w
        first = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
        rows, v, top = row[first], merged[first], p[at[first]]
        rest = np.add.reduceat(np.abs(merged), first) - np.abs(v)
        nxt = np.minimum(first + 1, at.size - 1)
        alone = (first + 1 == at.size) | (row[nxt] != rows)
        gap = np.where(alone, 1, top - p[at[nxt]])
        iso = gap > np.frexp(rest.astype(np.float64))[1]
        sure[rows] = iso & (ok[a, b] & ok[q, a] & ok[q, b] & ok[q, q])[rows]
        lo[rows] = _keys(2 * v - 1, top - 1, bits)
        hi[rows] = _keys(2 * v + 1, top - 1, bits)
        return lo, hi, sure

    def _may_fail(self, q, a, b, fails):
        """As :meth:`_Kernel._may_fail`, for a ``fails`` that depends on the
        sign of the raw dot alone and is false for a positive one, as both
        rules of :mod:`acuta.verify` are at strict margin 0. The signs are
        bounded in numpy: D - R > 0 or a positive lower leading-term key
        makes a dot positive, D + R < 0 or a negative upper key negative,
        and D = R = 0 zero. The angles whose sign fails or stays open are
        named: only they rebuild their entries.
        """
        bad = [s for s in (-1, 0) if fails(s)]
        if not bad:
            return []
        h, t = self.heads, self.tails
        d = h[a, b] - h[q, a] - h[q, b] + h[q, q]
        r = t[a, b] + t[q, a] + t[q, b] + t[q, q]
        sign = np.where(d - r > 0, 1, np.where(
            d + r < 0, -1, np.where(r == 0, 0, 2)))     # 2: open
        if self.leads is not None:
            left = np.flatnonzero(sign == 2)
            lo, hi, sure = self._lead_bounds(q[left], a[left], b[left])
            sign[left[sure & (lo > 0)]] = 1
            sign[left[sure & (hi < 0)]] = -1
        return np.flatnonzero(np.isin(sign, bad + [2])).tolist()

    def min_dots(self, apexes: Sequence[int]):
        """Smallest raw apex dot over ``apexes`` and every ``(q, i, j)``
        (i < j) attaining it, in lex order; ``(None, [])`` if empty.

        A first pass bounds each apex's dots and keeps those that reach the
        least upper bound seen so far; the exact pass then tests, apex by
        apex, only those that reach the least upper bound of all.
        """
        iu, ju = np.triu_indices(self.n, k=1)
        hij, tij = self.heads[iu, ju], self.tails[iu, ju]
        cap = None      # least upper bound of a dot seen, >= the minimum
        cap2 = None     # the same in leading-term keys
        batches = []
        for q in apexes:
            hq, tq = self.heads[q], self.tails[q]
            d = hij - hq[iu] - hq[ju] + hq[q]
            r = tij + tq[iu] + tq[ju] + tq[q]
            away = (iu != q) & (ju != q)
            if not away.any():
                continue
            top = int((d + r)[away].min())
            cap = top if cap is None else min(cap, top)
            keep = np.flatnonzero(away & (d - r <= cap))
            low = (d - r)[keep]
            lo, sure = None, None
            if self.leads is not None:
                lo, hi, sure = self._lead_bounds(q, iu[keep], ju[keep])
                if sure.any():
                    top = int(hi[sure].min())
                    cap2 = top if cap2 is None else min(cap2, top)
                    near = ~sure | (lo <= cap2)
                    keep, low, lo, sure = (x[near]
                                           for x in (keep, low, lo, sure))
            batches.append((q, keep, low, lo, sure))

        g = self.g
        best, args = None, []
        for q, keep, low, lo, sure in batches:
            near = low <= cap
            if cap2 is not None:
                near &= ~sure | (lo <= cap2)
            keep = keep[near]
            gq = g[q]
            gqq = gq[q]
            row = None
            for i, j in zip(iu[keep].tolist(), ju[keep].tolist()):
                if i != row:
                    row, gi = i, g[i]
                    ai = gq[i] - gqq    # dot(q; i, j) = gi[j] - ai - gq[j]
                    cut = None if best is None else ai + best
                s = -1 if cut is None else dyadic_diff_sign(gi[j], gq[j], cut)
                if s < 0:
                    best, args = gi[j] - ai - gq[j], [(q, i, j)]
                    cut = ai + best
                elif s == 0:
                    args.append((q, i, j))
        return best, args


class FloatGram(_Kernel):
    """The float64 kernel, with the methods of :class:`ExactGram`.

    Every inner product is taken between differences from the apex,
    <p_i - p_q, p_j - p_q>, never expanded around the origin: the expanded
    form G_ij - G_iq - G_jq + G_qq loses every digit to cancellation once
    the points sit far from the origin compared with the set's diameter.
    Raw values are the float values themselves.

    :meth:`min_dots` takes one BLAS product ``diffs @ diffs.T`` per apex
    and reduces it in place over its strict upper triangle, the apex's
    row and column set to inf; :meth:`max_sqdist` takes the squared
    distances a block of rows at a time, each square summed over the
    contiguous last axis as a single row's would be. Neither gathers
    entries per apex or loops per row, and every value keeps its bits.
    """

    def __init__(self, points: Sequence[Point]):
        self.points = points
        self.arr = _frozen(np.asarray(points, dtype=np.float64))
        self.n = len(points)

    def value(self, raw) -> RawScalar:
        return raw

    def sqdist(self, i: int, j: int) -> float:
        return self.dot(i, j, j)

    def dot(self, q: int, i: int, j: int) -> float:
        pts = self.points
        return dot_at_apex(pts[q], pts[i], pts[j])

    def max_sqdist(self) -> float:
        arr, n = self.arr, self.n
        # Rows a .. a + rows - 1 against every row after a: a pair within
        # the block comes twice, with equal squares, and a row against
        # itself gives 0.
        rows = max(1, _FLOAT_BLOCK // max(1, arr.size))
        best = 0.0
        # A squared distance past the float range is inf, which the
        # checks of acuta.verify refuse.
        with np.errstate(over="ignore"):
            for a in range(0, n - 1, rows):
                diffs = arr[a + 1:] - arr[a:a + rows, None]
                np.square(diffs, out=diffs)
                best = max(best, float(diffs.sum(axis=2).max()))
        return best

    def min_dots(self, apexes: Sequence[int]):
        """As :meth:`ExactGram.min_dots`, one apex at a time in numpy."""
        arr, n = self.arr, self.n
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        best, args = None, []
        for q in apexes:
            diffs = arr - arr[q]
            g = diffs @ diffs.T
            g[q, :] = g[:, q] = np.inf
            m = float(np.minimum.reduce(g, axis=None, where=upper,
                                        initial=np.inf))
            if best is None or m < best:
                best, args = m, []
            if m == best:
                i, j = np.divmod(np.flatnonzero(g == m), n)
                args += [(q, int(a), int(b)) for a, b in zip(i, j) if a < b]
        return best, args


# The last set :func:`kernel` served, as a weak reference, and its kernel.
_last: Tuple[Optional[weakref.ref], Optional[_Kernel]] = (None, None)


def _forget(ref: weakref.ref) -> None:
    global _last
    if _last[0] is ref:
        _last = (None, None)


def kernel(ps: PointSet) -> _Kernel:
    """The scan kernel of a point set's backend, shared by consecutive calls
    on the same set.

    The kernel of the last set served is kept, under a weak reference to
    that set, and a call on the same object returns it, so a certificate
    and the re-checks that follow it build one Gram matrix. A call on any
    other set (an equal copy too) first drops the kept kernel, then builds.
    At most one kernel outlives its call, and it goes when its set dies or
    another set is scanned (the README gives the measured size of the kept
    d = 8 and d = 10 kernels). Its arrays are read-only, so no scan can
    change what the next one sees.
    """
    global _last
    ref, k = _last      # one read: a racing call costs a build, never a mix
    if ref is not None and ref() is ps:
        return k
    _last = (None, None)
    k = FloatGram(ps.points) if ps.backend == FLOAT64 else ExactGram(ps.points)
    _last = (weakref.ref(ps, _forget), k)
    return k


def squared_diameter(ps: PointSet) -> RawScalar:
    """Largest squared distance between two points of the set."""
    return kernel(ps).sqdiam()


def _finite_sqdiam(sqd: RawScalar) -> RawScalar:
    """``sqd``, refused with ValueError if it is a float that overflowed."""
    if isinstance(sqd, float) and not math.isfinite(sqd):
        raise ValueError(
            f"the float64 squared diameter is {sqd}: the strict margin "
            "1e-9 * (1 + squared diameter) needs a finite one")
    return sqd


def set_margin(ps: PointSet,
               threads: Optional[int] = None) -> Tuple[RawScalar, TripleWitness]:
    """Margin of a whole point set: the worst angle over all triples.

    Returns the minimum apex inner product together with a witness: among
    all triples achieving the minimum, the lexicographically smallest
    ``(apex, leg1, leg2)`` with ``leg1 < leg2``. ``threads`` is accepted
    and ignored; the scan runs in one thread. A float64 set whose squared
    diameter overflows is refused with ValueError, as verify refuses it.
    """
    n = len(ps)
    if n < 3:
        raise GeometryError(f"need at least 3 points, got {n}")
    gram = kernel(ps)
    if ps.backend == FLOAT64:
        _finite_sqdiam(gram.sqdiam())
    margin = gram.margin()
    return margin, TripleWitness(*gram.minimum()[1][0], margin)
