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
entries. The build runs in rank space: every entry is a run of (int32
rank of its exponent among all pair sums, int64 coefficient) pairs formed
in numpy a block at a time, and only the entries an exact test touches
become Dyadic objects.
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
:meth:`_Kernel.first_failure`, over one lex stream of triples read in
chunks; the exact kernel's filters name, per chunk, only the angles whose
sign may fail.

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
import heapq
import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .scalars import (_HASH_P, FLOAT64, RATIONAL, Backend, Dyadic, RawScalar,
                      as_exact, dyadic_diff_sign, head_split)

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

    def sqdist(self, i: int, j: int):
        """Raw |p_i - p_j|^2, the apex dot at i with both legs j."""
        return self.dot(i, j, j)

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
        ``(C(n, 3), None, None)``. The triples are one lex stream,
        ``itertools.combinations``, read a chunk at a time into index
        arrays, and only the angles :meth:`_may_fail` names are tested. A
        chunk holds 16 triples, doubling up to 1024: an early failure lists
        few angles, and no index array reaches glibc's 128 kB mmap
        threshold.
        """
        stream = itertools.chain.from_iterable(
            itertools.combinations(range(self.n), 3))
        checked, size = 0, 16
        while True:
            t = np.fromiter(itertools.islice(stream, 3 * size),
                            np.intp).reshape(-1, 3)
            if not len(t):
                return checked, None, None
            q, a, b = t[:, _ANGLES].reshape(-1, 3).T
            for x in self._may_fail(q, a, b, fails):
                angle = (int(q[x]), int(a[x]), int(b[x]))
                dot = self.dot(*angle)
                if fails(dot):
                    return checked + x // 3 + 1, angle, dot
            checked, size = checked + len(t), min(2 * size, 1024)

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
# The ranking keeps each gap between neighbouring pair sums capped here,
# above every C = bitlen(8M + 1) of a mass M < 2**24.
_GAP_CAP = _LEAD_MASS_BITS + 4
# A point is oversize when the coefficients of its coordinates' terms sum to
# 2**31 or more in size: then its entries' coefficients may leave int64.
_ROW_MASS_BITS = 31
# Coefficient products the build forms at a time: 256 kB per int64 array.
# The runs are kept in the blocks of entries that this gives, and the heads
# and the leading-term table are formed a block at a time, so the d = 8
# build's peak (tracemalloc) lies about 0.5 MB above what it keeps.
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


def _pair_sums(exps: list):
    """Rank the pair sums exps[r] + exps[c] of the distinct ascending
    ``exps`` among their distinct values. Returns the E x E int32 table of
    ranks, and per distinct sum, ascending, the index pair (r, c), r <= c,
    with the least r that gives it, as two int32 arrays, and its gap to
    the sum below capped at _GAP_CAP (0 for the first), as uint8.

    Row r, exps[r] + exps[c] for c >= r, ascends, so a heap merges the rows
    with no sum held but each row's next. The popped row's sums below the
    least next sum of the other rows, found by bisection, are all new and
    distinct, and are ranked in one numpy step; on the ladder every row
    comes out in a few such runs.
    """
    size = len(exps)
    table = np.zeros((max(size, 1),) * 2, dtype=np.int32)
    pairs = size * (size + 1) // 2
    lo, hi = np.empty(pairs, np.int32), np.empty(pairs, np.int32)
    gaps = np.zeros(pairs, np.uint8)
    steps = np.array([min(b - a, _GAP_CAP) for a, b in zip(exps, exps[1:])],
                     dtype=np.uint8)
    heap = [(e + e, r, r) for r, e in enumerate(exps)]     # sorted: a heap
    k, last = -1, None
    while heap:
        s, r, c = heap[0]
        if s != last:
            k += 1
            lo[k], hi[k] = r, c
            gaps[k] = 0 if last is None else min(s - last, _GAP_CAP)
            last = s
        table[r, c] = table[c, r] = k
        end = size
        if len(heap) > 1:
            bound = min(x[0] for x in heap[1:3])
            end = bisect.bisect_left(exps, bound - exps[r], c + 1)
        if end > c + 1:
            new = slice(k + 1, k + end - c)
            table[r, c + 1:end] = table[c + 1:end, r] = np.arange(
                new.start, new.stop, dtype=np.int32)
            lo[new], hi[new] = r, np.arange(c + 1, end)
            gaps[new] = steps[c:end - 1]
            k += end - c - 1
            last = exps[r] + exps[end - 1]
        if end < size:
            heapq.heapreplace(heap, (exps[r] + exps[end], r, end))
        else:
            heapq.heappop(heap)
    return table, lo[:k + 1], hi[:k + 1], gaps[:k + 1]


def _scratch(pool: Optional[dict], name: str, size: int, dtype=np.int64):
    """The first ``size`` elements of ``pool[name]``, an array of ``dtype``
    grown as needed, or a fresh array if ``pool`` is None. A scan keeps
    one pool for all its calls: fresh arrays for each would cost page
    faults whenever the allocator has handed the last call's memory back
    to the system."""
    arr = None if pool is None else pool.get(name)
    if arr is None or arr.size < size:
        arr = np.empty(size, dtype)
        if pool is not None:
            pool[name] = arr
    return arr[:size]


def _mirror(rows, m: Dyadic) -> Optional[list]:
    """The permutation sigma with p_sigma(i) = R(p_i) for every point, as a
    list, or None if some point has no image in the set. ``rows`` are the
    coordinates times m, all Dyadic. Every row is keyed by its values'
    residues mod P (:meth:`Dyadic.residue`), which equal values share
    whatever their terms; the key of a point's image, m - x_k mod P and the
    height's residue, is computed on the residues, so no value is formed
    and the search stays linear. A key match is confirmed exactly, with one
    merge per coordinate, x + y == m, which is x + y == 1 in the original
    units, and an exact comparison of the heights."""
    keys = [tuple(x.residue() for x in p) for p in rows]
    at: dict = {}
    for i, key in enumerate(keys):
        at.setdefault(key, []).append(i)
    mr = m.residue()
    sigma = [None] * len(rows)
    for i, p in enumerate(rows):
        if sigma[i] is not None:
            continue
        key = keys[i]
        image = tuple((mr - r) % _HASH_P for r in key[:-1]) + key[-1:]
        for j in at.get(image, ()):
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

    **Coordinates.** Every value is converted once. m is the lcm of the
    odd parts of the denominators of the values that are not Dyadic (1 for
    a dyadic set); each Dyadic is kept as it is, and every other coordinate
    x becomes the dyadic x * m (:func:`_digits`): one term, or the few
    signed binary digits of a long numerator, such as the two of the
    ladder's 1 - 2**-e. A set holding a Dyadic (see :class:`PointSet`: a
    set with a value too large for a dense Fraction keeps all its Dyadic
    values sparse) cannot be scaled, so its m must be 1. Raw values --
    entries, squared distances, apex dots -- are the true values times
    m**2 > 0, so their signs and their order are exact;
    :meth:`value` converts one back, to a Fraction of any size for a
    Fraction set.

    **Entries in rank space.** Every entry is a sparse :class:`Dyadic`, the
    sum of the coefficient products c1 * c2 * 2**(e1 + e2) of its two rows,
    equal exponents merged. The build never forms those sums as Python
    objects, nor a list of the pair sums e1 + e2. The distinct exponents e
    of the coordinate terms are sorted (``_exps``), and a merge
    (:func:`_pair_sums`) ranks their E(E + 1)/2 pairwise sums among the
    distinct ones straight into an int32 E x E table. Each distinct sum is
    kept as the index pair of two exponents (``_lo``, ``_hi``, int32), and
    a sum is formed only where it is needed. A block of entries at a time
    (``_BLOCK`` products), numpy forms every product as an (int32 sum rank,
    int64 c1 * c2) pair, sorts each entry's pairs by rank and sums equal
    ranks (``np.add.reduceat``); each block keeps the nonzero sums as one
    run per entry, the runs of the lower triangle in row order
    (``_blocks``), and the heads and the leading-term table are formed
    from the runs a block at a time. ``g`` is a read-only n-row view:
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
    it as ``_sigma`` (:func:`_mirror`); the builder is not trusted. Each
    point looks up its image by the residues mod P of the image's values,
    computed from its own, and a match is confirmed exactly, with one merge
    per coordinate. R is an isometry, so the dot at (q; i, j) equals the
    dot at (sigma(q); sigma(i), sigma(j)), and :meth:`minimum` scans one
    apex of each orbit {q, sigma(q)}, the smaller, then adds the images of
    the minimal angles it found. The lex-first minimal angle has the
    smaller apex of its orbit, since its image is minimal too, so the scan
    meets it first and keeps the same raw minimum, term for term, as a scan
    of every apex. A set that R does not map onto itself has ``_sigma``
    None and is scanned at every apex.
    """

    def __init__(self, points: Sequence[Point]):
        n = self.n = len(points)
        sparse = any(isinstance(x, Dyadic) for p in points for x in p)
        m = math.lcm(*{_odd(x.denominator) for p in points for x in p
                       if not isinstance(x, Dyadic)})
        if sparse and m > 1:
            raise GeometryError(
                "an exact set with values too large for Fraction must be "
                f"all dyadic, but some denominators have odd part {m}")
        rows = [[x if isinstance(x, Dyadic) else _digits(x, m) for x in p]
                for p in points]
        self._m2 = None if sparse else m * m
        self._sigma = _mirror(rows, Dyadic.of(m))
        big = np.array([sum(x.mass for x in p) >> _ROW_MASS_BITS != 0
                        for p in rows], dtype=bool)
        tri_i, tri_j = np.tril_indices(n)
        over = np.flatnonzero(big[tri_i] | big[tri_j]).tolist()
        gaps = self._runs(rows, big, tri_i, tri_j)
        self._kept = {k: sum((x * y for x, y in zip(rows[tri_i[k]],
                                                     rows[tri_j[k]])), Dyadic())
                      for k in over}
        # |G_ij| <= max(G_ii, G_jj) <= top, the largest diagonal entry
        # rounded up to an integer.
        top = max((sum(head_split(self._entry(i, i), 0)) for i in range(n)),
                  default=0)
        shift = self._shift = _HEAD_BITS - top.bit_length()
        heads, tails = self._heads(shift, tri_i, tri_j)
        for k in over:
            i, j = tri_i[k], tri_j[k]
            h, t = head_split(self._kept[k], shift)
            heads[i, j] = heads[j, i] = h
            tails[i, j] = tails[j, i] = t
        self.heads, self.tails = _frozen(heads), _frozen(tails)
        self.leads = None
        if tails.any():
            packable = np.ones(tri_i.size, dtype=bool)
            packable[over] = False
            self.leads = self._lead_table(tri_i, tri_j, packable, gaps)

    @property
    def g(self) -> _Entries:
        """The entries as a read-only n-row view, ``g[i][j]`` a Dyadic."""
        return _Entries(self)

    @staticmethod
    def _index(i: int, j: int) -> int:
        """The run of entry (i, j) in the lower triangle, row by row."""
        return (i * (i + 1) >> 1) + j if j <= i else (j * (j + 1) >> 1) + i

    def _sum(self, k) -> int:
        """The pair sum of rank k."""
        return self._exps[self._lo[k]] + self._exps[self._hi[k]]

    def _entry(self, i: int, j: int) -> Dyadic:
        k = self._index(i, j)
        x = self._kept.get(k)
        if x is None:
            k0, start, ranks, coefs = self._blocks[k // self._step]
            a, b = start[k - k0], start[k - k0 + 1]
            x = self._kept[k] = Dyadic(zip(map(self._sum,
                                               ranks[a:b].tolist()),
                                           coefs[a:b].tolist()))
        return x

    def _runs(self, rows, big, tri_i, tri_j) -> np.ndarray:
        """The entries' nonzero (sum rank, coefficient) runs, every
        oversize row's left empty, kept a block of ``_step`` entries at a
        time as (first entry, run starts, ranks, coefficients); returns
        the capped gaps of the ranked sums (:func:`_pair_sums`)."""
        n = self.n
        dim = len(rows[0]) if n else 1
        small = [p for p, b in zip(rows, big) if not b]
        exps = self._exps = sorted({e for p in small for x in p
                                    for e, _ in x.terms})
        index = {e: r for r, e in enumerate(exps)}
        table, self._lo, self._hi, gaps = _pair_sums(exps)
        w = max((len(x.terms) for p in small for x in p), default=1) or 1
        er = np.zeros((n, dim, w), dtype=np.int64)
        co = np.zeros((n, dim, w), dtype=np.int64)
        for i, p in enumerate(rows):
            if not big[i]:
                for k, x in enumerate(p):
                    for s, (e, c) in enumerate(x.terms):
                        er[i, k, s], co[i, k, s] = index[e], c
        width = dim * w * w
        step = self._step = max(1, _BLOCK // width)
        self._blocks = []
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
            start = np.zeros(a.size + 1, dtype=np.int64)
            np.cumsum(np.bincount(at // width, minlength=a.size),
                      out=start[1:])
            self._blocks.append((k0, start, rk[at], cf[nz]))
        return gaps

    def _heads(self, shift: int, tri_i, tri_j):
        """The n x n heads and tail counts at 2**shift of the runs."""
        # Only the sums in [-63 - shift, 64 - shift) shift by their own
        # e + H; those below shift as -63, those above as 64.
        sums = range(self._lo.size)
        lo = bisect.bisect_left(sums, -63 - shift, key=self._sum)
        hi = bisect.bisect_left(sums, 64 - shift, lo=lo, key=self._sum)
        at = np.array([-63] + [self._sum(k) + shift for k in range(lo, hi)]
                      + [64], dtype=np.int64)
        heads = np.zeros((self.n, self.n), dtype=np.int64)
        tails = np.zeros((self.n, self.n), dtype=np.int64)
        for k0, start, rk, c in self._blocks:
            e = slice(k0, k0 + start.size - 1)
            i, j = tri_i[e], tri_j[e]
            s = at[np.clip(rk - (lo - 1), 0, at.size - 1)]
            up = c.view(np.uint64) << np.clip(s, 0, 63).astype(np.uint64)
            down = (c >> np.clip(-s, 0, 63)).view(np.uint64)
            terms = np.where(s < 0, down, np.where(s < 64, up, 0))
            heads[i, j] = heads[j, i] = _runs_sum(terms.view(np.int64), start)
            tails[i, j] = tails[j, i] = _runs_sum((s < 0).astype(np.int64),
                                                  start)
        return heads, tails

    def _lead_table(self, tri_i, tri_j, packable, gaps) -> Optional[_Leads]:
        """The leading-term table of the ``packable`` entries' runs that
        fit it, or None if none does or a key would leave int64;
        ``packable`` is narrowed to them."""
        most = width = -1
        for k0, start, _, coefs in self._blocks:
            size = np.diff(start)
            mass = _runs_sum(np.abs(coefs), start)
            packs = packable[k0:k0 + size.size]
            packs &= (size <= _LEAD_TERMS) & (mass >> _LEAD_MASS_BITS == 0)
            if packs.any():
                most = max(most, int(mass[packs].max()))
                width = max(width, int(size[packs].max()))
        if most < 0:
            return None
        bits = (8 * most + 1).bit_length()
        pos = np.zeros(gaps.size, dtype=np.int64)
        np.cumsum(np.minimum(gaps[1:], bits), out=pos[1:])
        p = int(pos[-1]) if pos.size else 0
        if max((p + bits + 1) << bits, (p + 1) * _WORD) >> 63:
            return None             # keys or words would leave int64
        width = max(1, width)
        pad = -_WORD + _BIAS
        table = np.full((self.n, self.n, width), pad, dtype=np.int64)
        ok = np.zeros((self.n, self.n), dtype=bool)
        for k0, start, ranks, coefs in self._blocks:
            sel = np.flatnonzero(packable[k0:k0 + start.size - 1])
            size = np.diff(start)[sel]
            words = np.full((sel.size, width), pad, dtype=np.int64)
            row = np.repeat(np.arange(sel.size), size)
            off = np.arange(row.size) - np.repeat(np.cumsum(size) - size, size)
            src = start[sel][row] + off
            words[row, size[row] - 1 - off] = (pos[ranks[src]] * _WORD
                                               + coefs[src] + _BIAS)
            i, j = tri_i[k0 + sel], tri_j[k0 + sel]
            table[i, j] = table[j, i] = words
            ok[i, j] = ok[j, i] = True
        return _Leads(_frozen(table), _frozen(ok), bits)

    def value(self, raw) -> RawScalar:
        """The true value of a raw quantity."""
        if self._m2 is None:
            return as_exact(raw)
        return raw.over(self._m2)

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

    def _lead_bounds(self, q, a, b, pool=None):
        """Keys ``lo`` and ``hi`` with lo < dot < hi for the raw dots
        (q; a, b) (``a``, ``b`` index arrays of one shape, ``q`` one apex
        or an array of that shape too), and the mask of the dots they hold
        for: all four entries packed and the leading merged term isolated.
        Elsewhere ``lo`` and ``hi`` are 0. The k rows of w words are worked
        in arrays of ``pool`` (:func:`_scratch`)."""
        table, ok, bits = self.leads
        k = a.size
        lo, hi = np.zeros(k, np.int64), np.zeros(k, np.int64)
        sure = np.zeros(k, bool)
        if not k:
            return lo, hi, sure
        t = table.shape[2]
        w = 4 * t
        size = k * w
        words = _scratch(pool, "words", size).reshape(k, w)
        words[:, :t] = table[a, b]
        words[:, t:2 * t] = table[q, a]
        words[:, 2 * t:3 * t] = table[q, b]
        words[:, 3 * t:] = table[q, q]
        # sums[j + 1] is to hold the coefficients of words 0..j summed.
        sums = _scratch(pool, "sums", size + 1)
        minus = words[:, t:3 * t]       # G_qa and G_qb enter negated
        c = np.bitwise_and(minus, _WORD - 1,
                           out=sums[1:2 * t * k + 1].reshape(k, 2 * t))
        c -= _BIAS
        minus -= c
        minus -= c
        words.sort(axis=1)
        c = sums[1:].reshape(k, w)
        np.copyto(c, words[:, ::-1])            # highest position first
        p = np.right_shift(c, _LEAD_MASS_BITS + 1, out=words).reshape(-1)
        c &= _WORD - 1
        c -= _BIAS
        sums[0] = 0
        np.cumsum(c.reshape(-1), out=sums[1:])
        # Merge each run of equal positions within a row: its last word
        # gets the run's sum, counted from the run's first word.
        first = _scratch(pool, "first", size, bool)
        np.not_equal(p[1:], p[:-1], out=first[1:])
        first[::w] = True
        at = _scratch(pool, "at", size, np.intp)
        np.multiply(np.arange(size), first, out=at)
        np.maximum.accumulate(at, out=at)       # each word's first word
        merged = np.take(sums, at, out=_scratch(pool, "merged", size),
                         mode="clip")
        np.subtract(sums[1:], merged, out=merged)
        # The merged terms: the last words of the runs, where nonzero.
        last = _scratch(pool, "last", size, bool)
        last[:-1] = first[1:]
        last[-1] = True
        last &= np.not_equal(merged, 0, out=first)
        merged, last, p = (x.reshape(k, w) for x in (merged, last, p))
        r = np.arange(k)
        lead = last.argmax(axis=1)
        rows = np.flatnonzero(last[r, lead])    # the dots not exactly zero
        v, top = merged[r, lead], p[r, lead]
        rest = np.abs(merged, out=merged)
        rest *= last
        rest = rest.sum(axis=1) - np.abs(v)
        last[r, lead] = False
        nxt = last.argmax(axis=1)
        gap = np.where(last[r, nxt], top - p[r, nxt], 1)
        iso = gap > np.frexp(rest.astype(np.float64))[1]
        sure[rows] = (iso & ok[a, b] & ok[q, a] & ok[q, b] & ok[q, q])[rows]
        v, top = v[rows], top[rows]
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
        # Every apex's head bounds go to the same three arrays, and its
        # leading-term bounds to the same pool, for the reason _scratch
        # gives.
        d, r, tmp = (np.empty_like(hij) for _ in range(3))
        pool: dict = {}
        cap = None      # least upper bound of a dot seen, >= the minimum
        cap2 = None     # the same in leading-term keys
        batches = []
        for q in apexes:
            hq, tq = self.heads[q], self.tails[q]
            np.subtract(hij, np.take(hq, iu, out=tmp, mode="clip"), out=d)
            d -= np.take(hq, ju, out=tmp, mode="clip")
            d += hq[q]
            np.add(tij, np.take(tq, iu, out=tmp, mode="clip"), out=r)
            r += np.take(tq, ju, out=tmp, mode="clip")
            r += tq[q]
            away = (iu != q) & (ju != q)
            top = int(np.add(d, r, out=tmp).min(
                where=away, initial=np.iinfo(np.int64).max))
            cap = top if cap is None else min(cap, top)
            d -= r                  # the lower bounds
            keep = np.flatnonzero(away & (d <= cap))
            low = d[keep]
            lo, sure = None, None
            if self.leads is not None:
                lo, hi, sure = self._lead_bounds(q, iu[keep], ju[keep], pool)
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

    :meth:`min_dots` takes the plain minimum of each apex q's product
    ``diffs @ diffs.T``, row q, column q and the diagonal at inf; numpy
    forms it symmetric bit for bit (``syrk`` mirrors a triangle; without
    BLAS both orders sum the same products). :meth:`max_sqdist` takes
    the squared distances a block of rows at a time, each square summed
    over the contiguous last axis as a single row's is. Neither gathers
    entries per apex or loops per row, and every value keeps its bits.
    """

    def __init__(self, points: Sequence[Point]):
        self.points = points
        self.arr = _frozen(np.asarray(points, dtype=np.float64))
        self.n = len(points)

    def value(self, raw) -> RawScalar:
        return raw

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
        best, args = None, []
        for q in apexes:
            diffs = arr - arr[q]
            g = diffs @ diffs.T
            g[q, :] = g[:, q] = np.inf
            np.fill_diagonal(g, np.inf)
            m = float(g.min())
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
    diameter overflows is refused with ValueError, for verify's checks too.
    """
    n = len(ps)
    if n < 3:
        raise GeometryError(f"need at least 3 points, got {n}")
    gram = kernel(ps)
    if ps.backend == FLOAT64:
        _finite_sqdiam(gram.sqdiam())
    margin = gram.margin()
    return margin, TripleWitness(*gram.minimum()[1][0], margin)
