"""Points, point sets, and acuteness margins.

Everything here is phrased in squared quantities: the margin of a triangle is
the smallest of its three apex inner products, so a configuration is acute
exactly when its margin is positive and right angles show up as margin zero.

Every scan (margins, verdicts, slabs, diameters, the construction guard)
runs on one kernel per backend, chosen by :func:`kernel`. Exact sets use
:class:`ExactGram`: the Gram matrix is built once and each apex inner
product is a 4-term sum of its entries. An int64 head filter settles most
of those sums in numpy first: every entry x carries a head h and a count t
of floored terms with x * 2**H in [h, h + t], so each dot times 2**H lies
within R, the sum of its four counts, of D, the sum of its four heads.
The bound holds for any H, since flooring a term loses less than 1 and
never adds, and only dots it cannot decide reach the exact (for sparse
entries, costly) sign test. float64 sets use
:class:`FloatGram`, which takes every inner product between differences
from the apex.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .scalars import (FLOAT64, RATIONAL, Backend, Dyadic, RawScalar,
                      ScalarError, as_exact, dyadic_diff_sign, head_split)

Point = Tuple[RawScalar, ...]


class GeometryError(ValueError):
    """Raised for malformed points, duplicate entries, or degenerate input."""


def _coerce_point(raw: Sequence, backend: Backend) -> Point:
    if backend == RATIONAL:
        return tuple(as_exact(x) for x in raw)
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
    """An ordered, duplicate-free collection of points in one backend."""

    dim: int
    points: Tuple[Point, ...]
    backend: Backend
    provenance: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise GeometryError(f"dim must be >= 1, got {self.dim}")
        coerced = tuple(_coerce_point(p, self.backend) for p in self.points)
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


def triangle_margin(a: Point, b: Point, c: Point) -> RawScalar:
    """Smallest apex inner product over the three corners of a triangle.

    Coincident corners make every angle meaningless and raise; collinear
    corners are fine and simply yield a margin <= 0.
    """
    if a == b or a == c or b == c:
        raise GeometryError("coincident points have no triangle margin")
    return min(dot_at_apex(a, b, c), dot_at_apex(b, a, c), dot_at_apex(c, a, b))


class _Kernel:
    """What the exact and the float kernel share.

    A kernel answers every scan in *raw* units that order like the true
    values; :meth:`value` converts one back.
    """

    n: int

    def min_slab(self):
        """Smallest raw slab depth min(t, |p_y - p_x|^2 - t) over pairs
        x < y and third points z, t = <p_z - p_x, p_y - p_x>, with the
        lex-first ``(x, y, z)`` attaining it.
        """
        # t is the apex dot at x (legs y, z) and |p_y - p_x|^2 - t the one
        # at y (legs x, z), so the depths are exactly the apex dots and the
        # minimal ones come from the minimal dots (q; i, j): with u the leg
        # playing y, (q, u, w) if u > q, else (u, q, w).
        raw, args = self.min_dots(range(self.n))
        return raw, min((q, u, w) if u > q else (u, q, w)
                        for q, i, j in args for u, w in ((i, j), (j, i)))

    def first_failure(self, fails):
        """Sweep the triples i < j < k in order, each angle at i, at j, then
        at k, and stop at the first raw dot that ``fails``. Returns the
        triples checked, the failing ``(q, a, b)`` and its raw dot, or
        ``(C(n, 3), None, None)``.
        """
        checked = 0
        for i, j, k in itertools.combinations(range(self.n), 3):
            checked += 1
            for (q, a, b) in ((i, j, k), (j, i, k), (k, i, j)):
                dot = self.dot(q, a, b)
                if fails(dot):
                    return checked, (q, a, b), dot
        return checked, None, None


# Heads are scaled so that every Gram entry's head stays below 2**55 in
# magnitude: a dot's four heads plus its four tail counts then fit int64.
_HEAD_BITS = 55


class ExactGram(_Kernel):
    """Gram matrix of an exact point set, in units that order exactly.

    A set of Fractions is scaled by the lcm D of its denominators, so every
    entry is a Python int. A set holding a :class:`Dyadic` (a value too
    large for a dense Fraction) keeps sparse Dyadic entries and D = 1; its
    other values must then be dyadic too. Raw values -- entries, squared
    distances, apex dots -- are the true values times D**2 > 0, so their
    signs and their order are exact; :meth:`value` converts one back.

    **Head filter.** Next to each entry x the kernel keeps, in two n x n
    int64 arrays, a head h and a tail count t with x * 2**H in [h, h + t]
    (:func:`~acuta.scalars.head_split`: terms at or above 2**-H are exact,
    each lower one is floored and counted in t). H is chosen from the
    largest entry, a diagonal one, so that every x * 2**H lies below 2**55
    in magnitude and sums of four heads and counts never overflow. A raw
    dot G_ij - G_qi - G_qj + G_qq times 2**H then lies in [D - R, D + R],
    with D the same sum of heads and R the sum of the four tail counts,
    whatever H is, because a floored term falls short by less than 1 and
    never over. The scans bound every dot this way in numpy and run the
    exact test only where a bound cannot decide:
    a dot whose lower end exceeds another dot's upper end can be neither
    the minimum nor tied with it, and a dot whose lower end is positive
    passes every exact angle rule. What the exact test sees is a subset of
    what it saw before, in the same order, so every result is unchanged.
    """

    def __init__(self, points: Sequence[Point]):
        if any(isinstance(x, Dyadic) for p in points for x in p):
            try:
                rows = [[Dyadic.of(x) for x in p] for p in points]
            except ScalarError as exc:
                raise GeometryError(
                    "an exact set with values too large for Fraction must be "
                    f"all dyadic: {exc}") from exc
            self._d2 = None
            self._sign3 = dyadic_diff_sign
        else:
            den = math.lcm(*(x.denominator for p in points for x in p))
            rows = [[x.numerator * (den // x.denominator) for x in p]
                    for p in points]
            self._d2 = den * den
            self._sign3 = _int_sign3
        n = self.n = len(rows)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            ri = rows[i]
            for j in range(i + 1):
                g[i][j] = g[j][i] = sum(a * b for a, b in zip(ri, rows[j]))
        self.g = g
        # |G_ij| <= max(G_ii, G_jj) <= top, the largest diagonal entry
        # rounded up to an integer.
        top = max((sum(head_split(g[i][i], 0)) for i in range(n)), default=0)
        shift = _HEAD_BITS - top.bit_length()
        heads = np.zeros((n, n), dtype=np.int64)
        tails = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            heads[i, :i + 1], tails[i, :i + 1] = zip(
                *(head_split(x, shift) for x in g[i][:i + 1]))
        upper = np.triu_indices(n, k=1)
        heads[upper] = heads.T[upper]
        tails[upper] = tails.T[upper]
        self.heads, self.tails = heads, tails

    def value(self, raw) -> RawScalar:
        """The true value of a raw quantity."""
        if self._d2 is None:
            return as_exact(raw)
        return Fraction(raw, self._d2)

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
            return 0
        iu, ju = np.triu_indices(self.n, k=1)
        h, t = self.heads, self.tails
        hd, td = np.diagonal(h), np.diagonal(t)
        s = hd[iu] + hd[ju] - 2 * h[iu, ju]
        r = td[iu] + td[ju] + 2 * t[iu, ju]
        keep = np.flatnonzero(s + r >= (s - r).max())
        return max(self.sqdist(i, j)
                   for i, j in zip(iu[keep].tolist(), ju[keep].tolist()))

    def min_dots(self, apexes: Sequence[int]):
        """Smallest raw apex dot over ``apexes`` and every ``(q, i, j)``
        (i < j) attaining it, in lex order; ``(None, [])`` if empty."""
        g = self.g
        sign3 = self._sign3
        iu, ju = np.triu_indices(self.n, k=1)
        hij, tij = self.heads[iu, ju], self.tails[iu, ju]
        cap = None      # least upper bound of a dot seen, >= the minimum
        best, args = None, []
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
            gq = g[q]
            gqq = gq[q]
            row = None
            for i, j in zip(iu[keep].tolist(), ju[keep].tolist()):
                if i != row:
                    row, gi = i, g[i]
                    ai = gq[i] - gqq    # dot(q; i, j) = gi[j] - ai - gq[j]
                    cut = None if best is None else ai + best
                s = -1 if cut is None else sign3(gi[j], gq[j], cut)
                if s < 0:
                    best, args = gi[j] - ai - gq[j], [(q, i, j)]
                    cut = ai + best
                elif s == 0:
                    args.append((q, i, j))
        return best, args

    def first_failure(self, fails):
        """As :meth:`_Kernel.first_failure`, for a rule that passes every
        positive dot (each exact rule does): a dot whose bound is positive
        is passed without its exact value."""
        n = self.n
        h, t = self.heads, self.tails
        checked = 0
        for i in range(n - 2):
            m = n - i - 1
            r = slice(i + 1, n)
            # Lower ends D - R of the dots of the triples (i, j, k), with j
            # along rows and k along columns: at i (legs j, k) and at j
            # (legs i, k); the one at k (legs i, j) is the transpose of the
            # one at j.
            hr, tr = h[i, r], t[i, r]
            hs, ts = h[r, r], t[r, r]
            low_i = (hs - ts - (hr + tr)[:, None] - (hr + tr)[None, :]
                     + (h[i, i] - t[i, i]))
            low_j = ((np.diagonal(hs) - np.diagonal(ts) - hr - tr)[:, None]
                     + (hr - tr)[None, :] - hs - ts)
            pos_i, pos_j = low_i > 0, low_j > 0
            unsure = np.triu(~(pos_i & pos_j & pos_j.T), k=1)
            for x in np.flatnonzero(unsure).tolist():
                y, z = divmod(x, m)
                j, k = i + 1 + y, i + 1 + z
                for (q, a, b), sure in zip(((i, j, k), (j, i, k), (k, i, j)),
                                           (pos_i[y, z], pos_j[y, z],
                                            pos_j[z, y])):
                    if sure:
                        continue
                    dot = self.dot(q, a, b)
                    if fails(dot):
                        # the pairs (y', z') of this block up to (y, z)
                        done = math.comb(m, 2) - math.comb(m - y, 2) + z - y
                        return checked + done, (q, a, b), dot
            checked += math.comb(m, 2)
        return checked, None, None


def _int_sign3(a: int, b: int, c: int) -> int:
    x = a - b - c
    return (x > 0) - (x < 0)


class FloatGram(_Kernel):
    """The float64 kernel, with the methods of :class:`ExactGram`.

    Every inner product is taken between differences from the apex,
    <p_i - p_q, p_j - p_q>, never expanded around the origin: the expanded
    form G_ij - G_iq - G_jq + G_qq loses every digit to cancellation once
    the points sit far from the origin compared with the set's diameter.
    Raw values are the float values themselves.
    """

    def __init__(self, points: Sequence[Point]):
        self.points = points
        self.arr = np.asarray(points, dtype=np.float64)
        self.n = len(points)

    def value(self, raw) -> RawScalar:
        return raw

    def sqdist(self, i: int, j: int) -> float:
        return self.dot(i, j, j)

    def dot(self, q: int, i: int, j: int) -> float:
        pts = self.points
        return dot_at_apex(pts[q], pts[i], pts[j])

    def max_sqdist(self) -> float:
        arr = self.arr
        return max((float(((arr[i + 1:] - arr[i]) ** 2).sum(axis=1).max())
                    for i in range(self.n - 1)), default=0.0)

    def min_dots(self, apexes: Sequence[int]):
        """As :meth:`ExactGram.min_dots`, one apex at a time in numpy."""
        arr = self.arr
        iu, ju = np.triu_indices(self.n, k=1)
        best, args = None, []
        for q in apexes:
            diffs = arr - arr[q]
            g = diffs @ diffs.T
            g[q, :] = g[:, q] = np.inf
            vals = g[iu, ju]
            m = float(vals.min())
            if best is None or m < best:
                best, args = m, []
            if m == best:
                args += [(q, int(iu[k]), int(ju[k]))
                         for k in np.flatnonzero(vals == m)]
        return best, args


def kernel(ps: PointSet):
    """The scan kernel of a point set's backend."""
    if ps.backend == FLOAT64:
        return FloatGram(ps.points)
    return ExactGram(ps.points)


def squared_diameter(ps: PointSet) -> RawScalar:
    """Largest squared distance between two points of the set."""
    gram = kernel(ps)
    return gram.value(gram.max_sqdist())


def set_margin(ps: PointSet,
               threads: Optional[int] = None) -> Tuple[RawScalar, TripleWitness]:
    """Margin of a whole point set: the worst angle over all triples.

    Returns the minimum apex inner product together with a witness: among
    all triples achieving the minimum, the lexicographically smallest
    ``(apex, leg1, leg2)`` with ``leg1 < leg2``. ``threads`` is accepted
    and ignored; the scan runs in one thread.
    """
    n = len(ps)
    if n < 3:
        raise GeometryError(f"need at least 3 points, got {n}")
    gram = kernel(ps)
    raw, args = gram.min_dots(range(n))
    margin = gram.value(raw)
    return margin, TripleWitness(*args[0], margin)
