"""Independent exact checks for the benchmark.

Nothing here calls the program's arithmetic: coordinates are read as plain
values (a ``Fraction``, a float, or the term list of a sparse dyadic value)
and every inner product is recomputed in difference form,
<p_a - p_q, p_b - p_q>, which is not the Gram form the program's kernel uses.

Two representations cover every set the workloads produce:

* sets whose coordinates fit a ``Fraction`` or are float64 are scaled to
  integers over their common denominator (:class:`ExactScan`);
* the sparse ladder sets of d >= 6 are handled as dicts ``{e: c}`` meaning
  ``sum(c * 2**e)`` (:func:`sparse`, :func:`sign`).

A failed check raises :class:`CheckFailure`.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import mul

# Float64 verdicts are judged against this tolerance rule, the one the
# package documents: strict margin = 1e-9 * (1 + squared diameter).
FLOAT_REL = 1e-9


class CheckFailure(AssertionError):
    """A program output disagrees with the independent computation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailure(what)


def show(x) -> str:
    """A short rendering of a possibly huge exact value, for messages."""
    terms = getattr(x, "terms", None)
    if terms is not None:
        return f"sparse(~{terms[0][1]}*2^{terms[0][0]})" if terms else "0"
    if isinstance(x, Fraction) and (x.numerator.bit_length()
                                    + x.denominator.bit_length() > 128):
        e = x.numerator.bit_length() - x.denominator.bit_length()
        return f"{'-' if x < 0 else ''}~2^{e}"
    return repr(x)


def triples(n: int) -> int:
    return n * (n - 1) * (n - 2) // 6


# ---------------------------------------------------------------------------
# Fraction and float64 sets: integers over the common denominator


class ExactScan:
    """Exact margin, slab depth and squared diameter of a small set.

    ``margin`` is the smallest apex dot with its lex-first ``(q, a, b)``,
    a < b; ``depth`` the smallest slab depth min(t, |p_y - p_x|^2 - t),
    t = <p_z - p_x, p_y - p_x>, with its lex-first ``(x, y, z)``, x < y.
    """

    def __init__(self, points):
        fr = [[Fraction(x) for x in p] for p in points]
        den = math.lcm(*(x.denominator for p in fr for x in p))
        self.rows = [[x.numerator * (den // x.denominator) for x in p]
                     for p in fr]
        self.d2 = den * den
        rows = self.rows
        n = len(rows)
        sq = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                sq[i][j] = sq[j][i] = sum((x - y) * (x - y)
                                          for x, y in zip(rows[i], rows[j]))
        self.sqdiam = self.value(max(max(r) for r in sq))
        best, bkey = None, None
        deep, dkey = None, None
        for q in range(n):
            pq = rows[q]
            diff = [[x - y for x, y in zip(p, pq)] for p in rows]
            lq = sq[q]
            for a in range(n):
                if a == q:
                    continue
                da = diff[a]
                for b in range(a + 1, n):
                    if b == q:
                        continue
                    v = sum(map(mul, da, diff[b]))
                    if best is None or v < best or (v == best
                                                    and (q, a, b) < bkey):
                        best, bkey = v, (q, a, b)
                    # t = v for the pair (q, a) with third point b when q < a,
                    # and for the pair (q, b) with third point a when q < b.
                    if q < a:
                        t = min(v, lq[a] - v)
                        if deep is None or t < deep or (t == deep
                                                        and (q, a, b) < dkey):
                            deep, dkey = t, (q, a, b)
                    if q < b:
                        t = min(v, lq[b] - v)
                        if deep is None or t < deep or (t == deep
                                                        and (q, b, a) < dkey):
                            deep, dkey = t, (q, b, a)
        self.margin, self.witness = self.value(best), bkey
        self.depth, self.slab_witness = self.value(deep), dkey

    def value(self, raw: int) -> Fraction:
        return Fraction(raw, self.d2)

    def dot(self, q: int, a: int, b: int) -> Fraction:
        r = self.rows
        return self.value(sum((x - z) * (y - z)
                              for x, y, z in zip(r[a], r[b], r[q])))

    def slab_depth(self, x: int, y: int, z: int) -> Fraction:
        t = self.dot(x, y, z)
        length = self.value(sum((u - v) * (u - v) for u, v in
                                zip(self.rows[x], self.rows[y])))
        return min(t, length - t)


def check_exact_report(rep, scan: ExactScan, n: int, check: str,
                       mode: str) -> None:
    """An exact-backend report against the exact scan of the same set."""
    expect(rep.check == check, f"check {rep.check!r} != {check!r}")
    expect(rep.squared_diameter == scan.sqdiam, "squared diameter differs")
    if check == "antipodal":
        expect(rep.margin == scan.depth,
               f"slab margin {show(rep.margin)} != exact {show(scan.depth)}")
        got = rep.witness and rep.witness.indices()
        expect(got == scan.slab_witness,
               f"slab witness {got} != {scan.slab_witness}")
        expect(rep.witness.dot_value == rep.margin, "witness dot != margin")
        expect(rep.verdict == (scan.depth > 0), "slab verdict wrong")
        expect(rep.triples_checked == n * (n - 1) * (n - 2) // 2,
               "slab count wrong")
        return
    acute = scan.margin > 0
    if mode == "margin":
        expect(rep.margin == scan.margin,
               f"margin {show(rep.margin)} != exact {show(scan.margin)}")
        got = rep.witness and rep.witness.indices()
        expect(got == scan.witness, f"witness {got} != {scan.witness}")
        expect(rep.witness.dot_value == rep.margin, "witness dot != margin")
        expect(rep.verdict == acute, "margin-mode verdict wrong")
        expect(rep.triples_checked == triples(n), "triple count wrong")
        return
    expect(rep.verdict == acute, f"verdict {rep.verdict}, exact {acute}")
    if acute:
        expect(rep.witness is None and rep.margin is None,
               "a passing verdict carries a witness")
        expect(rep.triples_checked == triples(n), "pass did not scan all")
    else:
        w = rep.witness
        expect(w is not None, "a failing verdict has no witness")
        dot = scan.dot(*w.indices())
        expect(dot <= 0 and w.dot_value == dot and rep.margin == dot,
               f"verdict witness {w.indices()} is not a failing angle "
               f"(dot {show(dot)})")
        expect(1 <= rep.triples_checked <= triples(n), "early-exit count")


def check_float_report(rep, scan: ExactScan, n: int, check: str,
                       mode: str) -> None:
    """A float64 report against the exact values of its float coordinates.

    The verdict is wrong when it passes a set whose exact margin is <= 0 or
    rejects one whose exact margin exceeds twice the strict margin. Reported
    values must lie within half a strict margin of the exact ones, and the
    witness must attain the minimum to that resolution.
    """
    strict = FLOAT_REL * (1.0 + float(scan.sqdiam))
    tol = strict / 2
    expect(rep.check == check, f"check {rep.check!r} != {check!r}")
    expect(abs(rep.squared_diameter - scan.sqdiam) <= tol,
           f"squared diameter {rep.squared_diameter} != exact "
           f"{float(scan.sqdiam)}")
    exact = scan.depth if check == "antipodal" else scan.margin
    if rep.verdict:
        expect(exact > 0, f"float pass on exact margin {float(exact)}")
    else:
        expect(exact <= 2 * strict,
               f"float reject on exact margin {float(exact)}")
    if check == "antipodal" or mode == "margin":
        expect(abs(rep.margin - exact) <= tol,
               f"margin {rep.margin} != exact {float(exact)}")
        w = rep.witness
        got = (scan.slab_depth(*w.indices()) if check == "antipodal"
               else scan.dot(*w.indices()))
        expect(got - exact <= tol and w.dot_value == rep.margin,
               f"witness {w.indices()} is not minimal (exact {float(got)})")
        count = n * (n - 1) * (n - 2) // (2 if check == "antipodal" else 6)
        expect(rep.triples_checked == count, "triple count wrong")
        return
    if rep.verdict:
        expect(rep.witness is None and rep.triples_checked == triples(n),
               "pass did not scan all")
    else:
        w = rep.witness
        dot = scan.dot(*w.indices())
        expect(dot <= 2 * strict and abs(w.dot_value - dot) <= tol
               and rep.margin == w.dot_value,
               f"verdict witness {w.indices()} is not a failing angle")


def check_report(rep, scan: ExactScan, n: int, check: str, mode: str,
                 backend: str) -> None:
    expect(rep.backend == backend, f"backend {rep.backend} != {backend}")
    if backend == "float64":
        check_float_report(rep, scan, n, check, mode)
    else:
        check_exact_report(rep, scan, n, check, mode)


# ---------------------------------------------------------------------------
# sparse dyadic values of the ladder sets: {e: c} = sum(c * 2**e)


def sparse(x) -> dict:
    """The value of a coordinate or margin as ``{e: c}``."""
    terms = getattr(x, "terms", None)
    if terms is not None:                    # the program's sparse dyadic
        return {e: c for e, c in terms if c}
    f = Fraction(x)
    q = f.denominator
    if q & (q - 1):
        raise CheckFailure(f"{x!r} is not dyadic")
    return {1 - q.bit_length(): f.numerator} if f else {}


def _add(u: dict, v: dict, s: int = 1) -> dict:
    r = dict(u)
    for e, c in v.items():
        t = r.get(e, 0) + s * c
        if t:
            r[e] = t
        else:
            r.pop(e, None)
    return r


def sub(u: dict, v: dict) -> dict:
    return _add(u, v, -1)


def smul(u: dict, v: dict) -> dict:
    r: dict = {}
    for e1, c1 in u.items():
        for e2, c2 in v.items():
            r[e1 + e2] = r.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in r.items() if c}


def sign(u: dict) -> int:
    """Exact sign of a sparse value.

    Terms are cut into clusters wherever two neighbouring exponents are
    more than ``gap`` = bitlen(sum |c|) + 2 apart. A nonzero cluster is at
    least 2**(its lowest exponent) in size, and everything below it sums
    to less than a quarter of that, so the first nonzero cluster decides.
    """
    if not u:
        return 0
    es = sorted(u, reverse=True)
    gap = sum(abs(c) for c in u.values()).bit_length() + 2
    start = 0
    for k in range(1, len(es) + 1):
        if k == len(es) or es[k - 1] - es[k] > gap:
            lo = es[k - 1]
            v = sum(u[e] << (e - lo) for e in es[start:k])
            if v:
                return 1 if v > 0 else -1
            start = k
    return 0


def sdot(pts, q: int, a: int, b: int) -> dict:
    total: dict = {}
    for xq, xa, xb in zip(pts[q], pts[a], pts[b]):
        total = _add(total, smul(sub(xa, xq), sub(xb, xq)))
    return total


def ssqdist(pts, i: int, j: int) -> dict:
    total: dict = {}
    for x, y in zip(pts[i], pts[j]):
        d = sub(x, y)
        total = _add(total, smul(d, d))
    return total


def check_ladder_report(ps, rep, d: int, sample: int,
                        rng: random.Random) -> None:
    """Checks on a margin-mode certificate of the d >= 6 ladder set."""
    n = 2 ** (d - 1) + 1
    expect(len(ps.points) == n, f"{len(ps.points)} points, expected {n}")
    pts = [[sparse(x) for x in p] for p in ps.points]
    half, top = sparse(Fraction(1, 2)), sparse(Fraction(d, 2))
    expect(all(sign(sub(x, half)) == 0 for x in pts[-1][:-1])
           and sign(sub(pts[-1][-1], top)) == 0,
           "the last point is not the apex (1/2, ..., 1/2, d/2)")
    expect(rep.check == "acute" and rep.verdict
           and rep.triples_checked == triples(n), "not a full acute pass")
    m = sparse(rep.margin)
    expect(sign(m) > 0, "margin is not positive")
    w = rep.witness
    expect(w is not None and sign(sub(sparse(w.dot_value), m)) == 0,
           "witness dot differs from the margin")
    expect(sign(sub(sdot(pts, *w.indices()), m)) == 0,
           f"the recomputed dot at {w.indices()} is not the margin")
    for _ in range(sample):
        q, a, b = rng.sample(range(n), 3)
        expect(sign(sub(sdot(pts, q, a, b), m)) >= 0,
               f"angle {(q, a, b)} is below the reported margin")
    sqd = sparse(rep.squared_diameter)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    far = [sign(sub(ssqdist(pts, i, j), sqd))
           for i, j in rng.sample(pairs, min(sample, len(pairs)))]
    expect(max(far) <= 0, "a squared distance exceeds the diameter")


def check_radius(radius, margin, sqdiam) -> None:
    """0 < r <= 1 and 2 r (2 sqrt(D2) + 1) <= margin, exactly."""
    if not any(hasattr(x, "terms") for x in (radius, margin, sqdiam)):
        r, m, s = Fraction(radius), Fraction(margin), Fraction(sqdiam)
        slack = m - 2 * r
        expect(0 < r <= 1, "radius not in (0, 1]")
        expect(slack >= 0 and 16 * r * r * s <= slack * slack,
               "radius exceeds margin / (2 (2 D + 1))")
        return
    r, m, s = sparse(radius), sparse(margin), sparse(sqdiam)
    expect(sign(r) > 0 and sign(sub(r, {0: 1})) <= 0, "radius not in (0, 1]")
    slack = sub(m, smul({1: 1}, r))                      # m - 2r
    expect(sign(slack) >= 0
           and sign(sub(smul(slack, slack),
                        smul({4: 1}, smul(smul(r, r), s)))) >= 0,
           "radius exceeds margin / (2 (2 D + 1))")
