"""Building candidate acute configurations from perturbed hypercubes.

The target cardinality in dimension d is ``2**(d-1) + 1``: the ``2**(d-1)``
vertices of a unit (d-1)-cube embedded at height zero, each displaced a
little, plus one apex raised over the cube's center. Right angles are native
to the cube, so the whole game is displacing vertices without creating new
bad angles while destroying all the old ones.

The cube part is chosen per dimension: frozen searched designs for
d <= 4, and for 5 <= d <= 10 an exact scale ladder whose coordinates are
sparse :class:`Dyadic` sums. Beyond d = 10, and for float64 beyond d = 4,
construction raises ConstructionError with the measured numbers.

Why a ladder: the coupled one-vertex step repairs every right angle it
touches, but its Case-2 repairs are worth only ~(d-1)*a**2, fourth order in
the step scale. Each later vertex must therefore move *cubically* less than
the one before it, and with ``2**(d-2)`` antipodal classes to separate the
final scales shrink doubly exponentially in d: the deepest scale is
2**-12028 at d = 5, 2**-78918988 at d = 6 and about 2**-(3.5e122) at
d = 10. float64 stops near 2**-1074, so it fails from d = 5 on. A dense
Fraction would need 10**8 bits at d = 6, but every ladder coordinate is a
short sum of terms c * 2**e, so the sparse form certifies d = 6 to 10
exactly (the README's ladder table gives the measured times). What stops
the ladder there is the size of the scan, not the numbers: the certificate
of 2**(d-1)+1 points covers n * C(n-1, 2) apex dots (67 108 608 at d = 10,
536 870 400 at d = 11), about half of them computed. A refusal prints each
figure in full below 10**15 and beyond as an exact expression in d, such
as ``2**(d-1) + 1`` points, so no figure of any d is rounded or overflows.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from . import _designs
from .geometry import (GeometryError, Point, PointSet, _finite_sqdiam,
                       dot_at_apex, kernel, squared_diameter)
from .scalars import (FLOAT64, RATIONAL, Backend, Dyadic, RawScalar, as_exact,
                      brief, floor_log2)

__all__ = [
    "ConstructionError",
    "ConstructionConfig",
    "TraceStep",
    "ConstructionTrace",
    "hypercube_vertices",
    "perturb_vertex",
    "lemma_check",
    "LemmaReport",
    "safe_radius",
    "apex_point",
    "construct_acute_cube",
    "construct_full",
    "random_baseline",
]


# A refusal names d, so a d with more digits than CPython's int-to-str guard
# prints at its default is refused up front, however far the process has
# lifted the guard since (writing a large exact value lifts it).
_UNPRINTABLE_DIM = 10 ** sys.int_info.default_max_str_digits


class ConstructionError(RuntimeError):
    """The requested set is out of reach, or failed its guard or certificate."""


@dataclass(frozen=True)
class ConstructionConfig:
    """Parameters for one construction run.

    ``apex_height`` must satisfy c^2 > (d-1)/4 strictly (checked exactly in
    the rational backend); equality would put the apex on the sphere where
    the apex angle over an antipodal cube pair degenerates to right.
    """

    dim: int
    backend: Backend = RATIONAL
    apex_height: Optional[RawScalar] = None

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.backend not in (RATIONAL, FLOAT64):
            raise ValueError(f"unknown backend: {self.backend!r}")
        if self.dim >= _UNPRINTABLE_DIM:
            raise ValueError(f"dim of {self.dim.bit_length():,} bits has "
                             "too many digits to print")

        c = _apex_height(self.dim, self.apex_height)
        # Only the frozen designs build in float64 (see construct_acute_cube).
        if self.backend == FLOAT64 and _designs.has_design(self.dim):
            try:
                c = float(c)
            except OverflowError:
                raise ValueError("apex_height exceeds the float64 range") \
                    from None
        object.__setattr__(self, "apex_height", c)


@dataclass(frozen=True)
class TraceStep:
    """One displacement: vertex ``index`` moved by at most ``eps``.

    A ladder step keeps the scale ``s`` of the coupled step it applied (see
    :func:`perturb_vertex`; its in-plane and lift parts follow from s). A
    frozen design moves its vertices freely, so its steps have ``s = None``.
    """

    index: int
    eps: RawScalar
    s: Optional[RawScalar] = None


@dataclass(frozen=True)
class ConstructionTrace:
    """The steps that built a cube part, in the order they were taken:
    each vertex once, with eps never increasing."""

    dim: int
    backend: Backend
    steps: Tuple[TraceStep, ...]

    def __post_init__(self) -> None:
        if sorted(self.vertex_order) != list(range(len(self.steps))):
            raise ValueError("step indices must be a permutation of 0..n-1")
        prev = None
        for st in self.steps:
            if st.eps < 0:
                raise ValueError(f"negative eps in step {st.index}")
            if prev is not None and st.eps > prev:
                raise ValueError("eps must be non-increasing along the trace")
            prev = st.eps

    @property
    def vertex_order(self) -> Tuple[int, ...]:
        """The vertices in the order the steps moved them."""
        return tuple(st.index for st in self.steps)


def hypercube_vertices(d: int, backend: Backend = RATIONAL) -> PointSet:
    """Vertices of the unit (d-1)-cube embedded in R^d at last coordinate 0.

    Points are listed in lexicographic binary order of the first d-1
    coordinates.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    zero: RawScalar = Fraction(0) if backend == RATIONAL else 0.0
    one: RawScalar = Fraction(1) if backend == RATIONAL else 1.0
    pts = []
    for bits in itertools.product((0, 1), repeat=d - 1):
        coords = tuple(one if x else zero for x in bits) + (zero,)
        pts.append(coords)
    return PointSet(dim=d, points=tuple(pts), backend=backend)


def _is_cube_vertex(v: Point) -> bool:
    return all(x == 0 or x == 1 for x in v[:-1]) and v[-1] == 0


def perturb_vertex(v: Point, s: RawScalar) -> Point:
    """Displace one padded cube vertex by the coupled step of scale s.

    Every in-plane coordinate moves distance ``a = (d-1) s^2`` into the cube
    (0 -> a, 1 -> 1-a) and the vertex is lifted to height ``b = (d-1) s``.
    Requires 0 < s and (d-1) s^2 < 1 so the move stays inside the cell.
    """
    d = len(v)
    if d < 2:
        raise GeometryError("perturb_vertex needs points in R^d, d >= 2")
    if not _is_cube_vertex(v):
        raise GeometryError(f"not a padded cube vertex: {v}")
    mu = d - 1
    if not s > 0:
        raise GeometryError(f"step scale must be positive, got {s}")
    a, one_minus_a, b = _coupled_step(mu, s)
    if not a < 1:
        raise GeometryError(f"step too large: (d-1)*s^2 = {a} >= 1")
    coords = tuple(a if v[j] == 0 else one_minus_a for j in range(mu))
    return coords + (b,)


def _coupled_step(mu: int, s: RawScalar) -> Tuple[RawScalar, ...]:
    """The coupled step of scale s as (a, 1 - a, b): a = mu s^2, b = mu s."""
    a = mu * s * s
    return a, 1 - a, mu * s


@dataclass(frozen=True)
class LemmaReport:
    """Result of the right-angle repair check of the single-step lemma."""

    ok: bool
    d: int
    s: Fraction
    min_case1: Optional[Fraction]
    min_case2: Optional[Fraction]
    coupling_residual: Fraction
    checks: int


def lemma_check(d: int, s) -> LemmaReport:
    """Confirm the single-step displacement lemma from pattern counts.

    Move one cube vertex x alone to x' by the coupled step of scale ``s``
    (each in-plane coordinate a towards the centre, a lift b) and take two
    other vertices. From the angle's vertex, count the d-1 in-plane
    coordinates where neither leg differs (c00), only the first (c10),
    only the second (c01) or both (c11); a coordinate's two leg components
    share one sign. So the dot of the angle

    * (case 1) at an unmoved y, legs x' and z (1 where z differs, else 0;
      a where x agrees with y, 1 - a where not; lift 0) is c11 (1-a) + c01 a;
    * (case 2) at x', legs y and z (-a where a leg agrees with x, 1 - a
      where not; lifts -b) is c11 (1-a)^2 - (c10+c01) a (1-a) + c00 a^2 + b^2.
      Once b^2 = (d-1) a, this is c11 (1-a+a^2) + (c10+c01) a^2 +
      c00 (a+a^2): first-order terms cancel, right angles keep (d-1) a^2.

    The vertices are distinct exactly when c10+c11, c01+c11 and c10+c01
    are >= 1, and every such vector occurs, so the minima over them (None
    at d = 2) are those of the 9 C(2^(d-1), 3) ``checks``: three angles
    per triangle per moved vertex. They are taken on integer numerators
    over r and (less b^2) r^2, where a = p/r. The coupling residual
    b^2 - (d-1) a should be zero.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    s = Fraction(s)
    mu = d - 1
    a, _, b = _coupled_step(mu, s)
    if not (s > 0 and a < 1):
        raise ValueError(f"scale {s} out of range for d = {d}")
    counts = [(mu - c11 - c10 - c01, c10, c01, c11)
              for c11 in range(mu + 1) for c10 in range(mu + 1 - c11)
              for c01 in range(mu + 1 - c11 - c10)
              if c10 + c11 and c01 + c11 and c10 + c01]
    min1 = min2 = None
    if counts:
        p, r = a.as_integer_ratio()
        q = r - p
        min1 = Fraction(min(c11 * q + c01 * p
                            for _, _, c01, c11 in counts), r)
        min2 = Fraction(min(c11 * q * q - (c10 + c01) * p * q + c00 * p * p
                            for c00, c10, c01, c11 in counts), r * r) + b * b
    return LemmaReport(ok=all(m is None or m > 0 for m in (min1, min2)),
                       d=d, s=s, min_case1=min1, min_case2=min2,
                       coupling_residual=b * b - mu * a,
                       checks=9 * math.comb(2 ** mu, 3))


def _ceil_sqrt_int(x: RawScalar) -> int:
    """Smallest integer D with D*D >= x."""
    if x < 0:
        raise ValueError("negative squared length")
    r = math.isqrt(int(x))
    while r * r < x:
        r += 1
    return r


def safe_radius(ps: PointSet, margin: RawScalar) -> RawScalar:
    """A displacement radius certified not to destroy a margin.

    If every angle of the set has inner-product margin at least ``margin``,
    then moving every point by at most the returned radius keeps all angles
    strictly acute. The bound is min(1, margin / (2 (2 Dhat + 1))) where
    Dhat is the smallest integer whose square dominates the squared diameter.
    Values too large for a Fraction (exact ladder sets with d >= 6) take
    the smallest power of two Dhat = 2**h instead, and the bound
    margin * 2**-(h + 3), since 2 (2 Dhat + 1) <= 2**(h + 3).
    """
    if not margin > 0:
        raise ValueError(f"safe_radius needs a positive margin, got "
                         f"{brief(margin)}")
    sqd = _finite_sqdiam(squared_diameter(ps))
    if ps.backend == RATIONAL or isinstance(margin, Dyadic):
        margin = as_exact(margin)       # as an exact sqd already is
    if isinstance(sqd, Dyadic) or isinstance(margin, Dyadic):
        # 2**(2h) > sqd: 2h >= floor(log2 sqd) + 1, or h = 0 below 1.
        h = (floor_log2(sqd) + 2) // 2 if sqd >= 1 else 0
        return as_exact(min(margin * Dyadic.pow2(-h - 3), Dyadic.pow2(0)))
    dhat = _ceil_sqrt_int(sqd)
    if ps.backend == RATIONAL:
        return min(Fraction(1), margin / (2 * (2 * dhat + 1)))
    return min(1.0, float(margin) / (2 * (2 * dhat + 1)))


def _apex_height(d: int, c: Optional[RawScalar]) -> Fraction:
    """The apex height c as a Fraction, d/2 by default; ValueError unless
    c^2 > (d-1)/4 strictly."""
    c = Fraction(d, 2) if c is None else Fraction(c)
    if not 4 * c * c > d - 1:
        raise ValueError(
            f"apex height {brief(c)} violates c^2 > (d-1)/4 "
            "(boundary included)")
    return c


def apex_point(d: int, c: Optional[RawScalar] = None,
               backend: Backend = RATIONAL) -> Point:
    """The apex (1/2, ..., 1/2, c) over the cube center; default c = d/2.

    Requires c^2 > (d-1)/4 strictly: on the boundary the apex angle over an
    antipodal pair of cube vertices is exactly right.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    pt = (Fraction(1, 2),) * (d - 1) + (_apex_height(d, c),)
    if backend == RATIONAL:
        return pt
    return tuple(float(x) for x in pt)


# ---------------------------------------------------------------------------
# displacement bookkeeping


def _nominal_trace(dim: int, backend: Backend,
                   originals: Sequence[Point],
                   moved: Sequence[Point]) -> ConstructionTrace:
    """Trace for free-form designs: steps ordered by decreasing displacement,
    eps an upper bound on the actual displacement, no scale. Exact bounds
    lie on the grid 2**-16, so that a larger displacement never gets a
    smaller bound."""
    n = len(originals)
    d2 = [dot_at_apex(originals[i], moved[i], moved[i]) for i in range(n)]
    order = sorted(range(n), key=lambda i: (-d2[i], i))
    if backend == RATIONAL:
        eps_sorted = [Fraction(_ceil_sqrt_int(d2[i] * 4 ** 16), 2 ** 16)
                      for i in order]
    else:
        eps_sorted = [math.nextafter(math.sqrt(d2[i]), math.inf) if d2[i] else 0.0
                      for i in order]
    return ConstructionTrace(dim, backend, tuple(
        TraceStep(index=i, eps=e) for i, e in zip(order, eps_sorted)))


# ---------------------------------------------------------------------------
# construction


def construct_acute_cube(cfg: ConstructionConfig) -> Tuple[PointSet, ConstructionTrace]:
    """Displaced cube part only (no apex), with its construction trace."""
    d = cfg.dim
    if _designs.has_design(d):
        rows = _designs.design_cube_points(d)
        if cfg.backend == RATIONAL:
            pts: Tuple[Point, ...] = rows
        else:
            pts = tuple(tuple(float(x) for x in row) for row in rows)
        originals = hypercube_vertices(d, cfg.backend).points
        trace = _nominal_trace(d, cfg.backend, originals, pts)
        return PointSet(dim=d, points=pts, backend=cfg.backend), trace

    if cfg.backend == FLOAT64:
        # float64 bottoms out near 2**-1074.
        raise ConstructionError(
            f"construction at d = {d} needs displacement scales far "
            f"below the float64 range (its deepest ladder scale is "
            f"2**-{_deepest_exponent(d)}); use the rational "
            f"backend for d <= {_designs.LADDER_MAX_DIM}")
    if d > _designs.LADDER_MAX_DIM:
        raise _ladder_refusal(d)
    return _ladder(cfg)


def _apex_dots(d: int) -> int:
    """Apex dots that the margin certificate of 2**(d-1)+1 points covers."""
    n = 2 ** (d - 1) + 1
    return n * (n - 1) * (n - 2) // 2


def _ladder_refusal(d: int) -> ConstructionError:
    """Why d > LADDER_MAX_DIM is refused: the scan's size and its time
    scaled from the measured d = LADDER_MAX_DIM run, in full up to d = 17
    (each figure below 10**15) and as exact expressions in d beyond."""
    top = _designs.LADDER_MAX_DIM
    dots_top = _apex_dots(top)
    secs = _designs.LADDER_MAX_DIM_SECONDS
    if d <= 17:
        points = f"{2 ** (d - 1) + 1}"
        dots = f"{_apex_dots(d):,}"
        took = f"{secs * _apex_dots(d) / dots_top:,.0f} s"
    else:
        # The scans' ratio 8**(d - top) (1 - 4**(1-d)) / (1 - 4**(1-top))
        # lies between 8**(d - top) and 8**(d - top) (1 + 4**(2 - top)).
        points = f"2**{d - 1} + 1"
        dots = f"2**{d - 2} * (4**{d - 1} - 1)"
        took = f"{secs:.1f} s * 8**{d - top}"
    return ConstructionError(
        f"construction at d = {d} is beyond the ladder's limit "
        f"d = {top}: the certificate of its {points} points covers "
        f"{dots} exact apex dots, about half of them computed, and its "
        f"deepest ladder scale is 2**-{_deepest_exponent(d)}; d = {top} "
        f"covers {dots_top:,} dots in {secs:.1f} s, so d = {d} would take "
        f"about {took}")


def _deepest_exponent(d: int) -> str:
    """The last ladder exponent k_L of the L = 2**(d-2) levels as text: in
    full for d <= 6, where it is below 10**15, and beyond as the closed
    form of k_{l+1} = 3 k_l + 1, k_L = (k_1 + 1/2) 3**(L-1) - 1/2."""
    if d <= 6:
        return str(_designs.ladder_ks(d)[-1])
    return f"({_designs.ladder_k1(d)}.5 * 3**(2**{d - 2} - 1) - 0.5)"


def _ladder(cfg: ConstructionConfig) -> Tuple[PointSet, ConstructionTrace]:
    """Exact construction for d >= 5: one dyadic scale per antipodal class.

    Vertices of the (d-1)-cube come in 2**(d-2) antipodal pairs. Pair number
    ell (pairs sorted by their lexicographically smaller member, vertex ell)
    is displaced with scale 2**-k_ell from :func:`_designs.ladder_ks`. A pair
    sharing one scale keeps its own slab condition exact, and the cubic
    growth of k makes every deeper level's fourth-order repair surplus
    dominate the damage all shallower levels can inflict on it. The scales
    are sparse :class:`Dyadic` values: at d = 6 the deepest is 2**-(about
    10**8). A class's a, 1 - a, b, s and eps are built once, in the form
    :class:`PointSet` keeps, and shared by its vertices and trace steps.
    """
    d = cfg.dim
    mu = d - 1
    top = 2 ** mu - 1           # vertex top - i is the antipode of vertex i
    scales = [Dyadic.pow2(-k) for k in _designs.ladder_ks(d)]
    moves = [_coupled_step(mu, s) for s in scales]
    # PointSet's rule: Fractions unless some value is too large for one.
    if all(x.fits_fraction() for m in moves for x in m):
        moves = [tuple(x.to_fraction() for x in m) for m in moves]
    moved = []
    for i, v in enumerate(itertools.product((0, 1), repeat=mu)):
        a, one_minus_a, b = moves[min(i, top - i)]
        moved.append(tuple(one_minus_a if x else a for x in v) + (b,))
    # A vertex moves by sqrt(mu^2 s^2 + mu^3 s^4) = mu s sqrt(1 + mu s^2),
    # which the dyadic mu s + mu^2 s^3 bounds from above.
    steps = []
    for ell, s in enumerate(scales):
        eps = mu * s + mu * mu * s * s * s
        steps += [TraceStep(i, eps, s) for i in (ell, top - ell)]
    trace = ConstructionTrace(d, RATIONAL, tuple(steps))
    return PointSet(dim=d, points=tuple(moved), backend=RATIONAL), trace


def construct_full(cfg: ConstructionConfig):
    """Cube part plus apex, guard-checked and independently re-verified.

    Returns ``(point_set, trace, report)``. Raises ConstructionError if the
    pairwise guard |x_i - x_j|^2 < 2 ((d-1)/4 + c^2) fails on the cube part
    or if the final certification does not come back acute. Guard and
    certificate share one kernel of the full set (see
    :func:`~acuta.geometry.kernel`).
    """
    from .verify import verify_acute  # deferred: verify must not need us

    cube, trace = construct_acute_cube(cfg)
    d = cfg.dim
    c = cfg.apex_height
    apex = apex_point(d, c=c, backend=cfg.backend)

    pts = cube.points
    if cfg.backend == RATIONAL:
        lim: RawScalar = 2 * (Fraction(d - 1, 4) + Fraction(c) * Fraction(c))
    else:
        lim = 2.0 * ((d - 1) / 4.0 + float(c) * float(c))
    full = PointSet(dim=d, points=pts + (apex,), backend=cfg.backend)
    gram = kernel(full)
    # The set's squared diameter bounds every cube pair; only when it does
    # not clear the guard are the pairs converted one by one.
    if not gram.sqdiam() < lim:
        for i, j in itertools.combinations(range(len(pts)), 2):
            d2 = gram.value(gram.sqdist(i, j))
            if not d2 < lim:
                raise ConstructionError(
                    f"guard failed: |x_{i} - x_{j}|^2 = {d2} is not below "
                    f"2((d-1)/4 + c^2) = {lim}; the apex angle over this "
                    "pair could not be certified acute")

    report = verify_acute(full)
    if not report.verdict:
        w = report.witness.indices() if report.witness else None
        raise ConstructionError(f"final certification failed: margin "
                                f"{brief(report.margin)} at {w}")
    return full, trace, report


# Candidates the baseline draws at a time: a block of 1024 float64 rows,
# so that its memory does not grow with the number of trials.
_DRAWS = 1024


def random_baseline(dim: int, trials: int = 200, seed: int = 0) -> PointSet:
    """Greedy random baseline: keep uniform points that stay acute.

    Draws ``trials`` uniform points from the unit cube and keeps each one
    that leaves every triple strictly acute and is not already kept. The
    stall size of this greedy filter is tiny compared to 2**(dim-1) + 1,
    which is the point.

    The candidates are drawn in blocks of at most 1024, which is the same
    stream as one ``rng.random(dim)`` per trial. A block is first checked
    against every pair of the points kept so far; then, each time a point
    is kept, every later candidate of the block is checked in numpy
    against the new pairs (each earlier kept point, the new point). Each
    dot is summed left to right as :func:`~acuta.geometry.dot_at_apex`
    sums it, so the kept points are those of one trial at a time.
    """
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    kept = np.empty((0, dim))
    for start in range(0, trials, _DRAWS):
        cands = rng.random((min(_DRAWS, trials - start), dim))
        live = np.arange(len(cands))
        for t in range(len(kept)):
            live = live[_acute_with(kept, t, cands[live])]
        while live.size:
            kept = np.vstack((kept, cands[live[0]]))
            live = live[1:][_acute_with(kept, len(kept) - 1,
                                        cands[live[1:]])]
    return PointSet(dim=dim, points=tuple(map(tuple, kept.tolist())),
                    backend=FLOAT64)


def _acute_with(kept: np.ndarray, t: int, cands: np.ndarray) -> np.ndarray:
    """Which candidates c leave every triangle (kept[i], kept[t], c), i < t,
    strictly acute; for t = 0, which differ from kept[0]. A candidate equal
    to a kept point meets a later pair at a zero dot, so only the first
    kept point needs the comparison."""
    p = kept[t]
    if t == 0:
        return (cands != p).any(axis=1)
    a = kept[:t]
    ca = cands[:, None] - a
    cp = (cands - p)[:, None]
    # The dots at kept[i], at kept[t] and at c: (c - a)(c - p) is
    # (a - c)(p - c) exactly, since negating both factors is exact.
    ok = _sum_in_order((p - a) * ca) > 0
    ok &= _sum_in_order((a - p) * cp) > 0
    ok &= _sum_in_order(ca * cp) > 0
    return ok.all(axis=1)


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added left to right."""
    total = terms[..., 0].copy()
    for k in range(1, terms.shape[-1]):
        total += terms[..., k]
    return total
