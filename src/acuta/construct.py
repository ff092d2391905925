"""Building candidate acute configurations from perturbed hypercubes.

The target cardinality in dimension d is ``2**(d-1) + 1``: the ``2**(d-1)``
vertices of a unit (d-1)-cube embedded at height zero, each displaced a
little, plus one apex raised over the cube's center. Right angles are native
to the cube, so the whole game is displacing vertices without creating new
bad angles while destroying all the old ones.

Two schedules are offered:

* ``"geometric"`` sweeps the vertices in lexicographic order and displaces
  vertex i with the coupled step of scale ``s_1 * gamma**i``, halving ``s_1``
  and restarting (up to ``max_retries`` times) whenever the sweep fails to
  end acute. This is the transparent, schedule-driven path; for most
  dimensions it fails honestly (see the module notes below).
* ``"adaptive"`` returns a certified configuration chosen per dimension:
  frozen searched designs for d <= 4, and for 5 <= d <= 8 an exact scale
  ladder whose coordinates are sparse :class:`Dyadic` sums. Beyond d = 8,
  and for float64 beyond d = 4, it raises ConstructionError with the
  measured numbers.

Why the split: the coupled one-vertex step repairs every right angle it
touches, but its Case-2 repairs are worth only ~(d-1)*a**2, fourth order in
the step scale. Each later vertex must therefore move *cubically* less than
the one before it, and with ``2**(d-2)`` antipodal classes to separate the
final scales shrink doubly exponentially in d: the deepest scale is
2**-12028 at d = 5, 2**-78918988 at d = 6 and about 2**-(7.4e30) at d = 8.
float64 stops near 2**-1074, so it fails from d = 5 on. A dense Fraction
would need 10**8 bits at d = 6, but every ladder coordinate is a short sum
of terms c * 2**e, so the sparse form certifies d = 6, 7 and 8 exactly (in
about 0.5 s, 2.5 s and 14 s on a 2-core machine). What stops the ladder
there is the size of the scan, not the numbers: 2**(d-1)+1 points need
n * C(n-1, 2) apex dots, 1 048 512 at d = 8 and 8 388 480 at d = 9.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import _designs
from .geometry import (GeometryError, Point, PointSet, dot_at_apex, kernel,
                       squared_diameter)
from .scalars import FLOAT64, RATIONAL, Backend, Dyadic, RawScalar, as_exact

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


class ConstructionError(RuntimeError):
    """A schedule could not produce (or certify) the requested set."""


def _coupled(mu: int, s: RawScalar) -> Tuple[RawScalar, RawScalar]:
    """The coupled step sizes (a, b) = ((d-1) s^2, (d-1) s).

    Producer and trace validator both call this, so the float backend gets
    bit-identical values on both sides.
    """
    return mu * s * s, mu * s


@dataclass(frozen=True)
class ConstructionConfig:
    """Parameters for one construction run.

    ``apex_height`` must satisfy c^2 > (d-1)/4 strictly (checked exactly in
    the rational backend); equality would put the apex on the sphere where
    the apex angle over an antipodal cube pair degenerates to right.
    """

    dim: int
    backend: Backend = RATIONAL
    schedule: str = "adaptive"
    s1: Optional[RawScalar] = None
    gamma: Optional[RawScalar] = None
    apex_height: Optional[RawScalar] = None
    max_retries: int = 40

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.backend not in (RATIONAL, FLOAT64):
            raise ValueError(f"unknown backend: {self.backend!r}")
        if self.schedule not in ("adaptive", "geometric"):
            raise ValueError(f"unknown schedule: {self.schedule!r}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

        if self.schedule == "geometric":
            s1 = Fraction(1, 10) if self.s1 is None else Fraction(self.s1)
            gamma = Fraction(1, 4) if self.gamma is None else Fraction(self.gamma)
            if not s1 > 0:
                raise ValueError("geometric schedule needs s1 > 0")
            if not (0 < gamma < 1):
                raise ValueError("geometric schedule needs 0 < gamma < 1")
            object.__setattr__(self, "s1", self._num(s1))
            object.__setattr__(self, "gamma", self._num(gamma))
        else:
            if self.s1 is not None or self.gamma is not None:
                raise ValueError("s1/gamma only apply to the geometric schedule")

        c = Fraction(self.dim, 2) if self.apex_height is None \
            else Fraction(self.apex_height)
        if not 4 * c * c > self.dim - 1:
            raise ValueError(
                f"apex_height {c} violates c^2 > (d-1)/4 (boundary included)")
        object.__setattr__(self, "apex_height", self._num(c))

    def _num(self, x: Fraction) -> RawScalar:
        return x if self.backend == RATIONAL else float(x)


@dataclass(frozen=True)
class TraceStep:
    """One displacement: vertex ``index`` moved by at most ``eps``.

    ``s`` is the coupled scale of the step, ``a`` and ``b`` its in-plane and
    lift components. For table-design steps the displacement is free-form and
    ``s`` is the nominal scale ``eps/(d-1)`` of a coupled step with the same
    displacement bound; for ladder and geometric steps ``s`` is the scale
    actually applied.
    """

    index: int
    eps: RawScalar
    s: RawScalar
    a: RawScalar
    b: RawScalar


@dataclass(frozen=True)
class ConstructionTrace:
    dim: int
    backend: Backend
    vertex_order: Tuple[int, ...]
    steps: Tuple[TraceStep, ...] = field(default=())

    def __post_init__(self) -> None:
        n = len(self.vertex_order)
        if len(self.steps) != n:
            raise ValueError("one step per vertex required")
        if sorted(self.vertex_order) != list(range(n)):
            raise ValueError("vertex_order must be a permutation of 0..n-1")
        mu = self.dim - 1
        prev = None
        for st in self.steps:
            if st.eps < 0:
                raise ValueError(f"negative eps in step {st.index}")
            if prev is not None and st.eps > prev:
                raise ValueError("eps must be non-increasing along the trace")
            prev = st.eps
            a, b = _coupled(mu, st.s)
            if st.a != a or st.b != b:
                raise ValueError(
                    f"step {st.index} breaks the coupling a=(d-1)s^2, b=(d-1)s")


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
    a, b = _coupled(mu, s)
    if not a < 1:
        raise GeometryError(f"step too large: (d-1)*s^2 = {a} >= 1")
    coords = tuple(a if v[j] == 0 else 1 - a for j in range(mu))
    return coords + (b,)


@dataclass(frozen=True)
class LemmaReport:
    """Result of the exhaustive right-angle repair check."""

    ok: bool
    d: int
    s: Fraction
    min_case1: Optional[Fraction]
    min_case2: Optional[Fraction]
    coupling_residual: Fraction
    checks: int


def _pad(v: Sequence[int]) -> Point:
    return tuple(Fraction(x) for x in v) + (Fraction(0),)


def lemma_check(d: int, s) -> LemmaReport:
    """Exhaustively confirm the single-step displacement lemma.

    For every vertex x of the (d-1)-cube, displace it alone to x' with the
    coupled step of scale ``s`` and recompute, in exact arithmetic, every
    angle of every triangle containing x' (the third points y, z ranging
    over all other vertices):

    * case 1 - the angle sits at an unmoved vertex y. The lift component b
      is orthogonal to the cube plane, so the inner product moves by at
      most (d-1) a; originally-right angles gain exactly +a per coordinate
      the other leg flips, and originally-acute ones keep a surplus of at
      least 1 - (d-1)^2 s^2.
    * case 2 - the angle sits at x' itself. Here the first-order gains and
      losses cancel identically — the coupling makes b^2 - (d-1) a = 0 —
      and only the second-order surplus ~(d-1) a^2 keeps previously-right
      angles strictly acute.

    Returns the minima observed in both cases plus the coupling residual
    b^2 - (d-1) a, which the caller can assert to be exactly zero.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    s = Fraction(s)
    mu = d - 1
    a, b = _coupled(mu, s)
    if not (s > 0 and a < 1):
        raise ValueError(f"scale {s} out of range for d = {d}")
    residual = b * b - mu * a

    verts = [_pad(v) for v in itertools.product((0, 1), repeat=mu)]
    min1: Optional[Fraction] = None
    min2: Optional[Fraction] = None
    checks = 0
    ok = True
    for xi, px in enumerate(verts):
        moved = perturb_vertex(px, s)
        others = [p for i, p in enumerate(verts) if i != xi]
        for py, pz in itertools.combinations(others, 2):
            at_y = dot_at_apex(py, moved, pz)
            at_z = dot_at_apex(pz, moved, py)
            at_moved = dot_at_apex(moved, py, pz)
            checks += 3
            for val in (at_y, at_z):
                if min1 is None or val < min1:
                    min1 = val
            if min2 is None or at_moved < min2:
                min2 = at_moved
            if at_y <= 0 or at_z <= 0 or at_moved <= 0:
                ok = False
    return LemmaReport(ok=ok, d=d, s=s, min_case1=min1, min_case2=min2,
                       coupling_residual=residual, checks=checks)


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
        raise ValueError(f"safe_radius needs a positive margin, got {margin}")
    sqd = squared_diameter(ps)
    if isinstance(sqd, Dyadic) or isinstance(margin, Dyadic):
        # 2**(2h) >= sqd because sqd < 2**(floor_log2(sqd) + 1).
        h = max(0, (Dyadic.of(sqd).floor_log2() + 2) // 2)
        return as_exact(min(Dyadic.of(margin) * Dyadic.pow2(-h - 3),
                            Dyadic.pow2(0)))
    dhat = _ceil_sqrt_int(sqd)
    if ps.backend == RATIONAL:
        return min(Fraction(1), Fraction(margin) / (2 * (2 * dhat + 1)))
    return min(1.0, float(margin) / (2 * (2 * dhat + 1)))


def apex_point(d: int, c: Optional[RawScalar] = None,
               backend: Backend = RATIONAL) -> Point:
    """The apex (1/2, ..., 1/2, c) over the cube center; default c = d/2.

    Requires c^2 > (d-1)/4 strictly: on the boundary the apex angle over an
    antipodal pair of cube vertices is exactly right.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    cf = Fraction(d, 2) if c is None else Fraction(c)
    if not 4 * cf * cf > d - 1:
        raise ValueError(
            f"apex height {cf} violates c^2 > (d-1)/4 (boundary included)")
    half = Fraction(1, 2)
    pt = tuple([half] * (d - 1) + [cf])
    if backend == RATIONAL:
        return pt
    return tuple(float(x) for x in pt)


# ---------------------------------------------------------------------------
# displacement bookkeeping


def _sqrt_upper_common(values: List[Fraction]) -> List[Fraction]:
    """Dyadic upper bounds for the square roots of exact values.

    All bounds share one denominator 2**bits (bits grown until every nonzero
    bound carries at least 8 significant bits), which makes the map monotone:
    x <= y implies bound(x) <= bound(y).
    """

    def at_bits(x: Fraction, bits: int) -> int:
        scaled = x * (1 << (2 * bits))
        r = math.isqrt(scaled.numerator // scaled.denominator)
        if r * r < scaled:
            r += 1
        return r

    bits = 16
    while True:
        rs = [at_bits(x, bits) for x in values]
        if all(r >= 256 for r, x in zip(rs, values) if x > 0):
            return [Fraction(r, 1 << bits) for r in rs]
        bits *= 2


def _make_trace(dim: int, backend: Backend, order: List[int],
                eps_list: List[RawScalar],
                s_list: List[RawScalar]) -> ConstructionTrace:
    mu = dim - 1
    steps = []
    for idx, eps, s in zip(order, eps_list, s_list):
        a, b = _coupled(mu, s)
        steps.append(TraceStep(index=idx, eps=eps, s=s, a=a, b=b))
    return ConstructionTrace(dim=dim, backend=backend,
                             vertex_order=tuple(order), steps=tuple(steps))


def _nominal_trace(dim: int, backend: Backend,
                   originals: Sequence[Point],
                   moved: Sequence[Point]) -> ConstructionTrace:
    """Trace for free-form designs: steps ordered by decreasing displacement,
    eps an upper bound on the actual displacement, s the nominal eps/(d-1)."""
    mu = dim - 1
    n = len(originals)
    d2 = [dot_at_apex(originals[i], moved[i], moved[i]) for i in range(n)]
    order = sorted(range(n), key=lambda i: (-d2[i], i))
    if backend == RATIONAL:
        eps_sorted = _sqrt_upper_common([d2[i] for i in order])
        s_sorted = [e / mu for e in eps_sorted]
    else:
        eps_sorted = [math.nextafter(math.sqrt(d2[i]), math.inf) if d2[i] else 0.0
                      for i in order]
        s_sorted = [e / mu for e in eps_sorted]
    return _make_trace(dim, backend, order, eps_sorted, s_sorted)


# ---------------------------------------------------------------------------
# schedules


def _adaptive(cfg: ConstructionConfig) -> Tuple[PointSet, ConstructionTrace]:
    d = cfg.dim
    if _designs.has_design(d):
        rows = _designs.design_cube_points(d)
        if cfg.backend == RATIONAL:
            pts: Tuple[Point, ...] = rows
        else:
            pts = tuple(tuple(float(x) for x in row) for row in rows)
        originals = hypercube_vertices(d, cfg.backend).points
        trace = _nominal_trace(d, cfg.backend, originals, pts)
        ps = PointSet(dim=d, points=pts, backend=cfg.backend,
                      provenance={"schedule": "adaptive", "design": f"d{d}"})
        return ps, trace

    if cfg.backend == FLOAT64:
        # float64 bottoms out near 2**-1074.
        raise ConstructionError(
            f"adaptive construction at d = {d} needs displacement scales far "
            f"below the float64 range (its deepest ladder scale is "
            f"2**-{_deepest_exponent(d)}); use the rational "
            f"backend for d <= {_designs.LADDER_MAX_DIM}")
    if d > _designs.LADDER_MAX_DIM:
        top = _designs.LADDER_MAX_DIM
        dots, dots_top = _apex_dots(d), _apex_dots(top)
        secs = _designs.LADDER_MAX_DIM_SECONDS
        raise ConstructionError(
            f"adaptive construction at d = {d} is out of reach: certifying "
            f"its {2 ** (d - 1) + 1} points takes {dots:,} exact apex dots and "
            f"its deepest ladder scale is 2**-{_deepest_exponent(d)}; "
            f"the largest certified dimension, d = {top}, checks "
            f"{dots_top:,} dots in {secs:.0f} s, so d = {d} would take about "
            f"{secs * dots / dots_top:,.0f} s")
    return _ladder(cfg)


def _apex_dots(d: int) -> int:
    """Apex inner products in an exact margin scan of 2**(d-1)+1 points."""
    n = 2 ** (d - 1) + 1
    return n * (n - 1) * (n - 2) // 2


def _deepest_exponent(d: int) -> str:
    """The last ladder exponent k_L = k_1 3^(L-1) + (3^(L-1) - 1)/2, as text.

    Exact up to 2**12 levels (d <= 14), a decimal magnitude beyond.
    """
    levels = 2 ** (d - 2)
    k1 = _designs.ladder_k1(d)
    if levels > 1 << 12:
        return f"(about 10^{(levels - 1) * math.log10(3) + math.log10(k1):.0f})"
    p = 3 ** (levels - 1)
    digits = str(k1 * p + (p - 1) // 2)
    if len(digits) <= 12:
        return digits
    return f"{digits[0]}.{digits[1:3]}e{len(digits) - 1}"


def _ladder(cfg: ConstructionConfig) -> Tuple[PointSet, ConstructionTrace]:
    """Exact construction for d >= 5: one dyadic scale per antipodal class.

    Vertices of the (d-1)-cube come in 2**(d-2) antipodal pairs. Pair number
    ell (pairs sorted by their lexicographically smaller member) is displaced
    with scale 2**-k_ell from :func:`_designs.ladder_ks`. A pair sharing one
    scale keeps its own slab condition exact, and the cubic growth of k
    makes every deeper level's fourth-order repair surplus dominate the
    damage all shallower levels can inflict on it. The scales are sparse
    :class:`Dyadic` values: at d = 6 the deepest is 2**-(about 10**8).
    """
    d = cfg.dim
    mu = d - 1
    verts = list(itertools.product((0, 1), repeat=mu))
    reps = sorted({min(v, tuple(1 - x for x in v)) for v in verts})
    ks = _designs.ladder_ks(d)
    k_of_class = {}
    for k, rep in zip(ks, reps):
        k_of_class[rep] = k_of_class[tuple(1 - x for x in rep)] = k
    k_of = [k_of_class[v] for v in verts]

    originals = hypercube_vertices(d, RATIONAL).points
    moved = tuple(perturb_vertex(o, Dyadic.pow2(-k))
                  for o, k in zip(originals, k_of))
    # A vertex moves by sqrt(mu^2 s^2 + mu^3 s^4) = mu s sqrt(1 + mu s^2),
    # which the dyadic mu s + mu^2 s^3 bounds from above.
    order = sorted(range(len(verts)), key=lambda i: (k_of[i], i))
    s_sorted = [Dyadic.pow2(-k_of[i]) for i in order]
    eps_sorted = [mu * s + mu * mu * s * s * s for s in s_sorted]
    trace = _make_trace(d, RATIONAL, order, eps_sorted, s_sorted)
    ps = PointSet(dim=d, points=moved, backend=RATIONAL,
                  provenance={"schedule": "adaptive", "design": f"ladder-d{d}",
                              "ks": list(ks)})
    return ps, trace


def _cube_all_acute(pts: List[Point]) -> bool:
    """Early-exit scan used only inside the geometric sweep."""
    return not any(triangle_has_nonacute(*t)
                   for t in itertools.combinations(pts, 3))


def triangle_has_nonacute(a: Point, b: Point, c: Point) -> bool:
    return (dot_at_apex(a, b, c) <= 0 or dot_at_apex(b, a, c) <= 0
            or dot_at_apex(c, a, b) <= 0)


def _geometric(cfg: ConstructionConfig) -> Tuple[PointSet, ConstructionTrace]:
    d = cfg.dim
    mu = d - 1
    originals = hypercube_vertices(d, cfg.backend).points
    n = len(originals)
    two = Fraction(2) if cfg.backend == RATIONAL else 2.0

    s1 = cfg.s1
    for attempt in range(cfg.max_retries + 1):
        base = s1 / (two ** attempt) if attempt else s1
        moved: List[Point] = []
        s_list: List[RawScalar] = []
        feasible = True
        s = base
        for i in range(n):
            if not (s > 0 and mu * s * s < 1):
                feasible = False
                break
            moved.append(perturb_vertex(originals[i], s))
            s_list.append(s)
            s = s * cfg.gamma
        if feasible and len(set(moved)) == n and (n < 3 or _cube_all_acute(moved)):
            d2 = [dot_at_apex(o, m, m) for o, m in zip(originals, moved)]
            if cfg.backend == RATIONAL:
                eps = _sqrt_upper_common(d2)
            else:
                eps = [math.nextafter(math.sqrt(x), math.inf) for x in d2]
            trace = _make_trace(d, cfg.backend, list(range(n)), eps, s_list)
            ps = PointSet(dim=d, points=tuple(moved), backend=cfg.backend,
                          provenance={"schedule": "geometric",
                                      "attempt": attempt})
            return ps, trace
    raise ConstructionError(
        f"geometric schedule failed at d = {d} after {cfg.max_retries} "
        "halvings of s1: every sweep left a non-acute triple. The sweep's "
        "repairs are fourth order in the step scale while its damage is "
        "first order, so a single geometric decay rate cannot separate "
        "the antipodal classes; this failure is expected for d >= 3")


def construct_acute_cube(cfg: ConstructionConfig) -> Tuple[PointSet, ConstructionTrace]:
    """Displaced cube part only (no apex), with its construction trace."""
    if cfg.schedule == "adaptive":
        return _adaptive(cfg)
    return _geometric(cfg)


def construct_full(cfg: ConstructionConfig):
    """Cube part plus apex, guard-checked and independently re-verified.

    Returns ``(point_set, trace, report)``. Raises ConstructionError if the
    pairwise guard |x_i - x_j|^2 < 2 ((d-1)/4 + c^2) fails on the cube part
    or if the final certification does not come back acute.
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
    gram = kernel(cube)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d2 = gram.value(gram.sqdist(i, j))
            if not d2 < lim:
                raise ConstructionError(
                    f"guard failed: |x_{i} - x_{j}|^2 = {d2} is not below "
                    f"2((d-1)/4 + c^2) = {lim}; the apex angle over this "
                    "pair could not be certified acute")

    full = PointSet(dim=d, points=pts + (apex,), backend=cfg.backend,
                    provenance={**(cube.provenance or {}),
                                "apex_height": str(c)})
    report = verify_acute(full, mode="margin")
    if not report.verdict:
        w = report.witness.indices() if report.witness else None
        raise ConstructionError(
            f"final certification failed: margin {report.margin} at {w}")
    return full, trace, report


def random_baseline(dim: int, trials: int = 200, seed: int = 0) -> PointSet:
    """Greedy random baseline: keep uniform points that stay acute.

    Draws ``trials`` uniform points from the unit cube and keeps each one
    that leaves every triple strictly acute. The stall size of this greedy
    filter is tiny compared to 2**(dim-1) + 1, which is the point.
    """
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    kept: List[Point] = []
    for _ in range(trials):
        cand = tuple(float(x) for x in rng.random(dim))
        good = True
        for i in range(len(kept)):
            if not good:
                break
            for j in range(i + 1, len(kept)):
                if triangle_has_nonacute(kept[i], kept[j], cand):
                    good = False
                    break
        if good and cand not in kept:
            kept.append(cand)
    return PointSet(dim=dim, points=tuple(kept), backend=FLOAT64,
                    provenance={"schedule": "random-baseline",
                                "trials": trials, "seed": seed})
