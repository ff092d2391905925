"""Certification of point sets, independent of how they were built.

The checks take nothing from the construction: they see only the points.
Every scan runs on the kernel of the set's backend,
:func:`acuta.geometry.kernel` (:class:`~acuta.geometry.ExactGram` or
:class:`~acuta.geometry.FloatGram`); this module only assembles reports,
every one of them in ``_check``. ``_check`` takes the margin, its witness
and the refusals (fewer than 3 points, an overflowing float64 set) from
:func:`acuta.geometry.set_margin`. Every angle and slab check reads the
kernel's apex minimum, which the kernel scans once and keeps, so margin
and verdict mode agree on every verdict; only a failing verdict-mode check
sweeps on, for the first failing angle, in the one sweep both kernels
share (``_Kernel.first_failure``). Consecutive checks of one set share its
kernel (``kernel`` keeps the last set's until that set dies or another set
is scanned), so a margin, verdict and slab check of the same object build
one Gram matrix and scan it once. The independent check of the kernels is
the naive triple loop ``naive_margin`` in the test suite, which acceptance
criterion 8 compares against bit for bit.

Exact sets are certified exactly, with strict margin s = 0. float64 mode
is only a screen, with one rule: its strict margin is
s = ``1e-9 * (1 + squared diameter)``, computed in float64, so that it
grows with the set's scale. An angle is acute when its apex inner product
is > s and non-obtuse when it is >= -s; a slab holds when its depth is
> s. A float64 set whose squared diameter overflows is refused with
``ValueError``, here and by :func:`acuta.construct.safe_radius`.

Checks come in three strengths:

* ``verify_acute``: every angle strictly acute (the full certificate);
* ``verify_nonobtuse``: no obtuse angle (right angles tolerated);
* ``verify_antipodal_witness``: every pair of points spans a slab containing
  all other points strictly in its interior. In exact arithmetic this is
  equivalent to acuteness (the slab condition at pair (x, y) aggregates the
  angles at x and y over every third point), but it is organized per pair
  and produces pairwise witnesses.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from .geometry import PointSet, TripleWitness, kernel, set_margin
from .scalars import RATIONAL, Backend, RawScalar

__all__ = [
    "VerificationReport",
    "CardinalityReport",
    "verify_acute",
    "verify_nonobtuse",
    "verify_antipodal_witness",
    "verify_cardinality_bounds",
    "fibonacci",
    "ef_bound",
    "legacy_bounds",
    "target_size",
    "hard_cap",
]


@dataclass(frozen=True)
class VerificationReport:
    check: str
    verdict: bool
    margin: Optional[RawScalar]
    witness: Optional[TripleWitness]
    triples_checked: int
    squared_diameter: RawScalar
    backend: Backend
    elapsed: float


# The failing rule of each check for a strict margin s, on raw apex dots:
# an angle fails unless its dot is > s, and is obtuse below -s. The slab
# depths are the apex dots (see _Kernel.min_slab), held to the acute rule.
_FAILS = {
    "acute": lambda strict: (lambda dot: not dot > strict),
    "nonobtuse": lambda strict: (lambda dot: dot < -strict),
}
_FAILS["antipodal"] = _FAILS["acute"]


def _check(ps: PointSet, check: str, mode: str) -> VerificationReport:
    """The report of ``check`` on ``ps``, on ``set_margin``'s margin,
    witness and refusals. Raw exact values carry the true sign, and raw
    float values are the values themselves, so the strict margin s of the
    module docstring applies to raw dots as they are."""
    if mode not in ("margin", "verdict"):
        raise ValueError(f"unknown mode: {mode!r}")
    start = time.perf_counter()
    margin, witness = set_margin(ps)
    gram = kernel(ps)
    sqd = gram.sqdiam()
    strict = 0 if ps.backend == RATIONAL else 1e-9 * (1.0 + float(sqd))
    fails = _FAILS[check](strict)

    raw = gram.minimum()[0]
    n = len(ps)
    checked = n * (n - 1) * (n - 2) // 6
    if check == "antipodal":
        witness = TripleWitness(*gram.min_slab()[1], margin)
        checked *= 3
    if mode == "verdict":
        if not fails(raw):
            margin = witness = None
        else:
            # The first failing angle in sweep order. A float sweep can
            # find none only where rounding splits it from the minimum's
            # scan; the minimum's witness then stands.
            found, angle, dot = gram.first_failure(fails)
            if angle is not None:
                checked, margin = found, gram.value(dot)
                witness = TripleWitness(*angle, margin)
    return VerificationReport(
        check=check, verdict=not fails(raw), margin=margin, witness=witness,
        triples_checked=checked, squared_diameter=sqd, backend=ps.backend,
        elapsed=time.perf_counter() - start)


def verify_acute(ps: PointSet, mode: str = "margin") -> VerificationReport:
    """Certify that every angle is strictly acute.

    Both modes read the set's apex minimum. In ``"margin"`` mode the report
    carries it with a deterministic witness. In ``"verdict"`` mode a pass
    reports neither, and a failure reports the first failing angle of the
    sweep over triples i < j < k (angles at i, j, then k) and the triples
    swept to reach it.
    """
    return _check(ps, "acute", mode)


def verify_nonobtuse(ps: PointSet, mode: str = "margin") -> VerificationReport:
    """Certify that no angle is obtuse (right angles are allowed).

    Exact backend: every inner product must be >= 0. Float backend: must
    not drop below minus the strict margin.
    """
    return _check(ps, "nonobtuse", mode)


def verify_antipodal_witness(ps: PointSet) -> VerificationReport:
    """Certify the pairwise slab condition, with per-pair witnesses.

    For every pair (x, y) and every third point z the projection value
    t = <z - x, y - x> must satisfy 0 < t < |y - x|^2 (strictly, with the
    float backend demanding clearance by the strict margin). The witness
    reports the extremal configuration: apex = x, first leg = y (the pair
    partner), second leg = z; its dot value is the smaller of t and
    |y - x|^2 - t. Passing this check is necessary for acuteness, and in
    exact arithmetic the two are equivalent.
    """
    return _check(ps, "antipodal", "margin")


# ---------------------------------------------------------------------------
# cardinality bookkeeping


def target_size(d: int) -> int:
    """Cardinality achieved by the perturbed-cube-plus-apex family."""
    return 2 ** (d - 1) + 1


def hard_cap(d: int) -> int:
    """No acute set in R^d can have more than 2^d - 1 points."""
    return 2 ** d - 1


def fibonacci(k: int) -> int:
    if k < 1:
        raise ValueError("index must be >= 1")
    a, b = 1, 1
    for _ in range(k - 2):
        a, b = b, a + b
    return b if k > 1 else a


def ef_bound(d: int) -> int:
    """floor((2/sqrt(3))**d / 2), computed exactly as isqrt(4^(d-1) // 3^d)."""
    return math.isqrt(4 ** (d - 1) // 3 ** d)


def legacy_bounds(d: int) -> dict:
    """Earlier lower-bound families for acute sets in R^d."""
    half = d // 2
    return {
        "fibonacci": fibonacci(d + 2),
        "exponential_half": ef_bound(d),
        "linear": 2 * d - 1,
        "three_power": 3 ** (half - 1) - 1 if half >= 1 else 0,
    }


@dataclass(frozen=True)
class CardinalityReport:
    n: int
    dim: int
    target: int
    cap: int
    verdict: str
    note: str


def verify_cardinality_bounds(ps: PointSet) -> CardinalityReport:
    """Place a set's cardinality against the target and the hard cap.

    A count above ``2^d - 1`` is flagged impossible outright (no acute set
    that large exists, so such an input cannot be acute). A count below the
    target is annotated with which earlier record families it still beats.
    """
    n = len(ps)
    d = ps.dim
    tgt = target_size(d)
    cap = hard_cap(d)
    if n > cap:
        return CardinalityReport(
            n, d, tgt, cap, "impossible",
            f"{n} points exceed the hard cap {cap}; no acute set this large "
            "exists in this dimension")
    if n == tgt:
        return CardinalityReport(
            n, d, tgt, cap, "matches_target",
            f"matches the perturbed-cube target 2^{d - 1}+1")
    legacy = legacy_bounds(d)
    beaten = sorted(name for name, v in legacy.items() if n > v)
    if n < tgt:
        note = (f"below the target {tgt}; still beats: "
                + (", ".join(beaten) if beaten else "none of the earlier records"))
        return CardinalityReport(n, d, tgt, cap, "below_target", note)
    return CardinalityReport(
        n, d, tgt, cap, "above_target",
        f"between the target {tgt} and the hard cap {cap}")
