import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from acuta import PointSet


def naive_margin(points):
    """Reference margin: direct triple loop, written independently.

    Returns (margin, (apex, leg1, leg2)) with the same tie rule as the
    library — smallest value, lexicographically smallest indices.
    """
    best = None
    n = len(points)
    for i, j, k in itertools.combinations(range(n), 3):
        for (q, a, b) in ((i, j, k), (j, i, k), (k, i, j)):
            pq, pa, pb = points[q], points[a], points[b]
            dot = sum((x - z) * (y - z) for x, y, z in zip(pa, pb, pq))
            key = (dot, (q, a, b))
            if best is None or key < best:
                best = key
    return best


def _dot(points, q, a, b):
    pq, pa, pb = points[q], points[a], points[b]
    return sum((x - z) * (y - z) for x, y, z in zip(pa, pb, pq))


def naive_minima(points):
    """Reference margin and every (apex, leg1, leg2), leg1 < leg2, that
    attains it, in lex order."""
    n = len(points)
    dots = [((q, a, b), _dot(points, q, a, b)) for q in range(n)
            for a, b in itertools.combinations(
                [i for i in range(n) if i != q], 2)]
    low = min(dot for _, dot in dots)
    return low, [angle for angle, dot in dots if dot == low]


def naive_sqdiam(points):
    """Reference squared diameter: the largest sum of squared coordinate
    differences over pairs, 0 for fewer than two points."""
    return max((sum((x - y) * (x - y) for x, y in zip(p, q))
                for p, q in itertools.combinations(points, 2)), default=0)


def naive_baseline(dim, trials, seed):
    """Reference greedy baseline: one ``rng.random(dim)`` per trial, kept
    when it is not kept already and every triangle it makes with two kept
    points has three positive apex dots."""
    rng = np.random.default_rng(seed)
    kept = []
    for _ in range(trials):
        cand = tuple(float(x) for x in rng.random(dim))
        pts, c = kept + [cand], len(kept)
        if cand not in kept and all(
                _dot(pts, q, a, b) > 0
                for i, j in itertools.combinations(range(c), 2)
                for q, a, b in ((i, j, c), (j, i, c), (c, i, j))):
            kept.append(cand)
    return tuple(kept)


def naive_first_failure(points, fails):
    """Reference early-exit sweep: triples i < j < k in order, the angle at
    i, j, then k of each; returns (triples checked, failing angle or None,
    its dot or None)."""
    checked = 0
    for i, j, k in itertools.combinations(range(len(points)), 3):
        checked += 1
        for (q, a, b) in ((i, j, k), (j, i, k), (k, i, j)):
            dot = _dot(points, q, a, b)
            if fails(dot):
                return checked, (q, a, b), dot
    return checked, None, None


def naive_slab(points):
    """Reference slab depth: direct pair-and-third-point loop.

    Returns (depth, (x, y, z)) minimizing min(t, |y - x|^2 - t) with
    t = <z - x, y - x> over x < y and z distinct, ties to the smallest
    indices, as verify_antipodal_witness reports it.
    """
    best = None
    n = len(points)
    for x, y in itertools.combinations(range(n), 2):
        px, py = points[x], points[y]
        axis = [b - a for a, b in zip(px, py)]
        length = sum(a * a for a in axis)
        for z in range(n):
            if z in (x, y):
                continue
            t = sum((c - a) * u for c, a, u in zip(points[z], px, axis))
            key = (min(t, length - t), (x, y, z))
            if best is None or key < best:
                best = key
    return best


def random_rational_points(rng: random.Random, n: int, dim: int,
                           span: int = 4, den_pow: int = 3):
    """n distinct points with coordinates p/2^k, |p/2^k| <= span."""
    pts = set()
    while len(pts) < n:
        den = 2 ** rng.randint(0, den_pow)
        p = tuple(Fraction(rng.randint(-span * den, span * den), den)
                  for _ in range(dim))
        pts.add(p)
    return tuple(sorted(pts))


def random_rational_set(seed: int, n: int, dim: int) -> PointSet:
    rng = random.Random(seed)
    return PointSet(dim=dim, points=random_rational_points(rng, n, dim),
                    backend="rational")


@pytest.fixture
def rng():
    return random.Random(20240817)
