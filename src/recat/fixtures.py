"""Canonical small categories and weights used by tests and CLI demos."""

from __future__ import annotations

from fractions import Fraction

from . import tnorm as tn
from .cat import EnrichedCategory, opposite
from .presheaf import Weight
from .values import ValueGrid, grid_validate, unit_grid


def grid_v(grid: ValueGrid) -> EnrichedCategory:
    """The grid as a category under the implication hom x -> y: its imp table read back as points."""
    pts = grid.points
    hom = tuple(tuple(pts[j] for j in row) for row in grid.imp_table)
    names = tuple(str(p) for p in pts)
    return EnrichedCategory(grid.tnorm, hom, names, grid)


def grid_v_op(grid: ValueGrid) -> EnrichedCategory:
    """The opposite hom y -> x."""
    return opposite(grid_v(grid))


def d2(t: tn.TNorm = tn.godel, grid: ValueGrid | None = None) -> EnrichedCategory:
    """The discrete two-point category."""
    grid = grid or grid_validate([0, Fraction(1, 2), 1], t)
    one, zero = tn.ONE, tn.ZERO
    return EnrichedCategory(t, ((one, zero), (zero, one)), ("a", "b"), grid)


def a2() -> EnrichedCategory:
    """Two points with hom(a, b) = 2/3 and hom(b, a) = 0 over the Lukasiewicz 1/3 grid."""
    grid = unit_grid(3, tn.lukasiewicz)
    hom = ((Fraction(1), Fraction(2, 3)), (Fraction(0), Fraction(1)))
    return EnrichedCategory(tn.lukasiewicz, hom, ("a", "b"), grid)


def g5() -> EnrichedCategory:
    """The Godel category on the five-point grid {0, 1/4, 1/2, 3/4, 1}."""
    grid = grid_validate([0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1], tn.godel)
    return grid_v(grid)


def g5_weight() -> Weight:
    """The conically-flat-but-not-ideal weight (1, 1, 1/2, 1/2, 1/2) on g5."""
    h = Fraction(1, 2)
    return Weight(g5(), (Fraction(1), Fraction(1), h, h, h))


def interior_block_sum() -> tn.TNorm:
    """Ordinal sum with a single Lukasiewicz block on [1/4, 1/2]."""
    return tn.ordinal_sum((Fraction(1, 4), Fraction(1, 2), tn.LUKASIEWICZ))


def upper_block_sum() -> tn.TNorm:
    """Ordinal sum with a single Lukasiewicz block on [1/2, 1]."""
    return tn.ordinal_sum((Fraction(1, 2), Fraction(1), tn.LUKASIEWICZ))


def upper_block_grid() -> ValueGrid:
    """A grid closed under the [1/2, 1] block sum, with off-block points."""
    pts = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(5, 8), Fraction(3, 4), Fraction(7, 8), Fraction(1)]
    return grid_validate(pts, upper_block_sum())


def example_g_truncated(n: int = 4) -> EnrichedCategory:
    """Truncated prefix of a continuum fixture; illustrative only.

    The infinite space (all points strictly inside an idempotent interval,
    symmetrized implication hom) witnesses ball-order incompleteness; a finite
    prefix cannot certify that verdict and is shipped only to exercise the
    ball machinery on a non-chain example.
    """
    t = upper_block_sum()
    eighths = [Fraction(k, 8) for k in range(9)]
    grid = grid_validate(sorted(set(upper_block_grid().points) | set(eighths)), t)
    pts = [p for p in grid.points if Fraction(0) < p < Fraction(1, 2)]
    pts = pts[:n]
    hom = tuple(
        tuple(
            tn.ONE if i == j else min(tn.imp(t, x, y), tn.imp(t, y, x))
            for j, y in enumerate(pts)
        )
        for i, x in enumerate(pts)
    )
    return EnrichedCategory(t, hom, tuple(str(p) for p in pts), grid)


def exmp3_truncated(n: int = 4) -> EnrichedCategory:
    """Truncated prefix of the Godel sequence-space fixture; illustrative only."""
    pts = [Fraction(1)] + [Fraction(k - 1, k) for k in range(2, n + 1)]
    third = Fraction(1, 3)
    grid = grid_validate(sorted(set(pts) | {Fraction(0), third}), tn.godel)

    def hom(x, y):
        if x == y:
            return tn.ONE
        if x == Fraction(1):
            return third
        return min(x, y)

    mat = tuple(tuple(hom(x, y) for y in pts) for x in pts)
    return EnrichedCategory(tn.godel, mat, tuple(str(p) for p in pts), grid)
