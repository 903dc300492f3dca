"""Seeded random generators for categories, weights, functors and modules.

Everything takes an explicit random.Random so that suite runs are
reproducible from a single seed.
"""

from __future__ import annotations

import operator
import random
from functools import lru_cache

from . import tnorm as tn
from .cat import EnrichedCategory, EnrichedFunctor, opposite
from .errors import RecatError
from .laws import ModuleAction
from .poset import FinitePoset, chain, closure, lattice_catalog
from .presheaf import Coweight, Weight, _dual, _unchecked
from .values import ValueGrid, _count, _in_carrier, _items, grid_validate, unit_grid


def _category_at(rng: random.Random, n: int, grid: ValueGrid) -> tuple:
    """random_category's hom on grid indices: a random matrix with the top index on the
    diagonal, repaired by sup-(*) transitive closure on the grid's conj table."""
    _count(n, "n", 0)
    k = len(grid.points)
    m = [[rng.randrange(k) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        m[i][i] = k - 1
    conj = grid.conj_table
    return closure(m, lambda a, b: conj[a][b])


def random_category(rng: random.Random, n: int, grid: ValueGrid) -> EnrichedCategory:
    """The category on the grid whose hom is _category_at's, mapped to points."""
    pts = grid.points
    hom = tuple(tuple(pts[i] for i in row) for row in _category_at(rng, n, grid))
    return EnrichedCategory(grid.tnorm, hom, (), grid)


def _weight_at(rng: random.Random, grid: ValueGrid, at) -> tuple:
    """random_weight on grid indices: `at` is X's hom on them, and so is the weight returned."""
    conj = grid.conj_table
    vec = [rng.randrange(len(grid.points)) for _ in range(len(at))]
    return tuple(max(conj[v][h] for v, h in zip(vec, row)) for row in at)


def random_weight(rng: random.Random, X: EnrichedCategory) -> Weight:
    """The closure phi = sup_z v(z) (*) X(-, z) of a random grid vector v, on the grid's tables.

    X must be a category: its hom transitive, as random_category makes it and
    validate(X) checks.  phi is then a weight by transitivity,
    phi(y) (*) X(x, y) <= sup_z v(z) (*) X(x, z), and is built unchecked; on a
    hom that is not transitive it need not be one.
    """
    grid = X.grid
    if grid is None:
        raise RecatError("random weights are drawn on a grid; the category has none")
    at = [[grid._pos[h] for h in row] for row in X.hom]
    return _unchecked(Weight, X, tuple(grid.points[i] for i in _weight_at(rng, grid, at)))


def random_coweight(rng: random.Random, X: EnrichedCategory) -> Coweight:
    return _dual(random_weight(rng, opposite(X)))


def random_functor(rng: random.Random, X: EnrichedCategory, Y: EnrichedCategory):
    """A random functor X -> Y: `_functor_at` on the two homs, then one checked functor.

    When X and Y share a grid the search runs on their homs indexed through it;
    otherwise on the values, a try tested by tn.vle, the comparison
    EnrichedFunctor makes.  Both draw the same stream and find the same map.
    """
    grid = X.grid
    if grid is not None and Y.grid == grid:
        pos = grid._pos
        X_at, Y_at = ([[pos[h] for h in row] for row in Z.hom] for Z in (X, Y))
        return EnrichedFunctor(X, Y, _functor_at(rng, X_at, Y_at))
    return EnrichedFunctor(X, Y, _functor_at(rng, X.hom, Y.hom, tn.vle))


def _functor_at(rng: random.Random, X_at, Y_at, le=operator.le) -> tuple:
    """A random functor mapping X -> Y from 64 tries, falling back to a constant map.

    A try f is kept when le(X(x, y), Y(f(x), f(y))) for all x, y.  The default
    is plain <= on grid indices, which ascend with the grid points, for X_at
    and Y_at two homs on one grid's indices.
    """
    n, m = len(X_at), len(Y_at)
    if n and not m:
        raise RecatError("no functor from a non-empty category to an empty one")
    pairs = [(x, y, h) for x, row in enumerate(X_at) for y, h in enumerate(row)]
    for _ in range(64):
        f = tuple(rng.randrange(m) for _ in range(n))
        if all(le(h, Y_at[f[x]][f[y]]) for x, y, h in pairs):
            return f
    return tuple([rng.randrange(m)] * n)


def full_subcategory(X: EnrichedCategory, subset) -> tuple:
    """(category on the subset, fully faithful inclusion functor)."""
    subset = sorted(_in_carrier(X, *_items(subset, "subset")))
    hom = tuple(tuple(X.hom[a][b] for b in subset) for a in subset)
    names = tuple(X.names[a] for a in subset)
    sub = EnrichedCategory(X.tnorm, hom, names, X.grid)
    return sub, EnrichedFunctor(sub, X, tuple(subset))


def random_directed_balls(rng: random.Random, X: EnrichedCategory, length: int = 3):
    """A random chain in the ball order; chains are directed."""
    from .balls import ball_leq, radius_candidates

    _count(length, "length")
    if X.grid is None:
        raise RecatError("random directed balls need a grid of radii")
    if not X.n:
        raise RecatError("random directed balls need a non-empty category")
    pts = list(X.grid.points)
    current = (rng.randrange(X.n), rng.choice(pts))
    out = [current]
    for _ in range(length - 1):
        ups = [
            (z, t)
            for z in range(X.n)
            for t in radius_candidates(X, out)
            if ball_leq(X, current, (z, t))
        ]
        if not ups:
            break
        current = rng.choice(sorted(ups))
        out.append(current)
    return out


def _chain_module(grid: ValueGrid) -> ModuleAction:
    """The grid chain acting on itself by the t-norm: the conj table."""
    return ModuleAction(chain(len(grid.points)), grid, grid.conj_table)


def _opposite_chain_module(grid: ValueGrid) -> ModuleAction:
    """The reversed grid chain with the residuum action."""
    top = len(grid.points) - 1
    # element i of the lattice is the grid point at position top - i
    action = tuple(tuple(top - row[top - x] for x in range(top + 1)) for row in grid.imp_table)
    return ModuleAction(chain(top + 1), grid, action)


def _trivial_module(L: FinitePoset, grid: ValueGrid) -> ModuleAction:
    """Two-point-grid style action: 1 acts as identity, everything else as bottom."""
    bot = L.bottom
    action = tuple(
        tuple(x if r == tn.ONE else bot for x in range(L.n)) for r in grid.points
    )
    return ModuleAction(L, grid, action)


def _relabel_module(rng: random.Random, M: ModuleAction) -> ModuleAction:
    perm = list(range(M.lattice.n))
    rng.shuffle(perm)
    n = M.lattice.n
    leq = tuple(
        tuple(M.lattice.leq[perm.index(i)][perm.index(j)] for j in range(n)) for i in range(n)
    )
    action = tuple(
        tuple(perm[M.action[ri][perm.index(x)]] for x in range(n))
        for ri in range(len(M.grid.points))
    )
    return ModuleAction(FinitePoset(n, leq), M.grid, action)


def random_module(
    rng: random.Random, t: tn.TNorm, max_size: int = 5, grid: ValueGrid | None = None
) -> ModuleAction:
    """A random grid module: a chain module or a trivial one on a catalog lattice.

    Without a grid, a chain module acts by a grid of at most max_size points
    and the trivial modules by {0, 1}; with one, closed under t, every module acts by it.
    A trivial module on a catalog lattice has at most max_size elements; 2 <= max_size <= 5.
    """
    if _count(max_size, "max_size", 2) > 5:
        raise RecatError(f"max_size must be at most 5, the catalog's largest lattice, got {max_size}")
    if grid is not None and grid.tnorm != t:
        raise RecatError(f"the grid is closed under {grid.tnorm}, not {t}")
    kind = rng.randrange(4)
    if kind < 2:
        if grid is None:
            k = rng.randint(1, max_size - 1)
            grid = unit_grid(k, t) if t.base == tn.LUKASIEWICZ else _godel_grid(rng, k, t)
        build = _chain_module if kind == 0 else _opposite_chain_module
        return _relabel_module(rng, build(grid))
    if grid is None:
        grid = grid_validate([0, 1], t)
    if kind == 2:
        from .poset import boolean_lattice

        return _relabel_module(rng, _trivial_module(boolean_lattice(), grid))
    L = rng.choice(_catalog_lattices(max_size))
    return _relabel_module(rng, _trivial_module(L, grid))


@lru_cache(maxsize=None)
def _catalog_lattices(max_size: int) -> tuple:
    """The catalog's lattices of at most max_size elements, in catalog order, built once."""
    return tuple(P for P in lattice_catalog(max_size) if P.is_lattice())


def _godel_grid(rng: random.Random, k: int, t: tn.TNorm) -> ValueGrid:
    """A random chain of 0, 1 and at most k - 1 idempotent twelfths of t; t acts as min there, so closes it."""
    from fractions import Fraction

    pool = tn.idempotents(t, [Fraction(i, 12) for i in range(1, 12)])
    interior = sorted(rng.sample(pool, min(k - 1, len(pool))))
    return grid_validate([0, *interior, 1], t)
