"""Conical flatness on the pairs x1 <= x2, and the coweight family that stops drawing.

The binary-meet identity of `classify.is_conically_flat` is symmetric under
(x1, p1) <-> (x2, p2), so the library scans only x2 >= x1; `tests/oracles.py`
keeps the scan over every (x1, x2).  The two are compared byte for byte, by
the repr of (verdict, witness, exactness flag), on every grid weight of
seeded categories with n <= 3 on four grids, and on seeded float categories
with n <= 4 over the product t-norm and two ordinal sums with a product block.
The float coweight family, which stops drawing once it has drawn every vector,
is pinned member by member, in order, against the family of 1000 draws.
"""

import random
from fractions import Fraction as F

import pytest

import oracles
import recat.cat as cat
import recat.classify as cl
import recat.presheaf as ps
import recat.tnorm as tn
import recat.values as vals
from recat import gen

GRIDS = {
    "luka_1_3": lambda: vals.unit_grid(3, tn.lukasiewicz),
    "godel_5": lambda: vals.grid_validate([0, F(1, 4), F(1, 2), F(3, 4), 1], tn.godel),
    "ordinal_upper": lambda: vals.grid_validate(
        [0, F(1, 2), F(3, 4), 1], tn.ordinal_sum((F(1, 2), 1, tn.LUKASIEWICZ))
    ),
    "ordinal_lower": lambda: vals.grid_validate(
        [0, F(1, 4), F(1, 2), 1], tn.ordinal_sum((0, F(1, 2), tn.LUKASIEWICZ))
    ),
}
FLOAT_TNORMS = ("product", "ordinal[(0,1/2,product)]", "ordinal[(1/2,1,product)]")
FLOAT_SEEDS = range(70)  # 210 float categories


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("n", range(4))
def test_every_grid_weight_matches_the_full_scan(name, n):
    results = []
    for seed in range(3):
        X = gen.random_category(random.Random(100 * n + seed), n, GRIDS[name]())
        for phi in ps.enumerate_weights(X):
            got = cl.is_conically_flat(phi)
            assert repr(got) == repr(oracles.is_conically_flat(phi)), (X.hom, phi.values)
            results.append(got)
    if n >= 2:  # on every grid some weight fails the identity at a pair x1 < x2
        assert any(not v and len(w) == 4 for v, w, _ in results)


def _float_category(rng, t, n):
    """A random float hom repaired by sup-(*) transitive closure."""
    hom = [[1.0 if i == j else round(rng.random(), 3) for j in range(n)] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for y in range(n):
            for z in range(n):
                for x in range(n):
                    v = tn.conj(t, hom[y][z], hom[x][y])
                    if v > hom[x][z] + tn.TOL:
                        hom[x][z] = v
                        changed = True
    return cat.EnrichedCategory(t, tuple(tuple(row) for row in hom))


def _float_weights(rng, X):
    """A Yoneda weight and the least weight above a random vector with one entry 1."""
    vec = [round(rng.random(), 3) for _ in range(X.n)]
    vec[rng.randrange(X.n)] = 1.0
    return [ps.yoneda(X, rng.randrange(X.n)), ps.weight_closure(X, vec)]


@pytest.mark.parametrize("text", FLOAT_TNORMS)
def test_seeded_float_weights_match_the_full_scan(text):
    t = tn.parse_tnorm(text)
    results = []
    for seed in FLOAT_SEEDS:
        rng = random.Random(seed)
        X = _float_category(rng, t, 1 + seed % 4)
        for phi in _float_weights(rng, X):
            got = cl.is_conically_flat(phi)
            assert repr(got) == repr(oracles.is_conically_flat(phi)), (X.hom, phi.values)
            results.append(got)
    assert {v for v, _, _ in results} == {True, False}


@pytest.mark.parametrize("text", FLOAT_TNORMS)
def test_the_float_coweight_family_matches_the_family_of_1000_draws(text):
    t = tn.parse_tnorm(text)
    for seed in range(20):
        rng = random.Random(seed)
        X = _float_category(rng, t, seed % 5)  # n = 0 to 4: 1 to 16 vectors of {0.0, 1.0}
        fam, exhaustive = cl._coweight_family(X, 10**6, random.Random(seed))
        want, want_exhaustive = oracles.coweight_family(X, 10**6, random.Random(seed))
        assert repr([c.values for c in fam]) == repr([c.values for c in want])
        assert exhaustive is want_exhaustive is False


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_a_sampled_grid_coweight_family_matches_the_family_of_1000_draws(name):
    """Below the grid's vector count the family is drawn from grid points; it stops
    too, once every vector has been drawn."""
    for n in range(4):
        X = gen.random_category(random.Random(n), n, GRIDS[name]())
        for bound in (0, len(X.grid.points) ** n - 1):
            fam, exhaustive = cl._coweight_family(X, bound, random.Random(n))
            want, want_exhaustive = oracles.coweight_family(X, bound, random.Random(n))
            assert repr([c.values for c in fam]) == repr([c.values for c in want])
            assert exhaustive is want_exhaustive is False
