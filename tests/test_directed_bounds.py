"""Finite directed families hold their own bound: the library reads it, the oracles search.

A finite directed set holds an upper bound of itself, so `balls.directed_check`
looks for a member above all members and `balls.directed_join` returns the
least-index ball equivalent to it.  (->) is antitone in its first argument, so
a `ConicalFilter` evaluates at its pointwise least generator alone.  The
Kowalsky generator join is monotone in the meta and member generators, so
`laws.kowalsky_sum` joins the least of each once.  `tests/oracles.py` keeps the
searches these replace: the pairwise directedness test, the carrier x radius
candidate scan, the max over generators and the join of every meta x
member-generator combination with its minimal-generator pass.  Each pair is
compared by `==` and by `repr` on seeded inputs over the Ł 1/6, Gödel 5-point
and upper-block grids.  The one declared difference: on a family that is not
directed, the candidate scan may still find a least upper bound, where
`directed_join` answers None.
"""

import random
from fractions import Fraction as F
from itertools import product as iproduct

import pytest

import oracles
import recat.balls as balls
import recat.laws as laws
import recat.tnorm as tn
import recat.values as vals
from recat import fixtures, gen
from recat.errors import RecatError

GRIDS = {
    "luka_1_6": lambda: vals.unit_grid(6, tn.lukasiewicz),
    "godel_5": lambda: vals.grid_validate([0, F(1, 4), F(1, 2), F(3, 4), 1], tn.godel),
    "upper_block": fixtures.upper_block_grid,
}


def _ball_families(rng, grid, count):
    """(X, family) pairs: uniform random families, which are seldom directed, and
    families planted below a top ball, shuffled, which always are."""
    pts = grid.points
    for i in range(count):
        X = gen.random_category(rng, rng.randint(1, 3), grid)
        if i % 2 == 0:
            yield X, [(rng.randrange(X.n), rng.choice(pts)) for _ in range(rng.randint(1, 4))]
            continue
        y, s = rng.randrange(X.n), rng.choice(pts)
        fam = [(y, s)]
        for _ in range(rng.randint(0, 3)):
            z = rng.randrange(X.n)
            fam.append((z, rng.choice([t for t in pts if t <= X.conj(s, X.hom[z][y])])))
        rng.shuffle(fam)
        yield X, fam


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_ball_directedness_and_joins_match_the_search(name):
    grid, rng = GRIDS[name](), random.Random(name)
    directed = undirected = scan_found = 0
    for X, fam in _ball_families(rng, grid, 800):
        verdict = balls.directed_check(X, fam)
        assert verdict == oracles.directed_check(X, fam)
        join, searched = balls.directed_join(X, fam), oracles.directed_join(X, fam)
        if verdict:
            directed += 1
            assert join == searched and repr(join) == repr(searched)
        else:
            undirected += 1
            assert join is None
            scan_found += searched is not None
    assert directed >= 300 and undirected >= 30
    # the declared change: the scan answers some families that are not directed
    assert 0 < scan_found < undirected


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_chain_joins_match_the_search(name):
    grid, rng = GRIDS[name](), random.Random(name)
    for _ in range(60):
        X = gen.random_category(rng, rng.randint(1, 3), grid)
        fam = gen.random_directed_balls(rng, X, length=rng.randint(1, 4))
        assert balls.directed_check(X, fam) and oracles.directed_check(X, fam)
        join, searched = balls.directed_join(X, fam), oracles.directed_join(X, fam)
        assert join == searched and repr(join) == repr(searched)


def test_the_empty_family_is_not_directed():
    X = fixtures.a2()
    assert not balls.directed_check(X, []) and balls.directed_join(X, []) is None


def _vectors(rng, pts, size, planted):
    """One to three random grid vectors; with `planted`, their pointwise min as well,
    shuffled in, so the family is directed."""
    vecs = [tuple(rng.choice(pts) for _ in range(size)) for _ in range(rng.randint(1, 3))]
    if planted:
        vecs.append(tuple(min(col) for col in zip(*vecs)))
        rng.shuffle(vecs)
    return vecs


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_filter_evaluation_matches_the_max_over_generators(name):
    grid, rng = GRIDS[name](), random.Random(name)
    built = refused = 0
    for i in range(120):
        planted = i % 3 != 0
        size = rng.randint(1, 2) if planted else 2  # vectors of size 1 form a chain
        gens = _vectors(rng, grid.points, size, planted)
        if not oracles.directed(gens, oracles.pointwise_ge):
            refused += 1
            with pytest.raises(RecatError, match="^generators are not directed$"):
                laws.ConicalFilter(grid, size, gens)
            continue
        built += 1
        Fg = laws.ConicalFilter(grid, size, gens)
        for lam in iproduct(grid.points, repeat=size):
            got, want = Fg(lam), oracles.conical_filter_value(Fg, lam)
            assert got == want and repr(got) == repr(want)
    assert built >= 80 and refused >= 5


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_kowalsky_sum_matches_every_combination(name):
    grid, rng = GRIDS[name](), random.Random(name)
    summed = refused = 0
    for i in range(150):
        size, count = rng.randint(1, 2), rng.randint(1, 3)
        filters = [laws.ConicalFilter(grid, size, _vectors(rng, grid.points, size, True)) for _ in range(count)]
        metas = _vectors(rng, grid.points, count, planted=i % 4 != 0)
        if not oracles.directed(metas, oracles.pointwise_ge):
            refused += 1
            for f in (laws.kowalsky_sum, oracles.kowalsky_sum):
                with pytest.raises(RecatError, match="^meta generators are not directed$"):
                    f(metas, filters)
            continue
        summed += 1
        got, want = laws.kowalsky_sum(metas, filters), oracles.kowalsky_sum(metas, filters)
        assert got == want and repr(got) == repr(want) and len(got.generators) == 1
    assert summed >= 100 and refused >= 5


def test_an_empty_meta_family_is_not_directed():
    Fg = laws.ConicalFilter(fixtures.upper_block_grid(), 1, ((F(1),),))
    with pytest.raises(RecatError, match="^meta generators are not directed$"):
        laws.kowalsky_sum([], [Fg])
