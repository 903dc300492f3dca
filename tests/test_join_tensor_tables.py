"""Join and tensor tables agree with the per-element calls they replace.

`poset._joins` builds an order's binary join table once; `is_lattice`,
`coprimes`, module validation and grid cocompleteness read it.
`presheaf._tensor_table` holds every grid tensor of a category; grid
cocompleteness reads it on X and X^op, and `laws.category_to_module` takes its
action from it.  Each is compared here with the per-element bodies kept in
`tests/oracles.py`, and a counted `recat laws module` run pins that no
per-element tensor, cotensor or meet call is left on that path.
"""

import contextlib
import hashlib
import io
import random
from collections import Counter
from fractions import Fraction as F
from functools import lru_cache

import pytest

import recat.cli as cli
import recat.gen as gen
import recat.laws as laws
import recat.poset as po
import recat.presheaf as ps
import recat.tnorm as tn
import recat.values as vals
from recat import fixtures
from recat.cat import is_separated, opposite
from recat.errors import RecatError

import oracles

GRIDS = {
    "luka3": vals.unit_grid(3, tn.lukasiewicz),
    "godel4": vals.grid_validate([0, F(1, 4), F(1, 2), F(3, 4), 1], tn.godel),
    "upper_block": vals.grid_validate([0, F(1, 2), F(3, 4), 1], fixtures.upper_block_sum()),
}


@lru_cache(maxsize=None)
def small_preorders():
    """Every preorder on at most 4 elements."""
    return [P for n in range(5) for P in oracles.preorders(n)]


def test_the_small_preorders_and_their_lattices_are_all_there():
    assert len(small_preorders()) == 390
    assert sum(oracles.is_lattice_by_meets(P) for P in small_preorders()) == 45


def test_lattice_verdicts_joins_and_coprimes_match_the_calls():
    catalog = po.lattice_catalog()
    for P in small_preorders() + catalog + [L.opposite() for L in catalog]:
        assert P.is_lattice() == oracles.is_lattice_by_meets(P)
        assert po._joins(P) == tuple(tuple(P.join([a, b]) for b in range(P.n)) for a in range(P.n))
        for vacuous in (True, False):
            assert po.coprimes(P, vacuous) == oracles.coprimes(P, vacuous)


def categories(name):
    """300 random categories on n = 1-4 elements, then 100 categories of random modules."""
    g = GRIDS[name]
    rng = random.Random(len(g.points))
    randoms = [gen.random_category(rng, 1 + i % 4, g) for i in range(300)]
    return randoms + [laws.module_to_category(gen.random_module(rng, g.tnorm, grid=g)) for _ in range(100)]


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_tensor_tables_cocompleteness_and_module_actions_match_the_calls(name):
    cocomplete = 0
    for X in categories(name):
        for Y in (X, opposite(X)):
            want = tuple(tuple(ps.tensor(Y, r, x) for x in range(Y.n)) for r in Y.grid.points)
            assert ps._tensor_table(Y) == want
        verdict = ps.is_cocomplete_over_grid(X)
        assert verdict == oracles.is_cocomplete_by_calls(X)
        if verdict and is_separated(X):
            cocomplete += 1
            assert laws.category_to_module(X).action == oracles.module_action_by_calls(X)
    assert 100 <= cocomplete < 400  # the module categories, and some of the random ones


def test_a_module_action_builds_its_join_table_once(monkeypatch):
    # validation asked is_lattice, which built the table, and then built it again
    builds = []
    real = po._joins

    def counted(P):
        builds.append(P)
        return real(P)

    monkeypatch.setattr(po, "_joins", counted)
    monkeypatch.setattr(laws, "_joins", counted)
    rng = random.Random(5)
    for name in sorted(GRIDS):
        for _ in range(20):
            M = gen.random_module(rng, GRIDS[name].tnorm, grid=GRIDS[name])
            builds.clear()
            assert laws.ModuleAction(M.lattice, M.grid, M.action) == M
            assert builds == [M.lattice]


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_laws_module_makes_no_tensor_cotensor_or_meet_calls(monkeypatch):
    # with per-element calls this run made 669 tensor, 223 cotensor and 1,039 meet calls,
    # through category_to_module, is_cocomplete_over_grid and is_lattice
    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    real = {"tensor": ps.tensor, "cotensor": ps.cotensor}
    for module in (ps, laws, gen, cli):
        for name, f in real.items():
            if getattr(module, name, None) is f:
                monkeypatch.setattr(module, name, counted(name, f))
    monkeypatch.setattr(po.FinitePoset, "meet", counted("meet", po.FinitePoset.meet))
    code, out = run(["laws", "module", "--tnorm", "godel", "--seed", "0"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "a1472575a9d473249bb075f5ae57063dbff6d54f80d023cb5ee639f45715bd6e"
    assert calls == Counter()


@pytest.mark.parametrize("t", [tn.lukasiewicz, tn.godel, fixtures.upper_block_sum()])
def test_random_module_takes_every_size_from_2_to_5(t):
    # a max_size of 6 used to raise on seeds 0, 9 and 11 only, where the catalog was drawn
    for seed in range(12):
        for size in range(2, 6):
            M = gen.random_module(random.Random(seed), t, size)
            assert M.lattice.n <= max(size, 4)
        with pytest.raises(RecatError, match="at most 5"):
            gen.random_module(random.Random(seed), t, 6)
