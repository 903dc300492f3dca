"""The grid quantale: ValueGrid's conj/imp index tables and the code that runs on them.

Generators, module laws, negation duality, filter axioms, the powerset monad,
the exact `recat laws tnorm` checks and the category V compute on grid
indices; the oracles in `oracles.py` compute the same through tn.conj/tn.imp.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from fractions import Fraction as F
from itertools import product as iproduct

import pytest

import oracles
import recat.cat as cat
import recat.cli as cli
import recat.laws as laws
import recat.presheaf as presheaf
import recat.tnorm as tn
import recat.values as vals
from recat import fixtures, gen
from recat.errors import AxiomError, CarrierMismatchError, NotClosedError, RecatError
from recat.poset import antichain, boolean_lattice, chain, lattice_catalog
from test_relation_kernel import float_category

ORDINAL = tn.ordinal_sum((0, F(1, 2), tn.LUKASIEWICZ))

GRIDS = {
    **{f"luka{k}": vals.unit_grid(k, tn.lukasiewicz) for k in range(1, 9)},
    "godel2": vals.unit_grid(2, tn.godel),
    "godel5": vals.unit_grid(5, tn.godel),
    "godel_chain": vals.grid_validate([0, F(1, 7), F(2, 5), F(9, 10), 1], tn.godel),
    "ordinal": vals.grid_validate([0, F(1, 4), F(1, 2), F(3, 4), 1], ORDINAL),
    "upper_block": fixtures.upper_block_grid(),
}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_tables_equal_conj_and_imp_on_every_pair(name):
    g = GRIDS[name]
    pts = g.points
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            assert pts[g.conj_table[i][j]] == tn.conj(g.tnorm, x, y)
            assert pts[g.imp_table[i][j]] == tn.imp(g.tnorm, x, y)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_index_is_the_position_of_the_point(name):
    g = GRIDS[name]
    for i, p in enumerate(g.points):
        assert g.index(p) == g.points.index(p) == i
    assert g.index(1) == len(g.points) - 1 and g.index(0) == 0
    assert g.index(1.0) == g.index(F(1)) and g.index("1/1") == g.index(1)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_negation_duality_matches_the_scalar_check(name):
    g = GRIDS[name]
    assert laws.negation_duality_check(g) == oracles.negation_duality_check(g, g.tnorm)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_v_hom_is_the_imp_matrix(name):
    g = GRIDS[name]
    V = fixtures.grid_v(g)
    assert (V.tnorm, V.grid) == (g.tnorm, g)
    assert V.hom == tuple(tuple(tn.imp(g.tnorm, x, y) for y in g.points) for x in g.points)


def test_index_raises_value_error_off_the_grid():
    g = vals.unit_grid(3, tn.lukasiewicz)
    for v in (F(1, 2), F(1, 4), 0.25):
        with pytest.raises(ValueError):
            g.index(v)


def test_tables_do_not_enter_equality_or_hash():
    a = vals.unit_grid(4, tn.lukasiewicz)
    b = vals.grid_validate([F(k, 4) for k in (4, 3, 2, 1, 0)], tn.lukasiewicz)
    assert a == b and hash(a) == hash(b)
    assert "conj_table" not in repr(a)


def test_equal_grids_share_one_quantale():
    # the point -> index map and both tables are built once per (points, t-norm)
    a = vals.grid_validate([0, "1/2", 1], tn.godel)
    b = vals.ValueGrid((1, F(1, 2), F(0)), tn.godel)
    c = vals.grid_validate(vals.parse_grid_text("{0, 1/2, 1}"), tn.parse_tnorm("godel"))
    for g in (b, c):
        assert g == a
        assert g.conj_table is a.conj_table and g.imp_table is a.imp_table and g._pos is a._pos


def test_one_point_set_under_two_tnorms_shares_no_table():
    godel, luka = (vals.grid_validate([0, F(1, 2), 1], t) for t in (tn.godel, tn.lukasiewicz))
    assert godel.points == luka.points and godel != luka
    assert godel.conj_table is not luka.conj_table and godel.imp_table is not luka.imp_table
    assert godel.conj_table != luka.conj_table  # 1/2 (*) 1/2 is 1/2 under min, 0 under Lukasiewicz


@pytest.mark.parametrize(
    "points, t, pair",
    [((0, F(1, 3), 1), tn.lukasiewicz, (F(1, 3), F(0), "imp")), ((0, F(1, 2), 1), tn.product, (F(1, 2), F(1, 2), "conj"))],
)
def test_a_grid_that_is_not_closed_raises_on_every_construction(points, t, pair):
    for build in (vals.ValueGrid, vals.grid_validate, vals.ValueGrid):
        with pytest.raises(NotClosedError) as exc:
            build(points, t)
        assert (exc.value.x, exc.value.y, exc.value.op) == pair
        assert str(exc.value) == f"not closed: {pair[2]}({pair[0]}, {pair[1]}) escapes the set"


SUITES = ("tnorm", "kan", "kz", "module", "filters")


def test_a_second_pass_of_cli_calls_builds_no_grid_table(tmp_path):
    X = gen.random_category(random.Random(2), 3, vals.unit_grid(5, tn.godel))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(X.to_json()))
    calls = [
        ["check", str(path)],
        ["balls", str(path), "--grid", "{0,1/5,2/5,3/5,4/5,1}"],
        *(["laws", suite, "--tnorm", "lukasiewicz", "--grid", "{0,1/3,2/3,1}", "--seed", "3"] for suite in SUITES),
        *(["laws", suite, "--tnorm", "godel", "--seed", "3"] for suite in SUITES),
        ["laws", "module", "--tnorm", "lukasiewicz", "--seed", "4"],
    ]

    def one_pass():
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(argv) for argv in calls]

    codes = one_pass()
    misses = vals._quantale.cache_info().misses
    assert one_pass() == codes == [0] * len(calls)
    assert vals._quantale.cache_info().misses == misses


GEN_GRIDS = ["luka1", "luka3", "luka6", "godel5", "godel_chain", "ordinal"]


@pytest.mark.parametrize("name", GEN_GRIDS)
@pytest.mark.parametrize("seed", range(6))
def test_generators_equal_the_scalar_generators(name, seed):
    # the oracle's weights are checked, so each unchecked draw here passes the weight law
    g = GRIDS[name]
    new, old = random.Random(seed), random.Random(seed)
    for n in (0, 1, 2, 3, 4, 6):
        X, Y = gen.random_category(new, n, g), oracles.random_category(old, n, g)
        assert X == Y
        for _ in range(4):
            assert gen.random_weight(new, X).values == oracles.random_weight(old, Y).values
            assert gen.random_coweight(new, X).values == oracles.random_coweight(old, Y).values
    assert new.random() == old.random()


@pytest.mark.parametrize("name", GEN_GRIDS)
@pytest.mark.parametrize("seed", range(4))
def test_random_category_is_its_index_draw_on_points(name, seed):
    g = GRIDS[name]
    new, old = random.Random(seed), random.Random(seed)
    for n in (0, 1, 2, 3, 5):
        at = gen._category_at(old, n, g)
        X = gen.random_category(new, n, g)
        assert X.hom == tuple(tuple(g.points[i] for i in row) for row in at)
        assert X.grid is g and X.tnorm == g.tnorm
    assert new.getstate() == old.getstate()


def test_a_weight_draw_needs_a_transitive_hom():
    # X(0, 1) = X(1, 2) = 1 but X(0, 2) = 0: validate flags X, and sup_z v(z) (*) X(-, z)
    # for v = (0, 0, 1) (the draw of seed 1) is (0, 1, 1), which breaks the weight law at (0, 1)
    X = cat.EnrichedCategory(tn.godel, ((1, 1, 0), (0, 1, 1), (0, 0, 1)), (), vals.unit_grid(1, tn.godel))
    assert cat.validate(X).reason == "transitivity"
    phi = gen.random_weight(random.Random(1), X)
    assert phi.values == (0, 1, 1)
    with pytest.raises(AxiomError, match="not a weight"):
        presheaf.Weight(X, phi.values)


FUNCTOR_BASES = {
    "luka6": lambda rng, n: gen.random_category(rng, n, GRIDS["luka6"]),
    "godel4": lambda rng, n: gen.random_category(rng, n, vals.unit_grid(4, tn.godel)),
    "upper_block": lambda rng, n: gen.random_category(
        rng, n, vals.grid_validate([0, F(1, 2), F(3, 4), 1], fixtures.upper_block_sum())
    ),
    "float_product": float_category,
}


@pytest.mark.parametrize("name", sorted(FUNCTOR_BASES))
@pytest.mark.parametrize("seed", range(3))
def test_random_functor_equals_the_checked_search(name, seed):
    # the same mapping and the same next draw as a checked functor built for every try
    draw = FUNCTOR_BASES[name]
    cats = random.Random(seed)
    for n in range(6):
        for m in range(1, 6):
            X, Y = draw(cats, n), draw(cats, m)
            new, old = random.Random(100 * seed + 10 * n + m), random.Random(100 * seed + 10 * n + m)
            assert gen.random_functor(new, X, Y).mapping == oracles.random_functor(old, X, Y).mapping
            assert new.random() == old.random()


def test_random_functor_reads_floats_up_to_the_tolerance():
    # Y(0, 1) falls short of X(0, 1) by less than TOL, so the identity is a functor
    X = cat.EnrichedCategory(tn.product, ((1.0, 0.3), (0.0, 1.0)))
    Y = cat.EnrichedCategory(tn.product, ((1.0, 0.3 - 1e-13), (0.0, 1.0)))
    found = set()
    for seed in range(8):
        new, old = random.Random(seed), random.Random(seed)
        mapping = gen.random_functor(new, X, Y).mapping
        assert mapping == oracles.random_functor(old, X, Y).mapping
        found.add(mapping)
        assert new.random() == old.random()
    assert (0, 1) in found


def test_random_functor_between_two_tnorms_raises():
    X = gen.random_category(random.Random(0), 2, GRIDS["luka3"])
    Y = gen.random_category(random.Random(0), 2, GRIDS["godel5"])
    for search in (gen.random_functor, oracles.random_functor):
        with pytest.raises(CarrierMismatchError):
            search(random.Random(0), X, Y)


@pytest.mark.parametrize("t", [tn.lukasiewicz, tn.godel, ORDINAL, tn.ordinal_sum((F(1, 2), 1, tn.LUKASIEWICZ))])
@pytest.mark.parametrize("seed", range(4))
def test_random_module_equals_the_scalar_generator(t, seed):
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(12):
        M, N = gen.random_module(new, t), oracles.random_module(old, t)
        assert (M.lattice, M.grid, M.action) == (N.lattice, N.grid, N.action)
        assert laws.module_to_category(M) == oracles.module_to_category(N)
    assert new.random() == old.random()


def test_chain_modules_read_off_the_tables():
    for name in ("luka3", "godel_chain", "ordinal"):
        g = GRIDS[name]
        pts = g.points
        M, D = gen._chain_module(g), gen._opposite_chain_module(g)
        top = len(pts) - 1
        for r in pts:
            for i, x in enumerate(pts):
                assert pts[M.act(r, i)] == tn.conj(g.tnorm, r, x)
                assert pts[top - D.act(r, top - i)] == tn.imp(g.tnorm, r, x)


def _broken_actions(rng, L, g, count):
    """Random actions, normalised random actions and one-entry edits of the chain or trivial action."""
    k = len(g.points)
    bot = L.bottom or 0
    valid = g.conj_table if L == chain(k) else [[x if r == k - 1 else bot for x in range(L.n)] for r in range(k)]
    for i in range(count):
        if i % 3 == 0:
            rows = [[rng.randrange(L.n) for _ in range(L.n)] for _ in range(k)]
        elif i % 3 == 1:  # 0 acts as bottom and 1 as identity
            middle = [[rng.randrange(L.n) for _ in range(L.n)] for _ in range(k - 2)]
            rows = [[L.bottom] * L.n, *middle, list(range(L.n))]
        else:
            rows = [list(row) for row in valid]
            rows[rng.randrange(k)][rng.randrange(L.n)] = rng.randrange(L.n)
        yield tuple(map(tuple, rows))


def test_module_law_failures_match_the_scalar_checks():
    seen = set()
    for name in ("luka1", "luka2", "luka3", "godel2", "godel_chain", "ordinal"):
        g = GRIDS[name]
        rng = random.Random(len(g.points))
        catalog = [P for P in lattice_catalog(4) if P.is_lattice()]
        lattices = [chain(len(g.points)), boolean_lattice(), antichain(2), *catalog]
        for L in lattices:
            for action in _broken_actions(rng, L, g, 60):
                want = oracles.module_law_failure(L, g, action)
                seen.add(want and want.split(" at ")[0])
                if want is None:
                    laws.ModuleAction(L, g, action)
                    continue
                with pytest.raises(RecatError) as exc:
                    laws.ModuleAction(L, g, action)
                assert str(exc.value) == want
    assert seen == {
        None,
        "module carrier must be a complete lattice",
        "unit law fails",
        "associativity fails",
        "action does not preserve the empty join",
        "action does not preserve joins",
        "zero scalar must act as bottom",
        "action not monotone in the scalar",
    }


def _tables(rng, g, size, count):
    """Random grid-valued tables on all grid vectors: mostly failing functionals."""
    lams = list(iproduct(g.points, repeat=size))
    for _ in range(count):
        yield {lam: rng.choice(g.points) for lam in lams}
    for lo in g.points:  # monotone, top-preserving tables fail fewer axioms
        yield {lam: max(lo, min(lam)) for lam in lams}


@pytest.mark.parametrize("name", ["luka2", "luka3", "godel_chain", "ordinal", "upper_block"])
@pytest.mark.parametrize("size", [1, 2])
def test_filter_axiom_witnesses_match_the_imp_path(name, size):
    g = GRIDS[name]
    rng = random.Random(size)
    failed = set()
    for table in _tables(rng, g, size, 12 if size == 2 else 40):
        rep = laws.filter_axiom_check(g, table)
        assert rep == oracles.filter_axiom_report(g.tnorm, g, size, table)
        failed |= {a for a in ("CF1", "CF2", "CF3", "CF4") if rep[a] is not None}
    assert {"CF1", "CF2", "CF3"} <= failed


def test_cotensor_witness_matches_the_imp_path():
    g, t = fixtures.upper_block_grid(), fixtures.upper_block_sum()
    table, r, lam, s = laws.find_cf4_cotensor_witness(g)
    shifted = laws.cotensor_filter_table(g, r, table)
    rep = laws.filter_axiom_check(g, shifted)
    assert rep == oracles.filter_axiom_report(t, g, 1, shifted)
    assert rep["CF4"] == (lam, s)


@pytest.mark.parametrize("name", ["luka1", "luka2", "luka4", "godel_chain", "ordinal"])
@pytest.mark.parametrize("size", [1, 2, 3])
def test_powerset_monad_check_matches_the_scalar_check(name, size):
    g = GRIDS[name]
    new, old = random.Random(size), random.Random(size)
    assert laws.powerset_monad_check(g, size, new, samples=12)
    assert oracles.powerset_monad_check(g.tnorm, g, size, old, samples=12)
    assert new.random() == old.random()


def test_module_suite_builds_its_modules_on_the_named_grid(monkeypatch, capsys):
    grid_text = "{0,1/2,1}"
    want = vals.grid_validate(vals.parse_grid_text(grid_text), tn.lukasiewicz)
    built = []
    real = gen.random_module

    def recording(*args, **kwargs):
        M = real(*args, **kwargs)
        built.append(M)
        return M

    monkeypatch.setattr(cli, "random_module", recording)
    for seed in range(4):
        assert cli.main(["laws", "module", "--tnorm", "lukasiewicz", "--grid", grid_text, "--seed", str(seed)]) == 0
        assert json.loads(capsys.readouterr().out)["pass"]
    assert len(built) == 80
    for M in built:
        assert M.grid == want
        assert laws.category_to_module(laws.module_to_category(M)).grid == want


def test_random_module_on_a_grid_uses_that_grid_for_every_kind():
    g = GRIDS["ordinal"]
    rng = random.Random(5)
    for _ in range(40):
        M = gen.random_module(rng, g.tnorm, grid=g)
        assert M.grid is g
        assert laws.modules_isomorphic(M, laws.category_to_module(laws.module_to_category(M)))


def test_random_module_rejects_a_grid_closed_under_another_tnorm():
    # the grid used to win silently: this returned a Lukasiewicz module
    with pytest.raises(RecatError, match="closed under lukasiewicz, not godel"):
        gen.random_module(random.Random(0), tn.godel, grid=vals.unit_grid(3, tn.lukasiewicz))


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_tnorm_suite_grid_laws_match_the_scalar_loop(name):
    g = GRIDS[name]
    assert cli._grid_tnorm_laws(g) == oracles.grid_tnorm_laws(g.tnorm, g) == (True, True)
    # a table with one entry moved off its value fails the index check
    k = len(g.points)
    if k > 2:
        conj = [list(row) for row in g.conj_table]
        conj[1][k - 1] = 0
        broken = dataclasses.replace(g)
        object.__setattr__(broken, "conj_table", tuple(map(tuple, conj)))
        assert cli._grid_tnorm_laws(broken)[0] is False


TNORM_SETUPS = (
    ("--tnorm", "lukasiewicz", "--grid", "{0,1/3,2/3,1}"),
    ("--tnorm", "lukasiewicz"),
    ("--tnorm", "godel"),
    ("--tnorm", "godel", "--grid", "{0,1/4,1/2,3/4,1}"),
    ("--tnorm", "ordinal[(1/2,1,lukasiewicz)]", "--grid", "{0,1/2,3/4,1}"),
    ("--tnorm", "ordinal[(0,1/2,lukasiewicz),(1/2,1,lukasiewicz)]", "--grid", "{0,1/4,1/2,3/4,1}"),
    ("--tnorm", "product", "--mode", "float"),
    ("--tnorm", "ordinal[(0,1/2,product)]", "--mode", "float"),
    ("--tnorm", "ordinal[(1/2,1,product)]", "--mode", "float"),
)


def test_tnorm_suite_stdout_and_exit_codes_are_pinned():
    # the digest was taken while the exact grid checks still ran through tn.conj/tn.imp
    h = hashlib.sha256()
    for setup in TNORM_SETUPS:
        for seed in range(6):
            argv = ["laws", "tnorm", *setup, "--seed", str(seed)]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            h.update(json.dumps([argv, code, buf.getvalue()]).encode())
    assert h.hexdigest() == "17bb7dbf5c397decaec5e4b80cd8643a53653e2c4f48eb8e742c96ce238be906"
