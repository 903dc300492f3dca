"""Every library entry point checks its scalars and elements once, on entry.

A scalar is exact (an int or a Fraction, never a bool) or a float, in [0,1];
on a grid it is a grid point.  An element is an int index of the carrier.  A
count (a size, a sample count, a bound) is a positive int, and a container (a
hom, its rows, values, a mapping, grid points, a filter table) is iterable.
Malformed input raises RecatError, never a bare TypeError, IndexError,
ValueError, StopIteration or ZeroDivisionError, and never gets a verdict of its
own.  The sweep covers `recat.__all__`, the ball, tensor and generator
functions, the `laws` entry points, which take grids and tables, and the
order layer, whose elements, maps and sizes are checked the same way.
"""

import inspect
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recat
import recat.cli as cli
from recat import balls, cat, fixtures, gen, laws
from recat import poset as po
from recat import classify as cl
from recat import presheaf as ps
from recat import tnorm as tn
from recat import values as vals
from recat.errors import BoundExceededError, CapExceededError, RecatError

LUKA = tn.lukasiewicz
BASES = {
    "exact": lambda: cat.EnrichedCategory(LUKA, fixtures.a2().hom),
    "grid": fixtures.a2,
    "float": lambda: cat.EnrichedCategory(tn.product, ((1.0, 0.5), (0.0, 1.0))),
}
# malformed scalars per base; "1/2" is well-formed where strings are parsed
BAD_SCALARS = {
    "exact": (-1, 3, 0.5, "abc", "1/2", None, [1], True),
    "grid": (-1, 3, 0.5, F(1, 2), "abc", "1/2", None, [1], True),
    "float": (float("nan"), 1.5, -1.0, F(1, 2), "abc", None, [1], True),
}
BAD_ELEMENTS = (-1, 2, "a", True, None, 1.0)


def _set(seq, i, v):
    out = list(seq)
    out[i] = v
    return tuple(out)


def _hom_with(X, p, v):
    return _set(X.hom, p // 2, _set(X.hom[p // 2], p % 2, v))


def _balls(X, p, ball):
    """Two balls of radius 1 centred on 0 and 1, the one picked by p replaced by `ball`."""
    return _set(((0, X.one), (1, X.one)), p % 2, ball)


def _module(grid):
    """The module of grid-valued truth values on `grid`: lattice and scalars are its points."""
    return laws.category_to_module(fixtures.grid_v(grid))


def _filter(grid):
    """The conical filter of size 2 generated by the top vector of `grid`."""
    return laws.ConicalFilter(grid, 2, ((grid.points[-1],) * 2,))


def _pair(p, a):
    """The identity map (0, 1) of a two-element carrier, the image picked by p replaced by `a`."""
    return _set((0, 1), p % 2, a)


def _max_table(grid):
    """The functional max, tabulated on all pairs of grid points."""
    return laws.filter_table(max, grid, 2)


ALL, GRIDLESS, EXACT, GRID = tuple(sorted(BASES)), ("exact", "float"), ("exact",), ("grid",)
# name -> (bases, call(X, v, p)): v goes into one scalar slot and p in range(4) picks the
# slot; a call that ignores X's grid is driven on gridless bases, where 1/2 is malformed
SCALAR_ENTRIES = {
    "conj": (GRIDLESS, lambda X, v, p: tn.conj(X.tnorm, *_set((X.one, X.one), p % 2, v))),
    "imp": (GRIDLESS, lambda X, v, p: tn.imp(X.tnorm, *_set((X.zero, X.one), p % 2, v))),
    "power": (GRIDLESS, lambda X, v, p: tn.power(X.tnorm, v, 1 + p % 2)),
    "idempotents": (GRIDLESS, lambda X, v, p: tn.idempotents(X.tnorm, [v])),
    "generator_eval": (GRIDLESS, lambda X, v, p: tn.generator_eval(X.tnorm, v)),
    "pseudo_inverse": (GRIDLESS, lambda X, v, p: tn.pseudo_inverse(X.tnorm, v)),
    "Rel": (GRIDLESS, lambda X, v, p: cat.Rel(2, 2, _hom_with(X, p, v))),
    "ordinal_sum": (EXACT, lambda X, v, p: tn.ordinal_sum(_set((0, 1, tn.LUKASIEWICZ), p % 2, v))),
    "ValueGrid": (EXACT, lambda X, v, p: recat.ValueGrid((0, v, 1), LUKA)),
    "grid_validate": (EXACT, lambda X, v, p: recat.grid_validate((0, v, 1), LUKA)),
    "grid_closure": (EXACT, lambda X, v, p: recat.grid_closure((v,), LUKA)),
    "EnrichedCategory": (ALL, lambda X, v, p: cat.EnrichedCategory(X.tnorm, _hom_with(X, p, v), X.names, X.grid)),
    "Weight": (ALL, lambda X, v, p: ps.Weight(X, _set((X.one, X.zero), p % 2, v))),
    "Coweight": (ALL, lambda X, v, p: ps.Coweight(X, _set((X.zero, X.one), p % 2, v))),
    "tensor": (ALL, lambda X, v, p: ps.tensor(X, v, p % 2)),
    "cotensor": (ALL, lambda X, v, p: ps.cotensor(X, v, p % 2)),
    "ball_leq": (ALL, lambda X, v, p: balls.ball_leq(X, *_balls(X, p, (p % 2, v)))),
    "ball_equiv": (ALL, lambda X, v, p: balls.ball_equiv(X, *_balls(X, p, (p % 2, v)))),
    "ball_way_below": (ALL, lambda X, v, p: balls.ball_way_below(X, *_balls(X, p, (p % 2, v)))),
    "directed_check": (ALL, lambda X, v, p: balls.directed_check(X, [(0, X.one), (p % 2, v)])),
    "directed_join": (ALL, lambda X, v, p: balls.directed_join(X, [(0, X.one), (p % 2, v)])),
    "ModuleAction.act": (GRID, lambda X, v, p: _module(X.grid).act(v, p % 2)),
    "ConicalFilter": (GRID, lambda X, v, p: laws.ConicalFilter(X.grid, 2, (_set((X.one, X.one), p % 2, v),))),
    "ConicalFilter.__call__": (GRID, lambda X, v, p: laws.ConicalFilter(X.grid, 2, ((X.one, X.one),))(
        _set((X.one, X.one), p % 2, v))),
    "filter_axiom_check": (GRID, lambda X, v, p: laws.filter_axiom_check(
        X.grid, {**_max_table(X.grid), (X.one, X.grid.points[p % 2]): v})),
    "cotensor_filter_table": (GRID, lambda X, v, p: laws.cotensor_filter_table(X.grid, v, _max_table(X.grid))),
    "kowalsky_sum": (GRID, lambda X, v, p: laws.kowalsky_sum(
        [(X.one, X.one), _set((X.one, X.one), p % 2, v)][p // 2:], [_filter(X.grid)] * 2)),
}
# what a well-formed call puts where a malformed value went, beyond "1/2" -> 1/2; None
# marks a value that is well-formed as it stands: no category fixes the mode of a t-norm
# operation, so 0.5 is a float scalar there, and pseudo_inverse takes u <= 0
EXTRA_READINGS = {name: {0.5: None} for name in ("power", "idempotents", "generator_eval")}
EXTRA_READINGS.update(pseudo_inverse={-1: None, 0.5: None}, ordinal_sum={0.5: F(1, 2)})

ELEMENT_ENTRIES = {
    "yoneda": lambda X, a, p: ps.yoneda(X, a),
    "coyoneda": lambda X, a, p: ps.coyoneda(X, a),
    "tensor": lambda X, a, p: ps.tensor(X, X.one, a),
    "cotensor": lambda X, a, p: ps.cotensor(X, X.one, a),
    "EnrichedFunctor": lambda X, a, p: cat.EnrichedFunctor(X, X, _set((0, 1), p % 2, a)),
    "is_compact": lambda X, a, p: balls.is_compact(X, a),
    "ball_leq": lambda X, a, p: balls.ball_leq(X, *_balls(X, p, (a, X.one))),
    "directed_join": lambda X, a, p: balls.directed_join(X, [(a, X.one)]),
    # the module of {0, 1}: a two-element lattice, as the carriers of the bases
    "ModuleAction.act": lambda X, a, p: _module(recat.unit_grid(1, LUKA)).act(F(1), a),
    "full_subcategory": lambda X, a, p: gen.full_subcategory(X, _pair(p, a)),
    # the order layer on the underlying order of X, two elements as the carriers of the bases
    "FinitePoset.join": lambda X, a, p: cat.underlying_order(X).join(_pair(p, a)),
    "FinitePoset.meet": lambda X, a, p: cat.underlying_order(X).meet(_pair(p, a)),
    "FinitePoset.upper_bounds": lambda X, a, p: cat.underlying_order(X).upper_bounds([a]),
    "FinitePoset.lower_bounds": lambda X, a, p: cat.underlying_order(X).lower_bounds([a]),
    "way_below": lambda X, a, p: po.way_below(cat.underlying_order(X), *_pair(p, a)),
    "totally_below": lambda X, a, p: po.totally_below(cat.underlying_order(X), *_pair(p, a)),
    "is_monotone": lambda X, a, p: po.is_monotone(_pair(p, a), po.chain(2), cat.underlying_order(X)),
    "galois_check": lambda X, a, p: po.galois_check(
        *_set(((0, 1), (0, 1)), p // 2 % 2, _pair(p, a)), po.chain(2), cat.underlying_order(X)),
    "left_adjoint_of": lambda X, a, p: po.left_adjoint_of(_pair(p, a), po.chain(2), cat.underlying_order(X)),
}
G3 = recat.unit_grid(3, LUKA)
COUNT_ENTRIES = {
    "power": lambda n: tn.power(LUKA, F(1, 2), n),
    "unit_grid": lambda n: recat.unit_grid(n, LUKA),
    "ConicalFilter": lambda n: laws.ConicalFilter(G3, n, ((F(1),),)),
    "powerset_monad_check-size": lambda n: laws.powerset_monad_check(G3, n, random.Random(0)),
    "powerset_monad_check-samples": lambda n: laws.powerset_monad_check(G3, 1, random.Random(0), n),
    "find_cf4_cotensor_witness": lambda n: laws.find_cf4_cotensor_witness(G3, n),
    "random_directed_balls": lambda n: gen.random_directed_balls(random.Random(0), fixtures.a2(), n),
    "negation_duality_check_float": lambda n: laws.negation_duality_check_float(tn.product, n),
    "conical_filter_check_float-size": lambda n: laws.conical_filter_check_float(tn.product, n, random.Random(0)),
    "conical_filter_check_float-samples": lambda n: laws.conical_filter_check_float(tn.product, 2, random.Random(0), n),
    "random_module": lambda n: gen.random_module(random.Random(0), LUKA, n),
    "lattice_catalog": lambda n: po.lattice_catalog(n),
}
BAD_COUNTS = (0, -1, 2.0, "3", True, None)
# public names that take no scalar, element or count: t-norm objects, a predicate, and
# operations on weights, whose values were checked when the weights were built
NO_SCALAR = {"TNorm", "is_archimedean", "godel", "product", "lukasiewicz", "sub", "pairing", "colim"}


def test_the_sweep_covers_every_public_name():
    driven = set(SCALAR_ENTRIES) | set(ELEMENT_ENTRIES) | set(COUNT_ENTRIES)
    assert set(recat.__all__) <= driven | NO_SCALAR


def _outcome(call):
    """("ok", result) or ("error",) on RecatError; any other exception propagates."""
    try:
        return ("ok", call())
    except RecatError:
        return ("error",)


@pytest.mark.parametrize("name", sorted(SCALAR_ENTRIES))
@settings(max_examples=10, deadline=None)
@given(data=st.data(), p=st.integers(0, 3))
def test_malformed_scalars_raise_recat_error(name, data, p):
    bases, call = SCALAR_ENTRIES[name]
    base = data.draw(st.sampled_from(bases))
    X, readings = BASES[base](), {"1/2": F(1, 2), **EXTRA_READINGS.get(name, {})}
    for bad in BAD_SCALARS[base]:
        got = _outcome(lambda: call(X, bad, p))
        if got != ("error",):
            key = bad if type(bad) in (int, float, str) else None
            assert key in readings, f"{name}({bad!r}) on the {base} base answers {got}"
            if readings[key] is not None:
                assert got == _outcome(lambda: call(X, readings[key], p))


@pytest.mark.parametrize("name", sorted(ELEMENT_ENTRIES))
@settings(max_examples=10, deadline=None)
@given(base=st.sampled_from(ALL), p=st.integers(0, 3))
def test_malformed_elements_raise_recat_error(name, base, p):
    X = BASES[base]()
    for bad in BAD_ELEMENTS:
        with pytest.raises(RecatError):
            ELEMENT_ENTRIES[name](X, bad, p)


BALL_ENTRIES = {
    "ball_leq": lambda X, b, p: balls.ball_leq(X, *_balls(X, p, b)),
    "ball_equiv": lambda X, b, p: balls.ball_equiv(X, *_balls(X, p, b)),
    "ball_way_below": lambda X, b, p: balls.ball_way_below(X, *_balls(X, p, b)),
    "directed_check": lambda X, b, p: balls.directed_check(X, _balls(X, p, b)),
    "directed_join": lambda X, b, p: balls.directed_join(X, _balls(X, p, b)),
}
BAD_BALLS = (5, None, (0,), (0, 1, 1), (), "ab")


@pytest.mark.parametrize("name", sorted(BALL_ENTRIES))
@pytest.mark.parametrize("bad", BAD_BALLS, ids=repr)
@pytest.mark.parametrize("p", (0, 1))
def test_balls_that_are_no_element_radius_pair_raise_recat_error(name, bad, p):
    """directed_check(a2, [5]), ball_leq(a2, 5, (0, 1)) and directed_join(a2, [(0, 1), 7])
    used to raise a bare TypeError, and ball_equiv(a2, (0,), (0, 1)) a bare ValueError."""
    with pytest.raises(RecatError):
        BALL_ENTRIES[name](fixtures.a2(), bad, p)


@pytest.mark.parametrize("name", sorted(COUNT_ENTRIES))
@pytest.mark.parametrize("bad", BAD_COUNTS, ids=repr)
def test_counts_that_are_no_positive_int_raise_recat_error(name, bad):
    """power(t, x, 2.0) and power(t, x, '3') used to raise a bare TypeError, and
    unit_grid(0) a bare ZeroDivisionError; a filter or powerset size of True was read
    as 1, a powerset size of -1 raised a bare ValueError, and a string sample count or
    bound a bare TypeError; random_directed_balls with a length of "x" raised a bare
    TypeError, and one of 0 or less returned one ball; the float negation-duality and
    filter checks raised a bare TypeError on a string count, a bare ValueError on a filter
    size of 0, and passed vacuously on 0 samples; random_module raised a bare ValueError,
    IndexError or TypeError on a max_size of 1, 0 or "x" and took True, and lattice_catalog
    raised a bare TypeError on "x" and read True as 1."""
    with pytest.raises(RecatError):
        COUNT_ENTRIES[name](bad)


X2 = fixtures.a2()
# name -> call(bound): each counts its candidates against the bound (a grid closure
# its points against the cap), so a zero bound is exceeded, which the CLI exits 3 on
BOUND_ENTRIES = {
    "enumerate_weights": lambda b: ps.enumerate_weights(X2, b),
    "enumerate_coweights": lambda b: ps.enumerate_coweights(X2, b),
    "all_functors": lambda b: cat.all_functors(X2, X2, b),
    "hom_category": lambda b: cat.hom_category(X2, X2, b),
    "kz_equality_consistent_with_cauchy": lambda b: laws.kz_equality_consistent_with_cauchy(X2, b),
    "grid_closure": lambda b: recat.grid_closure((F(1, 3),), LUKA, cap=b),
}
BAD_BOUNDS = (-1, 2.0, "x", True, None)


@pytest.mark.parametrize("name", sorted(BOUND_ENTRIES))
@pytest.mark.parametrize("bad", BAD_BOUNDS, ids=repr)
def test_bounds_that_are_no_int_of_at_least_zero_raise_recat_error(name, bad):
    """A bound or cap of 'x' or None used to raise a bare TypeError, and True read as 1."""
    with pytest.raises(RecatError, match=r"must be an int >= 0, got"):
        BOUND_ENTRIES[name](bad)


@pytest.mark.parametrize("name", sorted(BOUND_ENTRIES))
def test_a_zero_bound_is_exceeded(name):
    with pytest.raises(CapExceededError if name == "grid_closure" else BoundExceededError):
        BOUND_ENTRIES[name](0)


def test_classify_takes_no_bound_and_no_rng():
    """classify and is_flat used to take a bound and an rng that fed drawn coweights."""
    assert list(inspect.signature(cl.classify).parameters) == ["phi"]
    assert list(inspect.signature(cl.is_flat).parameters) == ["phi"]


def test_classify_past_the_exhaustive_cap_stays_exact(monkeypatch):
    """Past the cap the corepresentables decide flatness: the verdicts stay exact, where
    a drawn coweight family used to flag them not exhaustive."""
    monkeypatch.setattr(cl, "EXHAUSTIVE_CAP", 0)
    rep = cl.classify(ps.yoneda(X2, 0))
    assert rep.flat and rep.exhaustive
    rep = cl.classify(fixtures.g5_weight())
    assert rep.conically_flat and not rep.flat and rep.exhaustive
    r, psi = rep.witnesses["flat"]
    X = fixtures.g5_weight().base
    assert psi in {ps.coyoneda(X, a).values for a in range(X.n)}


def _cli_files(tmp_path):
    """The a2 category and its Yoneda weight at a, as CLI input files."""
    cpath, wpath = tmp_path / "c.json", tmp_path / "w.json"
    cpath.write_text(json.dumps(X2.to_json()))
    wpath.write_text(json.dumps({"values": vals._encode(ps.yoneda(X2, 0).values)}))
    return [str(cpath), str(wpath)]


@pytest.mark.parametrize("command", [["laws", "filters"], ["laws", "kz"]], ids=["laws-filters", "laws-kz"])
def test_cli_bounds(capsys, command):
    """--bound -1 used to exit 1 on laws filters and 3 on laws kz; now every negative
    --bound is a usage error (exit 2), and a zero one is exceeded (exit 3)."""
    assert cli.main(command + ["--bound", "-1"]) == 2
    assert "--bound: must be an int >= 0, got -1" in json.loads(capsys.readouterr().out)["error"]
    assert cli.main(command + ["--bound", "x"]) == 2
    assert "--bound: invalid int value: 'x'" in json.loads(capsys.readouterr().out)["error"]
    assert cli.main(command + ["--bound", "0"]) == 3
    assert "exceed" in json.loads(capsys.readouterr().out)["error"]


def test_cli_classify_takes_no_bound_and_only_echoes_its_seed(tmp_path, capsys):
    """recat classify --bound 0 used to exit 0 with a drawn family; --bound is gone
    (exit 2), and --seed, which seeds nothing, is echoed."""
    argv = ["classify"] + _cli_files(tmp_path)
    assert cli.main(argv + ["--bound", "10"]) == 2
    assert "--bound" in json.loads(capsys.readouterr().out)["error"]
    reports = []
    for seed in ("0", "7"):
        assert cli.main(argv + ["--seed", seed]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert [r.pop("seed") for r in reports] == [0, 7]
    assert reports[0] == reports[1] and reports[0]["exhaustive"] is True


CONTAINER_ENTRIES = {
    "EnrichedCategory-hom": lambda v: cat.EnrichedCategory(LUKA, v),
    "EnrichedCategory-row": lambda v: cat.EnrichedCategory(LUKA, (v, v)),
    "Rel-rows": lambda v: cat.Rel(1, 1, v),
    "Rel-row": lambda v: cat.Rel(1, 1, (v,)),
    "Weight": lambda v: ps.Weight(X2, v),
    "Coweight": lambda v: ps.Coweight(X2, v),
    "EnrichedFunctor": lambda v: cat.EnrichedFunctor(X2, X2, v),
    "ValueGrid": lambda v: recat.ValueGrid(v, LUKA),
    "grid_validate": lambda v: recat.grid_validate(v, LUKA),
    "grid_closure": lambda v: recat.grid_closure(v, LUKA),
    "idempotents": lambda v: tn.idempotents(LUKA, v),
    "ConicalFilter-generators": lambda v: laws.ConicalFilter(G3, 1, v),
    "ConicalFilter-generator": lambda v: laws.ConicalFilter(G3, 1, (v,)),
    "filter_axiom_check": lambda v: laws.filter_axiom_check(G3, v),
    "filter_axiom_check-key": lambda v: laws.filter_axiom_check(G3, {v: F(1)}),
    "ConicalFilter.__call__": lambda v: laws.ConicalFilter(G3, 1, ((F(1),),))(v),
    "kowalsky_sum-metas": lambda v: laws.kowalsky_sum(v, [laws.ConicalFilter(G3, 1, ((F(1),),))]),
    "kowalsky_sum-meta": lambda v: laws.kowalsky_sum((v,), [laws.ConicalFilter(G3, 1, ((F(1),),))]),
    "kowalsky_sum-filters": lambda v: laws.kowalsky_sum([(F(1),)], v),
    "FinitePoset-leq": lambda v: po.FinitePoset(1, v),
    "FinitePoset-row": lambda v: po.FinitePoset(1, (v,)),
    "FinitePoset.upper_bounds": lambda v: po.chain(2).upper_bounds(v),
    "FinitePoset.lower_bounds": lambda v: po.chain(2).lower_bounds(v),
    "is_monotone": lambda v: po.is_monotone(v, po.chain(2), po.chain(2)),
    "galois_check": lambda v: po.galois_check((0, 1), v, po.chain(2), po.chain(2)),
    "full_subcategory": lambda v: gen.full_subcategory(X2, v),
    "directed_check": lambda v: balls.directed_check(X2, v),
    "directed_join": lambda v: balls.directed_join(X2, v),
}


@pytest.mark.parametrize("name", sorted(CONTAINER_ENTRIES))
@pytest.mark.parametrize("bad", (None, 3, F(1, 2), True), ids=repr)
def test_containers_that_are_not_iterable_raise_recat_error(name, bad):
    """A hom, rows, values, a mapping or a grid given as None or an int used to raise a
    bare TypeError ('NoneType' object is not iterable)."""
    with pytest.raises(RecatError):
        CONTAINER_ENTRIES[name](bad)


@pytest.mark.parametrize(
    "table",
    [{}, [], {(F(0),): F(1)}, {(F(0), F(0)): F(1), (F(1),): F(1)}],
    ids=["empty", "list", "one-of-four-vectors", "two-sizes"],
)
def test_a_filter_table_covers_the_grid_vectors_of_one_size(table):
    """filter_axiom_check(grid, {}) used to raise a bare StopIteration, and a table
    missing a vector a bare KeyError."""
    with pytest.raises(RecatError, match="filter table"):
        laws.filter_axiom_check(G3, table)


def test_a_module_acts_on_its_own_elements():
    """act(r, n) used to raise a bare IndexError, and act(r, True) read True as element 1."""
    M = _module(G3)
    assert M.act(F(1), 1) == 1
    for bad in (M.lattice.n, -1, True, 1.0):
        with pytest.raises(RecatError, match="is not in the carrier"):
            M.act(F(1), bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda X: ps.yoneda(X, -1),
        lambda X: ps.coyoneda(X, 2),
        lambda X: ps.tensor(X, F(1), -1),
        lambda X: ps.cotensor(X, F(1), 2),
        lambda X: cat.EnrichedFunctor(X, X, (0, -1)),
        lambda X: cat.EnrichedFunctor(X, X, (0, 5)),
        lambda X: cat.EnrichedFunctor(X, X, (0, "a")),
    ],
    ids=["yoneda", "coyoneda", "tensor", "cotensor", "functor-negative", "functor-past-end", "functor-string"],
)
def test_elements_outside_the_carrier_are_rejected(call):
    """A negative element used to wrap round, and one past the end or a string raised
    a bare IndexError or TypeError."""
    X = BASES["exact"]()
    with pytest.raises(RecatError, match="^element .* is not in the carrier$"):
        call(X)


@pytest.mark.parametrize(
    "call",
    [
        lambda: tn.conj(LUKA, True, F(1, 2)),
        lambda: tn.imp(LUKA, F(1, 2), False),
        lambda: tn.power(LUKA, True, 2),
        lambda: tn.idempotents(LUKA, [True]),
        lambda: tn.generator_eval(LUKA, True),
        lambda: tn.pseudo_inverse(LUKA, False),
        lambda: vals.grid_validate([0, True, 1], LUKA),
        lambda: cat.EnrichedCategory(LUKA, ((F(1), True), (F(0), F(1)))),
        lambda: cat.EnrichedCategory(LUKA, ((True, F(0)), (F(0), F(1)))),
        lambda: cat.Rel(1, 2, ((F(1), True),)),
        lambda: ps.Weight(BASES["exact"](), (True, F(0))),
    ],
    ids=["conj", "imp", "power", "idempotents", "generator_eval", "pseudo_inverse", "grid_validate",
         "category", "category-first-value", "Rel", "Weight"],
)
def test_a_bool_is_no_scalar(call):
    with pytest.raises(RecatError):
        call()


@pytest.mark.parametrize(
    "hom",
    [((1, -1), (0, 1)), ((1, 3), (0, 1)), ((F(1), 1.5), (0.0, 1.0)), ((1.0, float("nan")), (0.0, 1.0)),
     ((1.0, F(1, 2)), (0.0, 1.0))],
    ids=["negative", "above-one", "above-one-float", "nan", "mixed-modes"],
)
def test_a_gridless_hom_holds_scalars_of_one_mode_in_the_unit_interval(hom):
    with pytest.raises(RecatError):
        cat.EnrichedCategory(tn.product if isinstance(hom[0][0], float) else LUKA, hom)
    with pytest.raises(RecatError):
        cat.Rel(2, 2, hom)


@pytest.mark.parametrize("bad", [1.5, -0.5, "NaN"])
def test_a_float_hom_outside_the_unit_interval_is_a_parse_failure(tmp_path, capsys, bad):
    """`recat check` used to read such a hom and report it with exit 1."""
    path = tmp_path / "c.json"
    text = json.dumps({"tnorm": "product", "hom": [[1.0, 0.5], [0.0, 1.0]]})
    path.write_text(text.replace("0.5", str(bad)))
    code = cli.main(["check", str(path)])
    assert code == 2 and "is not in [0,1]" in json.loads(capsys.readouterr().out)["error"]


def test_a_product_block_keeps_its_values_in_the_unit_interval():
    """Under a product block [1/5, 1], 1.0 (*) 1.0 used to round to 1.0000000000000002,
    which the relation check rejects, so composing a float hom with itself raised."""
    t = tn.ordinal_sum((F(1, 5), 1, tn.PRODUCT))
    assert tn.conj(t, 1.0, 1.0) == 1.0
    X = cat.EnrichedCategory(t, ((1.0, 0.5), (0.25, 1.0)))
    assert cat.rel_eq(cat.compose(t, cat.hom_rel(X), cat.hom_rel(X)), cat.hom_rel(X))


L3 = po.chain(3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: L3.join([3]), "^element 3 is not in the carrier$"),
        (lambda: L3.meet([-1]), "^element -1 is not in the carrier$"),
        (lambda: L3.upper_bounds(None), "^elements must be a sequence, not NoneType$"),
        (lambda: po.way_below(L3, 0, 3), "^element 3 is not in the carrier$"),
        (lambda: po.way_below(L3, -1, 0), "^element -1 is not in the carrier$"),
        (lambda: po.totally_below(L3, 0, 5), "^element 5 is not in the carrier$"),
        (lambda: po.left_adjoint_of([0], L3, L3), "^a map on 3 elements needs 3 images, got 1$"),
        (lambda: po.galois_check([0], [0], L3, L3), "^a map on 3 elements needs 3 images, got 1$"),
        (lambda: po.is_monotone([0, 1, 9], L3, L3), "^element 9 is not in the carrier$"),
        (lambda: po.FinitePoset(2, None), "^leq must be a sequence, not NoneType$"),
        (lambda: po.FinitePoset(-1, ()), "^poset size must be an int >= 0, got -1$"),
        (lambda: po.FinitePoset.from_json({"n": "x", "leq": []}), "^poset size must be an int >= 0, got 'x'$"),
    ],
    ids=["join", "meet-negative", "upper_bounds-None", "way_below", "way_below-negative", "totally_below",
         "left_adjoint_of", "galois_check", "is_monotone", "FinitePoset-None", "FinitePoset-size", "from_json"],
)
def test_the_order_layer_checks_its_elements_maps_and_sizes(call, message):
    """These raised a bare IndexError, TypeError or ValueError, and a negative element
    wrapped round: L.meet([-1]) answered 2 and way_below(L, -1, 0) False."""
    with pytest.raises(RecatError, match=message):
        call()


def test_the_order_layer_keeps_its_answers():
    assert L3.join([0, 2]) == 2 and L3.meet([]) == 2 and L3.upper_bounds((1,)) == [1, 2]
    assert po.left_adjoint_of((0, 1, 2), L3, L3) == [0, 1, 2]
    assert po.FinitePoset.from_json(L3.to_json()) == L3 and po.FinitePoset(0, ()).bottom is None


def test_a_subcategory_is_taken_on_elements_of_the_carrier():
    """full_subcategory(X, [2]) raised a bare IndexError and (X, None) a bare TypeError;
    a -1 was caught only after the hom was read at a wrapped index."""
    for subset, message in (([2], "element 2 is not"), (None, "subset must be a sequence"),
                            ([-1], "element -1 is not"), ([0, "a"], "element a is not")):
        with pytest.raises(RecatError, match=message):
            gen.full_subcategory(X2, subset)
    sub_c, incl = gen.full_subcategory(X2, (1,))
    assert sub_c.hom == ((F(1),),) and incl.mapping == (1,)


def test_ball_exports_and_draws_need_a_grid_of_radii():
    """ball_poset_dot(X, grid=[0, 1]) and random_directed_balls on a gridless category
    raised a bare AttributeError."""
    with pytest.raises(RecatError, match="needs a grid of radii"):
        balls.ball_poset_dot(X2, grid=[0, 1])
    with pytest.raises(RecatError, match="need a grid of radii"):
        gen.random_directed_balls(random.Random(0), BASES["exact"]())
    assert balls.ball_poset_dot(X2, grid=None) == balls.ball_poset_dot(X2, X2.grid)


def test_ball_draws_need_a_point():
    """random_directed_balls on an empty category with a grid raised a bare ValueError."""
    with pytest.raises(RecatError, match="need a non-empty category"):
        gen.random_directed_balls(random.Random(0), cat.EnrichedCategory(LUKA, (), (), G3))


def test_category_names_are_distinct_strings_at_construction():
    """EnrichedCategory(t, hom, ("a", "a")) and names=(0, 1) constructed, but their to_json
    did not load, and ball_poset_dot printed node "a@0" twice; full_subcategory(X, [0, 0])
    returned two copies of one element."""
    for names in (("a", "a"), (0, 1), ("a", None)):
        with pytest.raises(RecatError, match="names must be distinct strings"):
            cat.EnrichedCategory(LUKA, X2.hom, names, X2.grid)
    with pytest.raises(RecatError, match="names must be distinct strings"):
        gen.full_subcategory(X2, [0, 0])
    for X in (X2, cat.EnrichedCategory(LUKA, X2.hom, ("b", "a"), X2.grid), BASES["float"]()):
        assert cat.EnrichedCategory.from_json(X.to_json()) == X


def test_weight_draws_need_a_grid():
    """random_weight and random_coweight on a gridless category raised a bare AttributeError."""
    for base in ("exact", "float"):
        for draw in (gen.random_weight, gen.random_coweight):
            with pytest.raises(RecatError, match="drawn on a grid; the category has none"):
                draw(random.Random(0), BASES[base]())


def test_a_functor_draw_needs_a_target_point():
    """random_functor from a non-empty category to an empty one raised a bare ValueError."""
    empty = cat.EnrichedCategory(LUKA, (), (), G3)
    with pytest.raises(RecatError, match="to an empty one"):
        gen.random_functor(random.Random(0), X2, empty)
    assert gen.random_functor(random.Random(0), empty, empty).mapping == ()


@pytest.mark.parametrize("bad", (-1, 2.0, "3", True, None), ids=repr)
def test_a_category_draw_takes_a_size_of_at_least_zero(bad):
    """random_category(rng, -1, grid) returned an empty category."""
    with pytest.raises(RecatError, match="^n must be an int >= 0"):
        gen.random_category(random.Random(0), bad, G3)
    assert gen.random_category(random.Random(0), 0, G3).n == 0


def test_kowalsky_sum_checks_its_meta_generators():
    """A meta entry "abc" or None beside a second meta generator, and metas of None,
    raised a bare TypeError; an off-grid entry was accepted."""
    F1 = laws.ConicalFilter(G3, 1, ((F(1),),))
    for metas, message in (([(F(1),), ("abc",)], "^meta generator entry 'abc' is not a grid point"),
                           ([(F(1),), (None,)], "^meta generator entry None is not a grid point"),
                           (None, "^meta generators must be a sequence"),
                           ([(F(1, 5),)], "^meta generator entry 1/5 is not a grid point$"),
                           ([(F(1), F(1))], "^meta generator length mismatch$")):
        with pytest.raises(RecatError, match=message):
            laws.kowalsky_sum(metas, [F1])
    with pytest.raises(RecatError, match="^kowalsky sum members must be conical filters$"):
        laws.kowalsky_sum([(F(1),)], [None])


def test_a_filter_takes_arguments_of_its_size():
    """A short argument was cut by zip, and an empty one raised a bare ValueError."""
    Fg = laws.ConicalFilter(G3, 2, ((F(1), F(1, 3)),))
    assert Fg((F(1), F(1, 3))) == F(1)
    for lam in ((F(1),), (), (F(1),) * 3):
        with pytest.raises(RecatError, match="^a filter of size 2 takes 2 entries"):
            Fg(lam)
