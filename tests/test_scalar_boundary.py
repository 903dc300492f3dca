"""Every library entry point checks its scalars and elements once, on entry.

A scalar is exact (an int or a Fraction, never a bool) or a float, in [0,1];
on a grid it is a grid point.  An element is an int index of the carrier.  A
count (a size, a sample count, a bound) is a positive int, and a container (a
hom, its rows, values, a mapping, grid points, a filter table) is iterable.
Malformed input raises RecatError, never a bare TypeError, IndexError,
ValueError, StopIteration or ZeroDivisionError, and never gets a verdict of its
own.  The sweep covers `recat.__all__`, the ball, tensor and generator
functions, and the `laws` entry points, which take grids and tables.
"""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recat
import recat.cli as cli
from recat import balls, cat, fixtures, laws
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
}
G3 = recat.unit_grid(3, LUKA)
COUNT_ENTRIES = {
    "power": lambda n: tn.power(LUKA, F(1, 2), n),
    "unit_grid": lambda n: recat.unit_grid(n, LUKA),
    "ConicalFilter": lambda n: laws.ConicalFilter(G3, n, ((F(1),),)),
    "powerset_monad_check-size": lambda n: laws.powerset_monad_check(G3, n, random.Random(0)),
    "powerset_monad_check-samples": lambda n: laws.powerset_monad_check(G3, 1, random.Random(0), n),
    "find_cf4_cotensor_witness": lambda n: laws.find_cf4_cotensor_witness(G3, n),
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


@pytest.mark.parametrize("name", sorted(COUNT_ENTRIES))
@pytest.mark.parametrize("bad", BAD_COUNTS, ids=repr)
def test_counts_that_are_no_positive_int_raise_recat_error(name, bad):
    """power(t, x, 2.0) and power(t, x, '3') used to raise a bare TypeError, and
    unit_grid(0) a bare ZeroDivisionError; a filter or powerset size of True was read
    as 1, a powerset size of -1 raised a bare ValueError, and a string sample count or
    bound a bare TypeError."""
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


@pytest.mark.parametrize("bad", BAD_BOUNDS, ids=repr)
def test_classify_checks_its_bound(bad):
    with pytest.raises(RecatError, match=r"^bound must be an int >= 0, got"):
        cl.classify(ps.yoneda(X2, 0), bound=bad)


def test_classify_under_a_zero_bound_draws_its_coweights():
    """classify enumerates no weights: a bound below the grid's vector count makes
    the flatness verdict rest on a drawn coweight family, flagged not exhaustive."""
    rep = cl.classify(ps.yoneda(X2, 0), bound=0)
    assert rep.flat and not rep.exhaustive


def _cli_files(tmp_path):
    """The a2 category and its Yoneda weight at a, as CLI input files."""
    cpath, wpath = tmp_path / "c.json", tmp_path / "w.json"
    cpath.write_text(json.dumps(X2.to_json()))
    wpath.write_text(json.dumps({"values": vals._encode(ps.yoneda(X2, 0).values)}))
    return [str(cpath), str(wpath)]


@pytest.mark.parametrize(
    "command, zero_exit",
    [(["classify"], 0), (["laws", "filters"], 3), (["laws", "kz"], 3)],
    ids=["classify", "laws-filters", "laws-kz"],
)
def test_cli_bounds(tmp_path, capsys, command, zero_exit):
    """--bound -1 used to exit 0 on classify, 1 on laws filters and 3 on laws kz; now
    every negative --bound is a usage error (exit 2), and a zero one is exceeded
    (exit 3) wherever the command enumerates."""
    argv = command + (_cli_files(tmp_path) if command == ["classify"] else [])
    assert cli.main(argv + ["--bound", "-1"]) == 2
    assert "--bound: must be an int >= 0, got -1" in json.loads(capsys.readouterr().out)["error"]
    assert cli.main(argv + ["--bound", "x"]) == 2
    assert "--bound: invalid int value: 'x'" in json.loads(capsys.readouterr().out)["error"]
    assert cli.main(argv + ["--bound", "0"]) == zero_exit
    out = json.loads(capsys.readouterr().out)
    assert "exceed" in out["error"] if zero_exit == 3 else out["exhaustive"] is False


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
