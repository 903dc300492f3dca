"""The weight law and filter evaluation on grid indices, and tensors on and off a grid.

On a category with a grid, `Weight` and `Coweight` read the law off the grid's
conj table, and `ConicalFilter` evaluation and `cotensor_filter_table` read
r -> - off its imp table.  `tensor`/`cotensor` have one scalar path, with or
without a grid, and the gridded and gridless results are compared.  The
oracles in `oracles.py` compute the same through tn.conj/tn.imp on points.
"""

import json
import random
from fractions import Fraction as F
from itertools import product as iproduct

import pytest

import oracles
import recat.cli as cli
import recat.laws as laws
import recat.presheaf as ps
import recat.tnorm as tn
import recat.values as vals
from recat import gen
from recat.cat import EnrichedCategory, opposite
from recat.errors import AxiomError, CarrierMismatchError, RecatError

GRIDS = {
    "luka4": vals.unit_grid(4, tn.lukasiewicz),
    "godel3": vals.unit_grid(3, tn.godel),
    "upper_ordinal": vals.grid_validate([0, F(1, 2), F(3, 4), 1], tn.parse_tnorm("ordinal[(1/2,1,lukasiewicz)]")),
    "two_blocks": vals.grid_validate(
        [0, F(1, 4), F(1, 2), F(3, 4), 1],
        tn.parse_tnorm("ordinal[(0,1/2,lukasiewicz),(1/2,1,lukasiewicz)]"),
    ),
}


def _categories(grid, per_size=4, seed=0):
    rng = random.Random(seed)
    return [gen.random_category(rng, n, grid) for n in (1, 2, 3) for _ in range(per_size)]


def _outcome(cls, X, vec):
    """None when cls(X, vec) constructs, else the witness of its AxiomError."""
    try:
        cls(X, vec)
    except AxiomError as exc:
        return exc.witness
    return None


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_law_check_matches_the_scalar_loop_on_every_grid_vector(name):
    grid = GRIDS[name]
    seen = {True: 0, False: 0}
    for X in _categories(grid):
        gridless = EnrichedCategory(X.tnorm, X.hom)
        for vec in iproduct(grid.points, repeat=X.n):
            want = oracles.weight_law_witness(X, vec)
            assert _outcome(ps.Weight, X, vec) == want
            assert _outcome(ps.Weight, gridless, vec) == want
            co_want = oracles.coweight_law_witness(X, vec)
            assert _outcome(ps.Coweight, X, vec) == co_want
            assert _outcome(ps.Coweight, gridless, vec) == co_want
            seen[want is None] += 1
    assert seen[True] and seen[False]  # both verdicts occur on every grid


def test_law_check_on_a_grid_makes_no_scalar_call(monkeypatch):
    X = _categories(GRIDS["luka4"], per_size=1, seed=3)[-1]
    vecs = list(iproduct(X.grid.points, repeat=X.n))

    def refuse(*args):
        raise AssertionError("tn.conj called")

    monkeypatch.setattr(tn, "conj", refuse)
    for vec in vecs:
        _outcome(ps.Weight, X, vec)
        _outcome(ps.Coweight, X, vec)
    with pytest.raises(AssertionError, match="tn.conj called"):
        ps.Weight(EnrichedCategory(X.tnorm, X.hom), vecs[0])


@pytest.mark.parametrize("value", [F(1, 3), 0.5, True, "1/2"], ids=["off_grid", "float", "bool", "str"])
@pytest.mark.parametrize("cls", [ps.Weight, ps.Coweight])
def test_value_that_is_not_an_exact_grid_point_is_rejected(cls, value):
    grid = GRIDS["luka4"]
    X = EnrichedCategory(grid.tnorm, ((F(1), F(1, 2)), (F(0), F(1))), (), grid)
    with pytest.raises(RecatError, match="is not a grid point"):
        cls(X, (F(1), value))
    with pytest.raises(RecatError, match="is not a grid point"):
        cls(X, (value, F(0)))


def test_gridless_exact_weight_takes_any_rational():
    X = EnrichedCategory(tn.lukasiewicz, ((F(1), F(1, 2)), (F(0), F(1))))
    assert ps.Weight(X, (F(1, 3), F(1, 3))).values == (F(1, 3), F(1, 3))


def test_classify_with_an_off_grid_weight_file_exits_2(tmp_path, capsys):
    grid = GRIDS["luka4"]
    X = EnrichedCategory(grid.tnorm, ((F(1), F(1, 2)), (F(0), F(1))), ("a", "b"), grid)
    cpath, wpath = tmp_path / "x.json", tmp_path / "w.json"
    cpath.write_text(json.dumps(X.to_json()))
    wpath.write_text(json.dumps({"values": ["1", "1/3"]}))
    assert cli.main(["classify", str(cpath), str(wpath)]) == 2
    assert "1/3 is not a grid point" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_tensor_and_cotensor_match_the_imp_oracle(name):
    grid = GRIDS[name]
    for X in _categories(grid, seed=1):
        gridless = EnrichedCategory(X.tnorm, X.hom)
        for r in grid.points:
            for x in range(X.n):
                assert ps.tensor(X, r, x) == oracles.tensor(X, r, x) == ps.tensor(gridless, r, x)
                assert ps.cotensor(X, r, x) == oracles.tensor(opposite(X), r, x) == ps.cotensor(gridless, r, x)


def test_tensor_scalar_must_be_a_grid_point():
    X = _categories(GRIDS["luka4"], per_size=1)[1]
    for r in (F(1, 3), 0.5):
        with pytest.raises(RecatError, match="tensor scalar .* is not a grid point"):
            ps.tensor(X, r, 0)


def _random_filter(rng, grid, size):
    """A filter on one generator, or on a pointwise-descending pair of generators."""
    k = len(grid.points)
    top = [rng.randrange(k) for _ in range(size)]
    gens = [tuple(grid.points[i] for i in top)]
    if rng.random() < 0.5:
        gens.append(tuple(grid.points[rng.randrange(i + 1)] for i in top))
    return laws.ConicalFilter(grid, size, tuple(gens))


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_filter_evaluation_and_cotensor_table_match_the_imp_oracle(name):
    grid = GRIDS[name]
    rng = random.Random(2)
    for size in (1, 2):
        for _ in range(4):
            Fc = _random_filter(rng, grid, size)
            table = laws.filter_table(Fc, grid, size)
            assert table == {lam: oracles.conical_filter_value(Fc, lam) for lam in table}
            for r in grid.points:
                want = {lam: tn.imp(grid.tnorm, r, v) for lam, v in table.items()}
                assert laws.cotensor_filter_table(grid, r, table) == want


def test_filter_argument_and_cotensor_inputs_must_lie_on_the_grid():
    grid = GRIDS["luka4"]
    Fc = laws.ConicalFilter(grid, 1, ((F(1, 2),),))
    with pytest.raises(RecatError, match="argument entry 1/3 is not a grid point"):
        Fc((F(1, 3),))
    table = laws.filter_table(Fc, grid, 1)
    with pytest.raises(RecatError, match="cotensor scalar 0.5 is not a grid point"):
        laws.cotensor_filter_table(grid, 0.5, table)
    with pytest.raises(RecatError, match="table value 1.0 is not a grid point"):
        laws.cotensor_filter_table(grid, F(1, 2), {**table, (F(1),): 1.0})


def test_weights_under_different_t_norms_do_not_meet():
    hom = ((F(1), F(1, 2)), (F(0), F(1)))
    luka = EnrichedCategory(tn.lukasiewicz, hom, (), vals.unit_grid(2, tn.lukasiewicz))
    godel = EnrichedCategory(tn.godel, hom, (), vals.unit_grid(2, tn.godel))
    phi_l, phi_g = ps.Weight(luka, (F(1, 2), F(1, 2))), ps.Weight(godel, (F(1, 2), F(0)))
    # under Lukasiewicz sub would be 1/2 and under Godel 0: no base may be picked silently
    with pytest.raises(CarrierMismatchError):
        ps.sub(phi_l, phi_g)
    with pytest.raises(CarrierMismatchError):
        ps.sub(phi_g, phi_l)
    with pytest.raises(CarrierMismatchError):
        ps.pairing(phi_l, ps.coyoneda(godel, 0))
    # the same hom and t-norm on another object still counts as one base
    twin = EnrichedCategory(tn.lukasiewicz, hom, (), vals.unit_grid(2, tn.lukasiewicz))
    assert ps.sub(phi_l, ps.Weight(twin, (F(1, 2), F(0)))) == F(1, 2)
