"""`presheaf.sub` and `cosub`, the homs of PX and its dual, on grid indices.

When phi1's base has a grid and phi2's base an equal one, `sub` is a min over
the grid's imp table on indices; every other pair (no grid, float, or a twin
base without that grid) takes the value kernel.  Both paths are compared here
with `oracles.sub_on_values`, the formula on values through the checked
tn.imp, on Lukasiewicz, Godel and ordinal-sum grids, on twin bases and on
float product categories.  A gridded `sub` makes no tn.imp call.  The
formulas of PX take operands of one variance: a Coweight where a Weight
belongs raises.
"""

import random
from fractions import Fraction as F

import pytest

import recat.cat as cat
import recat.presheaf as ps
import recat.tnorm as tn
import recat.values as vals
from recat import fixtures, gen
from recat.errors import RecatError
from test_relation_kernel import float_category

import oracles

GRIDS = {
    "luka_1_6": vals.unit_grid(6, tn.lukasiewicz),
    "godel_quarters": vals.grid_validate([0, F(1, 4), F(1, 2), F(3, 4), 1], tn.godel),
    "upper_block": vals.grid_validate([0, F(1, 2), F(3, 4), 1], fixtures.upper_block_sum()),
}
# a closed grid strictly finer than each of the above
FINER = {
    "luka_1_6": vals.unit_grid(12, tn.lukasiewicz),
    "godel_quarters": vals.unit_grid(8, tn.godel),
    "upper_block": vals.grid_validate(
        [0, F(1, 4), F(1, 2), F(5, 8), F(3, 4), F(7, 8), 1], fixtures.upper_block_sum()
    ),
}


def _operands(rng, X):
    """The Yoneda weights and coweights of X and three random ones of each."""
    phis = [ps.yoneda(X, a) for a in range(X.n)] + [gen.random_weight(rng, X) for _ in range(3)]
    psis = [ps.coyoneda(X, a) for a in range(X.n)] + [gen.random_coweight(rng, X) for _ in range(3)]
    return phis, psis


def _refuse_imp(monkeypatch):
    def refuse(*args):
        raise AssertionError("tn.imp called")

    monkeypatch.setattr(tn, "imp", refuse)


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("seed", range(3))
def test_sub_and_cosub_on_a_grid_are_the_value_formula(name, seed):
    rng = random.Random(seed)
    for n in range(7):
        X = gen.random_category(rng, n, GRIDS[name])
        phis, psis = _operands(rng, X)
        for p in phis:
            for q in phis:
                assert ps.sub(p, q) == oracles.sub_on_values(p, q)
        for p in psis:
            for q in psis:
                assert ps.cosub(p, q) == oracles.cosub_on_values(p, q)
        for a in range(n):  # Yoneda
            for phi in phis:
                assert ps.sub(ps.yoneda(X, a), phi) == phi(a)
            for psi in psis:
                assert ps.cosub(psi, ps.coyoneda(X, a)) == psi(a)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_the_empty_carrier_has_hom_one(name):
    E = cat.EnrichedCategory(GRIDS[name].tnorm, (), (), GRIDS[name])
    phi, psi = ps.Weight(E, ()), ps.Coweight(E, ())
    for got in (ps.sub(phi, phi), ps.cosub(psi, psi)):
        assert got == tn.ONE and type(got) is F


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_twin_bases_take_the_path_their_grids_allow(name, monkeypatch):
    grid, finer = GRIDS[name], FINER[name]
    t, rng = grid.tnorm, random.Random(7)
    equal = vals.grid_validate(list(grid.points), t)  # equal to grid, another object
    assert equal == grid and equal is not grid
    for n in range(1, 5):
        X = gen.random_category(rng, n, grid)
        phis, _ = _operands(rng, X)
        for g in (None, equal, finer):
            twin = cat.EnrichedCategory(t, X.hom, (), g)
            for p in phis:
                for q in phis:
                    q2 = ps.Weight(twin, q.values)
                    assert ps.sub(p, q2) == oracles.sub_on_values(p, q2)
                    assert ps.sub(q2, p) == oracles.sub_on_values(q2, p)
    # the values of a discrete twin without X's grid need not be points of it
    D = fixtures.d2(t, grid)
    phi = ps.Weight(D, (grid.points[1], tn.ONE))
    off = F(1, 7)
    for g, other in ((None, off), (finer, finer.points[1])):
        assert other not in grid.points
        stray = ps.Weight(cat.EnrichedCategory(t, D.hom, (), g), (other, other))
        assert ps.sub(phi, stray) == oracles.sub_on_values(phi, stray)
        assert ps.sub(stray, phi) == oracles.sub_on_values(stray, phi)
    # only an equal grid on both bases reads the table: no tn.imp call
    _refuse_imp(monkeypatch)
    X = gen.random_category(rng, 4, grid)
    phis, _ = _operands(rng, X)
    twin = cat.EnrichedCategory(t, X.hom, (), equal)
    for p in phis:
        ps.sub(p, ps.Weight(twin, p.values))
    with pytest.raises(AssertionError, match="tn.imp called"):
        ps.sub(phis[0], ps.Weight(cat.EnrichedCategory(t, X.hom, (), finer), phis[0].values))


@pytest.mark.parametrize("seed", range(3))
def test_float_sub_and_cosub_are_the_value_formula(seed):
    rng = random.Random(seed)
    for n in range(1, 6):  # an empty carrier shows no mode: it is exact
        X = float_category(rng, n)
        phis = [ps.yoneda(X, a) for a in range(n)]
        phis += [ps.weight_closure(X, [round(rng.random(), 3) for _ in range(n)]) for _ in range(3)]
        psis = [ps.coyoneda(X, a) for a in range(n)]
        psis += [ps.coweight_closure(X, [round(rng.random(), 3) for _ in range(n)]) for _ in range(3)]
        for p in phis:
            for q in phis:
                got = ps.sub(p, q)
                assert type(got) is float and got == oracles.sub_on_values(p, q)
        for p in psis:
            for q in psis:
                assert ps.cosub(p, q) == oracles.cosub_on_values(p, q)


def test_gridded_sub_and_cosub_make_no_imp_call(monkeypatch):
    rng = random.Random(1)
    cases = []
    for grid in GRIDS.values():
        for n in range(7):
            X = gen.random_category(rng, n, grid)
            cases.append((X, *_operands(rng, X)))
    _refuse_imp(monkeypatch)
    for X, phis, psis in cases:
        for p in phis:
            for q in phis:
                ps.sub(p, q)
        for p in psis:
            for q in psis:
                ps.cosub(p, q)
    gridless = cat.EnrichedCategory(tn.lukasiewicz, ((F(1), F(1, 2)), (F(0), F(1))))
    with pytest.raises(AssertionError, match="tn.imp called"):
        ps.sub(ps.yoneda(gridless, 0), ps.yoneda(gridless, 1))


def test_a_formula_of_px_refuses_an_operand_of_the_wrong_variance():
    # sub(phi, psi) answered 2/3 here, and pairing(psi, phi) and isbell_ub(psi) answered too
    X = gen.random_category(random.Random(3), 3, vals.unit_grid(6, tn.lukasiewicz))
    phi, psi = ps.yoneda(X, 0), ps.coyoneda(X, 1)
    for call, args, message in (
        (ps.sub, (phi, psi), "sub takes a Weight, not a Coweight"),
        (ps.sub, (psi, phi), "sub takes a Weight, not a Coweight"),
        (ps.cosub, (phi, psi), "cosub takes a Coweight, not a Weight"),
        (ps.cosub, (psi, phi), "cosub takes a Coweight, not a Weight"),
        (ps.pairing, (psi, phi), "pairing takes a Weight, not a Coweight"),
        (ps.pairing, (phi, phi), "pairing takes a Coweight, not a Weight"),
        (ps.isbell_ub, (psi,), "isbell_ub takes a Weight, not a Coweight"),
        (ps.isbell_lb, (phi,), "isbell_lb takes a Coweight, not a Weight"),
    ):
        with pytest.raises(RecatError, match=f"^{message}$"):
            call(*args)
    # the right kinds still answer, on the same operands
    assert ps.sub(phi, phi) == ps.cosub(psi, psi) == tn.ONE
    assert ps.pairing(phi, psi) == max(X.conj(a, b) for a, b in zip(phi.values, psi.values))
    assert ps.isbell_lb(ps.isbell_ub(phi)).values == phi.values
