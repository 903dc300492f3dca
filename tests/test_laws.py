import random
from fractions import Fraction as F

import pytest

import recat.cat as cat
import recat.laws as laws
import recat.presheaf as ps
import recat.tnorm as tn
import recat.values as vals
from recat import fixtures, gen
from recat.errors import CarrierMismatchError, RecatError


def luka_grid(n):
    return vals.unit_grid(n, tn.lukasiewicz)


class TestKZ:
    def test_representables_reach_equality(self):
        rng = random.Random(0)
        for _ in range(10):
            X = gen.random_category(rng, 3, luka_grid(3))
            for a in range(X.n):
                phi = ps.yoneda(X, a)
                for gamma in (gen.random_weight(rng, X) for _ in range(5)):
                    lhs, rhs = laws.kz_defect(phi, gamma)
                    assert lhs == rhs

    def test_d2_example(self):
        D2 = fixtures.d2()
        phi = ps.Weight(D2, (F(1), F(1)))
        gamma = ps.Weight(D2, (F(1), F(0)))
        lhs, rhs = laws.kz_defect(phi, gamma)
        assert lhs == rhs == F(1)

    def test_inequality_never_violated(self):
        rng = random.Random(1)
        total = 0
        for _ in range(40):
            X = gen.random_category(rng, rng.randint(1, 4), luka_grid(3))
            ws = [gen.random_weight(rng, X) for _ in range(6)]
            rep = laws.kz_check(X, ws, ws)
            total += rep["total"]
            assert rep["violations"] == []
        assert total >= 1000

    def test_equality_consistent_with_cauchy(self):
        rng = random.Random(2)
        for _ in range(5):
            X = gen.random_category(rng, 2, luka_grid(3))
            assert laws.kz_equality_consistent_with_cauchy(X)


class TestModules:
    def test_one_point_module(self):
        g = luka_grid(2)
        M = laws.ModuleAction(__import__("recat.poset", fromlist=["chain"]).chain(1), g, ((0,), (0,), (0,)))
        A = laws.module_to_category(M)
        assert A.n == 1 and A.hom == ((F(1),),)

    def test_grid_v_round_trip(self):
        g = luka_grid(3)
        V = fixtures.grid_v(g)
        M = laws.category_to_module(V)
        A = laws.module_to_category(M)
        assert A.hom == V.hom

    def test_category_action_is_residuated(self):
        g = luka_grid(3)
        V = fixtures.grid_v(g)
        M = laws.category_to_module(V)
        for ri, r in enumerate(g.points):
            for i, x in enumerate(g.points):
                assert g.points[M.action[ri][i]] == tn.conj(tn.lukasiewicz, r, x)

    def test_round_trip_random_modules(self):
        rng = random.Random(3)
        for t in (tn.lukasiewicz, tn.godel):
            for _ in range(15):
                M = gen.random_module(rng, t)
                back = laws.category_to_module(laws.module_to_category(M))
                assert laws.modules_isomorphic(M, back)

    def test_module_category_is_cocomplete_separated(self):
        rng = random.Random(4)
        for _ in range(10):
            M = gen.random_module(rng, tn.lukasiewicz)
            A = laws.module_to_category(M)
            assert cat.validate(A).ok
            assert cat.is_separated(A)
            assert ps.is_cocomplete_over_grid(A)

    def test_bad_action_rejected(self):
        from recat.poset import chain

        g = luka_grid(2)
        with pytest.raises(RecatError):
            laws.ModuleAction(chain(2), g, ((0, 0), (0, 0), (0, 0)))  # unit law broken


class TestNegation:
    def test_lukasiewicz_all_unit_grids(self):
        for n in range(2, 9):
            ok, wit = laws.negation_duality_check(vals.unit_grid(n, tn.lukasiewicz))
            assert ok and wit is None

    def test_godel_interior_witness(self):
        g = vals.grid_validate([0, F(1, 2), 1], tn.godel)
        ok, wit = laws.negation_duality_check(g)
        assert not ok and wit == F(1, 2)

    def test_product_float_witness(self):
        ok, wit = laws.negation_duality_check_float(tn.product)
        assert not ok and 0 < wit < 1


class TestConicalFilters:
    def test_principal_filter_passes(self):
        g = luka_grid(3)
        lam0 = (F(2, 3), F(1, 3))
        Fp = laws.ConicalFilter(g, 2, (lam0,))
        rep = laws.conical_filter_check(Fp)
        assert rep["pass"]

    def test_generated_filters_pass_godel_lukasiewicz(self):
        rng = random.Random(5)
        for t, g in (
            (tn.lukasiewicz, luka_grid(3)),
            (tn.godel, vals.grid_validate([0, F(1, 2), 1], tn.godel)),
        ):
            pts = list(g.points)
            for _ in range(10):
                g1 = tuple(rng.choice(pts) for _ in range(2))
                g2 = tuple(min(v, rng.choice(pts)) for v in g1)
                Fg = laws.ConicalFilter(g, 2, (g1, g2))
                assert laws.conical_filter_check(Fg)["pass"]

    def test_join_functional_fails_only_cf3(self):
        # F(lam) = max(lam) keeps CF1, CF2 and CF4 but not binary meets
        g = luka_grid(2)
        rep = laws.filter_axiom_check(g, laws.filter_table(max, g, 2))
        cf3 = ((F(0), F(1, 2)), (F(1, 2), F(0)))
        assert rep == {"CF1": None, "CF2": None, "CF3": cf3, "CF4": None, "pass": False}

    def test_undirected_generators_rejected(self):
        g = luka_grid(3)
        with pytest.raises(RecatError):
            laws.ConicalFilter(g, 2, ((F(1), F(0)), (F(0), F(1))))

    def test_off_grid_generator_entry_rejected(self):
        # rejected here, not later inside the check as a bare ValueError
        with pytest.raises(RecatError, match="generator entry 1/5 is not a grid point"):
            laws.ConicalFilter(luka_grid(3), 1, ((F(1, 5),),))
        # a grid holds exact values: 0.5 and "1/2" name a point but are none
        for entry in (0.5, "1/2"):
            with pytest.raises(RecatError, match=f"generator entry {entry!r} is not a grid point"):
                laws.ConicalFilter(luka_grid(2), 1, ((entry,),))

    def test_kowalsky_rejects_members_on_another_grid_or_size(self):
        # a member on the 1/2 grid would put the point 1/2 into a sum on the 1/3 grid
        F1 = laws.ConicalFilter(luka_grid(3), 1, ((F(0),),))
        other_grid = laws.ConicalFilter(luka_grid(2), 1, ((F(1, 2),),))
        other_size = laws.ConicalFilter(luka_grid(3), 2, ((F(0), F(0)),))
        for F2 in (other_grid, other_size):
            with pytest.raises(RecatError, match="share one grid and size"):
                laws.kowalsky_sum([(F(1), F(1))], [F1, F2])

    def test_kowalsky_principal_identity(self):
        g = luka_grid(3)
        F1 = laws.ConicalFilter(g, 2, ((F(1), F(1, 3)),))
        k = laws.kowalsky_sum([(tn.ONE,)], [F1])
        assert laws.filter_table(k, g, 2) == laws.filter_table(F1, g, 2)

    def test_kowalsky_matches_pointwise_formula(self):
        # the generated result evaluates the closed form
        # max_xi inf_F (xi(F) -> F(lam)) on every grid argument
        from itertools import product as iproduct

        g = luka_grid(3)
        t = tn.lukasiewicz
        F1 = laws.ConicalFilter(g, 2, ((F(1), F(0)),))
        F2 = laws.ConicalFilter(g, 2, ((F(1, 3), F(1, 3)),))
        metas = [(F(1), F(2, 3)), (F(1, 3), F(1)), (F(1, 3), F(2, 3))]
        k = laws.kowalsky_sum(metas, [F1, F2])
        for lam in iproduct(g.points, repeat=2):
            direct = max(
                min(tn.imp(t, xi[0], F1(lam)), tn.imp(t, xi[1], F2(lam))) for xi in metas
            )
            assert k(lam) == direct

    def test_kowalsky_rejects_undirected_meta(self):
        g = luka_grid(3)
        F1 = laws.ConicalFilter(g, 2, ((F(1), F(0)),))
        F2 = laws.ConicalFilter(g, 2, ((F(1, 3), F(1, 3)),))
        with pytest.raises(RecatError):
            laws.kowalsky_sum([(F(1), F(2, 3)), (F(1, 3), F(1))], [F1, F2])

    def test_kowalsky_output_passes_axioms(self):
        g = luka_grid(3)
        F1 = laws.ConicalFilter(g, 2, ((F(1), F(0)),))
        F2 = laws.ConicalFilter(g, 2, ((F(0), F(1)),))
        k = laws.kowalsky_sum([(F(2, 3), F(1))], [F1, F2])
        assert laws.conical_filter_check(k)["pass"]


class TestCotensorWitness:
    def test_interior_block_escapes(self):
        g = fixtures.upper_block_grid()
        wit = laws.find_cf4_cotensor_witness(g)
        assert wit is not None
        table, r, lam, s = wit
        assert laws.filter_axiom_check(g, table)["pass"]
        shifted = laws.cotensor_filter_table(g, r, table)
        rep = laws.filter_axiom_check(g, shifted)
        assert rep["CF4"] is not None
        # the other three axioms survive the cotensor
        assert rep["CF1"] is None and rep["CF2"] is None and rep["CF3"] is None

    def test_witness_is_the_first_in_lexicographic_table_order(self):
        g = fixtures.upper_block_grid()
        table, r, lam, s = laws.find_cf4_cotensor_witness(g)
        assert [table[(p,)] for p in g.points] == [F(0), F(1, 2), F(1, 2), F(5, 8), F(3, 4), F(7, 8), F(1)]
        assert (r, lam, s) == (F(5, 8), (F(1, 4),), F(1, 2))

    def test_base_tnorms_closed(self):
        assert laws.find_cf4_cotensor_witness(luka_grid(4)) is None
        g = vals.grid_validate([0, F(1, 4), F(1, 2), F(3, 4), 1], tn.godel)
        assert laws.find_cf4_cotensor_witness(g) is None

    def test_zero_start_block_closed(self):
        # a Lukasiewicz block starting at 0 keeps the implication continuous
        # off the diagonal, so the class stays closed
        t = tn.ordinal_sum((0, F(1, 2), tn.LUKASIEWICZ))
        g = vals.grid_validate([0, F(1, 4), F(1, 2), F(3, 4), 1], t)
        assert tn.continuous_off_diagonal(t)
        assert laws.find_cf4_cotensor_witness(g) is None


class TestFloatFilters:
    def test_product_positive_direction_sampled(self):
        rng = random.Random(7)
        assert laws.conical_filter_check_float(tn.product, 2, rng, samples=300)

    def test_lukasiewicz_float_agrees(self):
        rng = random.Random(8)
        assert laws.conical_filter_check_float(tn.lukasiewicz, 2, rng, samples=300)


class TestPowersetMonad:
    def test_laws_hold(self):
        rng = random.Random(6)
        assert laws.powerset_monad_check(luka_grid(2), 2, rng, samples=15)
        g = vals.grid_validate([0, F(1, 2), 1], tn.godel)
        assert laws.powerset_monad_check(g, 2, rng, samples=15)


def test_filter_axiom_check_rejects_float_tables():
    # a float hashes like the equal point, but a grid holds exact values
    g = luka_grid(2)
    floats = {(0.0,): 0.0, (0.5,): 1.0, (1.0,): 1.0}
    with pytest.raises(RecatError, match="a grid holds exact values"):
        laws.filter_axiom_check(g, floats)
    with pytest.raises(RecatError, match="a grid holds exact values"):
        laws.filter_axiom_check(g, {(F(0),): 0.0, (F(1, 2),): F(1), (F(1),): F(1)})
    exact = {(F(0),): F(0), (F(1, 2),): F(1), (F(1),): F(1)}
    assert laws.filter_axiom_check(g, exact)["CF1"] == ((F(1, 2),), (F(0),))


def test_kz_check_rejects_weights_on_another_category():
    # the weights live on the discrete two-point category, not on X
    g = vals.unit_grid(2, tn.godel)
    X = cat.EnrichedCategory(tn.godel, ((F(1), F(1)), (F(1, 2), F(1))), (), g)
    D = cat.EnrichedCategory(tn.godel, ((F(1), F(0)), (F(0), F(1))), (), g)
    ws = [ps.Weight(D, (F(1), F(0))), ps.Weight(D, (F(1, 2), F(1)))]
    for weights, tests in ((ws, ws), ([], ws), (ws, [])):
        with pytest.raises(CarrierMismatchError):
            laws.kz_check(X, weights, tests)
    # a weight on an equal category under another object is on X
    twin = cat.EnrichedCategory(X.tnorm, X.hom, X.names, g)
    phi = ps.Weight(twin, (F(1), F(1)))
    assert laws.kz_check(X, [phi], [phi]) == laws.kz_check(twin, [phi], [phi])


@pytest.mark.parametrize("scalar", [0.5, "1/2", 1.0, True])
def test_module_action_rejects_scalars_off_the_exact_grid(scalar):
    M = gen._chain_module(vals.unit_grid(2, tn.godel))
    with pytest.raises(RecatError, match="is not a grid point"):
        M.act(scalar, 1)


def test_module_action_takes_fractions_and_ints():
    M = gen._chain_module(vals.unit_grid(2, tn.godel))
    assert [M.act(r, 1) for r in (0, F(1, 2), 1, F(1))] == [0, 1, 1, 1]


def test_kz_check_keeps_an_equal_valued_float_category_apart():
    # the float hom equals the exact one value for value, but its weights are floats
    X = cat.EnrichedCategory.from_json({"tnorm": "lukasiewicz", "hom": [["1", "1/2"], ["0", "1"]]})
    Y = cat.EnrichedCategory(tn.lukasiewicz, ((1.0, 0.5), (0.0, 1.0)))
    phi, stray = ps.Weight(X, (F(1), F(0))), ps.Weight(Y, (1.0, 0.0))
    with pytest.raises(CarrierMismatchError):
        laws.kz_check(X, [phi], [phi, stray])
    with pytest.raises(CarrierMismatchError):
        ps.sub(phi, stray)


@pytest.mark.parametrize("action", [((0, 0), (0, 1)), ((0, 0), (0, 1), (0,)), ((0, 0), (0, 1), (0, 2))])
def test_module_action_rejects_an_action_of_the_wrong_shape(action):
    from recat.poset import chain

    with pytest.raises(RecatError, match="^a module action needs 3 rows of 2 lattice elements each$"):
        laws.ModuleAction(chain(2), luka_grid(2), action)


def test_grid_messages_name_the_missing_grid():
    from recat.balls import is_completely_distributive_enriched

    X = cat.EnrichedCategory.from_json({"tnorm": "lukasiewicz", "hom": [["1", "1/2"], ["0", "1"]]})
    for f, message in (
        (ps.is_cocomplete_over_grid, "grid cocompleteness needs a grid"),
        (laws.category_to_module, "module extraction needs a grid"),
        (is_completely_distributive_enriched, "grid cocompleteness needs a grid"),
    ):
        with pytest.raises(RecatError, match=f"^{message}$"):
            f(X)
