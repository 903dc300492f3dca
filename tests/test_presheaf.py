import random
from fractions import Fraction as F

import pytest

import recat.cat as cat
import recat.presheaf as ps
import recat.tnorm as tn
import recat.values as vals
from recat import fixtures, gen
from recat.errors import AxiomError
from recat.poset import FinitePoset, lattice_catalog
from oracles import is_order_complete


def luka_grid(n):
    return vals.unit_grid(n, tn.lukasiewicz)


class TestYoneda:
    def test_a2_columns_and_rows(self):
        A2 = fixtures.a2()
        assert ps.yoneda(A2, 0).values == (F(1), F(0))
        assert ps.yoneda(A2, 1).values == (F(2, 3), F(1))
        assert ps.coyoneda(A2, 0).values == (F(1), F(2, 3))

    def test_discrete_indicator(self):
        D2 = fixtures.d2()
        assert ps.yoneda(D2, 0).values == (F(1), F(0))

    def test_invalid_weight_rejected(self):
        A2 = fixtures.a2()
        with pytest.raises(AxiomError):
            ps.Weight(A2, (F(0), F(1)))  # misses hom(a,b) (*) phi(b) <= phi(a)

    def test_rejected_coweight_witness_breaks_the_coweight_law(self):
        with pytest.raises(AxiomError, match="^not a coweight$") as info:
            ps.Coweight(fixtures.a2(), (F(1), F(0)))  # hom(a,b) (*) psi(a) = 2/3 > psi(b)
        assert info.value.witness == (0, 1)
        rng, g, rejected = random.Random(5), luka_grid(4), 0
        for _ in range(40):
            X = gen.random_category(rng, 3, g)
            psi = tuple(rng.choice(g.points) for _ in range(X.n))
            try:
                ps.Coweight(X, psi)
            except AxiomError as exc:
                y1, y2 = exc.witness
                assert not tn.vle(X.conj(X.hom[y1][y2], psi[y1]), psi[y2])
                rejected += 1
        assert rejected


class TestSub:
    def test_yoneda_exactness(self):
        rng = random.Random(0)
        g = luka_grid(3)
        for _ in range(30):
            X = gen.random_category(rng, rng.randint(1, 4), g)
            phi = gen.random_weight(rng, X)
            for a in range(X.n):
                assert ps.sub(ps.yoneda(X, a), phi) == phi(a)

    def test_reflexive(self):
        phi = fixtures.g5_weight()
        assert ps.sub(phi, phi) == F(1)

    def test_a2_hom_recovered(self):
        A2 = fixtures.a2()
        assert ps.sub(ps.yoneda(A2, 0), ps.yoneda(A2, 1)) == A2.hom[0][1]


class TestPairing:
    def test_representable_pairing_hits_one(self):
        A2 = fixtures.a2()
        for a in range(2):
            assert ps.pairing(ps.yoneda(A2, a), ps.coyoneda(A2, a)) >= F(1)

    def test_disjoint_on_discrete(self):
        D2 = fixtures.d2()
        phi = ps.Weight(D2, (F(1), F(0)))
        psi = ps.Coweight(D2, (F(0), F(1)))
        assert ps.pairing(phi, psi) == F(0)

    def test_inf_formula_identity(self):
        # pairing(phi, psi) = inf_p (sub(phi, psi -> p) -> p) over the grid
        rng = random.Random(1)
        g = luka_grid(4)
        for _ in range(20):
            X = gen.random_category(rng, 3, g)
            phi = gen.random_weight(rng, X)
            psi = gen.random_coweight(rng, X)
            direct = ps.pairing(phi, psi)
            indirect = min(
                tn.imp(
                    X.tnorm,
                    ps.sub(phi, ps.Weight(X, tuple(tn.imp(X.tnorm, psi(x), p) for x in range(X.n)))),
                    p,
                )
                for p in g.points
            )
            assert direct == indirect


class TestColim:
    def test_colim_of_yoneda(self):
        A2 = fixtures.a2()
        for a in range(2):
            assert ps.colim(ps.yoneda(A2, a)) == a

    def test_grid_v_colim_is_value_at_one(self):
        g = luka_grid(3)
        V = fixtures.grid_v(g)
        for phi in ps.enumerate_weights(V):
            c = ps.colim(phi)
            assert c is not None
            assert V.hom[c][c] == F(1)
            # the formula: colim phi = phi(1)
            assert g.points[c] == phi(V.n - 1)

    def test_d2_all_ones_has_no_colim(self):
        D2 = fixtures.d2()
        assert ps.colim(ps.Weight(D2, (F(1), F(1)))) is None

    def test_colim_defining_identity(self):
        rng = random.Random(2)
        g = luka_grid(3)
        for _ in range(30):
            X = gen.random_category(rng, 3, g)
            phi = gen.random_weight(rng, X)
            c = ps.colim(phi)
            if c is None:
                continue
            for x in range(X.n):
                assert X.hom[c][x] == ps.sub(phi, ps.yoneda(X, x))

    def test_lim_dualizes(self):
        g = luka_grid(3)
        V = fixtures.grid_v(g)
        for psi in ps.enumerate_coweights(V):
            c = ps.lim(psi)
            assert c is not None
            want = min(tn.imp(tn.lukasiewicz, psi(z), g.points[z]) for z in range(V.n))
            assert g.points[c] == want


class TestWeightedColim:
    def test_yoneda_weight_gives_image(self):
        rng = random.Random(3)
        g = luka_grid(3)
        for _ in range(10):
            K = gen.random_category(rng, 2, g)
            X = gen.random_category(rng, 3, g)
            f = gen.random_functor(rng, K, X)
            for k in range(K.n):
                c = ps.weighted_colim(ps.yoneda(K, k), f)
                if c is not None:
                    assert X.leq1(X.hom[c][f(k)]) and X.leq1(X.hom[f(k)][c])

    def test_identity_functor_recovers_colim(self):
        rng = random.Random(4)
        g = luka_grid(3)
        for _ in range(10):
            X = gen.random_category(rng, 3, g)
            ident = cat.EnrichedFunctor(X, X, tuple(range(X.n)))
            phi = gen.random_weight(rng, X)
            assert ps.weighted_colim(phi, ident) == ps.colim(phi)

    def test_functor_into_grid_v_is_pairing(self):
        g = luka_grid(3)
        V = fixtures.grid_v(g)
        rng = random.Random(5)
        for _ in range(10):
            K = gen.random_category(rng, 2, g)
            f = gen.random_functor(rng, K, V)
            phi = gen.random_weight(rng, K)
            psi = ps.Coweight(K, tuple(g.points[f(z)] for z in range(K.n)))
            c = ps.weighted_colim(phi, f)
            assert c is not None
            assert g.points[c] == ps.pairing(phi, psi)

    def test_join_of_tensors_on_cocomplete(self):
        g = luka_grid(3)
        V = fixtures.grid_v(g)
        rng = random.Random(6)
        from recat.cat import underlying_order

        P = underlying_order(V)
        for _ in range(10):
            K = gen.random_category(rng, 2, g)
            f = gen.random_functor(rng, K, V)
            phi = gen.random_weight(rng, K)
            c = ps.weighted_colim(phi, f)
            tensors = [ps.tensor(V, phi(z), f(z)) for z in range(K.n)]
            assert all(t is not None for t in tensors)
            assert P.join(tensors) == c


class TestTensors:
    def test_unit_scalar(self):
        A2 = fixtures.a2()
        for x in range(2):
            assert ps.tensor(A2, F(1), x) == x
            assert ps.cotensor(A2, F(1), x) == x

    def test_grid_v_formulas(self):
        g = luka_grid(3)
        V = fixtures.grid_v(g)
        for r in g.points:
            for i, x in enumerate(g.points):
                assert g.points[ps.tensor(V, r, i)] == tn.conj(tn.lukasiewicz, r, x)
                assert g.points[ps.cotensor(V, r, i)] == tn.imp(tn.lukasiewicz, r, x)

    def test_a2_missing_tensor(self):
        A2 = fixtures.a2()
        assert ps.tensor(A2, F(1, 3), 1) is None

    def test_cocompleteness_verdicts(self):
        g = luka_grid(3)
        assert ps.is_cocomplete_over_grid(fixtures.grid_v(g))
        assert not ps.is_cocomplete_over_grid(fixtures.d2(tn.lukasiewicz, g))
        assert not ps.is_cocomplete_over_grid(fixtures.a2())


class TestKan:
    def test_left_extension_of_yoneda(self):
        rng = random.Random(7)
        g = luka_grid(3)
        for _ in range(10):
            X = gen.random_category(rng, 2, g)
            Y = gen.random_category(rng, 3, g)
            f = gen.random_functor(rng, X, Y)
            for x in range(X.n):
                assert ps.f_exists(f, ps.yoneda(X, x)).values == ps.yoneda(Y, f(x)).values

    def test_adjunction_equalities(self):
        rng = random.Random(8)
        g = luka_grid(3)
        for _ in range(20):
            X = gen.random_category(rng, 2, g)
            Y = gen.random_category(rng, 3, g)
            f = gen.random_functor(rng, X, Y)
            phi = gen.random_weight(rng, X)
            gamma = gen.random_weight(rng, Y)
            assert ps.sub(ps.f_exists(f, phi), gamma) == ps.sub(phi, ps.f_inv(f, gamma))
            assert ps.sub(gamma, ps.f_forall(f, phi)) == ps.sub(ps.f_inv(f, gamma), phi)

    def test_fully_faithful_retraction(self):
        rng = random.Random(9)
        g = luka_grid(3)
        for _ in range(10):
            Y = gen.random_category(rng, 4, g)
            sub_c, incl = gen.full_subcategory(Y, [0, 2])
            phi = gen.random_weight(rng, sub_c)
            assert ps.f_inv(incl, ps.f_exists(incl, phi)).values == phi.values
            assert ps.f_inv(incl, ps.f_forall(incl, phi)).values == phi.values

    def test_identity_functor_fixes_everything(self):
        A2 = fixtures.a2()
        ident = cat.EnrichedFunctor(A2, A2, (0, 1))
        phi = ps.yoneda(A2, 1)
        for op in (ps.f_exists, ps.f_inv, ps.f_forall):
            assert op(ident, phi).values == phi.values

    def test_coweight_side(self):
        rng = random.Random(10)
        g = luka_grid(3)
        for _ in range(10):
            X = gen.random_category(rng, 2, g)
            Y = gen.random_category(rng, 2, g)
            f = gen.random_functor(rng, X, Y)
            psi = gen.random_coweight(rng, X)
            mu = gen.random_coweight(rng, Y)
            # f_dag_forall -| f_inv -| f_dag_exists, stated via cosub homs
            assert ps.cosub(ps.f_dag_forall(f, psi), mu) == ps.cosub(psi, ps.f_inv_coweight(f, mu))
            assert ps.cosub(mu, ps.f_dag_exists(f, psi)) == ps.cosub(ps.f_inv_coweight(f, mu), psi)


class TestIsbell:
    def test_ub_of_yoneda_is_coyoneda(self):
        rng = random.Random(11)
        g = luka_grid(3)
        for _ in range(10):
            X = gen.random_category(rng, 3, g)
            for a in range(X.n):
                assert ps.isbell_ub(ps.yoneda(X, a)).values == ps.coyoneda(X, a).values

    def test_triple_adjoint_identity(self):
        rng = random.Random(12)
        g = luka_grid(3)
        for _ in range(20):
            X = gen.random_category(rng, 3, g)
            psi = gen.random_coweight(rng, X)
            lb = ps.isbell_lb(psi)
            assert ps.isbell_lb(ps.isbell_ub(lb)).values == lb.values

    def test_d2_all_ones(self):
        D2 = fixtures.d2()
        assert ps.isbell_ub(ps.Weight(D2, (F(1), F(1)))).values == (F(0), F(0))

    def test_adjunction_equality(self):
        rng = random.Random(13)
        g = luka_grid(3)
        for _ in range(50):
            X = gen.random_category(rng, 3, g)
            phi = gen.random_weight(rng, X)
            psi = gen.random_coweight(rng, X)
            assert ps.sub(phi, ps.isbell_lb(psi)) == ps.cosub(ps.isbell_ub(phi), psi)


class TestEnumeration:
    def test_presheaf_colimit_formula(self):
        # on an enumerated weight fragment, colimits in the weight category are
        # computed by restriction along the Yoneda embedding
        g = vals.grid_validate([0, F(1, 2), 1], tn.lukasiewicz)
        rng = random.Random(14)
        X = gen.random_category(rng, 2, g)
        weights = ps.enumerate_weights(X)
        frag = cat.EnrichedCategory(
            X.tnorm,
            tuple(tuple(ps.sub(p, q) for q in weights) for p in weights),
            tuple(str(w.values) for w in weights),
            g,
        )
        yon = {ps.yoneda(X, x).values: x for x in range(X.n)}
        for Phi in ps.enumerate_weights(frag, bound=10**7):
            vec = tuple(
                max(X.conj(Phi(i), w(x)) for i, w in enumerate(weights))
                for x in range(X.n)
            )
            expect = ps.Weight(X, vec)
            got = ps.colim(Phi)
            assert got is not None and weights[got].values == expect.values
            assert yon  # the embedding indexes representables inside the fragment


def _boolean_category(L):
    """The {0,1}-valued category of an order, on the grid {0,1}."""
    hom = tuple(tuple(tn.ONE if L.le(x, y) else tn.ZERO for y in range(L.n)) for x in range(L.n))
    return cat.EnrichedCategory(tn.lukasiewicz, hom, (), vals.unit_grid(1, tn.lukasiewicz))


COMPLETENESS_GRIDS = (
    vals.unit_grid(1, tn.lukasiewicz),
    vals.unit_grid(3, tn.lukasiewicz),
    vals.grid_validate((F(0), F(1, 2), F(1)), tn.godel),
)


def _two_layer_order(rng):
    """0 < {1, 2} < {3, 4} < 5 with random links between the layers.

    1 and 2 have no join exactly when all four links are drawn.
    """
    up = {(x, y) for x in (1, 2) for y in (3, 4) if rng.random() < 0.75}
    leq = tuple(tuple(x == y or x == 0 or y == 5 or (x, y) in up for y in range(6)) for x in range(6))
    return FinitePoset(6, leq)


def _completeness_cases(key):
    if key == "orders":
        rng = random.Random(0)
        orders = [M for L in lattice_catalog() for M in (L, L.opposite())]
        return [_boolean_category(L) for L in orders + [_two_layer_order(rng) for _ in range(40)]]
    rng = random.Random(key)
    return [gen.random_category(rng, key, g) for g in COMPLETENESS_GRIDS for _ in range(40)]


@pytest.mark.parametrize("key", [*range(7), "orders"])
def test_grid_cocompleteness_matches_the_subset_oracle(key):
    for X in _completeness_cases(key):
        tensors = all(
            ps.tensor(X, r, x) is not None and ps.cotensor(X, r, x) is not None
            for r in X.grid.points
            for x in range(X.n)
        )
        assert ps.is_cocomplete_over_grid(X) == (is_order_complete(cat.underlying_order(X)) and tensors)
