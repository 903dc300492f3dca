import math
import random
from fractions import Fraction as F
from itertools import product as iproduct

import pytest

import recat.cat as cat
import recat.poset as ps
import recat.tnorm as tn
import recat.values as vals
from recat import fixtures, gen
from recat.errors import NotAFunctorError, RecatError


def luka_grid(n):
    return vals.unit_grid(n, tn.lukasiewicz)


class TestValidate:
    def test_discrete_ok(self):
        assert cat.validate(fixtures.d2()).ok

    def test_a2_ok(self):
        assert cat.validate(fixtures.a2()).ok

    def test_broken_transitivity_reports_triple(self):
        g = luka_grid(3)
        X = cat.EnrichedCategory(
            tn.lukasiewicz,
            ((F(1), F(1), F(0)), (F(0), F(1), F(1)), (F(0), F(0), F(1))),
            ("a", "b", "c"),
            g,
        )
        rep = cat.validate(X)
        assert not rep.ok and rep.reason == "transitivity"
        y, z, x = rep.witness
        assert tn.conj(tn.lukasiewicz, X.hom[y][z], X.hom[x][y]) > X.hom[x][z]

    def test_grid_closed_under_another_tnorm_rejected(self):
        # gen.random_weight would close on the Lukasiewicz table and check
        # the result under Godel
        hom = ((F(1), F(1, 4)), (F(0), F(1)))
        with pytest.raises(RecatError, match="closed under lukasiewicz, not godel"):
            cat.EnrichedCategory(tn.godel, hom, ("a", "b"), luka_grid(4))
        assert cat.validate(cat.EnrichedCategory(tn.godel, hom, ("a", "b"), vals.unit_grid(4, tn.godel))).ok

    def test_float_hom_beside_a_grid_rejected(self):
        with pytest.raises(RecatError, match="hom value 1.0 is not a grid point; a grid holds exact values"):
            cat.EnrichedCategory(tn.lukasiewicz, ((1.0, 0.5), (0.0, 1.0)), (), luka_grid(2))

    def test_exact_hom_value_off_its_grid_rejected(self):
        with pytest.raises(RecatError, match="hom value 1/3 is not a grid point"):
            cat.EnrichedCategory(tn.lukasiewicz, ((F(1), F(1, 3)), (F(0), F(1))), (), luka_grid(2))

    def test_float_mode_tolerance(self):
        X = cat.EnrichedCategory(tn.product, ((1.0, 0.5), (0.25, 1.0 - 1e-15)))
        assert cat.validate(X).ok


class TestCompose:
    def test_identity_unit(self):
        rng = random.Random(0)
        X = gen.random_category(rng, 3, luka_grid(3))
        r = cat.Rel(3, 2, ((F(1), F(0)), (F(1, 3), F(2, 3)), (F(0), F(1))))
        ident3 = cat.identity_rel(3)
        ident2 = cat.identity_rel(2)
        assert cat.rel_eq(cat.compose(X.tnorm, r, ident3), r)
        assert cat.rel_eq(cat.compose(X.tnorm, ident2, r), r)

    def test_pairing_via_rel_composition(self):
        A2 = fixtures.a2()
        yb = cat.Rel(2, 1, ((A2.hom[0][1],), (A2.hom[1][1],)))
        cya = cat.Rel(1, 2, ((A2.hom[0][0], A2.hom[0][1]),))
        comp = cat.compose(A2.tnorm, yb, cya)
        assert comp(0, 0) == F(2, 3)

    def test_zero_relation_annihilates(self):
        z = cat.Rel(2, 2, ((F(0), F(0)), (F(0), F(0))))
        r = cat.Rel(2, 2, ((F(1), F(1)), (F(1), F(1))))
        assert cat.rel_eq(cat.compose(tn.lukasiewicz, r, z), z)

    def test_associativity_exhaustive_two_point(self):
        # exhaustive over all grid relations between two-point carriers
        g = vals.grid_validate([0, F(1, 2), 1], tn.lukasiewicz)
        mats = [
            cat.Rel(2, 2, ((a, b), (c, d)))
            for a, b, c, d in iproduct(g.points, repeat=4)
        ]
        rng = random.Random(1)
        sample = rng.sample(mats, 12)
        for r in sample:
            for s in sample:
                for t in sample:
                    lhs = cat.compose(tn.lukasiewicz, t, cat.compose(tn.lukasiewicz, s, r))
                    rhs = cat.compose(tn.lukasiewicz, cat.compose(tn.lukasiewicz, t, s), r)
                    assert cat.rel_eq(lhs, rhs)

    def test_associativity_sampled_three_point(self):
        rng = random.Random(2)
        g = vals.grid_validate([0, F(1, 2), 1], tn.lukasiewicz)
        for _ in range(50):
            dims = [rng.randint(1, 3) for _ in range(4)]
            rels = [
                cat.Rel(dims[i], dims[i + 1],
                        tuple(tuple(rng.choice(g.points) for _ in range(dims[i + 1]))
                              for _ in range(dims[i])))
                for i in range(3)
            ]
            r, s, t = rels
            lhs = cat.compose(tn.lukasiewicz, t, cat.compose(tn.lukasiewicz, s, r))
            rhs = cat.compose(tn.lukasiewicz, cat.compose(tn.lukasiewicz, t, s), r)
            assert cat.rel_eq(lhs, rhs)


class TestResiduals:
    def test_residual_by_identity(self):
        t = cat.Rel(2, 2, ((F(1), F(1, 3)), (F(0), F(2, 3))))
        ident = cat.identity_rel(2)
        assert cat.rel_eq(cat.residual_left(tn.lukasiewicz, t, ident), t)

    def test_galois_equivalence_exhaustive(self):
        # brute force over grid relations on small carriers
        g = vals.grid_validate([0, F(1, 2), 1], tn.lukasiewicz)
        rng = random.Random(3)
        rels2 = [
            cat.Rel(2, 2, ((a, b), (c, d)))
            for a, b, c, d in iproduct(g.points, repeat=4)
        ]
        sample = rng.sample(rels2, 10)
        for r in sample:
            for s in sample:
                for t in sample:
                    left = cat.rel_le(s, cat.residual_left(tn.lukasiewicz, t, r))
                    mid = cat.rel_le(cat.compose(tn.lukasiewicz, s, r), t)
                    right = cat.rel_le(r, cat.residual_right(tn.lukasiewicz, s, t))
                    assert left == mid == right

    def test_residual_laws(self):
        rng = random.Random(4)
        g = luka_grid(3)
        for _ in range(30):
            r = cat.Rel(2, 2, tuple(tuple(rng.choice(g.points) for _ in range(2)) for _ in range(2)))
            s = cat.Rel(2, 2, tuple(tuple(rng.choice(g.points) for _ in range(2)) for _ in range(2)))
            t = cat.Rel(2, 2, tuple(tuple(rng.choice(g.points) for _ in range(2)) for _ in range(2)))
            lhs = cat.residual_left(tn.lukasiewicz, t, cat.compose(tn.lukasiewicz, s, r))
            rhs = cat.residual_left(tn.lukasiewicz, cat.residual_left(tn.lukasiewicz, t, r), s)
            assert cat.rel_eq(lhs, rhs)
            lhs2 = cat.residual_right(tn.lukasiewicz, cat.compose(tn.lukasiewicz, s, r), t)
            rhs2 = cat.residual_right(tn.lukasiewicz, r, cat.residual_right(tn.lukasiewicz, s, t))
            assert cat.rel_eq(lhs2, rhs2)


class TestGraphCograph:
    def test_identity_functor(self):
        A2 = fixtures.a2()
        ident = cat.EnrichedFunctor(A2, A2, (0, 1))
        assert cat.rel_eq(cat.graph(ident), cat.hom_rel(A2))
        assert cat.is_fully_faithful(ident)

    def test_constant_functor_not_ff(self):
        D2 = fixtures.d2()
        const = cat.EnrichedFunctor(D2, D2, (0, 0))
        assert not cat.is_fully_faithful(const)
        ga = cat.graph(const)
        assert all(ga(x, y) == D2.hom[0][y] for x in range(2) for y in range(2))

    def test_graph_adjoint_to_cograph(self):
        rng = random.Random(5)
        g = luka_grid(3)
        for _ in range(20):
            X = gen.random_category(rng, rng.randint(1, 3), g)
            Y = gen.random_category(rng, rng.randint(1, 3), g)
            f = gen.random_functor(rng, X, Y)
            assert cat.adjoint_pair_check(X.tnorm, cat.graph(f), cat.cograph(f), X, Y)

    def test_not_a_functor_raises(self):
        A2 = fixtures.a2()
        D2 = fixtures.d2(tn.lukasiewicz, A2.grid)
        with pytest.raises(NotAFunctorError):
            cat.EnrichedFunctor(A2, D2, (0, 1))  # hom(a,b)=2/3 > 0 = discrete hom


class TestAdjointPairs:
    def test_representable_pair(self):
        from recat.presheaf import coyoneda, yoneda

        A2 = fixtures.a2()
        star = cat.terminal(A2.tnorm, A2.grid)
        for a in range(2):
            psi = coyoneda(A2, a).to_rel()
            phi = yoneda(A2, a).to_rel()
            assert cat.adjoint_pair_check(A2.tnorm, psi, phi, star, A2)

    def test_all_ones_pair_fails_on_d2(self):
        D2 = fixtures.d2()
        star = cat.terminal(D2.tnorm, D2.grid)
        ones = cat.Rel(1, 2, ((F(1), F(1)),))
        onesT = cat.Rel(2, 1, ((F(1),), (F(1),)))
        assert not cat.adjoint_pair_check(D2.tnorm, ones, onesT, star, D2)

    def test_right_adjoint_unique(self):
        # any two right adjoints of the same left adjoint agree
        rng = random.Random(6)
        g = luka_grid(2)
        for _ in range(10):
            X = gen.random_category(rng, 2, g)
            f = gen.random_functor(rng, X, X)
            psi = cat.graph(f)
            candidates = [
                cat.Rel(2, 2, rows)
                for rows in iproduct(iproduct(g.points, repeat=2), repeat=2)
                if cat.is_distributor(cat.Rel(2, 2, rows), X, X) is None
            ]
            rights = [phi for phi in candidates if cat.adjoint_pair_check(X.tnorm, psi, phi, X, X)]
            for phi in rights:
                assert cat.rel_eq(phi, rights[0])


class TestDerivedStructure:
    def test_a2_underlying_order_discrete_separated(self):
        A2 = fixtures.a2()
        P = cat.underlying_order(A2)
        assert P.leq == ((True, False), (False, True))
        assert cat.is_separated(A2)

    def test_isomorphic_points_collapse(self):
        g = luka_grid(3)
        X = cat.EnrichedCategory(tn.lukasiewicz, ((F(1), F(1)), (F(1), F(1))), ("u", "v"), g)
        assert not cat.is_separated(X)
        Q, proj = cat.separated_quotient(X)
        assert Q.n == 1 and proj == (0, 0)

    def test_opposite_involution(self):
        A2 = fixtures.a2()
        assert cat.opposite(cat.opposite(A2)).hom == A2.hom

    def test_opposite_is_built_once_and_transposes(self):
        X = gen.random_category(random.Random(3), 4, luka_grid(6))
        Xop = cat.opposite(X)
        assert cat.opposite(X) is Xop and cat.opposite(Xop) is X
        assert Xop == cat.EnrichedCategory(X.tnorm, tuple(zip(*X.hom)), X.names, X.grid)

    def test_leq1_is_the_comparison_of_one_with_the_value(self):
        # leq1 picks the comparison by the value's mode, with no dispatch through X.one;
        # floats run three ulps either side of 1 - TOL, where the verdict turns
        edge = 1.0 - tn.TOL
        floats = [0.0, 0.5, edge, math.nextafter(1.0, 0.0), 1.0]
        for direction in (0.0, 1.0):
            v = edge
            for _ in range(3):
                v = math.nextafter(v, direction)
                floats.append(v)
        exacts = [F(0), F(1, 2), 1 - F(1, 10**12), 1 - F(1, 10**13), F(1)]
        for values in (floats, exacts):
            X = cat.EnrichedCategory(tn.lukasiewicz, (tuple(values),) * len(values))
            verdicts = [X.leq1(v) for v in X.hom[0]]
            assert verdicts == [tn.vle(X.one, v) for v in X.hom[0]], X.mode
            assert True in verdicts and False in verdicts

    def test_symmetrize(self):
        A2 = fixtures.a2()
        S = cat.symmetrize(A2)
        assert S.hom[0][1] == S.hom[1][0] == F(0)


class TestHomCategory:
    def test_discrete_source_all_maps(self):
        D2 = fixtures.d2()
        H = cat.hom_category(D2, D2)
        assert H.n == 4
        assert cat.validate(H).ok

    def test_terminal_source_recovers_target(self):
        A2 = fixtures.a2()
        star = cat.terminal(A2.tnorm, A2.grid)
        H = cat.hom_category(star, A2)
        assert cat.categories_isomorphic(H, A2)

    def test_axioms_on_random_pairs(self):
        rng = random.Random(7)
        g = luka_grid(2)
        for _ in range(10):
            X = gen.random_category(rng, 2, g)
            Y = gen.random_category(rng, 2, g)
            assert cat.validate(cat.hom_category(X, Y)).ok

    def test_fully_faithful_iff_hom_preserving(self):
        rng = random.Random(8)
        g = luka_grid(3)
        for _ in range(20):
            X = gen.random_category(rng, 2, g)
            Y = gen.random_category(rng, 3, g)
            f = gen.random_functor(rng, X, Y)
            pres = all(
                X.hom[x][y] == Y.hom[f(x)][f(y)] for x in range(2) for y in range(2)
            )
            assert cat.is_fully_faithful(f) == pres


class TestValueNormalization:
    def test_keeps_the_callers_fractions_and_parses_the_rest(self):
        third = F(1, 3)
        half = F(1, 2)
        X = cat.EnrichedCategory(tn.lukasiewicz, ((1, third), ("1/3", F(1))))
        assert X.hom[0][1] is third
        assert X.hom == ((F(1), F(1, 3)), (F(1, 3), F(1)))
        assert all(type(v) is F for row in X.hom for v in row)
        r = cat.Rel(1, 3, ((half, "1/3", 0),))
        assert r(0, 0) is half
        assert r.rows == ((F(1, 2), F(1, 3), F(0)),)
        assert all(type(v) is F for v in r.rows[0])

    def test_keeps_floats(self):
        v = 0.25
        X = cat.EnrichedCategory(tn.product, ((1.0, v), (0.0, 1.0)))
        assert X.hom[0][1] is v and X.mode == "float"


def test_functor_between_categories_under_different_tnorms_raises():
    # the same hom under Lukasiewicz and Godel; (0, 1) keeps it, so only the t-norms differ
    from recat.errors import CarrierMismatchError

    hom = ((F(1), F(1, 2)), (F(0), F(1)))
    X = cat.EnrichedCategory(tn.lukasiewicz, hom, (), luka_grid(2))
    Y = cat.EnrichedCategory(tn.godel, hom, (), vals.unit_grid(2, tn.godel))
    with pytest.raises(CarrierMismatchError):
        cat.EnrichedFunctor(X, Y, (0, 1))
    with pytest.raises(CarrierMismatchError):
        cat.EnrichedFunctor(Y, X, (0, 1))
    assert cat.EnrichedFunctor(X, X, (0, 1)).mapping == (0, 1)


def test_two_empty_carriers_are_isomorphic():
    """The one relabelling of an empty carrier is (), which is falsy, so any() over the
    relabellings used to answer False for two empty categories or posets."""
    E = cat.EnrichedCategory(tn.godel, ())
    assert cat.categories_isomorphic(E, E)
    assert cat.categories_isomorphic(E, cat.EnrichedCategory(tn.godel, (), (), vals.unit_grid(2, tn.godel)))
    assert not cat.categories_isomorphic(E, fixtures.d2())
    empty = ps.FinitePoset(0, ())
    assert ps.posets_isomorphic(empty, empty)
    assert not ps.posets_isomorphic(empty, ps.FinitePoset(1, ((True,),)))
