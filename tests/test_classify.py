import random
from fractions import Fraction as F

import pytest

import recat.cat as cat
import recat.classify as cl
import recat.presheaf as ps
import recat.tnorm as tn
import recat.values as vals
from recat import fixtures, gen
from recat.errors import RecatError
from oracles import is_ideal_threshold_form


def luka_grid(n):
    return vals.unit_grid(n, tn.lukasiewicz)


class TestRepresentable:
    def test_yoneda_found(self):
        A2 = fixtures.a2()
        assert cl.is_representable(ps.yoneda(A2, 1)) == 1

    def test_all_ones_not_representable_on_d2(self):
        D2 = fixtures.d2()
        assert cl.is_representable(ps.Weight(D2, (F(1), F(1)))) is None

    def test_g5_weight_not_representable(self):
        assert cl.is_representable(fixtures.g5_weight()) is None


class TestCauchy:
    def test_representables_with_coyoneda_witness(self):
        A2 = fixtures.a2()
        for a in range(2):
            w = cl.is_cauchy(ps.yoneda(A2, a))
            assert w is not None and w.values == ps.coyoneda(A2, a).values

    def test_all_ones_on_d2_rejected(self):
        D2 = fixtures.d2()
        assert cl.is_cauchy(ps.Weight(D2, (F(1), F(1)))) is None

    def test_a2_yoneda_b_witness(self):
        A2 = fixtures.a2()
        w = cl.is_cauchy(ps.yoneda(A2, 1))
        assert w.values == (F(0), F(1))


class TestIdeal:
    def test_representables_are_ideals(self):
        rng = random.Random(0)
        for _ in range(20):
            X = gen.random_category(rng, rng.randint(1, 4), luka_grid(3))
            for a in range(X.n):
                assert cl.is_ideal(ps.yoneda(X, a))[0]

    def test_d2_all_ones_with_witness(self):
        D2 = fixtures.d2()
        ok, wit = cl.is_ideal(ps.Weight(D2, (F(1), F(1))))
        assert not ok and set(wit) == {0, 1}

    def test_g5_weight_fails(self):
        ok, wit = cl.is_ideal(fixtures.g5_weight())
        assert not ok and wit is not None

    def test_two_routes_agree(self):
        rng = random.Random(1)
        for _ in range(40):
            X = gen.random_category(rng, rng.randint(1, 3), luka_grid(3))
            phi = gen.random_weight(rng, X)
            assert cl.is_ideal(phi)[0] == is_ideal_threshold_form(phi)[0]
        g = vals.grid_validate([0, F(1, 4), F(1, 2), F(3, 4), 1], tn.godel)
        for _ in range(40):
            X = gen.random_category(rng, rng.randint(1, 3), g)
            phi = gen.random_weight(rng, X)
            assert cl.is_ideal(phi)[0] == is_ideal_threshold_form(phi)[0]
        assert not is_ideal_threshold_form(fixtures.g5_weight())[0]


class TestConicallyFlat:
    def test_ideals_are_conically_flat(self):
        rng = random.Random(2)
        for _ in range(20):
            X = gen.random_category(rng, 3, luka_grid(3))
            phi = gen.random_weight(rng, X)
            if cl.is_ideal(phi)[0]:
                assert cl.is_conically_flat(phi)[0]

    def test_g5_weight_is_conically_flat(self):
        ok, wit, exact = cl.is_conically_flat(fixtures.g5_weight())
        assert ok and exact

    def test_d2_all_ones_witness(self):
        D2 = fixtures.d2()
        phi = ps.Weight(D2, (F(1), F(1)))
        ok, wit, _ = cl.is_conically_flat(phi)
        assert not ok
        x1, x2, p1, p2 = wit
        assert {x1, x2} == {0, 1}
        # the top corner (1, 1) is always a violation for this weight
        lhs = min(D2.conj(F(1), phi(0)), D2.conj(F(1), phi(1)))
        rhs = max(
            D2.conj(min(D2.hom[0][x], D2.hom[1][x]), phi(x)) for x in range(2)
        )
        assert lhs == F(1) and rhs == F(0)

    def test_grid_breakpoints_match_dense_probe(self):
        # quantifying p over the grid is exact: probing strictly between grid
        # points may not change the verdict on Lukasiewicz grids
        g = luka_grid(3)
        rng = random.Random(3)
        dense = sorted({F(k, 24) for k in range(25)})
        for _ in range(10):
            X = gen.random_category(rng, 2, g)
            phi = gen.random_weight(rng, X)
            coarse = cl.is_conically_flat(phi)[0]
            fine = any(phi(x) == F(1) for x in range(X.n))
            for x1 in range(X.n):
                for x2 in range(X.n):
                    for p1 in dense:
                        for p2 in dense:
                            lhs = min(
                                tn.conj_exact_unchecked(X.tnorm, p1, phi(x1)),
                                tn.conj_exact_unchecked(X.tnorm, p2, phi(x2)),
                            )
                            rhs = max(
                                tn.conj_exact_unchecked(
                                    X.tnorm,
                                    min(
                                        tn.conj_exact_unchecked(X.tnorm, p1, X.hom[x1][x]),
                                        tn.conj_exact_unchecked(X.tnorm, p2, X.hom[x2][x]),
                                    ),
                                    phi(x),
                                )
                                for x in range(X.n)
                            )
                            fine = fine and lhs == rhs
            assert coarse == fine


class TestFlat:
    def test_cauchy_implies_flat(self):
        rng = random.Random(4)
        for _ in range(20):
            X = gen.random_category(rng, 2, luka_grid(3))
            phi = gen.random_weight(rng, X)
            if cl.is_cauchy(phi) is not None:
                ok, _, exhaustive = cl.is_flat(phi)
                assert ok and exhaustive

    def test_representable_on_godel_grid_v(self):
        g = vals.grid_validate([0, F(1, 2), 1], tn.godel)
        V = fixtures.grid_v(g)
        ok, _, _ = cl.is_flat(ps.yoneda(V, 1))
        assert ok

    def test_g5_weight_not_flat_with_witness(self):
        ok, wit, exhaustive = cl.is_flat(fixtures.g5_weight())
        assert not ok and exhaustive
        r, psi_vals = wit
        # re-verify the witness violates the cotensor identity
        phi = fixtures.g5_weight()
        X = phi.base
        psi = ps.Coweight(X, psi_vals)
        shifted = ps.Coweight(X, tuple(X.imp(r, v) for v in psi_vals))
        assert ps.pairing(phi, shifted) != X.imp(r, ps.pairing(phi, psi))


class TestClassify:
    def test_yoneda_all_flags(self):
        A2 = fixtures.a2()
        rep = cl.classify(ps.yoneda(A2, 0))
        assert all(rep.flags.values())

    def test_d2_all_ones_all_false(self):
        D2 = fixtures.d2()
        rep = cl.classify(ps.Weight(D2, (F(1), F(1))))
        assert not any(rep.flags.values())

    def test_g5_profile(self):
        rep = cl.classify(fixtures.g5_weight())
        assert rep.flags == {
            "representable": False,
            "cauchy": False,
            "ideal": False,
            "conically_flat": True,
            "flat": False,
        }

    def test_chain_on_enumerated_weights(self):
        rng = random.Random(5)
        for _ in range(10):
            X = gen.random_category(rng, 2, luka_grid(3))
            for phi in ps.enumerate_weights(X):
                flags = cl.classify(phi).flags
                assert not flags["representable"] or flags["cauchy"]
                assert not flags["cauchy"] or flags["ideal"]
                assert not flags["cauchy"] or flags["flat"]
                assert not flags["flat"] or flags["conically_flat"]
                assert not flags["ideal"] or flags["conically_flat"]


class TestCauchyCompletion:
    def test_a2_already_complete(self):
        A2 = fixtures.a2()
        C, emb = cl.cauchy_completion(A2)
        assert cat.categories_isomorphic(C, A2)
        assert sorted(emb) == [0, 1]

    def test_twin_collapses(self):
        g = luka_grid(3)
        X = cat.EnrichedCategory(tn.lukasiewicz, ((F(1), F(1)), (F(1), F(1))), ("u", "v"), g)
        C, emb = cl.cauchy_completion(X)
        assert C.n == 1 and emb == (0, 0)

    def test_idempotent(self):
        rng = random.Random(6)
        for _ in range(5):
            X = gen.random_category(rng, 3, luka_grid(3))
            C1, _ = cl.cauchy_completion(X)
            C2, _ = cl.cauchy_completion(C1)
            assert cat.categories_isomorphic(C1, C2)

    def test_matches_separated_quotient(self):
        rng = random.Random(7)
        for _ in range(10):
            X = gen.random_category(rng, 3, luka_grid(3))
            C, _ = cl.cauchy_completion(X)
            Q, _ = cat.separated_quotient(X)
            assert cat.categories_isomorphic(C, Q)

    def test_requires_exact_mode(self):
        Xf = cat.EnrichedCategory(tn.product, ((1.0, 0.5), (0.25, 1.0)))
        with pytest.raises(RecatError):
            cl.cauchy_completion(Xf)


class TestSmyth:
    def test_separated_finite_always(self):
        rng = random.Random(8)
        for _ in range(15):
            X = gen.random_category(rng, 3, luka_grid(3))
            if cat.is_separated(X):
                assert cl.is_smyth_complete(X)
                assert cl.is_smyth_completable(X)

    def test_non_separated_fails(self):
        g = luka_grid(3)
        X = cat.EnrichedCategory(tn.lukasiewicz, ((F(1), F(1)), (F(1), F(1))), ("u", "v"), g)
        assert not cl.is_smyth_complete(X)

    def test_d2(self):
        assert cl.is_smyth_complete(fixtures.d2())


class TestEqualizerCharacterization:
    def test_cauchy_iff_kz_equality_small(self):
        from recat.laws import kz_defect

        rng = random.Random(9)
        for _ in range(6):
            X = gen.random_category(rng, 2, luka_grid(3))
            weights = ps.enumerate_weights(X)
            for phi in weights:
                equal = all(tn.veq(*kz_defect(phi, gamma)) for gamma in weights)
                assert equal == (cl.is_cauchy(phi) is not None)
