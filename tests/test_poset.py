import recat.poset as ps
import oracles
from oracles import cd_law_identity_check, enumerate_lattices


class TestGalois:
    def test_identity_pair(self):
        c = ps.chain(3)
        ident = [0, 1, 2]
        assert ps.galois_check(ident, ident, c, c)

    def test_bottom_top_pair_on_chain2(self):
        # constant-bottom left adjoint to constant-top, by the defining
        # equivalence: both sides are always true
        c = ps.chain(2)
        assert ps.galois_check([0, 0], [1, 1], c, c)
        # two constant-top maps fail the equivalence at y = bottom
        assert not ps.galois_check([1, 1], [1, 1], c, c)

    def test_left_adjoint_of_identity(self):
        c = ps.chain(2)
        assert ps.left_adjoint_of([0, 1], c, c) == [0, 1]

    def test_closure_operator_from_inclusion(self):
        # closed sets {{}, {1}, {1,2}} included into the powerset of {1,2};
        # the left adjoint is the topological closure
        P = ps.boolean_lattice()  # 0={}, 1={1}, 2={2}, 3={1,2}
        Y = ps.chain(3)
        inclusion = [0, 1, 3]
        closure = ps.left_adjoint_of(inclusion, Y, P)
        assert closure == [0, 1, 2, 2]
        assert ps.galois_check(closure, inclusion, P, Y)

    def test_no_least_element_gives_none(self):
        # constant map into an antichain: the preimage of an up-set of the
        # other atom is empty
        A = ps.antichain(2)
        c = ps.chain(2)
        assert ps.left_adjoint_of([0, 0], c, A) is None

    def test_adjoints_preserve_joins_and_meets(self):
        P = ps.boolean_lattice()
        Y = ps.chain(3)
        inclusion = [0, 1, 3]
        closure = ps.left_adjoint_of(inclusion, Y, P)
        for a in range(P.n):
            for b in range(P.n):
                j = P.join([a, b])
                assert Y.join([closure[a], closure[b]]) == closure[j]
        for a in range(Y.n):
            for b in range(Y.n):
                m = Y.meet([a, b])
                assert P.meet([inclusion[a], inclusion[b]]) == inclusion[m]


class TestBelowRelations:
    def test_chain_examples(self):
        c = ps.chain(3)
        assert ps.totally_below(c, 0, 2)
        assert ps.totally_below(c, 1, 1)

    def test_m3_atom_not_totally_below_top(self):
        m = ps.m3()
        for atom in (1, 2, 3):
            assert not ps.totally_below(m, atom, 4)

    def test_way_below_is_leq_on_finite_lattices(self):
        for L in ps.lattice_catalog(5):
            for x in range(L.n):
                for y in range(L.n):
                    assert ps.way_below(L, x, y) == L.le(x, y)

    def test_totally_below_implies_leq_and_squeezing(self):
        for L in ps.lattice_catalog(5):
            for x in range(L.n):
                for y in range(L.n):
                    if ps.totally_below(L, x, y):
                        assert L.le(x, y)
                        for a in range(L.n):
                            for b in range(L.n):
                                if L.le(a, x) and L.le(y, b):
                                    assert ps.totally_below(L, a, b)


class TestDistributivity:
    def test_chains_cd(self):
        for n in range(1, 6):
            assert ps.is_completely_distributive(ps.chain(n))

    def test_m3_verdicts(self):
        m = ps.m3()
        assert not ps.is_completely_distributive(m)
        assert ps.is_continuous_lattice(m)
        assert not ps.has_enough_coprimes(m)

    def test_boolean_cd(self):
        assert ps.is_completely_distributive(ps.boolean_lattice())

    def test_two_routes_agree_on_catalog(self):
        for L in ps.lattice_catalog(5):
            assert ps.is_completely_distributive(L) == cd_law_identity_check(L)

    def test_cd_self_dual(self):
        for L in ps.lattice_catalog(5):
            assert ps.is_completely_distributive(L) == ps.is_completely_distributive(L.opposite())


class TestCoprimes:
    def test_bottom_vacuously_coprime(self):
        c = ps.chain(3)
        assert ps.coprimes(c) == (0, 1, 2)
        assert ps.coprimes(c, include_vacuous_bottom=False) == (1, 2)

    def test_boolean_atoms(self):
        b = ps.boolean_lattice()
        assert ps.coprimes(b) == (0, 1, 2)

    def test_m3_binary_definition(self):
        # each atom sits below the join of the other two, so only the bottom
        # survives the binary definition
        assert ps.coprimes(ps.m3()) == (0,)

    def test_binary_joins_built_once_keep_the_coprimes(self):
        """coprimes built one join per (x, a, b), n**3 joins, where n**2 suffice."""
        lattices = ps.lattice_catalog(5) + [L for n in range(1, 6) for L in enumerate_lattices(n)]
        for L in lattices + [L.opposite() for L in lattices]:
            for vacuous in (True, False):
                assert ps.coprimes(L, vacuous) == oracles.coprimes(L, vacuous)

    def test_primes_dualize(self):
        b = ps.boolean_lattice()
        assert ps.primes(b) == tuple(sorted({3, 1, 2}))


class TestCatalog:
    def test_catalog_members_are_lattices(self):
        for L in ps.lattice_catalog(5):
            assert L.is_lattice()

    def test_catalog_pairwise_non_isomorphic(self):
        cat = ps.lattice_catalog(5)
        for i, P in enumerate(cat):
            for Q in cat[i + 1 :]:
                assert not ps.posets_isomorphic(P, Q)

    def test_counts_match_enumeration_small(self):
        for n, count in [(1, 1), (2, 1), (3, 1), (4, 2)]:
            assert len(enumerate_lattices(n)) == count
            assert len([L for L in ps.lattice_catalog(5) if L.n == n]) == count

    def test_five_element_catalog_complete(self):
        enumerated = enumerate_lattices(5)
        cat5 = [L for L in ps.lattice_catalog(5) if L.n == 5]
        assert len(enumerated) == len(cat5) == 5
        for L in cat5:
            assert any(ps.posets_isomorphic(L, Q) for Q in enumerated)
