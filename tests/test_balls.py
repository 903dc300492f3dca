import random
from fractions import Fraction as F

import pytest

import recat.balls as balls
import recat.cat as cat
import recat.presheaf as ps
import recat.tnorm as tn
import recat.values as vals
from recat import fixtures, gen
from recat.errors import RecatError


def luka_grid(n):
    return vals.unit_grid(n, tn.lukasiewicz)


class TestBallOrder:
    def test_zero_radius_is_bottom(self):
        A2 = fixtures.a2()
        for x in range(2):
            for y in range(2):
                for s in A2.grid.points:
                    assert balls.ball_leq(A2, (x, F(0)), (y, s))

    def test_a2_examples(self):
        A2 = fixtures.a2()
        assert balls.ball_leq(A2, (0, F(2, 3)), (1, F(1)))
        assert not balls.ball_leq(A2, (1, F(1)), (0, F(1)))

    def test_reflexive_transitive(self):
        rng = random.Random(0)
        for _ in range(10):
            X = gen.random_category(rng, 3, luka_grid(3))
            bs = [(x, r) for x in range(X.n) for r in X.grid.points]
            for a in bs:
                assert balls.ball_leq(X, a, a)
            for a in bs:
                for b in bs:
                    for c in bs:
                        if balls.ball_leq(X, a, b) and balls.ball_leq(X, b, c):
                            assert balls.ball_leq(X, a, c)


class TestDirected:
    def test_singleton_directed_and_self_join(self):
        A2 = fixtures.a2()
        b = (0, F(1, 3))
        assert balls.directed_check(A2, [b])
        assert balls.ball_equiv(A2, balls.directed_join(A2, [b]), b)

    def test_d2_pair_not_directed(self):
        D2 = fixtures.d2()
        assert not balls.directed_check(D2, [(0, F(1, 2)), (1, F(1, 2))])

    def test_constant_center_join_formula(self):
        A2 = fixtures.a2()
        fam = [(0, F(1, 3)), (0, F(2, 3)), (0, F(1))]
        assert balls.directed_check(A2, fam)
        j = balls.directed_join(A2, fam)
        assert balls.ball_equiv(A2, j, (0, F(1)))

    def test_join_is_least_upper_bound(self):
        rng = random.Random(1)
        checked = 0
        while checked < 100:
            X = gen.random_category(rng, 3, luka_grid(3))
            fam = gen.random_directed_balls(rng, X, length=3)
            if not balls.directed_check(X, fam):
                continue
            checked += 1
            j = balls.directed_join(X, fam)
            assert j is not None
            cands = [(z, t) for z in range(X.n) for t in balls.radius_candidates(X, fam)]
            ubs = [c for c in cands if all(balls.ball_leq(X, b, c) for b in fam)]
            assert all(balls.ball_leq(X, b, j) for b in fam)
            assert all(balls.ball_leq(X, j, u) for u in ubs)


class TestWayBelow:
    def test_equals_hom_on_fixtures(self):
        for X in (fixtures.a2(), fixtures.d2(), fixtures.g5()):
            w = balls.way_below_distributor(X)
            assert cat.rel_eq(w, cat.hom_rel(X))

    def test_two_routes_agree(self):
        rng = random.Random(2)
        for _ in range(10):
            X = gen.random_category(rng, 3, luka_grid(3))
            assert cat.rel_eq(
                balls.way_below_distributor(X), balls.way_below_via_representables(X)
            )

    def test_interpolation(self):
        for X in (fixtures.a2(), fixtures.g5()):
            assert balls.interpolation_check(X)

    def test_d2_identity_matrix(self):
        D2 = fixtures.d2()
        w = balls.way_below_distributor(D2)
        ident = cat.identity_rel(2)
        assert cat.rel_eq(w, ident)

    def test_everything_compact_and_continuous(self):
        rng = random.Random(3)
        for _ in range(5):
            X = gen.random_category(rng, 3, luka_grid(3))
            for a in range(X.n):
                assert balls.is_compact(X, a)
            Q, _ = cat.separated_quotient(X)
            assert balls.is_continuous_enriched(Q)

    def test_grid_v_all_compact(self):
        V = fixtures.grid_v(luka_grid(3))
        assert all(balls.is_compact(V, a) for a in range(V.n))


class TestBallWayBelow:
    def test_a2_strict_inequality(self):
        A2 = fixtures.a2()
        assert balls.ball_way_below(A2, (0, F(1, 3)), (1, F(1)))

    def test_boundary_fails(self):
        A2 = fixtures.a2()
        w = balls.way_below_distributor(A2)
        s = F(1)
        boundary = A2.conj(s, w(0, 1))
        assert not balls.ball_way_below(A2, (0, boundary), (1, s))

    def test_exactness_flag(self):
        assert balls.ball_way_below_is_exact(tn.lukasiewicz)
        assert balls.ball_way_below_is_exact(tn.product)
        assert not balls.ball_way_below_is_exact(tn.godel)

    def test_zero_radius_rejected(self):
        with pytest.raises(RecatError):
            balls.ball_way_below(fixtures.a2(), (0, F(0)), (1, F(1)))

    def test_zero_radius_brute_force_on_grid_ball_poset(self):
        # radius-0 balls are bottoms, hence way below everything when the
        # order-theoretic relation is brute-forced over the finite grid poset
        from recat.poset import FinitePoset, way_below

        A2 = fixtures.a2()
        nodes = [(x, r) for x in range(A2.n) for r in A2.grid.points]
        leq = tuple(
            tuple(balls.ball_leq(A2, a, b) for b in nodes) for a in nodes
        )
        P = FinitePoset(len(nodes), leq)
        bottom = nodes.index((0, F(0)))
        for j, (y, s) in enumerate(nodes):
            if s > 0:
                assert way_below(P, bottom, j)


class TestEnrichedCD:
    def test_grid_v_lukasiewicz(self):
        V = fixtures.grid_v(luka_grid(3))
        assert balls.is_completely_distributive_enriched(V) == (True, None)

    def test_grid_v_op_lukasiewicz(self):
        Vop = fixtures.grid_v_op(luka_grid(3))
        assert balls.is_completely_distributive_enriched(Vop) == (True, None)

    def test_godel_op_counterexample(self):
        g = vals.grid_validate([0, F(1, 2), 1], tn.godel)
        Gop = fixtures.grid_v_op(g)
        ok, witness = balls.is_completely_distributive_enriched(Gop)
        assert not ok and witness is not None

    def test_requires_cocomplete(self):
        with pytest.raises(RecatError):
            balls.is_completely_distributive_enriched(fixtures.a2())


class TestContinuousLatticeFormula:
    def test_colimit_against_way_below_sections(self):
        # on a separated grid-cocomplete carrier, hom into a colimit of an
        # ideal is the inf of the ideal over the order-theoretic way-below
        # sections of the anchor
        from recat.classify import is_ideal
        from recat.poset import way_below
        from recat.cat import underlying_order

        for V in (
            fixtures.grid_v(luka_grid(3)),
            fixtures.grid_v(vals.grid_validate([0, F(1, 2), 1], tn.godel)),
        ):
            P = underlying_order(V)
            for phi in ps.enumerate_weights(V):
                if not is_ideal(phi)[0]:
                    continue
                c = ps.colim(phi)
                assert c is not None
                for x in range(V.n):
                    below = [y for y in range(V.n) if way_below(P, y, x)]
                    assert V.hom[x][c] == min(phi(y) for y in below)


class TestDotExport:
    def test_a2_eight_nodes(self):
        A2 = fixtures.a2()
        dot = balls.ball_poset_dot(A2)
        assert dot.count('";') - dot.count('" -> "') == 8
        assert dot.startswith("digraph balls {") and dot.endswith("}")

    def test_cover_edges_only(self):
        A2 = fixtures.a2()
        dot = balls.ball_poset_dot(A2)
        # bottoms are the radius-0 balls; a@0 covers only radius-1/3 balls
        assert '"a@0" -> "a@1/3"' in dot
        assert '"a@0" -> "a@2/3"' not in dot


class TestTruncatedFixtures:
    def test_example_g_truncated_is_illustrative(self):
        # finite prefix of a continuum fixture: the increasing-ball family has
        # a join here even though the infinite space has none
        X = fixtures.example_g_truncated(3)
        assert cat.validate(X).ok
        fam = [(i, p) for i, p in enumerate([F(1, 8), F(1, 4), F(3, 8)][: X.n])]
        if balls.directed_check(X, fam):
            assert balls.directed_join(X, fam) is not None

    def test_exmp3_truncated_validates(self):
        X = fixtures.exmp3_truncated(4)
        assert cat.validate(X).ok
        assert balls.directed_join(X, [(0, F(1, 3)), (0, F(1))]) is not None


def test_ball_centres_outside_the_carrier_are_rejected():
    A2, third = fixtures.a2(), F(1, 3)
    cases = (
        (balls.ball_way_below, ((-1, third), (0, F(1))), -1),
        (balls.ball_way_below, ((0, third), (-2, F(1))), -2),
        (balls.directed_join, ([(-1, third)],), -1),
        (balls.ball_leq, ((2, third), (0, F(1))), 2),
    )
    for f, args, a in cases:
        with pytest.raises(RecatError, match=f"^element {a} is not in the carrier$"):
            f(A2, *args)


BAD_RADII = (F(-1), F(3), 0.5, "abc", None, [1], True)
EXACT_BASES = {
    "grid": fixtures.a2,
    "gridless": lambda: cat.EnrichedCategory(tn.lukasiewicz, fixtures.a2().hom),
}


@pytest.mark.parametrize("base", sorted(EXACT_BASES))
@pytest.mark.parametrize("bad", BAD_RADII, ids=repr)
def test_every_radius_is_checked(base, bad):
    """Either radius of ball_leq, ball_way_below and directed_join raises RecatError when
    it is not an exact value in [0, 1] (on the grid, when there is one); the first radius
    used to go unchecked, so -1, 3 and 0.5 got verdicts and a string a bare TypeError."""
    X, one = EXACT_BASES[base](), F(1)
    calls = [(balls.ball_leq, ((0, bad), (1, one))), (balls.ball_leq, ((0, one), (1, bad)))]
    calls += [(balls.directed_join, ([(0, one), (1, bad)],)), (balls.directed_check, ([(0, bad)],))]
    if X.grid is not None:  # ball way-below needs a grid
        calls += [(balls.ball_way_below, ((0, bad), (1, one))), (balls.ball_way_below, ((0, one), (1, bad)))]
    for f, args in calls:
        with pytest.raises(RecatError, match="^radius "):
            f(X, *args)


def test_float_radii_on_a_float_hom():
    X = cat.EnrichedCategory(tn.product, ((1.0, 0.5), (0.0, 1.0)))
    assert balls.ball_leq(X, (0, 0.25), (1, 0.5)) and not balls.ball_leq(X, (0, 0.5), (1, 0.5))
    for bad in (F(1, 2), 1, 1.5, -0.0 - 1e-9, float("nan"), "0.5", True):
        with pytest.raises(RecatError, match="^radius "):
            balls.ball_leq(X, (0, bad), (1, 0.5))
        with pytest.raises(RecatError, match="^radius "):
            balls.ball_leq(X, (0, 0.5), (1, bad))


def test_valid_radii_keep_their_verdicts():
    A2 = fixtures.a2()
    pts = A2.grid.points
    for r in pts:
        for s in pts:
            want = r <= tn.conj(A2.tnorm, s, A2.hom[0][1])
            assert balls.ball_leq(A2, (0, r), (1, s)) == want
            assert balls.ball_leq(A2, (0, int(r) if r.denominator == 1 else r), (1, s)) == want
