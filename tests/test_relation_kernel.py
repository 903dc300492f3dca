"""The presheaf calculus against its pointwise formulas, written out here.

Every sup-(*) and inf-(->) formula of `presheaf`, and those of `classify`,
`balls` and `laws` built on it, runs through the relation kernel in `cat`.
These seeded cases recompute each one entry by entry, in the argument order
of the formula, on exact Lukasiewicz 1/6 categories and on float product
categories, and require equal values.
"""

import random
from itertools import product as iproduct

import pytest

import recat.balls as balls
import recat.cat as cat
import recat.classify as cl
import recat.laws as laws
import recat.presheaf as ps
import recat.tnorm as tn
import recat.values as vals
from recat import gen

SIZES = range(1, 6)


def float_category(rng, n):
    """A random float product category: a hom matrix closed under sup-(*)."""
    hom = [[1.0 if i == j else round(rng.random(), 3) for j in range(n)] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for y, z, x in iproduct(range(n), repeat=3):
            v = tn.conj(tn.product, hom[y][z], hom[x][y])
            if v > hom[x][z] + tn.TOL:
                hom[x][z] = v
                changed = True
    return cat.EnrichedCategory(tn.product, tuple(map(tuple, hom)))


def category(rng, n, mode):
    if mode == "exact":
        return gen.random_category(rng, n, vals.unit_grid(6, tn.lukasiewicz))
    return float_category(rng, n)


def value(rng, X):
    return rng.choice(X.grid.points) if X.mode == "exact" else round(rng.random(), 3)


def vector(rng, X):
    return tuple(value(rng, X) for _ in range(X.n))


def case(seed, n, mode):
    """(X, two weights, two coweights, a category K and a functor K -> X)."""
    rng = random.Random(1000 * seed + 10 * n + (mode == "float"))
    X = category(rng, n, mode)
    K = category(rng, rng.randint(1, 4), mode)
    phis = [ps.weight_closure(X, vector(rng, X)) for _ in range(2)]
    psis = [ps.coweight_closure(X, vector(rng, X)) for _ in range(2)]
    return rng, X, phis, psis, K, gen.random_functor(rng, K, X)


CASES = [(seed, n, mode) for mode in ("exact", "float") for n in SIZES for seed in range(3)]


@pytest.mark.parametrize("seed, n, mode", CASES)
def test_weight_formulas(seed, n, mode):
    rng, X, (phi, phi2), (psi, psi2), _, _ = case(seed, n, mode)
    t, N = X.tnorm, range(X.n)

    def conj(a, b):
        return tn.conj(t, a, b)

    def imp(a, b):
        return tn.imp(t, a, b)

    assert ps.sub(phi, phi2) == min(imp(phi(x), phi2(x)) for x in N)
    assert ps.cosub(psi, psi2) == min(imp(psi2(x), psi(x)) for x in N)
    assert ps.pairing(phi, psi) == max(conj(phi(x), psi(x)) for x in N)
    ub = tuple(min(imp(phi(x), X.hom[x][y]) for x in N) for y in N)
    assert ps.isbell_ub(phi).values == ub
    assert ps.isbell_lb(psi).values == tuple(min(imp(psi(y), X.hom[x][y]) for y in N) for x in N)
    v = vector(rng, X)
    assert ps.weight_closure(X, v).values == tuple(max(conj(v[z], X.hom[x][z]) for z in N) for x in N)
    assert ps.coweight_closure(X, v).values == tuple(max(conj(X.hom[z][y], v[z]) for z in N) for y in N)
    lb = ps.isbell_lb(psi).values
    assert ps.lim(psi) == next((c for c in N if all(tn.veq(X.hom[x][c], lb[x]) for x in N)), None)
    for a in N:
        assert ps.coyoneda(X, a).values == tuple(X.hom[a][y] for y in N)
        r = value(rng, X)
        at_a = tuple(imp(r, X.hom[x][a]) for x in N)
        assert ps.cotensor(X, r, a) == next((c for c in N if all(tn.veq(X.hom[x][c], at_a[x]) for x in N)), None)
    if mode == "exact":
        draws = random.Random(seed)
        drawn = tuple(draws.choice(X.grid.points) for _ in N)
        closed = tuple(max(conj(X.hom[z][y], drawn[z]) for z in N) for y in N)
        assert gen.random_coweight(random.Random(seed), X).values == closed
    for w in (phi, phi2, ps.yoneda(X, rng.randrange(X.n))):
        # Cauchy: the upper-bound coweight is a left adjoint, 1 <= w . ub (unit) and ub o w <= X (counit)
        up = tuple(min(imp(w(x), X.hom[x][y]) for x in N) for y in N)
        unit = tn.vle(X.one, max(conj(w(x), up[x]) for x in N))
        counit = all(tn.vle(conj(up[y], w(x)), X.hom[x][y]) for x in N for y in N)
        left = cl.is_cauchy(w)
        assert (None if left is None else left.values) == (up if unit and counit else None)


@pytest.mark.parametrize("seed, n, mode", CASES)
def test_kan_extensions_and_weighted_colimit(seed, n, mode):
    rng, Y, _, _, K, f = case(seed, n, mode)
    t, KN, YN = Y.tnorm, range(K.n), range(Y.n)
    phi = ps.weight_closure(K, vector(rng, K))
    psi = ps.coweight_closure(K, vector(rng, K))

    def conj(a, b):
        return tn.conj(t, a, b)

    def imp(a, b):
        return tn.imp(t, a, b)

    exists = tuple(max(conj(phi(x), Y.hom[y][f(x)]) for x in KN) for y in YN)
    assert ps.f_exists(f, phi).values == exists
    assert ps.f_forall(f, phi).values == tuple(min(imp(Y.hom[f(x)][y], phi(x)) for x in KN) for y in YN)
    assert ps.f_dag_exists(f, psi).values == tuple(max(conj(Y.hom[f(x)][y], psi(x)) for x in KN) for y in YN)
    assert ps.f_dag_forall(f, psi).values == tuple(min(imp(Y.hom[y][f(x)], psi(x)) for x in KN) for y in YN)
    ub = tuple(min(imp(exists[x], Y.hom[x][y]) for x in YN) for y in YN)
    colim = next((c for c in YN if all(tn.veq(Y.hom[c][y], ub[y]) for y in YN)), None)
    assert ps.weighted_colim(phi, f) == colim
    mu = ps.coweight_closure(Y, vector(rng, Y))
    assert ps.f_inv_coweight(f, mu).values == tuple(mu(f(x)) for x in KN)


@pytest.mark.parametrize("seed, n, mode", CASES)
def test_relation_wrappers(seed, n, mode):
    rng, X, _, _, _, _ = case(seed, n, mode)
    t, m = X.tnorm, rng.randint(1, 4)

    def rel(src, tgt):
        return cat.Rel(src, tgt, tuple(tuple(value(rng, X) for _ in range(tgt)) for _ in range(src)))

    r, s, tt = cat.hom_rel(X), rel(X.n, m), rel(X.n, m)
    N, M = range(X.n), range(m)
    assert cat.compose(t, s, r).rows == tuple(
        tuple(max(tn.conj(t, s(y, z), r(x, y)) for y in N) for z in M) for x in N
    )
    assert cat.residual_left(t, tt, r).rows == tuple(
        tuple(min(tn.imp(t, r(x, y), tt(x, z)) for x in N) for z in M) for y in N
    )
    assert cat.residual_right(t, s.op(), r).rows == tuple(
        tuple(min(tn.imp(t, s(z, y), r(x, z)) for z in N) for y in M) for x in N
    )
    assert balls.way_below_via_representables(X).rows == tuple(
        tuple(min(tn.imp(t, X.hom[x][c], X.hom[y][c]) for c in N) for x in N) for y in N
    )


def directed(rng, points, size):
    """Two random grid vectors and their pointwise min, which lies below both."""
    a, b = (tuple(rng.choice(points) for _ in range(size)) for _ in range(2))
    return (a, b, tuple(map(min, a, b)))


@pytest.mark.parametrize("seed", range(12))
def test_kowalsky_generator_join(seed):
    rng = random.Random(seed)
    t, grid = tn.lukasiewicz, vals.unit_grid(6, tn.lukasiewicz)
    size, count = rng.randint(1, 3), rng.randint(1, 3)
    filters = [laws.ConicalFilter(grid, size, directed(rng, grid.points, size)) for _ in range(count)]
    metas = directed(rng, grid.points, count)
    joins = {
        tuple(max(tn.conj(t, xi[k], combo[k][i]) for k in range(count)) for i in range(size))
        for xi in metas
        for combo in iproduct(*(F.generators for F in filters))
    }
    minimal = [g for g in joins if not any(h != g and all(a >= b for a, b in zip(g, h)) for h in joins)]
    assert laws.kowalsky_sum(metas, filters).generators == tuple(sorted(minimal))


@pytest.mark.parametrize("n", range(1, 4))
def test_enumeration_is_the_lawful_filter(n):
    rng = random.Random(n)
    X = gen.random_category(rng, n, vals.unit_grid(6, tn.lukasiewicz))
    N, t = range(n), X.tnorm
    vecs = list(iproduct(X.grid.points, repeat=n))
    weights = [v for v in vecs if all(tn.conj(t, v[b], X.hom[a][b]) <= v[a] for a in N for b in N)]
    coweights = [v for v in vecs if all(tn.conj(t, X.hom[a][b], v[a]) <= v[b] for a in N for b in N)]
    assert [w.values for w in ps.enumerate_weights(X)] == weights
    assert [c.values for c in ps.enumerate_coweights(X)] == coweights


def test_empty_carrier():
    X = cat.EnrichedCategory(tn.lukasiewicz, ())
    phi, psi = ps.Weight(X, ()), ps.Coweight(X, ())
    assert ps.sub(phi, phi) == ps.cosub(psi, psi) == tn.ONE
    assert ps.pairing(phi, psi) == tn.ZERO
    assert ps.isbell_ub(phi).values == () and ps.isbell_lb(psi).values == ()
