"""The KZ law check against its Yoneda form, written out here.

`laws.kz_defect` reads sub(gamma, yoneda(X, x)) as isbell_ub(gamma)(x), and
`kz_check` and `kz_equality_consistent_with_cauchy` take one Isbell bound
per test weight, on grid indices when X has a grid.  These seeded cases
recompute every pair from n Yoneda weights through tn.conj/tn.imp, on exact
Lukasiewicz 1/6, Godel and ordinal-sum grid categories, on exact Lukasiewicz
categories without a grid and on float product categories, and require equal
values; counted cases pin the number of scalar operations.
"""

import random
from fractions import Fraction as F

import pytest

import recat.cat as cat
import recat.laws as laws
import recat.presheaf as ps
import recat.tnorm as tn
import recat.values as vals
from recat import gen
from recat.classify import is_cauchy
from recat.errors import AxiomError
from recat.poset import closure

import oracles

SIZES = range(1, 6)
MODES = ("lukasiewicz", "godel", "product", "ordinal", "gridless")
# an ordinal sum with the interior idempotent 1/2: Godel below it, Lukasiewicz above
ORDINAL_GRID = vals.grid_validate([0, F(1, 2), F(3, 4), 1], tn.parse_tnorm("ordinal[(1/2,1,lukasiewicz)]"))


def category(rng, n, mode):
    if mode == "lukasiewicz":
        return gen.random_category(rng, n, vals.unit_grid(6, tn.lukasiewicz))
    if mode == "godel":
        return gen.random_category(rng, n, vals.unit_grid(5, tn.godel))
    if mode == "ordinal":
        return gen.random_category(rng, n, ORDINAL_GRID)
    if mode == "gridless":  # exact, with weights drawn off the 1/6 grid below
        return without_grid(gen.random_category(rng, n, vals.unit_grid(6, tn.lukasiewicz)))
    hom = [[1.0 if i == j else round(rng.random(), 3) for j in range(n)] for i in range(n)]
    return cat.EnrichedCategory(tn.product, closure(hom, lambda a, b: tn.conj(tn.product, a, b)))


def weights(rng, X, count):
    """`count` weights: closures of random vectors, plus every Yoneda weight."""
    if X.grid is not None:
        vecs = [tuple(rng.choice(X.grid.points) for _ in range(X.n)) for _ in range(count)]
    elif X.mode == "exact":
        vecs = [tuple(F(rng.randint(0, 35), 35) for _ in range(X.n)) for _ in range(count)]
    else:
        vecs = [tuple(round(rng.random(), 3) for _ in range(X.n)) for _ in range(count)]
    return [ps.weight_closure(X, v) for v in vecs] + [ps.yoneda(X, a) for a in range(X.n)]


def without_grid(X):
    """The same hom and t-norm with no grid: the kernel path, and a base that takes
    weights off X's grid."""
    return cat.EnrichedCategory(X.tnorm, X.hom, X.names)


def yoneda_defect(phi, gamma):
    """(max_x phi(x) (*) sub(gamma, yoneda(X, x)), sub(gamma, phi))."""
    X = phi.base
    lhs = max(X.conj(phi(x), ps.sub(gamma, ps.yoneda(X, x))) for x in range(X.n))
    return lhs, ps.sub(gamma, phi)


def yoneda_report(ws, tests):
    violations = []
    equalities = 0
    for phi in ws:
        for gamma in tests:
            lhs, rhs = yoneda_defect(phi, gamma)
            if not tn.vle(lhs, rhs):
                violations.append((phi.values, gamma.values))
            elif tn.veq(lhs, rhs):
                equalities += 1
    return {"total": len(ws) * len(tests), "equalities": equalities, "violations": violations}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", SIZES)
def test_kz_defect_and_check_equal_the_yoneda_form(mode, n):
    rng = random.Random(100 * n + MODES.index(mode))
    X = category(rng, n, mode)
    ws = weights(rng, X, 4)
    for phi in ws:
        for gamma in ws:
            assert laws.kz_defect(phi, gamma) == yoneda_defect(phi, gamma)
    tests = ws[::2]
    assert laws.kz_check(X, ws, tests) == yoneda_report(ws, tests)


@pytest.mark.parametrize("mode", ("lukasiewicz", "godel", "ordinal"))
@pytest.mark.parametrize("n", (1, 2))
def test_equality_vs_cauchy_equals_the_yoneda_form(mode, n):
    rng = random.Random(200 * n + MODES.index(mode))
    X = category(rng, n, mode)
    ws = ps.enumerate_weights(X)
    expected = all(
        all(tn.veq(*yoneda_defect(phi, gamma)) for gamma in ws) == (is_cauchy(phi) is not None)
        for phi in ws
    )
    assert laws.kz_equality_consistent_with_cauchy(X) == expected


@pytest.mark.parametrize("mode", ("lukasiewicz", "godel", "ordinal"))
@pytest.mark.parametrize("n", range(1, 5))
def test_weights_on_a_twin_base_without_the_grid(mode, n):
    """Weights on an equal-hom base without X's grid pass the base check, and their
    values may lie off the grid: kz_check runs them on the kernel, with the same report."""
    rng = random.Random(300 * n + MODES.index(mode))
    X = category(rng, n, mode)
    twin = without_grid(X)
    ws = weights(rng, X, 4)
    strays = weights(rng, twin, 3) + [ps.Weight(twin, w.values) for w in ws[:2]]
    for tests in (strays, ws + strays):
        assert laws.kz_check(X, ws, tests) == yoneda_report(ws, tests)
        assert laws.kz_check(X, tests, ws) == yoneda_report(tests, ws)
    for phi in strays:
        for gamma in ws:
            assert laws.kz_defect(phi, gamma) == yoneda_defect(phi, gamma)
            assert laws.kz_defect(gamma, phi) == yoneda_defect(gamma, phi)


# --- the Cauchy verdict of the index kernel ----------------------------------
# kz_check against the pair-by-pair oracle, with forced violations, on these
# grids for n = 0..4 is in test_distinct_draws.py.

INDEX_GRIDS = {
    "luka3": vals.unit_grid(3, tn.lukasiewicz),
    "godel4": vals.unit_grid(4, tn.godel),
    "ordinal": ORDINAL_GRID,
}


@pytest.mark.parametrize("name", sorted(INDEX_GRIDS))
@pytest.mark.parametrize("n", range(4))
def test_the_kernel_cauchy_verdict_is_is_cauchy(name, n):
    """(phi, phi) is an equality of the index kernel exactly when is_cauchy accepts phi."""
    rng = random.Random(500 + n)
    for _ in range(3):
        X = gen.random_category(rng, n, INDEX_GRIDS[name])
        ws = ps.enumerate_weights(X)
        read, bound, verdict = laws._kz_operands(X, ws)
        cauchy = [is_cauchy(w) is not None for w in ws]
        assert [verdict(v, v, bound(v))[1] for v in map(read, ws)] == cauchy
        # Yoneda weights are Cauchy and 0 is not; on an empty carrier the one weight pairs to 0
        assert set(cauchy) == ({True, False} if n else {False})
        assert laws.kz_equality_consistent_with_cauchy(X) == oracles.kz_equality_consistent_with_cauchy(X)


def counting(monkeypatch):
    """A one-entry list that counts every tn.conj and tn.imp call from here on."""
    calls = [0]

    def counted(f):
        def wrapper(*args):
            calls[0] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(tn, "conj", counted(tn.conj))
    monkeypatch.setattr(tn, "imp", counted(tn.imp))
    return calls


def test_kz_check_scalar_operation_count(monkeypatch):
    """On the kernel (the same hom without its grid), one Isbell bound per test weight:
    at most W * 2n^2 + W^2 * 2n scalar calls.  On the grid, none: the check reads the
    conj/imp tables and gives the same report."""
    n, W = 4, 8
    rng = random.Random(7)
    X = category(rng, n, "lukasiewicz")
    ws = [gen.random_weight(rng, X) for _ in range(W)]
    bare = without_grid(X)
    bare_ws = [ps.Weight(bare, w.values) for w in ws]
    calls = counting(monkeypatch)
    rep = laws.kz_check(X, ws, ws)
    assert calls[0] == 0
    assert rep["total"] == W * W and rep["violations"] == []
    assert laws.kz_check(bare, bare_ws, bare_ws) == rep
    assert 0 < calls[0] <= W * 2 * n * n + W * W * 2 * n


def test_equality_vs_cauchy_reads_the_tables_for_the_pairs(monkeypatch):
    """kz_equality_consistent_with_cauchy makes no scalar call: the pairs and the Cauchy
    verdict both read the grid's tables."""
    X = category(random.Random(11), 2, "lukasiewicz")
    calls = counting(monkeypatch)
    laws.kz_equality_consistent_with_cauchy(X)
    assert calls[0] == 0


def test_empty_carrier():
    X = cat.EnrichedCategory(tn.lukasiewicz, ())
    phi = ps.Weight(X, ())
    assert laws.kz_defect(phi, phi) == (tn.ZERO, tn.ONE)
    assert laws.kz_check(X, [phi], [phi]) == {"total": 1, "equalities": 0, "violations": []}


def test_float_isbell_bounds_of_a_category_valid_within_tolerance():
    """hom(0, 2) sits 0.9e-12 below hom(1, 2) (*) hom(0, 1): `validate` passes,
    but the residual y / x doubles that slack, so the upper-bound coweight of
    gamma breaks the coweight law by more than TOL.  The Isbell bounds are
    lawful by the Isbell adjunction and come back unchecked; the public
    constructor still checks."""
    X = cat.EnrichedCategory(tn.product, ((1.0, 0.4, 0.2 - 0.9e-12), (0.0, 1.0, 0.5), (0.0, 0.0, 1.0)))
    assert cat.validate(X).ok
    gamma = ps.Weight(X, (0.5, 0.0, 0.0))
    ub = ps.isbell_ub(gamma)
    assert ub.values == tuple(min(tn.imp(X.tnorm, gamma(x), X.hom[x][y]) for x in range(3)) for y in range(3))
    with pytest.raises(AxiomError):
        ps.Coweight(X, ub.values)
    lb = ps.isbell_lb(ub)
    assert lb.values == tuple(min(tn.imp(X.tnorm, ub(y), X.hom[x][y]) for y in range(3)) for x in range(3))
    assert laws.kz_check(X, [gamma], [gamma]) == yoneda_report([gamma], [gamma])
