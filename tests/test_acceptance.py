"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred to later
calibration.
"""

import random
import time
from fractions import Fraction as F
from itertools import permutations, product as iproduct

import recat.balls as balls
import recat.cat as cat
import recat.classify as cl
import recat.cli as cli
import recat.laws as laws
import recat.poset as ps
import recat.presheaf as psh
import recat.tnorm as tn
import recat.values as vals
from recat import fixtures, gen
from oracles import cd_law_identity_check

_T0 = time.time()

SEED = 20240901
FLOAT_TOL = 1e-12
GEN_TOL = 1e-9

FLOAT_TNORMS = (
    tn.product,
    tn.ordinal_sum((F(1, 4), F(1, 2), tn.PRODUCT)),
    tn.ordinal_sum((F(1, 4), F(1, 2), tn.LUKASIEWICZ)),
)


def _exact_grids():
    return [
        (tn.lukasiewicz, vals.unit_grid(6, tn.lukasiewicz)),
        (tn.godel, vals.grid_validate([0, F(1, 4), F(1, 2), F(3, 4), 1], tn.godel)),
    ]


def _ok(k, msg):
    print(f"PASS criterion {k}: {msg}", flush=True)


def test_criterion_01_tnorm_laws():
    start = time.time()
    for t, grid in _exact_grids():
        pts = grid.points
        for x in pts:
            assert tn.conj(t, x, F(1)) == x
            for y in pts:
                assert tn.conj(t, x, y) == tn.conj(t, y, x)
                for z in pts:
                    assert tn.conj(t, tn.conj(t, x, y), z) == tn.conj(t, x, tn.conj(t, y, z))
                    if y <= z:
                        assert tn.conj(t, x, y) <= tn.conj(t, x, z)
                    assert (tn.conj(t, x, y) <= z) == (y <= tn.imp(t, x, z))
    rng = random.Random(SEED)
    for t in FLOAT_TNORMS:
        for _ in range(10**4 // len(FLOAT_TNORMS) + 1):
            x, y, z = rng.random(), rng.random(), rng.random()
            assert abs(tn.conj(t, x, y) - tn.conj(t, y, x)) <= FLOAT_TOL
            assert abs(tn.conj(t, tn.conj(t, x, y), z) - tn.conj(t, x, tn.conj(t, y, z))) <= FLOAT_TOL
            assert tn.conj(t, x, 1.0) - x <= FLOAT_TOL
            lo, hi = sorted((y, z))
            assert tn.conj(t, x, lo) <= tn.conj(t, x, hi) + FLOAT_TOL
            if y <= tn.imp(t, x, z) - FLOAT_TOL:
                assert tn.conj(t, x, y) <= z + FLOAT_TOL
            if tn.conj(t, x, y) <= z - FLOAT_TOL:
                assert y <= tn.imp(t, x, z) + FLOAT_TOL
    elapsed = time.time() - start
    assert elapsed < 5.0
    _ok(1, f"t-norm laws exact on grids and <=1e-12 on 1e4 float triples ({elapsed:.2f}s)")


def test_criterion_02_divisibility():
    for t, grid in _exact_grids():
        for x in grid.points:
            for y in grid.points:
                assert tn.conj(t, x, tn.imp(t, x, y)) == min(x, y)
    rng = random.Random(SEED + 2)
    for t in FLOAT_TNORMS:
        for _ in range(10**4 // len(FLOAT_TNORMS) + 1):
            x, y = rng.random(), rng.random()
            assert abs(tn.conj(t, x, tn.imp(t, x, y)) - min(x, y)) <= FLOAT_TOL
    _ok(2, "divisibility exact on grids and <=1e-12 on 1e4 float pairs")


def test_criterion_03_generator_reconstruction():
    rng = random.Random(SEED + 3)
    worst = 0.0
    for t in (tn.product, tn.lukasiewicz):
        for _ in range(10**4):
            x, y = rng.random(), rng.random()
            u = tn.generator_eval(t, x) + tn.generator_eval(t, y)
            worst = max(worst, abs(tn.pseudo_inverse(t, u) - tn.conj(t, x, y)))
    assert worst <= GEN_TOL
    _ok(3, f"generator reconstruction within 1e-9 on 1e4 pairs (worst {worst:.2e})")


def test_criterion_04_ordinal_sum_imp_and_continuity():
    t = fixtures.interior_block_sum()
    grid = vals.grid_validate([F(k, 100) for k in range(101)], t)
    pts = grid.points
    conj_row = {x: [tn.conj(t, x, z) for z in pts] for x in pts}
    for x in pts:
        row = conj_row[x]
        for y in pts:
            brute = max(z for z, v in zip(pts, row) if v <= y)
            assert tn.imp(t, x, y) == brute
    verdicts = (
        tn.continuous_off_diagonal(tn.godel),
        tn.continuous_off_diagonal(tn.product),
        tn.continuous_off_diagonal(tn.lukasiewicz),
        tn.continuous_off_diagonal(t),
    )
    assert verdicts == (True, True, True, False)
    _ok(4, "ordinal-sum implication matches the brute-force residual on the 1/100 grid")


def test_criterion_05_yoneda_exactness():
    rng = random.Random(SEED + 5)
    grid = vals.unit_grid(6, tn.lukasiewicz)
    violations = 0
    for _ in range(100):
        X = gen.random_category(rng, rng.randint(1, 6), grid)
        yon = [psh.yoneda(X, a) for a in range(X.n)]
        for _ in range(10**3):
            phi = gen.random_weight(rng, X)
            for a in range(X.n):
                if psh.sub(yon[a], phi) != phi(a):
                    violations += 1
    assert violations == 0
    _ok(5, "Yoneda exactness with zero violations, 1e3 sampled weights per category")


def test_criterion_06_kan_adjunction_and_retraction():
    rng = random.Random(SEED + 6)
    grid = vals.unit_grid(6, tn.lukasiewicz)
    violations = 0
    for _ in range(50):
        Y = gen.random_category(rng, rng.randint(2, 5), grid)
        X = gen.random_category(rng, rng.randint(1, 4), grid)
        f = gen.random_functor(rng, X, Y)
        for _ in range(20):
            phi = gen.random_weight(rng, X)
            gamma = gen.random_weight(rng, Y)
            if psh.sub(psh.f_exists(f, phi), gamma) != psh.sub(phi, psh.f_inv(f, gamma)):
                violations += 1
        subset = sorted(rng.sample(range(Y.n), rng.randint(1, Y.n)))
        sub_c, incl = gen.full_subcategory(Y, subset)
        for _ in range(5):
            phi = gen.random_weight(rng, sub_c)
            if psh.f_inv(incl, psh.f_exists(incl, phi)).values != phi.values:
                violations += 1
    assert violations == 0
    _ok(6, "Kan adjunction and fully-faithful retraction, zero violations over 50 functors")


def test_criterion_07_isbell_adjunction():
    rng = random.Random(SEED + 7)
    grid = vals.unit_grid(6, tn.lukasiewicz)
    for _ in range(10**3):
        X = gen.random_category(rng, rng.randint(1, 4), grid)
        phi = gen.random_weight(rng, X)
        psi = gen.random_coweight(rng, X)
        assert psh.sub(phi, psh.isbell_lb(psi)) == psh.cosub(psh.isbell_ub(phi), psi)
    _ok(7, "Isbell adjunction equality on 1e3 random weight/coweight pairs")


def test_criterion_08_finite_collapse_oracle():
    start = time.time()
    rng = random.Random(SEED + 8)
    luka = vals.unit_grid(4, tn.lukasiewicz)
    godel = vals.grid_validate([0, F(1, 4), F(1, 2), F(3, 4), 1], tn.godel)
    for trial in range(200):
        grid = luka if trial % 2 == 0 else godel
        X = gen.random_category(rng, rng.randint(1, 4), grid)
        for phi in psh.enumerate_weights(X):
            ideal = cl.is_ideal(phi)[0]
            assert ideal == (cl.is_representable(phi) is not None)
            if cl.is_cauchy(phi) is not None:
                assert ideal
        C, _ = cl.cauchy_completion(X)
        Q, _ = cat.separated_quotient(X)
        assert cat.categories_isomorphic(C, Q)
        assert cl.is_smyth_complete(X) == cat.is_separated(X)
    elapsed = time.time() - start
    assert elapsed < 60.0
    _ok(8, f"finite-collapse oracle on 200 random categories ({elapsed:.1f}s)")


def _all_small_categories(grid, n):
    """All categories on n labeled points over the grid, up to relabeling."""
    pts = grid.points
    t = grid.tnorm
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    seen = set()
    out = []
    for combo in iproduct(pts, repeat=len(off)):
        hom = [[F(1)] * n for _ in range(n)]
        for (i, j), v in zip(off, combo):
            hom[i][j] = v
        ok = True
        for y in range(n):
            for z in range(n):
                for x in range(n):
                    if tn.conj(t, hom[y][z], hom[x][y]) > hom[x][z]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        canon = min(
            tuple(tuple(hom[p[i]][p[j]] for j in range(n)) for i in range(n))
            for p in permutations(range(n))
        )
        if canon in seen:
            continue
        seen.add(canon)
        out.append(cat.EnrichedCategory(t, canon, (), grid))
    return out


def test_criterion_09_archimedean_coincidence_and_godel_divergence():
    grid = vals.unit_grid(3, tn.lukasiewicz)
    for n in (1, 2, 3):
        for X in _all_small_categories(grid, n):
            for phi in psh.enumerate_weights(X):
                ideal = cl.is_ideal(phi)[0]
                conically = cl.is_conically_flat(phi)[0]
                flat = cl.is_flat(phi)[0]
                assert ideal == conically == flat
    rep = cl.classify(fixtures.g5_weight())
    assert rep.flags["conically_flat"] and not rep.flags["ideal"] and not rep.flags["flat"]
    _ok(9, "ideal/flat/conically-flat coincide on all Lukasiewicz 1/3 categories with n<=3")


def test_criterion_10_cd_brute_force():
    for L in ps.lattice_catalog(5):
        assert cd_law_identity_check(L) == ps.is_completely_distributive(L)
        assert ps.is_completely_distributive(L) == ps.is_completely_distributive(L.opposite())
    assert not ps.is_completely_distributive(ps.m3())
    for n in range(1, 6):
        assert ps.is_completely_distributive(ps.chain(n))
    assert ps.is_completely_distributive(ps.boolean_lattice())
    _ok(10, "CD law identity matches sup-of-totally-below on every lattice with <=5 elements")


def test_criterion_11_formal_balls():
    grid = vals.unit_grid(3, tn.lukasiewicz)
    fixture_cats = [fixtures.a2(), fixtures.d2(), fixtures.g5()]
    for X in fixture_cats:
        bs = [(x, r) for x in range(X.n) for r in X.grid.points]
        for a in bs:
            assert balls.ball_leq(X, a, a)
        for a in bs:
            for b in bs:
                for c in bs:
                    if balls.ball_leq(X, a, b) and balls.ball_leq(X, b, c):
                        assert balls.ball_leq(X, a, c)
        w = balls.way_below_distributor(X)
        assert cat.rel_eq(w, cat.hom_rel(X))
        assert balls.interpolation_check(X)
    rng = random.Random(SEED + 11)
    checked = 0
    while checked < 10**3:
        X = gen.random_category(rng, 3, grid)
        fam = gen.random_directed_balls(rng, X, length=3)
        if not balls.directed_check(X, fam):
            continue
        checked += 1
        j = balls.directed_join(X, fam)
        assert j is not None
        cands = [(z, s) for z in range(X.n) for s in balls.radius_candidates(X, fam)]
        ubs = [c for c in cands if all(balls.ball_leq(X, b, c) for b in fam)]
        assert all(balls.ball_leq(X, b, j) for b in fam)
        assert all(balls.ball_leq(X, j, u) for u in ubs)
        center = rng.randrange(X.n)
        radii = sorted(rng.choice(list(grid.points)) for _ in range(3))
        const = [(center, r) for r in radii]
        jj = balls.directed_join(X, const)
        assert balls.ball_equiv(X, jj, (center, max(radii)))
    _ok(11, "ball order laws, brute-force joins on 1e3 directed families, w = hom")


def test_criterion_12_kz_inequality_and_equality_set():
    rng = random.Random(SEED + 12)
    grid = vals.unit_grid(6, tn.lukasiewicz)
    total = 0
    while total < 10**4:
        X = gen.random_category(rng, rng.randint(1, 4), grid)
        ws = [gen.random_weight(rng, X) for _ in range(10)]
        rep = laws.kz_check(X, ws, ws)
        assert rep["violations"] == []
        total += rep["total"]
    small = vals.unit_grid(3, tn.lukasiewicz)
    for _ in range(15):
        X = gen.random_category(rng, rng.randint(1, 3), small)
        assert laws.kz_equality_consistent_with_cauchy(X)
    _ok(12, "KZ inequality with zero violations over 1e4 samples; equality set = Cauchy set")


def test_criterion_13_negation_involution():
    for n in range(2, 9):
        ok, _ = laws.negation_duality_check(vals.unit_grid(n, tn.lukasiewicz))
        assert ok
    godel_grid = vals.grid_validate([0, F(1, 2), 1], tn.godel)
    ok, wit = laws.negation_duality_check(godel_grid)
    assert not ok and wit == F(1, 2)
    okf, witf = laws.negation_duality_check_float(tn.product)
    assert not okf and witf is not None
    _ok(13, "negation involution on Lukasiewicz grids 1/2..1/8; Godel and product witnesses")


def test_criterion_14_modules_and_conical_filters():
    rng = random.Random(SEED + 14)
    for k in range(50):
        t = tn.lukasiewicz if k % 2 == 0 else tn.godel
        M = gen.random_module(rng, t, max_size=5)
        assert M.lattice.n <= 5
        back = laws.category_to_module(laws.module_to_category(M))
        assert laws.modules_isomorphic(M, back)
    for t, grid in (
        (tn.lukasiewicz, vals.unit_grid(3, tn.lukasiewicz)),
        (tn.godel, vals.grid_validate([0, F(1, 2), 1], tn.godel)),
    ):
        pts = list(grid.points)
        for _ in range(10):
            g1 = tuple(rng.choice(pts) for _ in range(2))
            g2 = tuple(min(v, rng.choice(pts)) for v in g1)
            Fg = laws.ConicalFilter(grid, 2, (g1, g2))
            assert laws.conical_filter_check(Fg)["pass"]
        assert laws.find_cf4_cotensor_witness(grid) is None
    wit = laws.find_cf4_cotensor_witness(fixtures.upper_block_grid())
    assert wit is not None
    _ok(14, "module round trips, conical filter axioms, CF4 escape under the interior block")


def test_criterion_15_reproducibility_and_budget(tmp_path, capsys):
    argv = ["laws", "kz", "--tnorm", "lukasiewicz", "--grid", "{0,1/3,2/3,1}", "--seed", "77"]
    assert cli.main(list(argv)) == 0
    out1 = capsys.readouterr().out
    assert cli.main(list(argv)) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2 and '"seed": 77' in out1
    elapsed = time.time() - _T0
    assert elapsed < 300.0
    _ok(15, f"seeded runs byte-identical; acceptance wall clock {elapsed:.1f}s < 300s")
