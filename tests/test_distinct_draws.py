"""Law suites evaluate each distinct draw once, with unchanged reports.

`laws.kz_check` takes weights on X alone, groups them by values and evaluates
each distinct (phi, gamma) pair once; here it is compared with the pair-by-pair
loop through `laws.kz_defect` in `tests/oracles.py` on weight lists with
repeats, with violations forced on chosen pairs through the pair verdict of
`laws._kz_operands`.  The `recat laws` suites skip repeated draws; a stdout
digest pins their reports, and a counted run pins the saving.  The `kan` and
`kz` suites run on grid indices, and their reports are compared with the same
checks on `Weight`s through the checked kernel, kept in `tests/oracles.py`.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction as F

import pytest

import recat.cat as cat
import recat.cli as cli
import recat.gen as gen
import recat.laws as laws
import recat.presheaf as ps
import recat.tnorm as tn
import recat.values as vals
from recat import fixtures
from recat.errors import CarrierMismatchError, RecatError
from recat.poset import closure

import oracles

GRIDS = {
    "luka3": vals.unit_grid(3, tn.lukasiewicz),
    "godel2": vals.unit_grid(2, tn.godel),
    "godel4": vals.unit_grid(4, tn.godel),
    "upper_block": vals.grid_validate([0, F(1, 2), F(3, 4), 1], fixtures.upper_block_sum()),
}


def draws(rng, X, pool, count):
    """`count` weights drawn with replacement from `pool` random weights of X, some of
    them fresh Weight objects with a drawn weight's values."""
    weights = [gen.random_weight(rng, X) for _ in range(pool)]
    out = []
    for _ in range(count):
        w = rng.choice(weights)
        out.append(ps.Weight(X, w.values) if rng.random() < 0.3 else w)
    return out


def patch_verdicts(monkeypatch, wrap):
    """Send each pair verdict of `laws.kz_check` through wrap(phi values, gamma values, verdict),
    where verdict() is the library's own; each read weight carries its values along."""
    real = laws._kz_operands

    def operands(X, weights):
        read, bound, verdict = real(X, weights)
        return (
            lambda w: (w.values, read(w)),
            lambda gamma: bound(gamma[1]),
            lambda phi, gamma, ub: wrap(phi[0], gamma[0], lambda: verdict(phi[1], gamma[1], ub)),
        )

    monkeypatch.setattr(laws, "_kz_operands", operands)


def force_violations(monkeypatch, rng, pairs, share):
    """Make `laws.kz_check` find a violation at the least of the given value pairs and at a
    random share of the others; return the chosen pairs and the oracle's defect with the
    same pairs turned into violations, (1, 0)."""
    chosen = {p for i, p in enumerate(sorted(pairs)) if i == 0 or rng.random() < share}
    patch_verdicts(monkeypatch, lambda a, b, verdict: (False, False) if (a, b) in chosen else verdict())

    def defect(phi, gamma):
        return (tn.ONE, tn.ZERO) if (phi.values, gamma.values) in chosen else laws.kz_defect(phi, gamma)

    return chosen, defect


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("n", range(5))
def test_kz_check_matches_the_pair_by_pair_loop(name, n):
    rng = random.Random(n)
    for _ in range(4):
        X = gen.random_category(rng, n, GRIDS[name])
        ws = draws(rng, X, 3, rng.randint(0, 9))
        tests = draws(rng, X, 3, rng.randint(0, 9))
        # an equal base under another object is its own group, with the same verdicts
        twin = cat.EnrichedCategory(X.tnorm, X.hom, X.names, X.grid)
        tests += [ps.Weight(twin, w.values) for w in tests[:2]]
        rep = laws.kz_check(X, ws, tests)
        assert rep == oracles.kz_check(X, ws, tests)
        assert rep["total"] == len(ws) * len(tests)


@pytest.mark.parametrize("n", range(5))
def test_kz_check_matches_the_pair_by_pair_loop_in_float_mode(n):
    rng = random.Random(200 + n)
    hom = [[1.0 if i == j else round(rng.random(), 3) for j in range(n)] for i in range(n)]
    X = cat.EnrichedCategory(tn.product, closure(hom, lambda a, b: tn.conj(tn.product, a, b)))
    pool = [ps.weight_closure(X, [round(rng.random(), 3) for _ in range(n)]) for _ in range(3)]
    ws = [rng.choice(pool) for _ in range(8)]
    tests = ws[::3] + [ps.yoneda(X, a) for a in range(n)]
    assert laws.kz_check(X, ws, tests) == oracles.kz_check(X, ws, tests)


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("n", range(5))
def test_forced_violations_keep_their_multiplicity_and_order(monkeypatch, name, n):
    rng = random.Random(100 + n)
    X = gen.random_category(rng, n, GRIDS[name])
    ws = draws(rng, X, 4, 10)
    chosen, defect = force_violations(monkeypatch, rng, {(a.values, b.values) for a in ws for b in ws}, 0.4)
    rep = laws.kz_check(X, ws, ws)
    assert rep == oracles.kz_check(X, ws, ws, defect)
    expected = [(a.values, b.values) for a in ws for b in ws if (a.values, b.values) in chosen]
    assert rep["violations"] == expected and expected


def test_each_distinct_pair_is_evaluated_once(monkeypatch):
    rng = random.Random(3)
    X = gen.random_category(rng, 3, GRIDS["luka3"])
    ws = draws(rng, X, 3, 12)
    calls = []

    def counted(a, b, verdict):
        calls.append((a, b))
        return verdict()

    patch_verdicts(monkeypatch, counted)
    laws.kz_check(X, ws, ws)
    assert len(calls) == len(set(calls)) == len({w.values for w in ws}) ** 2


@pytest.mark.parametrize("side", ["weights", "test_weights"])
def test_a_weight_on_another_base_raises(side):
    rng = random.Random(9)
    X = gen.random_category(rng, 2, GRIDS["godel2"])
    Y = cat.EnrichedCategory(X.tnorm, ((tn.ONE, tn.ZERO), (tn.ZERO, tn.ONE)), (), X.grid)
    ws = draws(rng, X, 2, 5)
    # the discrete Y takes every vector; equal values must not hide the other base
    stray = ws[:2] + [ps.Weight(Y, ws[0].values)] + ws[2:]
    args = (stray, ws) if side == "weights" else (ws, stray)
    for check in (laws.kz_check, oracles.kz_check):
        with pytest.raises(CarrierMismatchError):
            check(X, *args)


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


LAW_SETUPS = (
    ("--tnorm", "lukasiewicz", "--grid", "{0,1/3,2/3,1}"),
    ("--tnorm", "lukasiewicz"),
    ("--tnorm", "godel"),
    ("--tnorm", "godel", "--grid", "{0,1/4,1/2,3/4,1}"),
    ("--tnorm", "ordinal[(1/2,1,lukasiewicz)]", "--grid", "{0,1/2,3/4,1}"),
)


def test_suite_stdout_and_exit_codes_are_pinned():
    # the digest was taken before the suites skipped repeated draws
    h = hashlib.sha256()
    for suite in ("kz", "kan", "filters", "module"):
        for setup in LAW_SETUPS:
            for seed in range(6):
                argv = ["laws", suite, *setup, "--seed", str(seed)]
                code, out = run(argv)
                h.update(json.dumps([argv, code, out]).encode())
    assert h.hexdigest() == "9d2c0607d6e7f864f1848a3970a37e224675f495fd82833db02827a5e5f3c1f8"


@pytest.mark.parametrize("setup", LAW_SETUPS, ids=lambda setup: " ".join(setup[1::2]))
def test_laws_kan_matches_the_check_on_weights(monkeypatch, setup):
    def kan_entry(seed):
        code, out = run(["laws", "kan", *setup, "--seed", str(seed)])
        (entry,) = json.loads(out)["checks"]
        assert entry["name"] == "kan_adjunction" and code == (0 if entry["pass"] else 1)
        return entry

    on_indices = [kan_entry(seed) for seed in range(20)]
    monkeypatch.setitem(cli.SUITES, "kan", oracles.suite_kan)
    assert on_indices == [kan_entry(seed) for seed in range(20)]


def force_diagonal_violations(monkeypatch):
    """Make both kz suites find a violation at each pair (phi, phi) with a value below 1:
    the index suite through the verdict of `cli._kz_on_grid`, the oracle suite through
    the defect of its pair-by-pair loop."""
    real_kernel, real_check = cli._kz_on_grid, oracles.kz_check

    def kernel(grid, at):
        bound, verdict = real_kernel(grid, at)
        top = len(grid.points) - 1

        def forced(phi, gamma, ub):
            return (False, False) if phi == gamma and min(phi) < top else verdict(phi, gamma, ub)

        return bound, forced

    def check(X, ws, tests, defect):
        def forced(phi, gamma):
            if phi.values == gamma.values and min(phi.values) < tn.ONE:
                return tn.ONE, tn.ZERO
            return defect(phi, gamma)

        return real_check(X, ws, tests, forced)

    monkeypatch.setattr(cli, "_kz_on_grid", kernel)
    monkeypatch.setattr(oracles, "kz_check", check)


@pytest.mark.parametrize("forced", [False, True], ids=["as_drawn", "forced"])
@pytest.mark.parametrize("setup", LAW_SETUPS, ids=lambda setup: " ".join(setup[1::2]))
def test_laws_kz_matches_the_suite_on_weights(monkeypatch, setup, forced):
    # the index suite against the suite on checked Weights, the pair-by-pair loop and is_cauchy;
    # a forced violation stops the draws early, so the later checks see another rng state
    if forced:
        force_diagonal_violations(monkeypatch)

    def kz_run(seed):
        code, out = run(["laws", "kz", *setup, "--seed", str(seed)])
        report = json.loads(out)
        entry = report["checks"][0]
        assert entry["name"] == "kz_inequality" and code == (0 if report["pass"] else 1)
        assert entry["pass"] is not forced
        return code, report

    on_indices = [kz_run(seed) for seed in range(20)]
    monkeypatch.setitem(cli.SUITES, "kz", oracles.suite_kz)
    assert on_indices == [kz_run(seed) for seed in range(20)]


def test_laws_kz_makes_fewer_scalar_calls(monkeypatch):
    # evaluating every drawn pair made 6,598 tn.conj and tn.imp calls here; on grid
    # indices end to end, the suite makes none
    calls = [0]

    def counted(f):
        def wrapper(*args):
            calls[0] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(tn, "conj", counted(tn.conj))
    monkeypatch.setattr(tn, "imp", counted(tn.imp))
    code, out = run(["laws", "kz", "--tnorm", "godel", "--seed", "0"])
    assert code == 0 and json.loads(out)["pass"]
    assert calls[0] == 0


def test_random_module_builds_its_lattice_catalog_once_per_size(monkeypatch):
    built = []
    real = gen.lattice_catalog

    def recording(max_n=5):
        built.append(max_n)
        return real(max_n)

    monkeypatch.setattr(gen, "lattice_catalog", recording)
    gen._catalog_lattices.cache_clear()
    rng = random.Random(0)
    for _ in range(60):
        for size in (4, 5):
            gen.random_module(rng, tn.lukasiewicz, max_size=size)
    gen._catalog_lattices.cache_clear()
    assert sorted(built) == [4, 5]
    assert gen._catalog_lattices(5) == tuple(P for P in real(5) if P.is_lattice())


# --- the kan suite's functor draw on grid indices ---------------------------

FUNCTOR_GRIDS = ("luka3", "godel2", "upper_block")


def _on_points(grid, at):
    return cat.EnrichedCategory(grid.tnorm, tuple(tuple(grid.points[i] for i in row) for row in at), (), grid)


def _falls_back(seed, X_at, Y_at):
    """Whether the functor search's 64 tries from Random(seed) all fail, so its constant map is drawn."""
    rng, n, m = random.Random(seed), len(X_at), len(Y_at)
    tries = (tuple(rng.randrange(m) for _ in range(n)) for _ in range(64))
    return not any(all(X_at[x][y] <= Y_at[f[x]][f[y]] for x in range(n) for y in range(n)) for f in tries)


@pytest.mark.parametrize("name", FUNCTOR_GRIDS)
@pytest.mark.parametrize("seed", range(4))
def test_functor_at_is_random_functor_on_indices(name, seed):
    # the same mapping and the same RNG state afterwards as the search on the categories' points
    grid = GRIDS[name]
    cats = random.Random(seed)
    for n in range(1, 5):
        for m in range(1, 5):
            X_at, Y_at = gen._category_at(cats, n, grid), gen._category_at(cats, m, grid)
            new, old = random.Random(100 * seed + 10 * n + m), random.Random(100 * seed + 10 * n + m)
            f = gen._functor_at(new, X_at, Y_at)
            assert f == oracles.random_functor(old, _on_points(grid, X_at), _on_points(grid, Y_at)).mapping
            assert new.getstate() == old.getstate()


@pytest.mark.parametrize("name", FUNCTOR_GRIDS)
def test_functor_at_falls_back_to_a_constant_map_as_random_functor_does(name):
    # an indiscrete X on four points into a discrete Y on four: only a constant map is a
    # functor, and 64 tries miss all four constants for some of these seeds
    grid = GRIDS[name]
    top = len(grid.points) - 1
    X_at = [[top] * 4 for _ in range(4)]
    Y_at = [[top if a == b else 0 for b in range(4)] for a in range(4)]
    fallbacks = [seed for seed in range(12) if _falls_back(seed, X_at, Y_at)]
    assert fallbacks and len(fallbacks) < 12  # both branches are drawn
    for seed in range(12):
        new, old = random.Random(seed), random.Random(seed)
        f = gen._functor_at(new, X_at, Y_at)
        assert f == oracles.random_functor(old, _on_points(grid, X_at), _on_points(grid, Y_at)).mapping
        assert new.getstate() == old.getstate() and len(set(f)) == 1


def test_functor_at_from_a_non_empty_category_to_an_empty_one_raises():
    with pytest.raises(RecatError, match="non-empty category to an empty one"):
        gen._functor_at(random.Random(0), [[1]], [])
    assert gen._functor_at(random.Random(0), [], []) == ()


@pytest.mark.parametrize("setup", LAW_SETUPS, ids=lambda setup: " ".join(setup[1::2]))
def test_laws_kan_builds_no_category_or_functor(monkeypatch, setup):
    built = []
    for cls in (cat.EnrichedCategory, cat.EnrichedFunctor):
        real = cls.__post_init__

        def counted(self, real=real):
            built.append(type(self).__name__)
            real(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    code, out = run(["laws", "kan", *setup, "--seed", "0"])
    assert code == 0 and json.loads(out)["pass"]
    assert built == []
    # the same suite on checked Weights builds two categories and a functor per draw
    monkeypatch.setitem(cli.SUITES, "kan", oracles.suite_kan)
    run(["laws", "kan", *setup, "--seed", "0"])
    assert built.count("EnrichedCategory") >= 50 and built.count("EnrichedFunctor") == 25
