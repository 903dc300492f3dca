"""`tnorm.evaluators` and the loops that bind it.

A loop over checked scalars takes its (*) and -> from `tn.evaluators(t, mode)`
once.  In float mode the pair is the t-norm's compiled `float_conj`/`float_imp`,
equal to `tn.conj`/`tn.imp` bit for bit on floats in [0,1]; in exact mode it is
`tn.conj`/`tn.imp` bound to t, looked up when the pair is built.  So float
`classify` and the float law samples make no call through the checked entry,
while exact loops still do, and a wrapper put on the tnorm module counts them;
a loop that reads a grid's tables instead, as a gridded `sub` does, makes none.

An Archimedean t-norm also carries its float additive generator pair,
`float_generator`/`float_pseudo_inverse`, handed out by `tn.generators(t)`:
`generator_eval`/`pseudo_inverse` check a float and then call it, and the
generator samples of `recat laws tnorm` call it with no check per sample.  The
suite's two sampled loops are compared with the same loops through the checked
entry points in `tests/oracles.py`, on sound and on broken t-norms.

Float `classify` reads a representable weight as the Yoneda weight it equals:
on the seeded near-Yoneda family below, 809 weights a few ulps off a column
were reported representable but neither Cauchy nor flat before.
"""

import contextlib
import io
import json
import math
import pickle
import random
from fractions import Fraction as F

import pytest

import oracles
import recat.balls as balls
import recat.cat as cat
import recat.classify as cl
import recat.cli as cli
import recat.presheaf as ps
import recat.tnorm as tn
import recat.values as vals
from recat import fixtures
from recat.errors import ExactModeError, ModeMismatchError, NotArchimedeanError, RecatError
from test_float_fast_path import TNORMS, bits, operands
from test_symmetric_scan import _float_category


@pytest.mark.parametrize("name", sorted(TNORMS))
def test_the_float_pair_is_the_checked_entry_bit_for_bit(name):
    t = TNORMS[name]
    conj, imp = tn.evaluators(t, "float")
    assert (conj, imp) == (t.float_conj, t.float_imp)
    for x, y in operands(t):
        for fast, checked in ((conj, tn.conj), (imp, tn.imp)):
            got = fast(x, y)
            assert bits(got) == bits(checked(t, x, y)), (name, x, y)
            assert 0.0 <= got <= 1.0  # a float loop feeds its results back in unchecked


def test_the_exact_pair_is_the_checked_entry():
    for t in (tn.godel, tn.lukasiewicz, tn.ordinal_sum((F(1, 2), 1, tn.LUKASIEWICZ))):
        conj, imp = tn.evaluators(t, "exact")
        pts = [F(k, 4) for k in range(5)]
        for x in pts:
            for y in pts:
                assert conj(x, y) == tn.conj(t, x, y) and imp(x, y) == tn.imp(t, x, y)
    conj, imp = tn.evaluators(tn.product, "exact")
    for f in (conj, imp):
        with pytest.raises(ExactModeError):
            f(F(1, 2), F(1, 3))


def counting(monkeypatch):
    """Counts of the calls through tn.conj and tn.imp from here on."""
    calls = {"conj": 0, "imp": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(tn, "conj", counted("conj", tn.conj))
    monkeypatch.setattr(tn, "imp", counted("imp", tn.imp))
    return calls


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def _files(tmp_path, hom, tnorm, values, grid=None):
    X, w = tmp_path / "x.json", tmp_path / "w.json"
    X.write_text(json.dumps({"tnorm": tnorm, "hom": hom, "grid": grid}))
    w.write_text(json.dumps({"values": values}))
    return [str(X), str(w)]


def test_float_loops_make_no_checked_call(tmp_path, monkeypatch):
    calls = counting(monkeypatch)
    hom = [[1.0, 0.449, 0.847], [0.764, 1.0, 0.764], [0.495, 0.449, 1.0]]
    code, out = run(["classify", *_files(tmp_path, hom, "ordinal[(0,1/2,product)]", [1.0, 0.79, 0.495])])
    assert code == 0 and not out["flags"]["flat"]
    for t in ("product", "ordinal[(1/2,1,product)]", "lukasiewicz"):
        code, out = run(["laws", "tnorm", "--tnorm", t, "--mode", "float", "--seed", "0"])
        assert code == 0 and out["pass"]
    assert calls == {"conj": 0, "imp": 0}


def test_exact_loops_still_call_the_checked_entry(tmp_path, monkeypatch):
    calls = counting(monkeypatch)
    hom = [["1", "1/2"], ["0", "1"]]
    code, out = run(["classify", *_files(tmp_path, hom, "lukasiewicz", ["1/2", "1"], ["0", "1/2", "1"])])
    assert code == 0 and out["flags"]["flat"]
    assert calls["conj"] > 0 and calls["imp"] > 0
    before = dict(calls)
    t = fixtures.upper_block_sum()  # ordinal[(1/2,1,lukasiewicz)]
    X = cat.EnrichedCategory(t, ((1, F(3, 4)), (F(1, 2), 1)))
    phi = ps.yoneda(X, 0)
    assert ps.sub(ps.f_exists(cat.EnrichedFunctor(X, X, (1, 1)), phi), phi) == F(1, 2)
    assert calls["conj"] > before["conj"] and calls["imp"] > before["imp"]
    # with a grid, sub reads the imp table: the Kan extension still calls tn.conj, sub no tn.imp
    before = dict(calls)
    X = cat.EnrichedCategory(t, X.hom, (), vals.grid_validate([0, F(1, 2), F(3, 4), 1], t))
    phi = ps.yoneda(X, 0)
    extended = ps.f_exists(cat.EnrichedFunctor(X, X, (1, 1)), phi)
    assert calls["conj"] > before["conj"]
    before = dict(calls)
    assert ps.sub(extended, phi) == F(1, 2)
    assert calls == before


@pytest.mark.parametrize("setup", [
    ("godel",), ("lukasiewicz", "{0,1/3,2/3,1}"), ("ordinal[(1/2,1,lukasiewicz)]", "{0,1/2,3/4,1}"),
])
def test_laws_kan_makes_no_checked_call(monkeypatch, setup):
    # on Weights through the checked kernel, seed 0 made 609/853, 875/1047 and 826/1035
    # tn.conj/tn.imp calls on these setups; the suite reads the grid's tables instead
    calls = counting(monkeypatch)
    grid = ["--grid", setup[1]] if len(setup) > 1 else []
    code, out = run(["laws", "kan", "--tnorm", setup[0], *grid, "--seed", "0"])
    assert code == 0 and out["pass"]
    assert calls == {"conj": 0, "imp": 0}


FLOAT_TNORMS = ("product", "lukasiewicz", "godel", "ordinal[(0,1/2,product)]", "ordinal[(1/2,1,product)]")


def _near_yoneda(text):
    """Every column of 40 seeded float categories, shifted by +-3e-13 and +-8e-13 within [0, 1]."""
    t = tn.parse_tnorm(text)
    for seed in range(40):
        X = _float_category(random.Random(seed), t, 2 + seed % 3)
        for a in range(X.n):
            for d in (-8e-13, -3e-13, 3e-13, 8e-13):
                yield ps.Weight(X, tuple(min(1.0, max(0.0, row[a] + d)) for row in X.hom))


@pytest.mark.parametrize("text", FLOAT_TNORMS)
def test_near_yoneda_float_weights_keep_the_class_chain(text):
    reports = [cl.classify(phi) for phi in _near_yoneda(text)]
    assert len(reports) == 476  # 119 columns, four shifts
    for rep in reports:
        assert rep.representable is not None and all(rep.flags.values()), rep.to_json()
        assert not rep.exhaustive and rep.witnesses == {}


def test_a_near_representable_godel_weight_prints_every_flag(tmp_path):
    argv = _files(tmp_path, [[1.0, 0.5], [0.3, 1.0]], "godel", [0.5000000000003, 1.0])
    code, out = run(["classify", *argv])
    assert code == 0 and out["representable_element"] == 1
    assert out["flags"] == dict.fromkeys(("cauchy", "conically_flat", "flat", "ideal", "representable"), True)


# The float pair checks nothing, so values of another mode are stopped on entry.
FLOAT_X = cat.EnrichedCategory(tn.product, ((1.0, 0.5), (0.25, 1.0)))
EXACT_X = cat.EnrichedCategory(tn.lukasiewicz, ((F(1), F(1, 2)), (F(0), F(1))))


def test_a_functor_holds_values_of_one_mode():
    with pytest.raises(ModeMismatchError):
        cat.EnrichedFunctor(cat.EnrichedCategory(tn.lukasiewicz, ((F(1),),)), cat.EnrichedCategory(
            tn.lukasiewicz, ((1.0,),)), (0,))
    empty = cat.EnrichedCategory(tn.product, ())
    assert cat.EnrichedFunctor(empty, FLOAT_X, ()).mapping == ()


def test_a_distributor_check_takes_its_relation_in_the_carriers_mode():
    with pytest.raises(RecatError, match="is not float"):
        cat.is_distributor(cat.Rel(2, 2, EXACT_X.hom), FLOAT_X, FLOAT_X)
    with pytest.raises(RecatError, match="shape"):
        cat.is_distributor(cat.Rel(1, 2, (FLOAT_X.hom[0],)), FLOAT_X, FLOAT_X)
    assert cat.is_distributor(cat.hom_rel(FLOAT_X), FLOAT_X, FLOAT_X) is None


@pytest.mark.parametrize("call", [
    lambda: ps.weight_closure(FLOAT_X, (F(1), 0.5)),
    lambda: ps.weight_closure(FLOAT_X, (1.5, 0.5)),
    lambda: ps.weight_closure(EXACT_X, (1.0, F(1, 2))),
    lambda: balls.radius_candidates(FLOAT_X, [(0, F(1, 2))]),
    lambda: balls.ball_poset_dot(FLOAT_X, fixtures.a2().grid),
    lambda: ps.f_exists(cat.EnrichedFunctor(FLOAT_X, FLOAT_X, (0, 1)), ps.Weight(EXACT_X, (F(1), F(1)))),
    lambda: ps.f_forall(cat.EnrichedFunctor(FLOAT_X, FLOAT_X, (0, 1)), ps.Weight(EXACT_X, (F(1), F(1)))),
], ids=["closure_exact_in_float", "closure_out_of_range", "closure_float_in_exact", "radius", "dot_grid",
        "exists_off_source", "forall_off_source"])
def test_values_of_another_mode_are_rejected_on_entry(call):
    with pytest.raises(RecatError):
        call()


# --- the compiled generator pair --------------------------------------------

ARCHIMEDEAN = {
    "product": tn.product,
    "lukasiewicz": tn.lukasiewicz,
    "ordinal_product": tn.parse_tnorm("ordinal[(0,1,product)]"),
}
NOT_ARCHIMEDEAN = {
    "godel": tn.godel,
    "lower_product_block": tn.parse_tnorm("ordinal[(0,1/2,product)]"),
    "upper_lukasiewicz_block": tn.parse_tnorm("ordinal[(1/2,1,lukasiewicz)]"),
    "two_blocks": tn.parse_tnorm("ordinal[(0,1/4,lukasiewicz),(1/2,1,product)]"),
}


def generator_operands():
    """(x for g, u for g^-1): edge values, then 1,000 seeded floats each."""
    rng = random.Random(29)
    xs = [0.0, 5e-324, math.nextafter(1.0, 0.0)] + [rng.random() for _ in range(1000)]
    us = [tn.NEG_INF, -1e-300, 0.0] + [-rng.random() * (1.0 if k % 2 else 40.0) for k in range(1000)]
    return xs, us


@pytest.mark.parametrize("name", sorted(ARCHIMEDEAN))
def test_the_generator_pair_is_the_float_branch_bit_for_bit(name):
    t = ARCHIMEDEAN[name]
    g, g_inv = tn.generators(t)
    assert (g, g_inv) == (t.float_generator, t.float_pseudo_inverse)
    xs, us = generator_operands()
    for x in xs:
        want = bits(oracles.generator_by_base(t, x))
        assert bits(g(x)) == want == bits(tn.generator_eval(t, x)), (name, x)
    for u in us:
        want = bits(oracles.pseudo_inverse_by_base(t, u))
        assert bits(g_inv(u)) == want == bits(tn.pseudo_inverse(t, u)), (name, u)


@pytest.mark.parametrize("name", sorted(NOT_ARCHIMEDEAN))
def test_a_tnorm_that_is_not_archimedean_has_no_generator_pair(name):
    t = NOT_ARCHIMEDEAN[name]
    assert not hasattr(t, "float_generator") and not hasattr(t, "float_pseudo_inverse")
    with pytest.raises(NotArchimedeanError, match="is not Archimedean"):
        tn.generators(t)
    for call in (tn.generator_eval, tn.pseudo_inverse):
        with pytest.raises(NotArchimedeanError):
            call(t, 0.0)


@pytest.mark.parametrize("name", sorted({**ARCHIMEDEAN, **NOT_ARCHIMEDEAN}))
def test_a_tnorm_pickles_with_its_generator_pair(name):
    t = {**ARCHIMEDEAN, **NOT_ARCHIMEDEAN}[name]
    u = pickle.loads(pickle.dumps(t))
    assert u == t and repr(u) == repr(t)
    if name in NOT_ARCHIMEDEAN:
        with pytest.raises(NotArchimedeanError):
            tn.generators(u)
        return
    assert tn.generators(u) == tn.generators(t)  # module-level functions, pickled by name
    xs, us = generator_operands()
    assert [bits(u.float_generator(x)) for x in xs] == [bits(t.float_generator(x)) for x in xs]
    assert [bits(u.float_pseudo_inverse(v)) for v in us] == [bits(t.float_pseudo_inverse(v)) for v in us]


# --- the sampled laws of `recat laws tnorm` ---------------------------------


def patched(t, **fields):
    """A copy of t whose compiled evaluators or generator pair are replaced."""
    u = tn.TNorm(t.kind, t.blocks)
    for name, f in fields.items():
        object.__setattr__(u, name, f)
    return u


BROKEN = {
    "non_commutative_conj": ("laws_float_sampled", patched(
        tn.product, float_conj=lambda x, y: x * y + (1e-10 if x < 0.05 < y else 0.0))),
    "non_associative_conj": ("laws_float_sampled", patched(
        tn.product, float_conj=lambda x, y: x * y + (1e-10 if x + y > 1.8 else 0.0))),
    "nan_imp": ("laws_float_sampled", patched(  # x * nan is nan, so the difference is nan
        tn.product, float_imp=lambda x, y: math.nan if x > 0.9 else tn.product.float_imp(x, y))),
    "wrong_generator_pair": ("generator_reconstruction", patched(
        tn.product, float_pseudo_inverse=tn.lukasiewicz.float_pseudo_inverse)),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
@pytest.mark.parametrize("seed", range(3))
def test_the_law_samples_fail_as_the_checked_loops_do(name, seed):
    # the same checks, the same first witness and the same draws consumed
    failing, t = BROKEN[name]
    new, old = random.Random(seed), random.Random(seed)
    checks = cli._suite_tnorm(t, None, new, None)
    assert checks == oracles.suite_tnorm_samples(t, old)
    assert new.getstate() == old.getstate()
    failed = [c for c in checks if not c["pass"]]
    assert [c["name"] for c in failed] == [failing] and failed[0]["witness"] is not None


@pytest.mark.parametrize("text", FLOAT_TNORMS)
@pytest.mark.parametrize("seed", range(3))
def test_the_law_samples_pass_as_the_checked_loops_do(text, seed):
    t = tn.parse_tnorm(text)
    new, old = random.Random(seed), random.Random(seed)
    checks = cli._suite_tnorm(t, None, new, None)
    assert checks == oracles.suite_tnorm_samples(t, old) and all(c["pass"] for c in checks)
    assert new.getstate() == old.getstate()


def test_laws_tnorm_makes_no_checked_generator_call(monkeypatch):
    calls = []

    def counted(f):
        def wrapper(t, v):
            calls.append(v)
            return f(t, v)

        return wrapper

    monkeypatch.setattr(tn, "generator_eval", counted(tn.generator_eval))
    monkeypatch.setattr(tn, "pseudo_inverse", counted(tn.pseudo_inverse))
    for setup in (["--tnorm", "product", "--mode", "float"], ["--tnorm", "lukasiewicz", "--grid", "{0,1/3,2/3,1}"],
                  ["--tnorm", "ordinal[(0,1,product)]", "--mode", "float"]):
        code, out = run(["laws", "tnorm", *setup, "--seed", "0"])
        assert code == 0 and out["checks"][-1] == {"name": "generator_reconstruction", "pass": True, "witness": None}
    assert calls == []
    # the checked loops, through the same wrappers, make three calls per sample
    oracles.suite_tnorm_samples(tn.product, random.Random(0))
    assert len(calls) == 3 * 2000
