"""`tnorm.evaluators` and the loops that bind it.

A loop over checked scalars takes its (*) and -> from `tn.evaluators(t, mode)`
once.  In float mode the pair is the t-norm's compiled `float_conj`/`float_imp`,
equal to `tn.conj`/`tn.imp` bit for bit on floats in [0,1]; in exact mode it is
`tn.conj`/`tn.imp` bound to t, looked up when the pair is built.  So float
`classify` and the float law samples make no call through the checked entry,
while exact loops still do, and a wrapper put on the tnorm module counts them.

Float `classify` reads a representable weight as the Yoneda weight it equals:
on the seeded near-Yoneda family below, 809 weights a few ulps off a column
were reported representable but neither Cauchy nor flat before.
"""

import contextlib
import io
import json
import random
from fractions import Fraction as F

import pytest

import recat.balls as balls
import recat.cat as cat
import recat.classify as cl
import recat.cli as cli
import recat.presheaf as ps
import recat.tnorm as tn
import recat.values as vals
from recat import fixtures
from recat.errors import ExactModeError, ModeMismatchError, RecatError
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
    X = cat.EnrichedCategory(t, ((1, F(3, 4)), (F(1, 2), 1)), (), vals.grid_validate([0, F(1, 2), F(3, 4), 1], t))
    phi = ps.yoneda(X, 0)
    assert ps.sub(ps.f_exists(cat.EnrichedFunctor(X, X, (1, 1)), phi), phi) == F(1, 2)
    assert calls["conj"] > before["conj"] and calls["imp"] > before["imp"]


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
