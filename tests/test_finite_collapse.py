"""Closed-form completions against the grid-weight searches in `oracles`.

On a finite carrier every Cauchy or ideal weight is representable, so the
library computes the Cauchy completion, both Smyth verdicts and the way-below
distributor without enumerating weights.  Each closed form is compared here
with the search it replaced, byte for byte, on seeded categories with n = 0..4
(separated or not) and on every error path.  The closed forms need exact mode and
nothing else: an exact category without a grid gets the searches' answers on the
grid closure of its hom values, and a carrier past the searches' bound answers.
"""

import inspect
import json
import random
from fractions import Fraction as F

import pytest

import oracles
import recat.balls as balls
import recat.cat as cat
import recat.classify as cl
import recat.cli as cli
import recat.tnorm as tn
import recat.values as vals
from recat import fixtures, gen
from recat.errors import BoundExceededError, RecatError

GRIDS = {
    "luka_1_4": lambda: vals.unit_grid(4, tn.lukasiewicz),
    "godel_5": lambda: vals.grid_validate([0, F(1, 4), F(1, 2), F(3, 4), 1], tn.godel),
    "ordinal_upper": lambda: vals.grid_validate(
        [0, F(1, 2), F(3, 4), 1], tn.ordinal_sum((F(1, 2), 1, tn.LUKASIEWICZ))
    ),
    "ordinal_lower": lambda: vals.grid_validate(
        [0, F(1, 4), F(1, 2), 1], tn.ordinal_sum((0, F(1, 2), tn.LUKASIEWICZ))
    ),
}
SEEDS = range(5)
GRIDLESS = {"tnorm": "lukasiewicz", "hom": [["1", "1/2"], ["0", "1"]]}


def _with_twin(X):
    """X with one more element isomorphic to element 0: never separated."""
    f = list(range(X.n)) + [0]
    hom = tuple(tuple(X.hom[a][b] for b in f) for a in f)
    return cat.EnrichedCategory(X.tnorm, hom, (), X.grid)


def _categories(grid_name, n, seed):
    """A seeded category on the grid with n elements, and, for n >= 2, one with a twin."""
    grid = GRIDS[grid_name]()
    rng = random.Random(1000 * n + seed)
    X = gen.random_category(rng, n, grid)
    return [X] if n < 2 else [X, _with_twin(gen.random_category(rng, n - 1, grid))]


def _outcome(f, *args, **kwargs):
    """('ok', value) or ('raised', exception type, message)."""
    try:
        return "ok", f(*args, **kwargs)
    except RecatError as exc:
        return "raised", type(exc), str(exc)


def _completion_bytes(result):
    completion, embedding = result
    out = completion.to_json()
    out["embedding"] = list(embedding)
    return json.dumps(out, sort_keys=True, indent=2)


CASES = [(g, n, s) for g in GRIDS for n in range(5) for s in SEEDS]


@pytest.mark.parametrize("grid_name,n,seed", CASES)
def test_closed_forms_match_the_searches(grid_name, n, seed):
    for X in _categories(grid_name, n, seed):
        assert _completion_bytes(cl.cauchy_completion(X)) == _completion_bytes(oracles.cauchy_completion(X))
        assert cl.is_smyth_complete(X) == oracles.is_smyth_complete(X)
        assert _outcome(cl.is_smyth_completable, X) == _outcome(oracles.is_smyth_completable, X)
        got, want = _outcome(balls.way_below_distributor, X), _outcome(oracles.way_below_distributor, X)
        if got[0] == "ok" and want[0] == "ok":
            assert got[1].rows == want[1].rows
        else:
            assert got == want


def test_non_separated_carriers_are_covered():
    seen = [X for g in GRIDS for n in range(5) for X in _categories(g, n, 0)]
    assert any(not cat.is_separated(X) for X in seen)
    assert any(cat.is_separated(X) and X.n == 4 for X in seen)


def test_empty_carrier():
    X = gen.random_category(random.Random(0), 0, GRIDS["luka_1_4"]())
    got = _outcome(balls.way_below_distributor, X)
    assert got == _outcome(oracles.way_below_distributor, X)
    assert got == ("raised", RecatError, "no ideals with colimits; carrier is empty")
    assert cl.cauchy_completion(X)[0].n == 0


def test_non_separated_smyth_completable_raises():
    X = _with_twin(fixtures.a2())
    got = _outcome(cl.is_smyth_completable, X)
    assert got == _outcome(oracles.is_smyth_completable, X)
    assert got[0] == "raised"
    assert cl.is_smyth_complete(X) is oracles.is_smyth_complete(X) is False


CLOSED_FORMS = (  # (library, oracle, the library's exact-mode message)
    (cl.cauchy_completion, oracles.cauchy_completion, "cauchy completion needs exact mode"),
    (cl.is_smyth_complete, oracles.is_smyth_complete, "smyth completeness needs exact mode"),
    (cl.is_smyth_completable, oracles.is_smyth_completable, "smyth completability needs exact mode"),
    (balls.way_below_distributor, oracles.way_below_distributor, "the way-below distributor needs exact mode"),
)


def _discrete(n, grid):
    hom = tuple(tuple(F(int(a == b)) for b in range(n)) for a in range(n))
    return cat.EnrichedCategory(grid.tnorm, hom, (), grid)


def _answers(X):
    """Every closed-form answer on X, comparable across categories with or without a grid."""
    completion, embedding = cl.cauchy_completion(X)
    return {
        "completion": (completion.names, completion.hom, embedding),
        "smyth_complete": cl.is_smyth_complete(X),
        "smyth_completable": _outcome(cl.is_smyth_completable, X),
        "way_below": _outcome(balls.way_below_distributor, X),
    }


@pytest.mark.parametrize("bound", [0, 10])
def test_bound_exceeded(bound):
    """Past a search's bound the closed forms, which take none, give its unbounded answer."""
    X = fixtures.g5()
    for ours, theirs in ((cl.cauchy_completion, oracles.cauchy_completion),
                         (balls.way_below_distributor, oracles.way_below_distributor)):
        assert _outcome(theirs, X, bound=bound) == ("raised", BoundExceededError, "weight space exceeds bound")
        assert "bound" not in inspect.signature(ours).parameters
    assert _completion_bytes(cl.cauchy_completion(X)) == _completion_bytes(oracles.cauchy_completion(X))
    assert balls.way_below_distributor(X).rows == oracles.way_below_distributor(X).rows == X.hom


def test_smyth_bound_exceeded():
    # 5 ** 9 > 10 ** 6 grid vectors on a discrete, hence separated, carrier: the searches
    # refuse it, and the closed forms answer as on every discrete carrier
    X = _discrete(9, GRIDS["luka_1_4"]())
    for _, theirs, _ in CLOSED_FORMS:
        assert _outcome(theirs, X) == ("raised", BoundExceededError, "weight space exceeds bound")
    completion, embedding = cl.cauchy_completion(X)
    assert completion.n == 9 and sorted(embedding) == list(range(9))
    assert cat.categories_isomorphic(completion, X)
    assert cl.is_smyth_complete(X) is cl.is_smyth_completable(X) is True
    assert balls.way_below_distributor(X).rows == X.hom


def _gridless_cases():
    """(gridless X, the same hom on the grid closure of its values), for every seeded category."""
    for g, n, s in CASES:
        for X in _categories(g, n, s):
            values = {v for row in X.hom for v in row}
            yield (cat.EnrichedCategory(X.tnorm, X.hom),
                   cat.EnrichedCategory(X.tnorm, X.hom, (), vals.grid_closure(values, X.tnorm)))


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_no_grid(kind):
    if kind == "float":
        X = cat.EnrichedCategory(tn.lukasiewicz, ((1.0, 0.5), (0.0, 1.0)))
        twins = cat.EnrichedCategory(tn.lukasiewicz, ((1.0, 1.0), (1.0, 1.0)))
        for Y in (X, twins):  # separated or not
            for ours, _, message in CLOSED_FORMS:
                assert _outcome(ours, Y) == ("raised", RecatError, message)
        return
    # an exact category without a grid gets the answers that the searches give on its grid closure
    checked = 0
    for X, Z in _gridless_cases():
        assert X.grid is None
        got = _answers(X)
        assert got == _answers(Z)
        completion, embedding = oracles.cauchy_completion(Z)
        assert got["completion"] == (completion.names, completion.hom, embedding)
        assert got["smyth_complete"] == oracles.is_smyth_complete(Z)
        assert got["smyth_completable"] == _outcome(oracles.is_smyth_completable, Z)
        assert got["way_below"] == _outcome(oracles.way_below_distributor, Z)
        checked += 1
    assert checked == sum(len(_categories(*case)) for case in CASES)
    X = cat.EnrichedCategory.from_json(GRIDLESS)
    assert X.grid is None and cl.cauchy_completion(X)[1] == (1, 0)


def _cli_complete(tmp_path, capsys, name, data):
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(data))
    code = cli.main(["complete", str(p)])
    return code, capsys.readouterr().out


def test_cli_complete_without_grid(tmp_path, capsys):
    """Exit 0, and the bytes of the gridded completion but for the grid."""
    code, out = _cli_complete(tmp_path, capsys, "gridless", GRIDLESS)
    assert code == 0
    gridded_code, gridded = _cli_complete(tmp_path, capsys, "gridded", {**GRIDLESS, "grid": ["0", "1/2", "1"]})
    assert gridded_code == 0
    assert json.loads(out) == {**json.loads(gridded), "grid": None}
    assert json.loads(out)["embedding"] == [1, 0]


def test_cli_complete_past_the_old_bound(tmp_path, capsys):
    data = _discrete(9, GRIDS["luka_1_4"]()).to_json()
    code, out = _cli_complete(tmp_path, capsys, "discrete9", data)
    assert code == 0 and len(json.loads(out)["names"]) == 9
    code, out = _cli_complete(tmp_path, capsys, "float", {"tnorm": "lukasiewicz", "hom": [[1.0, 0.5], [0.0, 1.0]]})
    assert code == 1 and json.loads(out) == {"error": "cauchy completion needs exact mode"}


def test_cli_complete_twins(tmp_path, capsys):
    p = tmp_path / "twins.json"
    p.write_text(json.dumps({"tnorm": "lukasiewicz", "grid": ["0", "1/2", "1"], "hom": [["1", "1"], ["1", "1"]]}))
    code = cli.main(["complete", str(p)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["embedding"] == [0, 0] and out["hom"] == [["1"]] and out["names"] == ["c0"]
