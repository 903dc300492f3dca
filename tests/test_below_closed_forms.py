"""The below relations and the formal-ball verdicts in closed form, against searches.

`recat.poset` decides way-below as the order and totally-below with one join per
element above y; `recat.balls` returns the hom as the way-below distributor and
knows compactness, continuity and interpolation to hold.  Each is compared here
with the code it replaced, kept in `tests/oracles.py`: the subset searches on
random preorders (n <= 8) and on every lattice with at most 5 elements and its
opposite, and the grid-ideal search and the verdicts read off X \\ X on random
categories, value for value and on every error path.  The ball verdicts need exact
mode only: without a grid they equal the searches' on the grid closure of the hom
values, and past the searches' bound they are read off a discrete order.  The below-weight of
enriched complete distributivity, a min over the n * k weights X(y, -) -> s, is
compared with the search over every grid weight on the categories of grids and
of random modules where that search stays small.
"""

import inspect
import random
from fractions import Fraction as F
from operator import and_

import pytest

import oracles
import recat.balls as balls
import recat.cat as cat
import recat.laws as laws
import recat.poset as ps
import recat.tnorm as tn
import recat.values as vals
from recat import fixtures, gen
from recat.errors import BoundExceededError, RecatError

GRIDS = {
    "luka_1_4": lambda: vals.unit_grid(4, tn.lukasiewicz),
    "godel_1_3": lambda: vals.grid_validate([0, F(1, 3), F(2, 3), 1], tn.godel),
    "ordinal_upper": lambda: vals.grid_validate(
        [0, F(1, 2), F(3, 4), 1], tn.ordinal_sum((F(1, 2), 1, tn.LUKASIEWICZ))
    ),
    "ordinal_lower": lambda: vals.grid_validate(
        [0, F(1, 4), F(1, 2), 1], tn.ordinal_sum((0, F(1, 2), tn.LUKASIEWICZ))
    ),
}
RELATIONS = ("way_below", "totally_below")
VERDICTS = ("is_completely_distributive", "is_continuous_lattice")


def random_preorder(rng, n):
    """The transitive closure of a random reflexive relation of random density."""
    density = 2 * rng.random() / n
    leq = [[i == j or rng.random() < density for j in range(n)] for i in range(n)]
    return ps.FinitePoset(n, ps.closure(leq, and_))


def below_report(module, L):
    """Each below relation as a matrix, and each lattice verdict, computed by `module`."""
    out = {rel: [[getattr(module, rel)(L, x, y) for y in range(L.n)] for x in range(L.n)] for rel in RELATIONS}
    out.update({verdict: getattr(module, verdict)(L) for verdict in VERDICTS})
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_below_relations_on_random_preorders(n):
    rng = random.Random(n)
    seen = set()
    for _ in range(4 if n == 8 else 8):
        L = random_preorder(rng, n)
        report = below_report(ps, L)
        assert report == below_report(oracles, L)
        seen.add((L.antisymmetric, report["is_completely_distributive"], report["is_continuous_lattice"]))
    if n >= 3:
        # preorders that are not partial orders, and both verdicts of complete distributivity
        assert {a for a, _, _ in seen} == {False, True}
        assert {cd for _, cd, _ in seen} == {False, True}


def test_below_relations_on_small_lattices_and_their_opposites():
    lattices = ps.lattice_catalog(5)
    assert [L.n for L in lattices] == [1, 2, 3, 4, 4, 5, 5, 5, 5, 5]
    for L in lattices:
        for P in (L, L.opposite()):
            assert below_report(ps, P) == below_report(oracles, P)
    assert not ps.is_completely_distributive(ps.m3())


def _outcome(f, *args, **kwargs):
    """('ok', value) or ('raised', exception type, message)."""
    try:
        return "ok", f(*args, **kwargs)
    except RecatError as exc:
        return "raised", type(exc), str(exc)


def ball_report(module, X, distributor, grid=None):
    """The way-below rows and every ball verdict of X, computed by `module`, on the
    positive radii of `grid`, by default X's."""
    radii = [r for r in (grid or X.grid).points if r > 0]
    pairs = [((x, r), (y, s)) for x in range(X.n) for r in radii for y in range(X.n) for s in radii]
    return {
        "rows": distributor(X).rows,
        "compact": [module.is_compact(X, a) for a in range(X.n)],
        "continuous": module.is_continuous_enriched(X),
        "interpolation": module.interpolation_check(X),
        "ball_way_below": [module.ball_way_below(X, b1, b2) for b1, b2 in pairs],
    }


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
@pytest.mark.parametrize("n", range(1, 6))
def test_ball_verdicts_on_random_categories(grid_name, n):
    grid = GRIDS[grid_name]()
    for seed in range(2):
        X = gen.random_category(random.Random(100 * n + seed), n, grid)
        got = ball_report(balls, X, balls.way_below_distributor)
        assert got == ball_report(oracles, X, oracles.way_below_residual)
        assert got["rows"] == oracles.way_below_distributor(X).rows == X.hom
        assert any(got["ball_way_below"]) and not all(got["ball_way_below"])


def _discrete(n, grid):
    hom = tuple(tuple(F(int(a == b)) for b in range(n)) for a in range(n))
    return cat.EnrichedCategory(grid.tnorm, hom, (), grid)


def _gridless():
    return cat.EnrichedCategory.from_json({"tnorm": "lukasiewicz", "hom": [["1", "1/2"], ["0", "1"]]})


def _float():
    return cat.EnrichedCategory(tn.lukasiewicz, ((1.0, 0.5), (0.0, 1.0)))


def _empty():
    return gen.random_category(random.Random(0), 0, GRIDS["luka_1_4"]())


ERROR_INPUTS = {  # name: (category, the message every below verdict raises)
    "float": (_float, "the way-below distributor needs exact mode"),
    "empty": (_empty, "no ideals with colimits; carrier is empty"),
}


def _below_calls(X):
    return (
        ("is_compact", (X, 0)),
        ("is_continuous_enriched", (X,)),
        ("interpolation_check", (X,)),
        ("ball_way_below", (X, (0, F(1, 2)), (0, F(1)))),
    )


@pytest.mark.parametrize("name", sorted(ERROR_INPUTS))
def test_error_paths(name):
    build, message = ERROR_INPUTS[name]
    X = build()
    calls = [(getattr(balls, f), getattr(oracles, f), args) for f, args in _below_calls(X)]
    for ours, theirs, args in calls + [(balls.way_below_distributor, oracles.way_below_residual, (X,))]:
        got, want = _outcome(ours, *args), _outcome(theirs, *args)
        assert got == ("raised", RecatError, message)
        # both refuse a float category; the searches say that they need a grid
        assert got == want if name == "empty" else want[:2] == got[:2]


def _past_gridless():
    """Exact categories without a grid: each verdict equals the searches' on the grid closure."""
    for grid_name in sorted(GRIDS):
        for n in range(1, 5):
            Z = gen.random_category(random.Random(100 * n), n, GRIDS[grid_name]())
            values = {v for row in Z.hom for v in row}
            Z = cat.EnrichedCategory(Z.tnorm, Z.hom, (), vals.grid_closure(values, Z.tnorm))
            X = cat.EnrichedCategory(Z.tnorm, Z.hom)
            got = ball_report(balls, X, balls.way_below_distributor, Z.grid)
            assert got == ball_report(oracles, Z, oracles.way_below_residual)
            assert got["rows"] == oracles.way_below_distributor(Z).rows == X.hom
    assert balls.ball_way_below(_gridless(), (0, F(1, 2)), (0, F(1)))


def _past_over_bound():
    """5 ** 9 > 10 ** 6 grid vectors: the searches refuse, the hom is X \\ X and each verdict
    is read off the discrete order, where (x, r) is way below (y, s) iff x = y and r < s."""
    X = _discrete(9, GRIDS["luka_1_4"]())
    for fname, args in _below_calls(X):
        with pytest.raises(BoundExceededError, match="weight space exceeds bound"):
            getattr(oracles, fname)(*args)
    report = ball_report(balls, X, balls.way_below_distributor)
    assert report["rows"] == balls.way_below_via_representables(X).rows == X.hom
    assert all(report["compact"]) and report["continuous"] and report["interpolation"]
    radii = [r for r in X.grid.points if r > 0]
    pairs = [((x, r), (y, s)) for x in range(X.n) for r in radii for y in range(X.n) for s in radii]
    assert report["ball_way_below"] == [x == y and r < s for (x, r), (y, s) in pairs]


PAST_INPUTS = {"gridless_exact": _past_gridless, "over_bound": _past_over_bound}


@pytest.mark.parametrize("name", sorted(PAST_INPUTS))
def test_past_the_old_preconditions(name):
    """Exact mode is the only precondition: no grid, and no bound on |grid| ** n."""
    assert "bound" not in inspect.signature(balls.way_below_distributor).parameters
    PAST_INPUTS[name]()


def test_zero_radius_errors():
    A2 = fixtures.a2()
    for b1, b2 in (((0, F(0)), (1, F(1))), ((0, F(1)), (1, F(0)))):
        got = _outcome(balls.ball_way_below, A2, b1, b2)
        assert got == _outcome(oracles.ball_way_below, A2, b1, b2)
        assert got == ("raised", RecatError, "ball way-below is stated for positive radii")


@pytest.mark.parametrize("a", [-1, 2, 3])
def test_is_compact_rejects_an_element_outside_the_carrier(a):
    A2 = fixtures.a2()
    with pytest.raises(RecatError, match="not in the carrier"):
        balls.is_compact(A2, a)
    assert balls.is_compact(A2, 0) and balls.is_compact(A2, 1)


CD_GRIDS = {
    **{f"luka_1_{k}": (lambda k=k: vals.unit_grid(k, tn.lukasiewicz)) for k in range(1, 7)},
    "godel_1_2": lambda: vals.grid_validate([0, F(1, 2), 1], tn.godel),
    "godel_1_3": GRIDS["godel_1_3"],
    "godel_5": lambda: fixtures.g5().grid,
    "upper_block": fixtures.upper_block_grid,
    "ordinal_upper": GRIDS["ordinal_upper"],
    "ordinal_lower": GRIDS["ordinal_lower"],
    "ordinal_two_blocks": lambda: vals.grid_validate(
        [0, F(1, 4), F(1, 2), F(3, 4), 1],
        tn.ordinal_sum((0, F(1, 2), tn.LUKASIEWICZ), (F(1, 2), 1, tn.LUKASIEWICZ)),
    ),
}
CD_SEARCH_BOUND = 5000  # the oracle enumerates |grid| ** n grid vectors


def _cd_agrees(X):
    """The verdict and witness, after checking them against the weight search; None past its bound."""
    if len(X.grid.points) ** X.n > CD_SEARCH_BOUND:
        return None
    got = balls.is_completely_distributive_enriched(X)
    assert got == oracles.is_completely_distributive_enriched(X)
    return got


def test_complete_distributivity_on_grid_categories():
    checked = {}
    for name, build in CD_GRIDS.items():
        grid = build()
        for op, X in ((False, fixtures.grid_v(grid)), (True, fixtures.grid_v_op(grid))):
            got = _cd_agrees(X)
            if got is not None:
                checked[name, op] = got[0]
    # the Lukasiewicz 1/5 and 1/6 grids and the upper block grid are past the search bound
    assert len(checked) == 2 * (len(CD_GRIDS) - 3)
    # each grid category is completely distributive; its opposite only on the Lukasiewicz grids
    assert all(ok == (not op or name.startswith("luka")) for (name, op), ok in checked.items())


@pytest.mark.parametrize("t", [tn.lukasiewicz, tn.godel], ids=["lukasiewicz", "godel"])
def test_complete_distributivity_on_module_categories(t):
    rng = random.Random(15)
    verdicts = [_cd_agrees(laws.module_to_category(gen.random_module(rng, t))) for _ in range(60)]
    assert None not in verdicts
    assert {ok for ok, _ in verdicts} == {False, True}


def test_complete_distributivity_past_the_search_bound():
    eight, seventeen = (vals.unit_grid(k, tn.lukasiewicz) for k in (7, 16))
    for X in (fixtures.grid_v(eight), fixtures.grid_v_op(eight), fixtures.grid_v(seventeen)):
        # the weight search refuses |grid| ** n > 10 ** 6; the min over n * k weights answers
        with pytest.raises(BoundExceededError, match="weight space exceeds bound"):
            oracles.is_completely_distributive_enriched(X)
        assert balls.is_completely_distributive_enriched(X) == (True, None)


CD_ERROR_INPUTS = {  # name: (category, the message both versions raise)
    "gridless_exact": (_gridless, "grid cocompleteness needs a grid"),
    "float": (_float, "grid cocompleteness needs a grid"),
    "not_cocomplete": (fixtures.a2, "enriched complete distributivity needs a grid-cocomplete carrier"),
    "empty": (_empty, "enriched complete distributivity needs a grid-cocomplete carrier"),
}


@pytest.mark.parametrize("name", sorted(CD_ERROR_INPUTS))
def test_complete_distributivity_error_paths(name):
    build, message = CD_ERROR_INPUTS[name]
    X = build()
    got = _outcome(balls.is_completely_distributive_enriched, X)
    assert got == _outcome(oracles.is_completely_distributive_enriched, X)
    assert got == ("raised", RecatError, message)
