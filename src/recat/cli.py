"""Batch front end: load categories and weights, run checks, emit reports.

Exit codes: 0 pass, 1 semantic failure, 2 parse failure, 3 resource bound.
All randomness flows through a seeded PRNG echoed in every report (`classify`
draws nothing and only echoes its `--seed`), and JSON
output uses sorted keys so runs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import lru_cache

from . import tnorm as tn
from .balls import ball_poset_dot
from .cat import EnrichedCategory, _compose_on, _residual_left_on, validate
from .classify import cauchy_completion, classify
from .errors import BoundExceededError, CapExceededError, RecatError
from .gen import _category_at, _functor_at, _weight_at, random_category, random_module
from .laws import (
    conical_filter_check,
    ConicalFilter,
    category_to_module,
    find_cf4_cotensor_witness,
    _kz_loop,
    _kz_on_grid,
    kowalsky_sum,
    kz_equality_consistent_with_cauchy,
    modules_isomorphic,
    module_to_category,
    negation_duality_check,
    powerset_monad_check,
)
from .presheaf import Weight, _column
from .values import (
    _check_scalars,
    _encode,
    _json_array,
    _json_object,
    _normalize,
    grid_validate,
    parse_grid_text,
    unit_grid,
)

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_PARSE = 2
EXIT_BOUND = 3


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _ParseFailure(f"cannot parse {path}: {exc}") from exc


class _ParseFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a parse failure, so that it gets a JSON body."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _ParseFailure(f"{self.prog}: {message}")


def load_category(path) -> EnrichedCategory:
    data = _load_json(path)
    try:
        return EnrichedCategory.from_json(data)
    except (RecatError, KeyError, ValueError, TypeError) as exc:
        raise _ParseFailure(f"bad category file {path}: {exc}") from exc


def load_weight(path, X: EnrichedCategory) -> Weight:
    data = _load_json(path)
    try:
        _json_object(data, "a weight", "values")
        values = [_normalize(v) for v in _json_array(data["values"], "values")]
        _check_scalars(values, X.grid, "weight value ", X.mode)
        if len(values) != X.n:
            raise RecatError(f"weight has {len(values)} entries for a {X.n}-point carrier")
    except (RecatError, KeyError, TypeError) as exc:
        raise _ParseFailure(f"bad weight file {path}: {exc}") from exc
    return Weight(X, tuple(values))


def _grid_option(text, t):
    try:
        return grid_validate(parse_grid_text(text), t)
    except RecatError as exc:
        raise _ParseFailure(f"bad --grid {text!r}: {exc}") from exc


def _emit(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _valid_category(path) -> EnrichedCategory:
    """The category in the file; failed axioms are a semantic failure (exit 1)."""
    X = load_category(path)
    rep = validate(X)
    if not rep.ok:
        raise RecatError(f"category axioms fail: {rep.reason} at {rep.witness}")
    return X


def cmd_check(args) -> int:
    X = load_category(args.category)
    report = validate(X)
    print(_emit({"ok": report.ok, "reason": report.reason, "witness": report.witness}))
    return EXIT_OK if report.ok else EXIT_SEMANTIC


def cmd_classify(args) -> int:
    X = _valid_category(args.category)
    phi = load_weight(args.weight, X)
    out = classify(phi).to_json()
    out["seed"] = args.seed  # echoed only: classify draws nothing
    print(_emit(out))
    return EXIT_OK


def cmd_balls(args) -> int:
    X = _valid_category(args.category)
    grid = X.grid
    if args.grid:
        if X.mode != "exact":
            raise _ParseFailure("a grid holds exact values; the category's hom is float")
        grid = _grid_option(args.grid, X.tnorm)
    print(ball_poset_dot(X, grid))
    return EXIT_OK


def cmd_complete(args) -> int:
    X = _valid_category(args.category)
    completion, embedding = cauchy_completion(X)
    out = completion.to_json()
    out["embedding"] = list(embedding)
    print(_emit(out))
    return EXIT_OK


def _check(name, failures) -> dict:
    """A report entry for one check: the first failure is its witness, none is a pass."""
    witness = next(failures, None)
    return {"name": name, "pass": witness is None, "witness": _encode(witness)}


def _grid_tnorm_laws(grid) -> tuple:
    """(laws, divisibility) of the grid quantale, read off its conj/imp tables.

    laws: commutativity, associativity, unit 1 and residuation on every triple;
    divisibility: x (*) (x -> y) = min(x, y).  Indices ascend with the points,
    so order and min on indices are order and min on the points.
    """
    conj, imp = grid.conj_table, grid.imp_table
    ks = range(len(grid.points))
    one = ks[-1]
    laws = all(
        conj[x][y] == conj[y][x]
        and conj[conj[x][y]][z] == conj[x][conj[y][z]]
        and conj[x][one] == x
        and (conj[x][y] <= z) == (y <= imp[x][z])
        for x in ks
        for y in ks
        for z in ks
    )
    return laws, all(conj[x][imp[x][y]] == min(x, y) for x in ks for y in ks)


def _suite_tnorm(t, grid, rng, args):
    """The grid quantale's laws on every triple, then 2,000 sampled float triples and, for an
    Archimedean t, 2,000 sampled pairs against its additive generator.

    The samples are floats in [0, 1), so the loops call the compiled float
    evaluators and generator pair with no check per sample; a NaN difference
    counts as a law failure.
    """
    checks = []
    if grid is not None:
        ok, div = _grid_tnorm_laws(grid)
        checks.append({"name": "laws_exact_grid", "pass": ok, "witness": None})
        checks.append({"name": "divisibility", "pass": div, "witness": None})
    samples, tol, draw = 2000, tn.TOL, rng.random
    conj, imp = tn.evaluators(t, "float")

    def float_failures():
        for _ in range(samples):
            x, y, z = draw(), draw(), draw()
            xy = conj(x, y)  # serves commutativity and associativity
            if not abs(xy - conj(y, x)) <= tol:
                yield x, y
            elif not abs(conj(xy, z) - conj(x, conj(y, z))) <= tol:
                yield x, y, z
            elif not abs(conj(x, imp(x, y)) - min(x, y)) <= tol:
                yield x, y

    checks.append(_check("laws_float_sampled", float_failures()))
    if tn.is_archimedean(t):
        g, g_inv = tn.generators(t)

        def generator_failures():
            for _ in range(samples):
                x, y = draw(), draw()
                if abs(g_inv(g(x) + g(y)) - conj(x, y)) > 1e-9:
                    yield x, y

        checks.append(_check("generator_reconstruction", generator_failures()))
    return checks


def _suite_kan(t, grid, rng, args):
    """sub(f_! phi, gamma) = sub(phi, f^* gamma) on 25 drawn functors, all on grid indices.

    X, Y and f are drawn as index matrices and a mapping by `gen._category_at` and
    `gen._functor_at`, from random_category's and random_functor's stream, so no
    category or functor object is built; f_! phi is computed once per distinct phi
    per functor, and indices become points only for a witness.
    """
    conj, imp, points, top = grid.conj_table, grid.imp_table, grid.points, len(grid.points) - 1

    def failures():
        for _ in range(25):
            X_at = _category_at(rng, rng.randint(1, 4), grid)
            Y_at = _category_at(rng, rng.randint(1, 4), grid)
            f = _functor_at(rng, X_at, Y_at)
            cograph = tuple(tuple(row[fx] for fx in f) for row in Y_at)  # row y is Y(y, f(-))
            extended, checked = {}, set()
            for _ in range(10):
                phi, gamma = _weight_at(rng, grid, X_at), _weight_at(rng, grid, Y_at)
                if (phi, gamma) in checked:
                    continue
                checked.add((phi, gamma))
                if phi not in extended:
                    extended[phi] = _column(_compose_on(conj, (phi,), cograph, 0))
                lhs = _residual_left_on(imp, (gamma,), (extended[phi],), top)
                restricted = tuple(gamma[fx] for fx in f)  # f^* gamma is gamma at f
                if lhs != _residual_left_on(imp, (restricted,), (phi,), top):
                    yield f, tuple(points[i] for i in phi), tuple(points[i] for i in gamma)

    return [_check("kan_adjunction", failures())]


def _suite_kz(t, grid, rng, args):
    """KZ on 20 drawn categories, eight weights each, all drawn and checked on grid indices;
    KZ equality against Cauchy weights; the powerset monad."""
    points = grid.points

    def violations():
        for _ in range(20):
            at = _category_at(rng, rng.randint(1, 4), grid)
            ws = [_weight_at(rng, grid, at) for _ in range(8)]
            for pair in _kz_loop(*_kz_on_grid(grid, at), ws, ws)[1]:
                yield tuple(tuple(points[i] for i in w) for w in pair)

    checks = [_check("kz_inequality", violations())]
    Xs = random_category(rng, 2, grid)
    equal = kz_equality_consistent_with_cauchy(Xs, args.bound)
    checks.append({"name": "kz_equality_vs_cauchy", "pass": equal, "witness": None})
    monad = powerset_monad_check(grid, 2, rng, samples=20)
    checks.append({"name": "powerset_monad", "pass": monad, "witness": None})
    return checks


def _suite_module(t, grid, rng, args):
    named = grid if args.grid else None  # modules act by the grid the user named

    def failures():
        checked = set()
        for _ in range(20):
            M = random_module(rng, t, grid=named)
            key = (M.grid.points, M.lattice.leq, M.action)
            if key in checked:
                continue
            checked.add(key)
            if not modules_isomorphic(M, category_to_module(module_to_category(M))):
                yield M.action

    checks = [_check("module_round_trip", failures())]
    if grid is not None:
        verdict, wit = negation_duality_check(grid)
        expected = verdict == (t.base == tn.LUKASIEWICZ)
        checks.append({"name": "negation_involution", "pass": expected, "witness": _encode(wit)})
    return checks


def _suite_filters(t, grid, rng, args):
    pts = list(grid.points)

    def failures():
        checked = set()
        for _ in range(10):
            g1 = tuple(rng.choice(pts) for _ in range(2))
            g2 = tuple(min(a, rng.choice(pts)) for a in g1)
            if (g1, g2) in checked:
                continue
            checked.add((g1, g2))
            if not conical_filter_check(ConicalFilter(grid, 2, (g1, g2)))["pass"]:
                yield g1, g2

    checks = [_check("generated_filters_cf", failures())]
    F1 = ConicalFilter(grid, 2, ((pts[-1], pts[0]),))
    F2 = ConicalFilter(grid, 2, ((pts[0], pts[-1]),))
    ks = kowalsky_sum([(tn.ONE, tn.ONE)], [F1, F2])
    checks.append({"name": "kowalsky_sum_cf", "pass": conical_filter_check(ks)["pass"], "witness": None})
    wit = find_cf4_cotensor_witness(grid, args.bound)
    expected_closed = tn.continuous_off_diagonal(t)
    checks.append(
        {
            "name": "cotensor_stays_in_class" if expected_closed else "cotensor_escapes_class",
            "pass": (wit is None) == expected_closed,
            "witness": None if wit is None else _encode({"r": wit[1], "lam": wit[2][0], "s": wit[3]}),
        }
    )
    return checks


SUITES = {
    "tnorm": _suite_tnorm,
    "kan": _suite_kan,
    "kz": _suite_kz,
    "module": _suite_module,
    "filters": _suite_filters,
}


def cmd_laws(args) -> int:
    try:
        t = tn.parse_tnorm(args.tnorm)
    except RecatError as exc:
        raise _ParseFailure(f"bad --tnorm {args.tnorm!r}: {exc}") from exc
    grid = None
    if t.supports_exact and args.mode == "exact":
        grid = (
            _grid_option(args.grid, t)
            if args.grid
            else unit_grid(4, t) if t.kind != tn.GODEL else unit_grid(2, t)
        )
    elif args.grid:
        raise _ParseFailure("grids only make sense in exact mode with an exact-capable t-norm")
    if grid is None and args.suite != "tnorm":
        raise RecatError(f"the {args.suite} suite needs exact mode with a grid; got {args.tnorm}/{args.mode}")
    rng = random.Random(args.seed)
    suite = SUITES[args.suite]
    try:
        checks = suite(t, grid, rng, args)
    except BoundExceededError as exc:
        print(_emit({"error": str(exc), "seed": args.seed}))
        return EXIT_BOUND
    report = {
        "suite": args.suite,
        "tnorm": tn.format_tnorm(t),
        "seed": args.seed,
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }
    print(_emit(report))
    return EXIT_OK if report["pass"] else EXIT_SEMANTIC


def _bound(text) -> int:
    """The --bound value: an int >= 0, else a usage error (exit 2)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be an int >= 0, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="recat", description=__doc__)
    sp = p.add_subparsers(dest="command", required=True)

    c = sp.add_parser("check", help="validate a category file")
    c.add_argument("category")
    c.set_defaults(fn=cmd_check)

    c = sp.add_parser("classify", help="classify a weight over a category")
    c.add_argument("category")
    c.add_argument("weight")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(fn=cmd_classify)

    c = sp.add_parser("laws", help="run a named law suite")
    c.add_argument("suite", choices=sorted(SUITES))
    c.add_argument("--tnorm", default="lukasiewicz")
    c.add_argument("--grid", default=None)
    c.add_argument("--mode", choices=("exact", "float"), default="exact")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--bound", type=_bound, default=10**6)
    c.set_defaults(fn=cmd_laws)

    c = sp.add_parser("balls", help="emit the grid-radius ball poset as DOT")
    c.add_argument("category")
    c.add_argument("--grid", default=None)
    c.set_defaults(fn=cmd_balls)

    c = sp.add_parser("complete", help="emit the Cauchy completion as category JSON")
    c.add_argument("category")
    c.set_defaults(fn=cmd_complete)

    return p


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # --help; usage errors raise _ParseFailure
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    except _ParseFailure as exc:
        print(_emit({"error": str(exc)}))
        return EXIT_PARSE
    except (CapExceededError, BoundExceededError) as exc:
        print(_emit({"error": str(exc)}))
        return EXIT_BOUND
    except RecatError as exc:
        print(_emit({"error": str(exc)}))
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
