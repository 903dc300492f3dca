"""The three benchmark workloads: seeded inputs, one item at a time, self-checked.

Every workload builds its whole input schedule during set-up from `--seed`
alone and then runs items from it in order.  Running an item returns its
verdict, a JSON-able record that feeds the output digest; an item whose
result contradicts a known identity raises `WrongResult`, and an item that
raises anything else, or ends with an unexpected exit code, counts as failed.

The library is passed in as `R`, a namespace of freshly imported `recat`
modules, and is always reached through module attributes so that the traced
run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction


class WrongResult(Exception):
    """A self-check found an output that contradicts a known identity."""


def expect(cond, what):
    if not cond:
        raise WrongResult(what)


@dataclass
class Outcome:
    verdict: object
    failed: bool = False
    wrong: bool = False
    command: str | None = None  # cli_batch only
    stdout_bytes: int = 0
    exit_mismatch: bool = False


class Workload:
    """A named input schedule with a self-checking item runner."""

    name = ""
    DIGEST_ITEMS = 0  # the leading items whose verdicts form the output digest

    def setup(self, R, seed, workdir) -> list:
        raise NotImplementedError

    def describe(self, item):
        """JSON-able form of one input, for the input digest."""
        raise NotImplementedError

    def run(self, R, item) -> Outcome:
        raise NotImplementedError

    def context(self, workdir):
        """What the timed items run inside (the work dir, for cli_batch)."""
        return contextlib.nullcontext()


def canonical(obj) -> str:
    """Deterministic text of a verdict: exact values as 'p/q', floats by repr."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_encode)


def _encode(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (tuple, set, frozenset)):
        return list(v)
    raise TypeError(f"cannot encode {type(v).__name__}")


def grids(R):
    """The validated grids shared by the workloads."""
    tn, vals = R.tnorm, R.values
    return {
        "L6": vals.unit_grid(6, tn.lukasiewicz),
        "L3": vals.unit_grid(3, tn.lukasiewicz),
        "G5": vals.grid_validate(["0", "1/4", "1/2", "3/4", "1"], tn.godel),
    }


def blocks(rng, block, count):
    """`count` copies of `block`, each shuffled: a stratified schedule."""
    out = []
    for _ in range(count):
        b = list(block)
        rng.shuffle(b)
        out.extend(b)
    return out


# --- enum_classify ----------------------------------------------------------


class EnumClassify(Workload):
    """One category job per item: enumerate, classify every weight, complete."""

    name = "enum_classify"
    # n = 3 jobs cost 0.5-4 s each and n = 4-5 jobs 5-30 s, so most jobs are
    # n = 2; with more large jobs a run would hold too few items for a tail
    # percentile.  The block puts the median inside the L6 n = 2 jobs and the
    # p90 tail inside the G5 n = 3 jobs, not on a boundary between kinds.
    BLOCK = (("G5", 2),) * 3 + (("L6", 2),) * 4 + (("G5", 3),) * 3
    # A block costs about 2.6 s, and every run covers all eleven at least once.
    BLOCKS = 11
    DIGEST_ITEMS = len(BLOCK)
    # A G5 n = 3 job costs about in proportion to the weights it keeps
    # (correlation 0.86 over random categories), yet jobs with equal counts
    # still differ by up to 2x.  The p90 tail is the 12th dearest of the 33
    # G5 n = 3 jobs, so they all keep 20-22 weights (the upper middle of that
    # count): the tail is then a quantile of one distribution, estimated from
    # 33 jobs, rather than the extreme of a few jobs in one band.
    G5N3_WEIGHTS = (20, 22)
    # The jobs come from a fixed number of draws, so set-up costs about the
    # same for every seed; the draws expect 43 of the 33 jobs needed, and
    # drawing goes on if they fall short.
    G5N3_DRAWS = 500

    def setup(self, R, seed, workdir):
        g = grids(R)
        rng = random.Random(seed)
        decks = {}
        low, high = self.G5N3_WEIGHTS
        found = []

        def draw():
            X = R.gen.random_category(rng, 3, g["G5"])
            if low <= godel_weight_count(X) <= high:
                found.append(X)

        for _ in range(self.G5N3_DRAWS):
            draw()
        items = []
        for grid, n in blocks(rng, self.BLOCK, self.BLOCKS):
            if n == 2:
                X = two_point(R, g[grid], decks, rng)
            else:
                while not found:
                    draw()
                X = found.pop(0)
            items.append((f"{grid}/n{n}", X))
        return items

    def describe(self, item):
        kind, X = item
        return {"kind": kind, "hom": X.hom}

    def run(self, R, item) -> Outcome:
        _, X = item
        ps, cl, cat, balls = R.presheaf, R.classify, R.cat, R.balls
        weights = ps.enumerate_weights(X)
        values = [phi.values for phi in weights]
        expect(values == sorted(set(values)), "weights are not distinct and lexicographic")
        present = set(values)
        reports = []
        for phi in weights:
            rep = cl.classify(phi)
            f = rep.flags
            expect(not f["representable"] or f["cauchy"], "representable but not cauchy")
            expect(not f["cauchy"] or (f["ideal"] and f["flat"]), "cauchy but not ideal and flat")
            expect(not (f["flat"] or f["ideal"]) or f["conically_flat"], "flat or ideal but not conically flat")
            reports.append(rep.to_json())
        for a in range(X.n):
            y = ps.yoneda(X, a)
            expect(y.values in present, f"Yoneda weight of {a} was not enumerated")
            expect(reports[values.index(y.values)]["flags"]["representable"], f"Yoneda weight of {a} not representable")
        completion, embedding = cl.cauchy_completion(X)
        quotient, _ = cat.separated_quotient(X)
        expect(cat.categories_isomorphic(completion, quotient), "Cauchy completion differs from the separated quotient")
        smyth = cl.is_smyth_complete(X)
        expect(smyth == cat.is_separated(X), "Smyth completeness differs from separatedness")
        w = balls.way_below_distributor(X)
        expect(cat.rel_eq(w, balls.way_below_via_representables(X)), "way-below differs from its finite collapse")
        return Outcome(
            {
                "weights": values,
                "reports": reports,
                "completion": completion.hom,
                "embedding": embedding,
                "smyth": smyth,
                "way_below": w.rows,
            }
        )


def godel_weight_count(X):
    """Weights of a Gödel category on its grid, counted without the library."""
    n, hom = X.n, X.hom
    return sum(
        all(min(v[x2], hom[x1][x2]) <= v[x1] for x1 in range(n) for x2 in range(n))
        for v in itertools.product(X.grid.points, repeat=n)
    )


def two_point(R, grid, decks, rng):
    """Next two-point category from a shuffled deck of all hom pairs (u, v).

    Every pair is a category, so dealing from a deck samples the same
    distribution as `gen.random_category` while giving each run nearly the
    same mix of cheap and costly two-point jobs.
    """
    deck = decks.setdefault(grid, [])
    if not deck:
        deck.extend(itertools.product(grid.points, repeat=2))
        rng.shuffle(deck)
    u, v = deck.pop()
    one = R.tnorm.ONE
    return R.cat.EnrichedCategory(grid.tnorm, ((one, u), (v, one)), (), grid)


# --- sampled_calculus -------------------------------------------------------


@dataclass
class CalculusInput:
    X: object
    Y: object
    f: object
    weights: list
    coweights: list
    gammas: list
    s: object  # relation X -> Z
    t: object  # relation X -> Z


class SampledCalculus(Workload):
    """One random category per item, checked against the calculus identities."""

    name = "sampled_calculus"
    # carrier sizes per block: n = 1..8, with n = 5 five times so that the
    # median lands inside the n = 5 items rather than between two sizes
    BLOCK = (1, 2, 3, 4, 5, 5, 5, 5, 5, 6, 7, 8)
    # A block costs about 0.7 s, so a 36 s run covers the 20 blocks about
    # twice; many distinct blocks keep the mix nearly the same across seeds.
    BLOCKS = 20
    DIGEST_ITEMS = 16
    WEIGHTS = 4

    def setup(self, R, seed, workdir):
        gen, cat = R.gen, R.cat
        grid = grids(R)["L6"]
        pts = list(grid.points)
        rng = random.Random(seed)

        def relation(src, tgt):
            return cat.Rel(src, tgt, tuple(tuple(rng.choice(pts) for _ in range(tgt)) for _ in range(src)))

        items = []
        for _ in range(self.BLOCKS):
            # every block pairs its carrier sizes with codomain and relation
            # sizes 1..4 three times over, so blocks cost nearly the same
            sizes = [list(self.BLOCK), [1, 2, 3, 4] * 3, [1, 2, 3, 4] * 3]
            for column in sizes:
                rng.shuffle(column)
            for n, ny, m in zip(*sizes):
                X = gen.random_category(rng, n, grid)
                Y = gen.random_category(rng, ny, grid)
                items.append(
                    CalculusInput(
                        X,
                        Y,
                        gen.random_functor(rng, X, Y),
                        [gen.random_weight(rng, X) for _ in range(self.WEIGHTS)],
                        [gen.random_coweight(rng, X) for _ in range(self.WEIGHTS)],
                        [gen.random_weight(rng, Y) for _ in range(2)],
                        relation(n, m),
                        relation(n, m),
                    )
                )
        return items

    def describe(self, item):
        return {
            "X": item.X.hom,
            "Y": item.Y.hom,
            "f": item.f.mapping,
            "weights": [w.values for w in item.weights],
            "coweights": [c.values for c in item.coweights],
            "gammas": [g.values for g in item.gammas],
            "s": item.s.rows,
            "t": item.t.rows,
        }

    def run(self, R, item) -> Outcome:
        ps, cat, laws = R.presheaf, R.cat, R.laws
        X, f, t = item.X, item.f, item.X.tnorm
        yon = []
        for phi in item.weights:
            for a in range(X.n):
                v = ps.sub(ps.yoneda(X, a), phi)
                expect(v == phi(a), f"Yoneda fails at {a}")
                yon.append(v)
        kan = []
        for phi in item.weights:
            for gamma in item.gammas:
                left = ps.sub(ps.f_exists(f, phi), gamma)
                expect(left == ps.sub(phi, ps.f_inv(f, gamma)), "left Kan adjunction fails")
                right = ps.sub(ps.f_inv(f, gamma), phi)
                expect(right == ps.sub(gamma, ps.f_forall(f, phi)), "right Kan adjunction fails")
                kan.append((left, right))
        isbell = []
        for phi in item.weights:
            ub = ps.isbell_ub(phi)
            for psi in item.coweights:
                v = ps.sub(phi, ps.isbell_lb(psi))
                expect(v == ps.cosub(ub, psi), "Isbell adjunction fails")
                isbell.append(v)
        kz = laws.kz_check(X, item.weights, item.weights)
        expect(not kz["violations"], "kz inequality violated")
        r, s, tt = cat.hom_rel(X), item.s, item.t
        sr = cat.compose(t, s, r)
        left = cat.residual_left(t, tt, r)
        right = cat.residual_right(t, s, tt)
        below = cat.rel_le(sr, tt)
        expect(below == cat.rel_le(s, left), "compose / residual_left adjunction fails")
        expect(below == cat.rel_le(r, right), "compose / residual_right adjunction fails")
        expect(cat.rel_le(cat.compose(t, left, r), tt), "residual_left counit fails")
        expect(cat.rel_le(cat.compose(t, s, right), tt), "residual_right counit fails")
        expect(cat.rel_le(s, cat.residual_left(t, sr, r)), "residual_left unit fails")
        return Outcome(
            {
                "yoneda": yon,
                "kan": kan,
                "isbell": isbell,
                "kz": [kz["total"], kz["equalities"]],
                "relations": [below, sr.rows, left.rows, right.rows],
            }
        )


# --- cli_batch --------------------------------------------------------------


@dataclass
class CliCall:
    argv: list
    expected_exit: int
    kind: str  # exact, float or malformed
    category: object = None  # for output checks
    inputs: tuple = ()  # text of every file the call reads


MALFORMED = (
    # (command, arguments); "{cat}" stands for a valid category file.  The
    # first three are known defects: they raise instead of exiting 2.
    ("balls", ["{cat}", "--grid", "{0,1/0,1}"]),
    ("balls", ["{cat}", "--grid", "{0,abc,1}"]),
    ("laws", ["kz", "--tnorm", "ordinal[(0,1)]"]),
    ("check", ["broken.json"]),
)
FLOAT_TNORMS = ("product", "ordinal[(0,1/2,product)]", "ordinal[(1/2,1,product)]")
#: (tnorm, grid) choices per exact law suite
LAW_SETUPS = {
    "tnorm": (("lukasiewicz", "{0,1/3,2/3,1}"), ("godel", None)),
    "kan": (("lukasiewicz", "{0,1/3,2/3,1}"), ("godel", None)),
    "kz": (("lukasiewicz", "{0,1/3,2/3,1}"), ("godel", None)),
    "module": (("lukasiewicz", None), ("godel", None)),
    "filters": (("lukasiewicz", "{0,1/3,2/3,1}"), ("godel", None)),
}


class CliBatch(Workload):
    """One in-process `recat.cli.main(argv)` call per item, stdout captured."""

    name = "cli_batch"
    # Per block of 27 calls, the median lands inside the eight `laws tnorm`
    # calls (20-60 ms) and the p95 tail inside the two `laws kz` calls, the
    # slowest kind, rather than on a boundary between kinds of call.
    EXACT_LAWS = ("tnorm", "tnorm", "kan", "kz", "kz", "module", "filters")
    DIGEST_ITEMS = 27
    # A block costs about 2.5 s, and every run covers all ten at least once.
    BLOCKS = 10

    def setup(self, R, seed, workdir):
        rng = random.Random(seed)
        g = grids(R)
        writer = _Writer(workdir)
        writer.write_text("broken.json", '{"tnorm": "godel", "hom": [[')
        items = []
        for b in range(self.BLOCKS):
            # sizes, grids and law set-ups rotate with the block, and the seed
            # draws only values, so every seed gets the same mix of calls
            X = R.gen.random_category(rng, 2 + b % 3, g[("L3", "G5")[b % 2]])
            cpath, wpath = writer.category(X), writer.weight(R.gen.random_weight(rng, X))
            block = [
                CliCall(["check", cpath], 0, "exact", X),
                CliCall(["classify", cpath, wpath, "--seed", str(rng.randrange(100))], 0, "exact", X),
                CliCall(["complete", cpath], 0, "exact", X),
                CliCall(["balls", cpath], 0, "exact", X),
            ]
            for j, suite in enumerate(self.EXACT_LAWS):
                tnorm, grid = LAW_SETUPS[suite][(b + j) % 2]
                argv = ["laws", suite, "--tnorm", tnorm, "--seed", str(rng.randrange(1000))]
                block.append(CliCall(argv + (["--grid", grid] if grid else []), 0, "exact"))
            for k, tnorm in enumerate(FLOAT_TNORMS):
                F = _float_category(R, rng, tnorm, 2 + (b + k) % 3)
                fpath = writer.category(F)
                # a Yoneda weight is conically flat, which float classify mishandles
                phi = R.presheaf.yoneda(F, rng.randrange(F.n)) if k == 0 else _float_weight(R, rng, F)
                block.append(CliCall(["check", fpath], 0, "float", F))
                block.append(CliCall(["classify", fpath, writer.weight(phi), "--seed", str(rng.randrange(100))], 0, "float", F))
                for _ in range(2):
                    argv = ["laws", "tnorm", "--tnorm", tnorm, "--mode", "float", "--seed", str(rng.randrange(1000))]
                    block.append(CliCall(argv, 0, "float"))
            for command, tail in MALFORMED:
                block.append(CliCall([command] + [cpath if a == "{cat}" else a for a in tail], 2, "malformed"))
            rng.shuffle(block)
            for call in block:
                call.inputs = tuple(writer.texts[a] for a in call.argv if a in writer.texts)
            items.extend(block)
        return items

    def describe(self, item):
        return {"argv": item.argv, "expected_exit": item.expected_exit, "inputs": item.inputs}

    def run(self, R, item) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = R.cli.main(list(item.argv))
        except Exception as exc:  # a traceback where an exit code was due: a failed call
            code = f"raised {type(exc).__name__}"
        text = out.getvalue()
        outcome = Outcome(
            {"argv": item.argv, "exit": code, "stdout": text},
            command=item.argv[0],
            stdout_bytes=len(text.encode()),
            exit_mismatch=code != item.expected_exit,
        )
        if code == item.expected_exit:
            _check_cli_output(R, item, text)
        elif isinstance(code, str) or code == 2 or '"error"' in text:
            outcome.failed = True
        else:
            raise WrongResult(f"{' '.join(item.argv)}: verdict exit {code}, expected {item.expected_exit}")
        return outcome

    def context(self, workdir):
        return _chdir(workdir)


class _Writer:
    """Writes numbered input files; argv names them relative to the work dir."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.texts = {}

    def write_text(self, name, text):
        with open(os.path.join(self.workdir, name), "w") as fh:
            fh.write(text)
        self.texts[name] = text
        return name

    def _write(self, prefix, obj):
        return self.write_text(f"{prefix}{len(self.texts):04d}.json", json.dumps(obj, sort_keys=True))

    def category(self, X):
        return self._write("c", X.to_json())

    def weight(self, phi):
        return self._write("w", {"values": [v if isinstance(v, float) else str(v) for v in phi.values]})


def _float_category(R, rng, tnorm_text, n):
    """Random float hom matrix repaired by sup-(*) transitive closure."""
    tn = R.tnorm
    t = tn.parse_tnorm(tnorm_text)
    hom = [[1.0 if i == j else round(rng.random(), 3) for j in range(n)] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for y in range(n):
            for z in range(n):
                for x in range(n):
                    v = tn.conj(t, hom[y][z], hom[x][y])
                    if v > hom[x][z] + tn.TOL:
                        hom[x][z] = v
                        changed = True
    return R.cat.EnrichedCategory(t, tuple(tuple(row) for row in hom))


def _float_weight(R, rng, X):
    """Least weight above a random vector with one entry 1, so it is inhabited."""
    vec = [round(rng.random(), 3) for _ in range(X.n)]
    vec[rng.randrange(X.n)] = 1.0
    return R.presheaf.weight_closure(X, vec)


def _check_cli_output(R, item, text):
    argv = item.argv
    command = argv[0]
    if item.expected_exit == 2:
        expect('"error"' in text, f"{command}: exit 2 without an error body")
        return
    if command == "balls":
        expect(text.startswith("digraph balls {") and text.rstrip().endswith("}"), "balls: not a DOT digraph")
        return
    out = json.loads(text)
    if command == "check":
        expect(out["ok"] is True, "check: valid category rejected")
    elif command == "classify":
        f = out["flags"]
        expect(not f["representable"] or f["cauchy"], "classify: representable but not cauchy")
        expect(not (f["flat"] or f["ideal"]) or f["conically_flat"], "classify: chain broken")
        expect(out["seed"] == int(argv[argv.index("--seed") + 1]), "classify: seed not echoed")
    elif command == "complete":
        quotient, _ = R.cat.separated_quotient(item.category)
        expect(len(out["names"]) == quotient.n, "complete: size differs from the separated quotient")
        expect(len(out["embedding"]) == item.category.n, "complete: embedding has the wrong length")
    elif command == "laws":
        expect(out["pass"] is True and out["suite"] == argv[1], f"laws {argv[1]}: suite failed")


@contextlib.contextmanager
def _chdir(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


WORKLOADS = {w.name: w for w in (EnumClassify(), SampledCalculus(), CliBatch())}
