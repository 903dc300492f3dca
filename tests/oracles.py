"""Brute-force oracles that the tests compare the library against.

No code in `recat` calls these; each recomputes a verdict by exhaustive search
or from a different characterisation, so a test can pair it with the library's
own answer.
"""

import math
from functools import partial
from itertools import combinations, product as iproduct
from operator import and_

import recat.balls as balls
import recat.gen as gen
import recat.laws as laws
import recat.tnorm as tn
from recat.cat import (
    EnrichedCategory,
    EnrichedFunctor,
    Rel,
    _columns,
    _compose,
    _residual_left,
    compose,
    is_separated,
    opposite,
    rel_eq,
    underlying_order,
)
from recat.classify import _breakpoints, is_cauchy, is_ideal, is_representable
from recat.cli import _check
from recat.errors import NotAFunctorError, RecatError
from recat.gen import _godel_grid, _relabel_module, _trivial_module
from recat.laws import ModuleAction, _cf_failures
from recat.poset import (
    FinitePoset,
    _joins_what_is_below,
    _least,
    boolean_lattice,
    chain,
    closure,
    lattice_catalog,
    posets_isomorphic,
)
from recat.presheaf import (
    Weight,
    _dual,
    _grid_space,
    _same_base,
    colim,
    cotensor,
    enumerate_weights,
    f_exists,
    f_inv,
    is_cocomplete_over_grid,
    isbell_ub,
    pairing,
    sub,
    tensor as tensor_at,
    weight_closure,
    yoneda,
)
from recat.values import grid_validate, unit_grid


def _subsets(n):
    elems = list(range(n))
    for r in range(n + 1):
        yield from (list(c) for c in combinations(elems, r))


def enumerate_lattices(n: int):
    """Brute-force enumeration of all n-element lattices up to isomorphism.

    Exponential in n^2; practical for n <= 5 catalog cross-checks.
    """
    found = []
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rev = {b: pairs.index((j, i)) for b, (i, j) in enumerate(pairs)}
    for bits in range(1 << len(pairs)):
        if any(bits >> b & 1 and bits >> rev[b] & 1 for b in range(len(pairs))):
            continue  # antisymmetry
        leq = [[i == j for j in range(n)] for i in range(n)]
        for b, (i, j) in enumerate(pairs):
            if bits >> b & 1:
                leq[i][j] = True
        leq = tuple(map(tuple, leq))
        if closure(leq, and_) != leq:
            continue  # transitivity
        P = FinitePoset(n, leq)
        if not P.is_lattice():
            continue
        if not any(posets_isomorphic(P, Q) for Q in found):
            found.append(P)
    return found


def preorders(n: int):
    """Every reflexive transitive relation on n elements, as a FinitePoset."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(pairs)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for b, (i, j) in enumerate(pairs):
            leq[i][j] = bool(bits >> b & 1)
        leq = tuple(map(tuple, leq))
        if closure(leq, and_) == leq:
            yield FinitePoset(n, leq)


def is_lattice_by_meets(P: FinitePoset) -> bool:
    """FinitePoset.is_lattice with its top and every binary meet and join found by a
    validated `meet` or `join` call, as the definition reads."""
    if not P.antisymmetric or P.bottom is None or P.top is None:
        return False
    return all(P.join([i, j]) is not None and P.meet([i, j]) is not None for i in range(P.n) for j in range(P.n))


def is_cocomplete_by_calls(X: EnrichedCategory) -> bool:
    """presheaf.is_cocomplete_over_grid through a `join` call per pair and a `tensor` and
    `cotensor` call per grid point and element."""
    P = underlying_order(X)
    if P.bottom is None or any(P.join([a, b]) is None for a in range(X.n) for b in range(X.n)):
        return False
    return all(
        tensor_at(X, r, x) is not None and cotensor(X, r, x) is not None for r in X.grid.points for x in range(X.n)
    )


def module_action_by_calls(A: EnrichedCategory) -> tuple:
    """laws.category_to_module's action, one `tensor` call per grid point and element."""
    return tuple(tuple(tensor_at(A, r, x) for x in range(A.n)) for r in A.grid.points)


def is_order_complete(P: FinitePoset) -> bool:
    """Every subset has a join, tried on all 2^n subsets."""
    return all(P.join(A) is not None for A in _subsets(P.n))


def lower_sets(L: FinitePoset):
    """All lower sets, as sorted tuples."""
    out = []
    for A in _subsets(L.n):
        s = set(A)
        if all(y in s for x in s for y in range(L.n) if L.le(y, x)):
            out.append(tuple(sorted(s)))
    return out


def coprimes(L: FinitePoset, include_vacuous_bottom: bool = True):
    """poset.coprimes with one join per (x, a, b), as the definition reads."""
    out = [
        x
        for x in range(L.n)
        if not any(
            L.join([a, b]) is not None and L.le(x, L.join([a, b])) and not (L.le(x, a) or L.le(x, b))
            for a in range(L.n)
            for b in range(L.n)
        )
    ]
    return tuple(x for x in out if include_vacuous_bottom or x != L.bottom)


def cd_law_identity_check(L: FinitePoset) -> bool:
    """Join-of-intersection equals meet-of-joins over families of lower sets.

    On a finite lattice it suffices to test the empty family and all pairs,
    since meets of finitely many lower sets are iterated binary meets.
    """
    los = lower_sets(L)
    if L.join(list(range(L.n))) != L.top:
        return False
    for A in los:
        for B in los:
            inter = sorted(set(A) & set(B))
            lhs = L.join(inter)
            rhs = L.meet([L.join(list(A)), L.join(list(B))])
            if lhs != rhs:
                return False
    return True


# --- the below relations by subset search ---------------------------------
# The library decides them in closed form: a finite directed set holds its own
# join, and a subset avoiding the up-set of x may be grown to everything in
# that complement below its join.


def _below_members(L: FinitePoset, x: int, y: int, family) -> bool:
    """Every subset in `family` whose join dominates y has a member above x."""
    for A in family:
        j = L.join(A)
        if j is not None and L.le(y, j) and not any(L.le(x, a) for a in A):
            return False
    return True


def totally_below(L: FinitePoset, x: int, y: int) -> bool:
    """True iff every subset whose join dominates y contains a member above x."""
    return _below_members(L, x, y, _subsets(L.n))


def directed(items, le) -> bool:
    """Every pair of `items` has an upper bound among the items, pair by pair."""
    return all(any(le(a, c) and le(b, c) for c in items) for a in items for b in items)


def is_directed_subset(L: FinitePoset, A) -> bool:
    return bool(A) and directed(A, L.le)


def way_below(L: FinitePoset, x: int, y: int) -> bool:
    """Totally-below restricted to directed subsets."""
    return _below_members(L, x, y, (A for A in _subsets(L.n) if is_directed_subset(L, A)))


def is_completely_distributive(L: FinitePoset) -> bool:
    """Every element is the join of the elements totally below it."""
    return _joins_what_is_below(L, lambda z, x: totally_below(L, z, x))


def is_continuous_lattice(L: FinitePoset) -> bool:
    """Every element is the join of the elements way below it."""
    return _joins_what_is_below(L, lambda z, x: way_below(L, z, x))


def is_ideal_threshold_form(phi):
    """Strict-threshold form of the ideal criterion, swept over realized values.

    Independent of is_ideal: quantifies r < 1 and s_i < phi(x_i) over the
    finitely many values realized by phi and the hom matrix.
    """
    X = phi.base
    levels = sorted(set(phi.values) | {v for row in X.hom for v in row} | {X.one})
    for r in levels:
        if not r < X.one:
            continue
        if not any(phi(x) > r for x in range(X.n)):
            return False, ("inhabited", r)
    for x1 in range(X.n):
        for x2 in range(X.n):
            for r in levels:
                if not r < X.one:
                    continue
                for s1 in levels:
                    if not s1 < phi(x1):
                        continue
                    for s2 in levels:
                        if not s2 < phi(x2):
                            continue
                        if not any(
                            phi(x) > r and X.hom[x1][x] > s1 and X.hom[x2][x] > s2
                            for x in range(X.n)
                        ):
                            return False, (x1, x2, r, s1, s2)
    return True, None


# --- generators and grid law checks on scalars -----------------------------
# The versions that evaluate every (*) and -> through tn.conj/tn.imp on
# Fractions; the library runs them on the grid's index tables.


def random_category(rng, n, grid):
    t = grid.tnorm
    pts = list(grid.points)
    hom = [[rng.choice(pts) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        hom[i][i] = tn.ONE
    hom = closure(hom, lambda a, b: tn.conj(t, a, b))
    return EnrichedCategory(t, hom, (), grid)


def random_weight(rng, X):
    vec = tuple(rng.choice(list(X.grid.points)) for _ in range(X.n))
    return weight_closure(X, vec)


def random_coweight(rng, X):
    return _dual(random_weight(rng, opposite(X)))


def random_functor(rng, X, Y):
    """gen.random_functor with a checked EnrichedFunctor built for every try."""
    for _ in range(64):
        mapping = tuple(rng.randrange(Y.n) for _ in range(X.n))
        try:
            return EnrichedFunctor(X, Y, mapping)
        except NotAFunctorError:
            continue
    return EnrichedFunctor(X, Y, tuple([rng.randrange(Y.n)] * X.n))


def _chain_module(grid):
    action = tuple(
        tuple(grid.points.index(tn.conj(grid.tnorm, r, x)) for x in grid.points) for r in grid.points
    )
    return ModuleAction(chain(len(grid.points)), grid, action)


def _opposite_chain_module(grid):
    n = len(grid.points)
    action = tuple(
        tuple(n - 1 - grid.points.index(tn.imp(grid.tnorm, r, grid.points[n - 1 - x])) for x in range(n))
        for r in grid.points
    )
    return ModuleAction(chain(n), grid, action)


def random_module(rng, t, max_size=5):
    kind = rng.randrange(4)
    if kind < 2:
        k = rng.randint(1, max_size - 1)
        lukasiewicz = tn.is_archimedean(t) and tn.archimedean_base(t) == tn.LUKASIEWICZ
        grid = unit_grid(k, t) if lukasiewicz else _godel_grid(rng, k, t)
        build = _chain_module if kind == 0 else _opposite_chain_module
        return _relabel_module(rng, build(grid))
    grid = grid_validate([0, 1], t)
    if kind == 2:
        return _relabel_module(rng, _trivial_module(boolean_lattice(), grid))
    L = rng.choice([P for P in lattice_catalog(max_size) if P.is_lattice()])
    return _relabel_module(rng, _trivial_module(L, grid))


def module_to_category(M):
    L, grid = M.lattice, M.grid
    hom = tuple(
        tuple(max(r for r in grid.points if L.le(M.act(r, x), y)) for y in range(L.n)) for x in range(L.n)
    )
    return EnrichedCategory(grid.tnorm, hom, tuple(f"m{i}" for i in range(L.n)), grid)


def module_law_failure(L, grid, action):
    """The message of the first module law that (L, grid, action) fails, or None."""
    t = grid.tnorm

    def act(r, x):
        return action[grid.points.index(r)][x]

    if not L.is_lattice():
        return "module carrier must be a complete lattice"
    for x in range(L.n):
        if act(tn.ONE, x) != x:
            return f"unit law fails at {x}"
    for r in grid.points:
        for s in grid.points:
            for x in range(L.n):
                if act(s, act(r, x)) != act(tn.conj(t, s, r), x):
                    return f"associativity fails at ({s}, {r}, {x})"
    bot = L.bottom
    for r in grid.points:
        if act(r, bot) != bot:
            return "action does not preserve the empty join"
        for x in range(L.n):
            for y in range(L.n):
                if L.join([act(r, x), act(r, y)]) != act(r, L.join([x, y])):
                    return f"action does not preserve joins at ({r}, {x}, {y})"
    for x in range(L.n):
        if act(tn.ZERO, x) != bot:
            return "zero scalar must act as bottom"
        for r in grid.points:
            for s in grid.points:
                if r <= s and not L.le(act(r, x), act(s, x)):
                    return f"action not monotone in the scalar at ({r}, {s}, {x})"
    return None


def weight_law_witness(X, values):
    """The first (x1, x2), x1-major, with values[x2] (*) X(x1, x2) > values[x1], or None.

    The Weight law check as a scalar loop through tn.conj, as it runs on a
    category without a grid; the library reads a gridded category's law off
    its grid's conj table.
    """
    for x1 in range(X.n):
        for x2 in range(X.n):
            if not tn.vle(tn.conj(X.tnorm, values[x2], X.hom[x1][x2]), values[x1]):
                return (x1, x2)
    return None


def coweight_law_witness(X, values):
    """The first failure of the coweight law, as Coweight reports it: the weight
    law on X^op, its witness read back as (y1, y2)."""
    w = weight_law_witness(opposite(X), values)
    return None if w is None else w[::-1]


def tensor(X, r, x):
    """presheaf.tensor through tn.imp: the least c with X(c, -) = r -> X(x, -), or None."""
    want = tuple(tn.imp(X.tnorm, r, h) for h in X.hom[x])
    return next((c for c in range(X.n) if all(tn.veq(a, b) for a, b in zip(X.hom[c], want))), None)


def conical_filter_value(F, lam):
    """laws.ConicalFilter's F(lam) through tn.imp: max over generators g of inf_i (g_i -> lam_i)."""
    t = F.grid.tnorm
    return max(min(tn.imp(t, a, b) for a, b in zip(g, lam)) for g in F.generators)


def negation_duality_check(grid, t):
    """laws.negation_duality_check through tn.imp: x -> (x -> 0) -> 0 on each point in turn."""
    for x in grid:
        zero = type(x)(0)
        if not tn.veq(tn.imp(t, tn.imp(t, x, zero), zero), x):
            return False, x
    return True, None


def grid_tnorm_laws(t, grid):
    """(laws, divisibility) of `recat laws tnorm` on grid points through tn.conj/tn.imp."""
    pts = grid.points
    ok = all(
        tn.conj(t, x, y) == tn.conj(t, y, x)
        and tn.conj(t, tn.conj(t, x, y), z) == tn.conj(t, x, tn.conj(t, y, z))
        and tn.conj(t, x, tn.ONE) == x
        and (tn.conj(t, x, y) <= z) == (y <= tn.imp(t, x, z))
        for x in pts
        for y in pts
        for z in pts
    )
    return ok, all(tn.conj(t, x, tn.imp(t, x, y)) == min(x, y) for x in pts for y in pts)


def filter_axiom_report(t, grid, size, table):
    """CF1..CF4 on grid points through tn.imp: the report of laws.filter_axiom_check."""
    lams = list(iproduct(grid.points, repeat=size))
    report = dict.fromkeys(("CF1", "CF2", "CF3", "CF4"))
    pairs, shifts = iproduct(lams, lams), iproduct(lams, grid.points)
    for axiom, witness in _cf_failures(partial(tn.imp, t), table.__getitem__, tn.ONE, size, pairs, shifts):
        report[axiom] = report[axiom] or witness
    report["pass"] = all(w is None for w in report.values())
    return report


def powerset_monad_check(t, grid, size, rng, samples=50):
    """laws.powerset_monad_check with every value a grid point and every (*) a tn.conj call."""
    pts = grid.points
    funcs = list(iproduct(pts, repeat=size))

    def unit(x_index):
        return tuple(tn.ONE if i == x_index else tn.ZERO for i in range(size))

    def mult(big):
        return tuple(max(tn.conj(t, big[g], g[i]) for g in funcs) for i in range(size))

    for g in (funcs if len(funcs) <= samples else rng.sample(funcs, samples)):
        if mult({h: (tn.ONE if h == g else tn.ZERO) for h in funcs}) != g:
            return False
        spread = {h: tn.ZERO for h in funcs}
        for i in range(size):
            spread[unit(i)] = max(spread[unit(i)], g[i])
        if mult(spread) != g:
            return False
    for _ in range(samples):
        big1 = {g: rng.choice(pts) for g in funcs}
        big2 = {g: rng.choice(pts) for g in funcs}
        r = rng.choice(pts)
        lhs = mult({g: max(tn.conj(t, r, big1[g]), big2[g]) for g in funcs})
        if lhs != tuple(max(tn.conj(t, r, a), b) for a, b in zip(mult(big1), mult(big2))):
            return False
    return True


# --- the hom of PX on values ----------------------------------------------
# On a grid `presheaf.sub` is a min over the imp table on indices; this is the
# formula on values for every pair of bases, each -> through the checked tn.imp.


def sub_on_values(phi1: Weight, phi2: Weight):
    """inf_x phi1(x) -> phi2(x), and 1 of the base's mode on an empty carrier."""
    _same_base(phi1.base, phi2.base)
    X = phi1.base
    return min((tn.imp(X.tnorm, a, b) for a, b in zip(phi1.values, phi2.values)), default=X.one)


def cosub_on_values(psi1, psi2):
    """inf_x psi2(x) -> psi1(x), as sub_on_values on the duals."""
    return sub_on_values(_dual(psi2), _dual(psi1))


# --- completions and the way-below distributor by grid-weight search ------
# The library computes these as closed forms (every sup on a finite carrier is
# a max, so Cauchy and ideal weights are representable); these search all
# |grid|^n weights as the definitions read.  The ball verdicts are read off
# the residual X \\ X entry by entry, where the library knows them to hold.


def cauchy_completion(X: EnrichedCategory, bound: int = 10**6):
    """(completion, embedding): distinct Cauchy grid weights under sub.

    Weights are separated, so isomorphism classes are literal equality of
    value vectors; the embedding sends x to the class of its Yoneda weight.
    """
    if X.grid is None:
        raise RecatError("cauchy completion enumerates grid weights; exact mode required")
    cauchys = [phi for phi in enumerate_weights(X, bound) if is_cauchy(phi) is not None]
    hom = tuple(tuple(sub(p1, p2) for p2 in cauchys) for p1 in cauchys)
    names = tuple(f"c{i}" for i in range(len(cauchys)))
    completion = EnrichedCategory(X.tnorm, hom, names, X.grid)
    index = {phi.values: i for i, phi in enumerate(cauchys)}
    embedding = tuple(index[yoneda(X, x).values] for x in range(X.n))
    return completion, embedding


def is_smyth_complete(X: EnrichedCategory) -> bool:
    """Separated and every enumerated grid ideal representable."""
    if not is_separated(X):
        return False
    for phi in enumerate_weights(X):
        if is_ideal(phi)[0] and is_representable(phi) is None:
            return False
    return True


def is_smyth_completable(X: EnrichedCategory) -> bool:
    """Every enumerated grid ideal is a Cauchy weight (separated carrier)."""
    if not is_separated(X):
        raise RecatError("smyth completability is postulated for separated carriers")
    for phi in enumerate_weights(X):
        if is_ideal(phi)[0] and is_cauchy(phi) is None:
            return False
    return True


def way_below_distributor(X: EnrichedCategory, bound: int = 10**6) -> Rel:
    """w(y, x) = inf over grid ideals with colimits of (X(x, colim) -> ideal(y))."""
    if X.grid is None:
        raise RecatError("the way-below distributor enumerates grid ideals; exact mode required")
    ideals = []
    for phi in enumerate_weights(X, bound):
        if is_ideal(phi)[0]:
            c = colim(phi)
            if c is not None:
                ideals.append((phi, c))
    if not ideals:
        raise RecatError("no ideals with colimits; carrier is empty")
    return Rel(X.n, X.n, _columns(_below(X, ideals), X.n))


def way_below_residual(X: EnrichedCategory, bound: int = 10**6) -> Rel:
    """The way-below distributor as X \\ X, under the ideal search's precondition."""
    _grid_space(X, bound)
    if X.n == 0:
        raise RecatError("no ideals with colimits; carrier is empty")
    return balls.way_below_via_representables(X)


def is_compact(X: EnrichedCategory, a: int) -> bool:
    """a is compact iff the way-below column at a is the Yoneda weight of a."""
    w = way_below_residual(X)
    ya = yoneda(X, a)
    return all(tn.veq(w(y, a), ya(y)) for y in range(X.n))


def is_continuous_enriched(X: EnrichedCategory) -> bool:
    """Every way-below column is an ideal with its anchor as colimit."""
    w = way_below_residual(X)
    for x in range(X.n):
        phi = Weight(X, tuple(w(y, x) for y in range(X.n)))
        if not is_ideal(phi)[0]:
            return False
        c = colim(phi)
        if c is None:
            return False
        if not (X.leq1(X.hom[c][x]) and X.leq1(X.hom[x][c])):
            return False
    return True


def ball_way_below(X: EnrichedCategory, b1, b2) -> bool:
    """(x, r) way below (y, s) via the strict inequality r < s (*) w(x, y)."""
    (x, r), (y, s) = b1, b2
    if not (r > 0 and s > 0):
        raise RecatError("ball way-below is stated for positive radii")
    w = way_below_residual(X)
    return r < X.conj(s, w(x, y))


def interpolation_check(X: EnrichedCategory) -> bool:
    """w o w = w as an exact matrix identity."""
    w = way_below_residual(X)
    return rel_eq(compose(X.tnorm, w, w), w)


def is_completely_distributive_enriched(X: EnrichedCategory):
    """(verdict, witness): every x is the colimit of its below-weight.

    The below-weight at x is the pointwise inf over all grid weights phi of
    X(x, colim phi) -> phi; requires a grid-cocomplete carrier.
    """
    if not is_cocomplete_over_grid(X):
        raise RecatError("enriched complete distributivity needs a grid-cocomplete carrier")
    weights = enumerate_weights(X)
    colims = [colim(phi) for phi in weights]
    if None in colims:
        raise RecatError("grid-cocomplete carrier is missing a colimit")
    # below[x][y] = inf over phi of X(x, colim phi) -> phi(y): row x is the below-weight at x
    at_colims = tuple(tuple(row[c] for c in colims) for row in X.hom)
    below = _residual_left(X.tnorm, _columns(tuple(phi.values for phi in weights), X.n), at_colims, X.one)
    for x, vec in enumerate(below):
        c = colim(Weight(X, vec))
        if c is None or not (X.leq1(X.hom[c][x]) and X.leq1(X.hom[x][c])):
            return False, x
    return True, None


def _below(X: EnrichedCategory, pairs):
    """m[x][y] = inf over (phi, c) in pairs of X(x, c) -> phi(y); row x is the below-weight at x."""
    at_colims = tuple(tuple(row[c] for _, c in pairs) for row in X.hom)
    return _residual_left(X.tnorm, _columns(tuple(phi.values for phi, _ in pairs), X.n), at_colims, X.one)


# --- the KZ report pair by pair ---------------------------------------------
# The library evaluates each distinct (phi, gamma) pair once, on grid indices
# when X has a grid; this loop evaluates every pair in order, repeats
# included, through the public formula `laws.kz_defect` on the weights.


def kz_check(X: EnrichedCategory, weights, test_weights, defect=laws.kz_defect) -> dict:
    """Inequality report over the sampled weight pairs; defect(phi, gamma) gives each pair."""
    weights, test_weights = list(weights), list(test_weights)
    for w in weights + test_weights:
        _same_base(w.base, X)
    violations = []
    equalities = 0
    for phi in weights:
        for gamma in test_weights:
            lhs, rhs = defect(phi, gamma)
            if not tn.vle(lhs, rhs):
                violations.append((phi.values, gamma.values))
            elif tn.veq(lhs, rhs):
                equalities += 1
    return {"total": len(weights) * len(test_weights), "equalities": equalities, "violations": violations}


# --- the Kan adjunction on weights ------------------------------------------
# `recat laws kan` checks f_! -| f^* on grid indices; this is the same check on
# `Weight`s through f_exists, f_inv and sub, the checked kernel, with the same
# draws: each distinct weight is extended or restricted once per functor.


def _once(fn):
    """fn on weights of one base, evaluated once per distinct values tuple."""
    seen = {}

    def call(w):
        if w.values not in seen:
            seen[w.values] = fn(w)
        return seen[w.values]

    return call


def suite_kan(t, grid, rng, args):
    """The `kan` suite's report: sub(f_! phi, gamma) = sub(phi, f^* gamma) on 25 drawn functors."""

    def failures():
        for _ in range(25):
            X = gen.random_category(rng, rng.randint(1, 4), grid)
            Y = gen.random_category(rng, rng.randint(1, 4), grid)
            f = gen.random_functor(rng, X, Y)
            extend, restrict = _once(partial(f_exists, f)), _once(partial(f_inv, f))
            checked = set()
            for _ in range(10):
                phi = gen.random_weight(rng, X)
                gamma = gen.random_weight(rng, Y)
                if (phi.values, gamma.values) in checked:
                    continue
                checked.add((phi.values, gamma.values))
                if sub(extend(phi), gamma) != sub(phi, restrict(gamma)):
                    yield f.mapping, phi.values, gamma.values

    return [_check("kan_adjunction", failures())]


# --- the KZ suite on weights ------------------------------------------------
# `recat laws kz` draws its categories and weights and checks them on grid
# indices, and reads the Cauchy verdict off the KZ kernel; this is the same
# suite on checked `Weight`s, with the same draws, through the pair-by-pair
# loop above and `is_cauchy`.


def kz_equality_consistent_with_cauchy(X: EnrichedCategory, bound: int = 10**6) -> bool:
    """Equality against every grid test weight holds exactly for the weights is_cauchy accepts."""
    weights = enumerate_weights(X, bound)
    return all(
        all(tn.veq(*laws.kz_defect(phi, gamma)) for gamma in weights) == (is_cauchy(phi) is not None)
        for phi in weights
    )


def _kz_defect_once():
    """laws.kz_defect on weights of one base, through the checked kernel on values: each
    test weight's Isbell bound and each pair's defect, keyed by values, computed once."""
    bounds, seen = {}, {}

    def defect(phi, gamma):
        key = phi.values, gamma.values
        if key not in seen:
            if gamma.values not in bounds:
                bounds[gamma.values] = isbell_ub(gamma)
            seen[key] = pairing(phi, bounds[gamma.values]), sub(gamma, phi)
        return seen[key]

    return defect


def suite_kz(t, grid, rng, args):
    """The `kz` suite's report: KZ on 20 drawn categories of eight weights each, KZ equality
    against Cauchy weights and the powerset monad."""

    def violations():
        for _ in range(20):
            X = gen.random_category(rng, rng.randint(1, 4), grid)
            ws = [Weight(X, gen.random_weight(rng, X).values) for _ in range(8)]
            yield from kz_check(X, ws, ws, _kz_defect_once())["violations"]

    checks = [_check("kz_inequality", violations())]
    equal = kz_equality_consistent_with_cauchy(gen.random_category(rng, 2, grid), args.bound)
    checks.append({"name": "kz_equality_vs_cauchy", "pass": equal, "witness": None})
    monad = laws.powerset_monad_check(grid, 2, rng, samples=20)
    checks.append({"name": "powerset_monad", "pass": monad, "witness": None})
    return checks


# --- conical flatness on every pair ---------------------------------------
# The library scans only x1 <= x2, since the binary-meet identity is symmetric
# under (x1, p1) <-> (x2, p2); this scans every (x1, x2).


def is_conically_flat(phi: Weight):
    """(verdict, witness, exact_flag) from the binary-meet identity at every (x1, x2, p1, p2)."""
    X = phi.base
    if not any(tn.veq(phi(x), X.one) for x in range(X.n)):
        return False, ("inhabited",), X.mode == "exact"
    points, exact = _breakpoints(X)
    for x1 in range(X.n):
        for x2 in range(X.n):
            for p1 in points:
                a1 = X.conj(p1, phi(x1))
                for p2 in points:
                    lhs = min(a1, X.conj(p2, phi(x2)))
                    rhs = max(
                        X.conj(min(X.conj(p1, X.hom[x1][x]), X.conj(p2, X.hom[x2][x])), phi(x))
                        for x in range(X.n)
                    )
                    if not tn.veq(lhs, rhs):
                        return False, (x1, x2, p1, p2), exact
    return True, None, exact


# --- directed families by search ------------------------------------------
# The library reads the bound of a finite directed family off the family: it
# holds a member above all members (balls), a pointwise least generator
# (conical filters), and the least meta and member generators give the least
# Kowalsky join.  These test directedness pair by pair, scan carrier x radius
# candidates for the least upper bound, and join every meta x member-generator
# combination, keeping the pointwise-minimal joins.


def directed_check(X: EnrichedCategory, fam) -> bool:
    """balls.directed_check pair by pair."""
    return bool(fam) and directed(fam, partial(balls.ball_leq, X))


def directed_join(X: EnrichedCategory, fam):
    """The least upper bound of fam among carrier x radius candidates, or None."""
    candidates = [(z, t) for z in range(X.n) for t in balls.radius_candidates(X, fam)]
    ubs = [c for c in candidates if all(balls.ball_leq(X, b, c) for b in fam)]
    return _least(ubs, partial(balls.ball_leq, X))


def pointwise_ge(a, b):
    return all(x >= y for x, y in zip(a, b))


def kowalsky_sum(meta_generators, filters):
    """laws.kowalsky_sum from every meta x member-generator join, keeping the minimal ones."""
    grid, size = filters[0].grid, filters[0].size
    metas = [tuple(xi) for xi in meta_generators]
    if not metas or not directed(metas, pointwise_ge):
        raise RecatError("meta generators are not directed")
    gens = [
        tuple(row[0] for row in _compose(grid.tnorm, (xi,), _columns(combo, size), tn.ZERO))
        for xi in metas
        for combo in iproduct(*(F.generators for F in filters))
    ]
    minimal = []
    for g in sorted(set(gens)):
        if not any(pointwise_ge(g, h) for h in minimal):
            minimal.append(g)
    return laws.ConicalFilter(grid, size, tuple(minimal))


# --- t-norms switched on their kind ---------------------------------------
# The rational (*) and -> and the t-norm predicates as they were written before
# a t-norm was built from its ordinal summands: one branch per named base, and
# the ordinal-sum formula on the blocks.


def conj_by_kind(t, x, y):
    if t.kind == tn.GODEL:
        return x if x <= y else y
    if t.kind == tn.LUKASIEWICZ:
        z = x + y - tn.ONE
        return z if z > tn.ZERO else tn.ZERO
    if t.kind == tn.PRODUCT:
        return x * y
    for b in t.blocks:
        lo, hi = b.lo, b.hi
        if lo <= x <= hi and lo <= y <= hi:
            if b.inner == tn.LUKASIEWICZ:
                z = x + y - hi
                return z if z > lo else lo
            return lo + (x - lo) * (y - lo) / (hi - lo)
    return x if x <= y else y


def imp_by_kind(t, x, y):
    if x <= y:
        return tn.ONE
    if t.kind == tn.GODEL:
        return y
    if t.kind == tn.LUKASIEWICZ:
        return tn.ONE - x + y
    if t.kind == tn.PRODUCT:
        return y / x
    for b in t.blocks:
        lo, hi = b.lo, b.hi
        if lo <= y < x <= hi:
            if b.inner == tn.LUKASIEWICZ:
                return hi - x + y
            return lo + (hi - lo) * (y - lo) / (x - lo)
    return y


def supports_exact_by_kind(t) -> bool:
    if t.kind == tn.PRODUCT:
        return False
    if t.kind == tn.ORDINAL:
        return all(b.inner == tn.LUKASIEWICZ for b in t.blocks)
    return True


def is_archimedean_by_kind(t) -> bool:
    if t.kind in (tn.PRODUCT, tn.LUKASIEWICZ):
        return True
    if t.kind == tn.ORDINAL and len(t.blocks) == 1:
        b = t.blocks[0]
        return b.lo == tn.ZERO and b.hi == tn.ONE
    return False


def archimedean_base_by_kind(t):
    """The base kind of an Archimedean t-norm, None for any other."""
    if not is_archimedean_by_kind(t):
        return None
    if t.kind == tn.ORDINAL:
        return t.blocks[0].inner
    return t.kind


def continuous_off_diagonal_by_kind(t) -> bool:
    if t.kind in (tn.GODEL, tn.PRODUCT, tn.LUKASIEWICZ):
        return True
    luka = [b for b in t.blocks if b.inner == tn.LUKASIEWICZ]
    if not luka:
        return True
    return len(luka) == 1 and luka[0].lo == tn.ZERO


# --- the sampled t-norm laws through the checked entry points --------------
# `recat laws tnorm` samples its float laws with the tolerance inlined and its
# generator identity on t's compiled generator pair; these are its two loops as
# they read through `tn.equality` and the checked `generator_eval`/
# `pseudo_inverse`, and the float branches those two had before the pair.


def generator_by_base(t, x):
    """The float additive generator as generator_eval wrote it per Archimedean base."""
    if archimedean_base_by_kind(t) == tn.LUKASIEWICZ:
        return x - 1.0
    return math.log(x) if x > 0.0 else tn.NEG_INF


def pseudo_inverse_by_base(t, u):
    """The float pseudo-inverse as pseudo_inverse wrote it per Archimedean base."""
    if archimedean_base_by_kind(t) == tn.LUKASIEWICZ:
        return max(0.0, u + 1.0)
    return math.exp(u) if u != tn.NEG_INF else 0.0


def suite_tnorm_samples(t, rng):
    """The float-sampled checks of `recat laws tnorm`: the laws on 2,000 triples and, for
    an Archimedean t, the generator identity on 2,000 pairs."""
    samples = 2000
    conj, imp = tn.evaluators(t, "float")
    eq = tn.equality("float")

    def float_failures():
        for _ in range(samples):
            x, y, z = rng.random(), rng.random(), rng.random()
            xy = conj(x, y)
            if not eq(xy, conj(y, x)):
                yield x, y
            elif not eq(conj(xy, z), conj(x, conj(y, z))):
                yield x, y, z
            elif not eq(conj(x, imp(x, y)), min(x, y)):
                yield x, y

    def generator_failures():
        for _ in range(samples):
            x, y = rng.random(), rng.random()
            u = tn.generator_eval(t, x) + tn.generator_eval(t, y)
            if abs(tn.pseudo_inverse(t, u) - conj(x, y)) > 1e-9:
                yield x, y

    checks = [_check("laws_float_sampled", float_failures())]
    if tn.is_archimedean(t):
        checks.append(_check("generator_reconstruction", generator_failures()))
    return checks
