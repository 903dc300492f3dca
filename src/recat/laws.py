"""Monad- and module-level law verification at grid scale.

Covers the lax-idempotent inequality of the free-cocompletion monad, the
module/cocomplete-category correspondence, the negation involution, conical
filter axioms and the Kowalsky sum.  KZ and CF1-CF4 have one checker for both
modes, comparing through tn.vle/tn.veq (exact on Fractions, within TOL on
floats), so their float checks run the exact checkers on sampled points.
Each law has one loop.  KZ's, `_kz_loop`, takes hashable vectors and
evaluates a repeated test weight, and a repeated pair, once; `recat laws kz`
feeds it index tuples straight from its draws, on `_kz_on_grid`, kz_defect's
formula read off the grid's conj/imp tables and compared with plain <=/== on
indices.  kz_check takes weights on X alone and indexes each distinct one
once; it and the KZ equality-versus-Cauchy check pick the kernel once: on
grid indices when X has a grid, else on values.  The equality check reads the
Cauchy verdict off that kernel too, so no is_cauchy call is made.  The negation
involution runs one (x -> 0) -> 0 loop on the imp table or on floats.  The
module, negation, filter-axiom and powerset checks take the ValueGrid alone,
t-norm included, and work on grid indices through its conj/imp tables, as do
filter evaluation and the filter cotensor.  `poset._least`, the
one bound search, finds the pointwise least generator that a finite directed
set holds; (->) is antitone in its first argument, so it attains F's max over
generators; and the Kowalsky generator join is monotone in the meta and member
generators, so the least ones give the least join, one composition on grid
indices.  The searches these replace are oracles in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations_with_replacement, product as iproduct
from math import comb
from operator import attrgetter, eq, le

from . import tnorm as tn
from .cat import (
    EnrichedCategory,
    _columns,
    _compose,
    _compose_on,
    _residual_left,
    is_separated,
    underlying_order,
)
from .errors import BoundExceededError, RecatError
from .poset import FinitePoset, _joins, _least, _relabelings
from .presheaf import (
    Weight,
    _same_base,
    _tensor_table,
    enumerate_weights,
    is_cocomplete_over_grid,
    isbell_ub,
    pairing,
    sub,
)
from .values import ValueGrid, _check_scalars, _count, _in_carrier, _items


# --- lax idempotency ------------------------------------------------------


def kz_defect(phi: Weight, gamma: Weight):
    """(lhs, rhs) of the unit comparison at (phi, gamma); lhs <= rhs always.

    lhs is the image of phi under the free functor applied to the unit,
    evaluated at gamma: sup_x phi(x) (*) sub(gamma, yoneda(X, x)).  The
    identity sub(gamma, yoneda(X, x)) = isbell_ub(gamma)(x) holds scalar for
    scalar, both being inf_z (gamma(z) -> X(z, x)) with the same operands in
    the same order, so lhs is pairing(phi, isbell_ub(gamma)) and one Isbell
    bound serves every phi tested against gamma.  rhs is the unit at the
    free level, sub(gamma, phi).  Equality for all gamma characterizes the
    Cauchy weights.  On an empty carrier the pair is (0, 1).
    """
    return pairing(phi, isbell_ub(gamma)), sub(gamma, phi)


def _kz_on_grid(grid: ValueGrid, at) -> tuple:
    """(bound, verdict): kz_defect's formula on grid indices, `at` being X's hom on them.

    bound(gamma) is a test weight's Isbell bound inf_x (gamma(x) -> X(x, -)), and
    verdict(phi, gamma, bound(gamma)) is (lhs <= rhs, lhs == rhs), read off the
    grid's conj/imp tables; indices ascend with the points, so the comparisons
    are plain ones on ints.
    """
    conj, imp, top = grid.conj_table, grid.imp_table, len(grid.points) - 1
    cols = _columns(at, len(at))  # cols[y][x]: X(x, y)

    def bound(gamma):
        return tuple(min([imp[g][h] for g, h in zip(gamma, col)], default=top) for col in cols)

    def verdict(phi, gamma, gamma_ub):
        lhs = max([conj[a][b] for a, b in zip(phi, gamma_ub)], default=0)
        rhs = min([imp[g][a] for g, a in zip(gamma, phi)], default=top)
        return lhs <= rhs, lhs == rhs

    return bound, verdict


def _kz_operands(X: EnrichedCategory, weights):
    """(read, bound, verdict): kz_defect's formula on one kernel, picked once.

    read(w) is a weight's vector, and bound and verdict are as in _kz_on_grid.
    When X has a grid that every weight was checked on, the vectors are grid
    indices, X's hom is indexed once and the kernel is _kz_on_grid's; otherwise
    it runs on the values under X's t-norm and compares through tn.vle/tn.veq.
    A weight on an equal-hom base without X's grid may hold values off it, so
    it keeps the whole check on values.
    """
    grid = X.grid
    if grid is not None and all(w.base is X or w.base.grid == grid for w in weights):
        pos = grid._pos

        def read(w):
            return tuple(pos[v] for v in w.values)

        return (read, *_kz_on_grid(grid, [tuple(pos[h] for h in row) for row in X.hom]))
    compose, residual = partial(_compose, X.tnorm), partial(_residual_left, X.tnorm)
    zero, one = X.zero, X.one
    cols = _columns(X.hom, X.n)

    def bound(gamma):
        return residual(cols, (gamma,), one)[0]

    def verdict(phi, gamma, gamma_ub):
        lhs = compose((phi,), (gamma_ub,), zero)[0][0]
        rhs = residual((phi,), (gamma,), one)[0][0]
        return tn.vle(lhs, rhs), tn.veq(lhs, rhs)

    return attrgetter("values"), bound, verdict


def _kz_loop(bound, verdict, phis, gammas) -> tuple:
    """(equalities, violations) of the KZ inequality over phis x gammas, the one KZ loop.

    phis and gammas are hashable vectors on the kernel of bound and verdict;
    each distinct gamma gets one Isbell bound and each distinct pair one
    verdict.  Equalities are counted, and violating (phi, gamma) pairs listed
    in the order of the two lists, with multiplicity.
    """
    ubs, verdicts = {}, {}
    violations = []
    equalities = 0
    for phi in phis:
        for gamma in gammas:
            pair = phi, gamma
            v = verdicts.get(pair)
            if v is None:
                ub = ubs.get(gamma)
                if ub is None:
                    ub = ubs[gamma] = bound(gamma)
                v = verdicts[pair] = verdict(phi, gamma, ub)
            if not v[0]:
                violations.append(pair)
            elif v[1]:
                equalities += 1
    return equalities, violations


def kz_check(X: EnrichedCategory, weights, test_weights) -> dict:
    """Inequality report over the sampled weight pairs, all on X.

    Each distinct weight is read once, on grid indices when X has a grid, and
    _kz_loop evaluates the pairs: `total` and `equalities` count them with
    multiplicity, and `violations` lists every violating pair of values in the
    order of the two lists, repeats included.
    """
    weights, test_weights = list(weights), list(test_weights)
    for w in weights + test_weights:
        _same_base(w.base, X)
    read, bound, verdict = _kz_operands(X, weights + test_weights)
    reads = {}  # values -> vector: each distinct weight is read once

    def read_once(w):
        v = reads.get(w.values)
        if v is None:
            v = reads[w.values] = read(w)
        return v

    phis, gammas = [read_once(w) for w in weights], [read_once(w) for w in test_weights]
    values = {v: w for w, v in reads.items()}
    equalities, violations = _kz_loop(bound, verdict, phis, gammas)
    return {
        "total": len(weights) * len(test_weights),
        "equalities": equalities,
        "violations": [(values[phi], values[gamma]) for phi, gamma in violations],
    }


def kz_equality_consistent_with_cauchy(X: EnrichedCategory, bound: int = 10**6) -> bool:
    """Equality against every grid test weight holds exactly for Cauchy weights.

    The pairs run on grid indices (enumeration needs a grid), and so does the
    Cauchy verdict, read off the same kernel.  Proof: is_cauchy's unit check
    is 1 <= pairing(phi, isbell_ub(phi)), the lhs of the pair (phi, phi), and
    its rhs is sub(phi, phi) = inf_x (phi(x) -> phi(x)) = 1; since lhs <= 1,
    phi is Cauchy iff pairing(phi, isbell_ub(phi)) = 1 = sub(phi, phi), that
    is iff (phi, phi) is an equality.
    """
    weights = enumerate_weights(X, bound)
    read, ub, verdict = _kz_operands(X, weights)
    tests = [(gamma, ub(gamma)) for gamma in map(read, weights)]
    return all(
        all(verdict(phi, gamma, gamma_ub)[1] for gamma, gamma_ub in tests) == verdict(phi, phi, phi_ub)[1]
        for phi, phi_ub in tests
    )


# --- modules --------------------------------------------------------------


@dataclass(frozen=True)
class ModuleAction:
    """A complete lattice with a grid action preserving joins in each slot."""

    lattice: FinitePoset
    grid: ValueGrid
    action: tuple  # action[ri][x] with ri indexing grid.points

    def __post_init__(self):
        object.__setattr__(self, "action", tuple(_items(row, "action row") for row in _items(self.action, "action")))
        validate_module(self)

    def act(self, r, x: int) -> int:
        _in_carrier(self.lattice, x)
        return self.action[_check_scalars((r,), self.grid)[0]][x]


def validate_module(M: ModuleAction):
    """Raise on the first failed module law; scalars are grid indices throughout."""
    L, pts = M.lattice, M.grid.points
    act, conj, k = M.action, M.grid.conj_table, len(M.grid.points)
    bot, join = L.bottom, _joins(L)  # L.is_lattice(), with the join table built once
    if not L.antisymmetric or bot is None or any(None in row for row in join):
        raise RecatError("module carrier must be a complete lattice")
    if len(act) != k or any(len(row) != L.n or not set(row) <= set(range(L.n)) for row in act):
        raise RecatError(f"a module action needs {k} rows of {L.n} lattice elements each")
    for x in range(L.n):
        if act[k - 1][x] != x:
            raise RecatError(f"unit law fails at {x}")
    for ri in range(k):
        for si in range(k):
            r_row, s_row, rs_row = act[ri], act[si], act[conj[si][ri]]
            for x in range(L.n):
                if s_row[r_row[x]] != rs_row[x]:
                    raise RecatError(f"associativity fails at ({pts[si]}, {pts[ri]}, {x})")
    for ri in range(k):
        row = act[ri]
        if row[bot] != bot:
            raise RecatError("action does not preserve the empty join")
        for x in range(L.n):
            for y in range(L.n):
                if join[row[x]][row[y]] != row[join[x][y]]:
                    raise RecatError(f"action does not preserve joins at ({pts[ri]}, {x}, {y})")
    for x in range(L.n):
        if act[0][x] != bot:
            raise RecatError("zero scalar must act as bottom")
        for ri in range(k):
            for si in range(ri, k):
                if not L.le(act[ri][x], act[si][x]):
                    raise RecatError(f"action not monotone in the scalar at ({pts[ri]}, {pts[si]}, {x})")


def module_to_category(M: ModuleAction) -> EnrichedCategory:
    """hom(x, y) = max {r in grid : r act x <= y}."""
    L, grid = M.lattice, M.grid
    scalars = range(len(grid.points))
    hom = tuple(
        tuple(grid.points[max(ri for ri in scalars if L.le(M.action[ri][x], y))] for y in range(L.n))
        for x in range(L.n)
    )
    names = tuple(f"m{i}" for i in range(L.n))
    return EnrichedCategory(grid.tnorm, hom, names, grid)


def category_to_module(A: EnrichedCategory) -> ModuleAction:
    """Tensors of a separated grid-cocomplete category, packaged as an action."""
    if A.grid is None:
        raise RecatError("module extraction needs a grid")
    if not is_separated(A):
        raise RecatError("module extraction needs a separated carrier")
    if not is_cocomplete_over_grid(A):
        raise RecatError("module extraction needs a grid-cocomplete carrier")
    return ModuleAction(underlying_order(A), A.grid, _tensor_table(A))


def modules_isomorphic(M: ModuleAction, N: ModuleAction) -> bool:
    if M.grid.points != N.grid.points:
        return False
    return any(
        all(perm[a[x]] == b[perm[x]] for a, b in zip(M.action, N.action) for x in range(M.lattice.n))
        for perm in _relabelings(M.lattice.leq, N.lattice.leq, eq)
    )


# --- negation duality -----------------------------------------------------


def _negation_failures(imp, zero, eq, xs):
    """Each x in xs with (x -> 0) -> 0 unequal to x, for a residuum imp with bottom zero and an equality eq."""
    return (x for x in xs if not eq(imp(imp(x, zero), zero), x))


def negation_duality_check(grid: ValueGrid):
    """(verdict, first failing point) of x = (x -> 0) -> 0, read off the imp table."""
    imp = grid.imp_table
    i = next(_negation_failures(lambda a, b: imp[a][b], 0, eq, range(len(grid.points))), None)
    return i is None, None if i is None else grid.points[i]


def negation_duality_check_float(t: tn.TNorm, samples=64):
    """(verdict, first failing point) of x = (x -> 0) -> 0 at k / samples, 0 < k < samples;
    samples >= 2, so at least one point is checked."""
    _count(samples, "samples", 2)
    imp = tn.evaluators(t, "float")[1]
    x = next(_negation_failures(imp, 0.0, tn.equality("float"), (k / samples for k in range(1, samples))), None)
    return x is None, x


# --- conical filters ------------------------------------------------------


def _sub_vec(imp, xi, lam):
    """inf_i (xi_i -> lam_i) for a residuum imp(a, b)."""
    return min(imp(a, b) for a, b in zip(xi, lam))


def _least_vector(vectors, grid: ValueGrid, what: str) -> tuple:
    """The grid indices of the pointwise least of the vectors; RecatError, led by
    `what`, when they hold none, which for a finite family means not directed."""
    at = [tuple(_check_scalars(v, grid, f"{what} entry ")) for v in vectors]
    least = _least(at, lambda a, b: all(map(le, a, b)))
    if least is None:
        raise RecatError(f"{what}s are not directed")
    return least


@dataclass(frozen=True)
class ConicalFilter:
    """A filter generated by a finite directed set of grid vectors.

    Evaluation is the pointwise best lower approximation degree:
    F(lam) = max over generators xi of inf_i (xi_i -> lam_i) under grid.tnorm,
    attained at the pointwise least generator.
    """

    grid: ValueGrid
    size: int
    generators: tuple
    # the grid indices of the pointwise least generator
    _least_at: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _count(self.size, "filter size")
        gens = tuple(_items(g, "generator") for g in _items(self.generators, "generators"))
        object.__setattr__(self, "generators", gens)
        if any(len(g) != self.size for g in gens):
            raise RecatError("generator length mismatch")
        object.__setattr__(self, "_least_at", _least_vector(gens, self.grid, "generator"))

    def __call__(self, lam):
        """inf_i (g_i -> lam_i) for the least generator g, through the imp table."""
        grid = self.grid
        imp, at = grid.imp_table, _check_scalars(_items(lam, "argument"), grid, "argument entry ")
        if len(at) != self.size:
            raise RecatError(f"a filter of size {self.size} takes {self.size} entries, got {len(at)}")
        return grid.points[min(imp[a][b] for a, b in zip(self._least_at, at))]


def filter_table(F, grid: ValueGrid, size: int) -> dict:
    """Tabulate a filter-like functional on all grid arguments."""
    return {lam: F(lam) for lam in iproduct(grid.points, repeat=size)}


def _cf_failures(imp, F, one, size: int, pairs, shifts):
    """(axiom, witness) for each failure of the functional F, in check order.

    CF2: F(1) = 1, at the top vector
    CF1: sub(lam, mu) <= F(lam) -> F(mu), at each (lam, mu) in pairs
    CF3: F(lam meet mu) = F(lam) meet F(mu), at each (lam, mu) in pairs
    CF4: F(r -> lam) = 1 whenever F(lam) > r, at each (lam, r) in shifts

    imp(a, b) is the residuum of the scalars F works on: the float -> on floats, or
    the grid's imp table on grid indices, whose order is the points' order.
    Comparisons go through tn.vle/tn.veq: exact on Fractions and ints, within
    TOL on floats.
    """
    top = (one,) * size
    if not tn.veq(F(top), one):
        yield "CF2", (top,)
    for lam, mu in pairs:
        if not tn.vle(_sub_vec(imp, lam, mu), imp(F(lam), F(mu))):
            yield "CF1", (lam, mu)
        if not tn.veq(min(F(lam), F(mu)), F(tuple(map(min, lam, mu)))):
            yield "CF3", (lam, mu)
    for lam, r in shifts:
        if not tn.vle(F(lam), r) and not tn.veq(F(tuple(imp(r, v) for v in lam)), one):
            yield "CF4", (lam, r)


def filter_axiom_check(grid: ValueGrid, table) -> dict:
    """CF1..CF4 for an arbitrary functional tabulated on all grid vectors of one size.

    The axioms run on grid indices through the grid's imp table; the report
    holds the first witness of each failed axiom as grid points, or None.
    Table keys and values must be exact grid points.
    """
    pts, imp = grid.points, grid.imp_table
    if not isinstance(table, dict):
        raise RecatError(f"a filter table is a dict, not {type(table).__name__}")
    scalars = range(len(pts))
    values = _check_scalars(table.values(), grid, "table value ")
    at = [tuple(_check_scalars(_items(lam, "table key"), grid, "table key entry ")) for lam in table]
    size = len(at[0]) if at else 1
    if len(at) != len(pts) ** size or any(len(lam) != size for lam in at):
        raise RecatError("a filter table needs one value at each grid vector of one size")
    on_indices = dict(zip(at, values))
    lams = list(iproduct(scalars, repeat=size))
    pairs, shifts = iproduct(lams, lams), iproduct(lams, scalars)
    report = dict.fromkeys(("CF1", "CF2", "CF3", "CF4"))
    failures = _cf_failures(lambda a, b: imp[a][b], on_indices.__getitem__, scalars[-1], size, pairs, shifts)
    for axiom, witness in failures:
        if report[axiom] is None:  # index vectors and scalars back to points
            report[axiom] = tuple(tuple(pts[i] for i in w) if isinstance(w, tuple) else pts[w] for w in witness)
    report["pass"] = all(w is None for w in report.values())
    return report


def conical_filter_check(F: ConicalFilter) -> dict:
    return filter_axiom_check(F.grid, filter_table(F, F.grid, F.size))


def cotensor_filter_table(grid: ValueGrid, r, table) -> dict:
    """The pointwise cotensor r -> F of a functional tabulated on the grid, read off the
    imp table's row at r; r and the values must be exact grid points."""
    row = grid.imp_table[_check_scalars((r,), grid, "cotensor scalar ")[0]]
    at = _check_scalars(table.values(), grid, "table value ")
    return {lam: grid.points[row[i]] for lam, i in zip(table, at)}


def kowalsky_sum(meta_generators, filters) -> ConicalFilter:
    """Flatten a finitely generated filter of filters into a filter.

    Each meta generator xi assigns a grid level to every member filter; its
    contribution inf_F (xi(F) -> F) is generated by the joins sup_F xi(F) (*) g_F
    of member generators g_F.  The least xi and least g_F give the least join,
    which alone generates the sum, on the members' one grid and size.
    """
    filters = _items(filters, "filters")
    if not filters:
        raise RecatError("kowalsky sum needs a nonempty filter support")
    if any(not isinstance(F, ConicalFilter) for F in filters):
        raise RecatError("kowalsky sum members must be conical filters")
    grid, size = filters[0].grid, filters[0].size
    if any((F.grid, F.size) != (grid, size) for F in filters):
        raise RecatError("kowalsky sum members must share one grid and size")
    metas = tuple(_items(xi, "meta generator") for xi in _items(meta_generators, "meta generators"))
    if any(len(xi) != len(filters) for xi in metas):
        raise RecatError("meta generator length mismatch")
    xi = _least_vector(metas, grid, "meta generator")
    join = _compose_on(grid.conj_table, (xi,), _columns([F._least_at for F in filters], size), 0)
    return ConicalFilter(grid, size, (tuple(grid.points[i] for i, in join),))


def conical_filter_check_float(t: tn.TNorm, size: int, rng, samples: int = 200) -> bool:
    """Sampled float-mode filter axioms for t-norms without exact grids.

    Generates principal-style filters from random float vectors and verifies
    CF1..CF4 (and the cotensor staying in class) on sampled arguments within
    the float tolerance.
    """
    _count(size, "filter size")
    _count(samples, "samples")
    conj, imp = tn.evaluators(t, "float")
    for _ in range(samples):
        gen_vec = tuple(rng.random() for _ in range(size))
        r0 = rng.random()
        for vec in (gen_vec, tuple(conj(r0, g) for g in gen_vec)):
            lam = tuple(rng.random() for _ in range(size))
            mu = tuple(rng.random() for _ in range(size))
            r = rng.random()
            if any(_cf_failures(imp, partial(_sub_vec, imp, vec), 1.0, size, [(lam, mu)], [(lam, r)])):
                return False
    return True


def find_cf4_cotensor_witness(grid: ValueGrid, bound: int = 10**6):
    """Search one-point filter tables whose cotensor escapes the filter class.

    Returns (table, r, lam, s) such that the table passes CF1..CF4 but the
    cotensor r -> table fails CF4 at (lam, s); None when the class is closed,
    which is the case exactly when the implication is continuous off the
    diagonal.  The C(2k - 1, k) monotone candidate tables on a k-point grid
    must not exceed bound.
    """
    pts = grid.points
    if comb(2 * len(pts) - 1, len(pts)) > _count(bound, "bound", 0):  # a zero bound is exceeded, not malformed
        raise BoundExceededError(f"C({2 * len(pts) - 1}, {len(pts)}) candidate tables exceed bound {bound}")
    for values in combinations_with_replacement(pts, len(pts)):
        if values[-1] != tn.ONE:
            continue
        table = dict(zip(((p,) for p in pts), values))
        if not filter_axiom_check(grid, table)["pass"]:
            continue
        for r in pts:
            rep = filter_axiom_check(grid, cotensor_filter_table(grid, r, table))
            if rep["CF4"] is not None:
                lam, s = rep["CF4"]
                return table, r, lam, s
    return None


# --- free-algebra monad on plain sets --------------------------------------


def powerset_monad_check(grid: ValueGrid, size: int, rng, samples: int = 50) -> bool:
    """Unit and multiplication laws of the grid-valued powerset monad.

    m(L) = sup_g L(g) (*) g over grid functions g; both unit laws and the
    associativity square are verified on sampled second-order elements.
    Grid values are indices throughout, combined through the grid's conj table.
    """
    _count(size, "size")
    _count(samples, "samples")
    k, conj = len(grid.points), grid.conj_table
    funcs = list(iproduct(range(k), repeat=size))
    at_point = _columns(funcs, size)  # at_point[i][j] = funcs[j][i]

    def unit(x_index):
        return tuple(k - 1 if i == x_index else 0 for i in range(size))

    def mult(big):  # big: dict func -> value
        weights = [big[g] for g in funcs]
        return tuple(max(conj[a][b] for a, b in zip(weights, row)) for row in at_point)

    # m . e_P = id and m . P(e) = id
    for g in (funcs if len(funcs) <= samples else rng.sample(funcs, samples)):
        point_mass = {h: (k - 1 if h == g else 0) for h in funcs}
        if mult(point_mass) != g:
            return False
        spread = {h: 0 for h in funcs}
        for i in range(size):
            spread[unit(i)] = max(spread[unit(i)], g[i])
        if mult(spread) != g:
            return False
    # associativity on sampled second-order elements, pushed down one level
    for _ in range(samples):
        big1 = {g: rng.randrange(k) for g in funcs}
        big2 = {g: rng.randrange(k) for g in funcs}
        r = rng.randrange(k)
        blended = {g: max(conj[r][big1[g]], big2[g]) for g in funcs}
        lhs = mult(blended)
        rhs = tuple(max(conj[r][a], b) for a, b in zip(mult(big1), mult(big2)))
        if lhs != rhs:
            return False
    return True
