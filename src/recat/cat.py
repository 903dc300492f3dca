"""Finite real-enriched categories, functors, [0,1]-relations and distributors.

A category is a carrier with a hom matrix satisfying reflexivity and
(*)-transitivity.  Relations compose by sup-(*) products and carry two inf-(->)
residuals; the relation kernel has two loops, `_compose` and `_residual_left`,
and the right residual is the left one transposed; `_compose_on` and
`_residual_left_on` are the same two loops on grid indices.  Weights in
`presheaf` are one-column matrices (one kernel call per formula); coweights
are their duals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from . import tnorm as tn
from . import values as vals
from .errors import (
    BoundExceededError,
    CarrierMismatchError,
    ModeMismatchError,
    NotAFunctorError,
    RecatError,
)
from .poset import FinitePoset, _relabelings


@dataclass(frozen=True)
class EnrichedCategory:
    tnorm: tn.TNorm
    hom: tuple  # n x n matrix of values
    names: tuple = ()
    grid: vals.ValueGrid | None = None
    _op = None  # opposite(self) once built; a plain attribute, not a dataclass field

    def __post_init__(self):
        names = self.names
        if names and (not all(isinstance(a, str) for a in names) or len(set(names)) < len(names)):
            raise RecatError(f"names must be distinct strings, got {list(names)}")
        rows = tuple(tuple(map(vals._normalize, vals._items(row, "hom row"))) for row in vals._items(self.hom, "hom"))
        object.__setattr__(self, "hom", rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise RecatError("hom must be square")
        if not names:
            object.__setattr__(self, "names", tuple(f"x{i}" for i in range(n)))
        elif len(names) != n:
            raise RecatError("names must match the carrier size")
        if self.grid is not None and self.grid.tnorm != self.tnorm:
            raise RecatError(f"the grid is closed under {self.grid.tnorm}, not {self.tnorm}")
        vals._check_scalars((v for row in rows for v in row), self.grid, "hom value ")

    @property
    def n(self) -> int:
        return len(self.hom)

    @property
    def mode(self) -> str:
        return tn.mode_of(self.hom[0][0]) if self.n else "exact"

    @property
    def one(self):
        return tn.ONE if self.mode == "exact" else 1.0

    @property
    def zero(self):
        return tn.ZERO if self.mode == "exact" else 0.0

    def conj(self, x, y):
        return tn.conj(self.tnorm, x, y)

    def imp(self, x, y):
        return tn.imp(self.tnorm, x, y)

    def leq1(self, v) -> bool:
        """Whether a value of X's mode counts as 1: tn.vle(X.one, v), picked by the value's mode."""
        return 1.0 <= v + tn.TOL if type(v) is float else tn.ONE <= v

    def to_json(self):
        return {
            "tnorm": tn.format_tnorm(self.tnorm),
            "grid": vals._encode(self.grid.points) if self.grid else None,
            "names": list(self.names),
            "hom": vals._encode(self.hom),
        }

    @staticmethod
    def from_json(data) -> "EnrichedCategory":
        vals._json_object(data, "a category", "tnorm", "hom")
        t = tn.parse_tnorm(data["tnorm"])
        points = vals._json_array(data.get("grid"), "grid", optional=True)
        grid = vals.grid_validate(points, t) if points else None
        rows = vals._json_array(data["hom"], "hom")
        hom = tuple(tuple(vals._json_array(row, "hom row")) for row in rows)
        names = tuple(vals._json_array(data.get("names"), "names", optional=True))
        return EnrichedCategory(t, hom, names, grid)


def terminal(t: tn.TNorm, grid=None) -> EnrichedCategory:
    return EnrichedCategory(t, ((tn.ONE,),), ("*",), grid)


@dataclass
class ValidationReport:
    ok: bool
    reason: str = ""
    witness: tuple | None = None


def validate(X: EnrichedCategory) -> ValidationReport:
    """Check reflexivity and transitivity; report the first violating triple."""
    hom = X.hom
    for x in range(X.n):
        if not tn.veq(hom[x][x], X.one):
            return ValidationReport(False, "reflexivity", (x,))
    conj = tn.evaluators(X.tnorm, X.mode)[0]
    for y in range(X.n):
        for z in range(X.n):
            for x in range(X.n):
                if not tn.vle(conj(hom[y][z], hom[x][y]), hom[x][z]):
                    return ValidationReport(False, "transitivity", (y, z, x))
    return ValidationReport(True)


@dataclass(frozen=True)
class Rel:
    """A [0,1]-relation between carriers, rows indexed by the source."""

    src: int
    tgt: int
    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(map(vals._normalize, vals._items(row, "row"))) for row in vals._items(self.rows, "rows"))
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.src or any(len(r) != self.tgt for r in rows):
            raise RecatError("relation shape mismatch")
        vals._check_scalars((v for row in rows for v in row), what="relation value ")

    def __call__(self, x, y):
        return self.rows[x][y]

    def op(self) -> "Rel":
        return Rel(self.tgt, self.src, _columns(self.rows, self.tgt))


def hom_rel(X: EnrichedCategory) -> Rel:
    return Rel(X.n, X.n, X.hom)


def identity_rel(n: int) -> Rel:
    return Rel(n, n, tuple(tuple(tn.ONE if i == j else tn.ZERO for j in range(n)) for i in range(n)))


# The relation kernel: the sup-(*) and inf-(->) loops under compose, the
# residuals and the presheaf calculus.  Each takes its operands as tuples of
# row or column tuples, never as `Rel`, and the value of an empty sup or inf,
# since an empty carrier shows no mode.  That value's mode picks the loop's
# (*) or -> from `tn.evaluators` when the loop starts: the float evaluators,
# or tn.conj/tn.imp bound to the t-norm, never bound at import, so wrappers put
# on the tnorm module (the benchmark's call tracer) see every exact scalar
# operation.  `compose` and the residuals pass exact bounds, so a `Rel` of any
# mode takes the checked path.


def _columns(rows, width):
    """The columns of a matrix with `width` columns, as tuples."""
    return tuple(zip(*rows)) or ((),) * width


def _compose(t, s_cols, r_rows, zero):
    """m[x][z] = sup_y s_cols[z][y] (*) r_rows[x][y], the matrix of s o r."""
    conj = tn.evaluators(t, tn.mode_of(zero))[0]
    return tuple(
        tuple(max((conj(a, b) for a, b in zip(col, row)), default=zero) for col in s_cols)
        for row in r_rows
    )


def _residual_left(t, tt_cols, r_cols, one):
    """m[y][z] = inf_x r_cols[y][x] -> tt_cols[z][x], the matrix of tt // r."""
    imp = tn.evaluators(t, tn.mode_of(one))[1]
    return tuple(
        tuple(min((imp(a, b) for a, b in zip(rcol, col)), default=one) for col in tt_cols)
        for rcol in r_cols
    )


def _compose_on(conj, s_cols, r_rows, zero):
    """_compose on grid indices: conj is a grid's conj_table and zero its bottom index."""
    return tuple(
        tuple(max((conj[a][b] for a, b in zip(col, row)), default=zero) for col in s_cols)
        for row in r_rows
    )


def _residual_left_on(imp, tt_cols, r_cols, one):
    """_residual_left on grid indices: imp is a grid's imp_table and one its top index."""
    return tuple(
        tuple(min((imp[a][b] for a, b in zip(rcol, col)), default=one) for col in tt_cols)
        for rcol in r_cols
    )


def compose(t: tn.TNorm, s: Rel, r: Rel) -> Rel:
    """(s o r)(x, z) = sup_y s(y, z) (*) r(x, y)."""
    if r.tgt != s.src:
        raise CarrierMismatchError("middle carriers differ")
    return Rel(r.src, s.tgt, _compose(t, _columns(s.rows, s.tgt), r.rows, tn.ZERO))


def residual_left(t: tn.TNorm, tt: Rel, r: Rel) -> Rel:
    """(t // r)(y, z) = inf_x (r(x, y) -> t(x, z)); right adjoint of - o r."""
    if tt.src != r.src:
        raise CarrierMismatchError("sources differ")
    return Rel(r.tgt, tt.tgt, _residual_left(t, _columns(tt.rows, tt.tgt), _columns(r.rows, r.tgt), tn.ONE))


def residual_right(t: tn.TNorm, s: Rel, tt: Rel) -> Rel:
    """(s \\ t)(x, y) = inf_z (s(y, z) -> t(x, z)); right adjoint of s o -."""
    if tt.tgt != s.tgt:
        raise CarrierMismatchError("targets differ")
    return Rel(tt.src, s.src, _columns(_residual_left(t, tt.rows, s.rows, tn.ONE), tt.src))


def rel_le(a: Rel, b: Rel) -> bool:
    if (a.src, a.tgt) != (b.src, b.tgt):
        raise CarrierMismatchError("relation shapes differ")
    return all(tn.vle(a(x, y), b(x, y)) for x in range(a.src) for y in range(a.tgt))


def rel_eq(a: Rel, b: Rel) -> bool:
    return rel_le(a, b) and rel_le(b, a)


def is_distributor(r: Rel, X: EnrichedCategory, Y: EnrichedCategory):
    """None if r is a bimodule for the hom actions, else the violating tuple.

    r must run from X to Y, and a non-empty r holds values of X's and Y's mode.
    """
    if (r.src, r.tgt) != (X.n, Y.n):
        raise CarrierMismatchError("the relation's shape differs from the carriers")
    if r.src and r.tgt:
        vals._check_scalars((v for m in (r.rows, Y.hom) for row in m for v in row), None, "value ", X.mode)
    conj = tn.evaluators(X.tnorm, X.mode)[0]
    for x1 in range(X.n):
        for x2 in range(X.n):
            for y in range(Y.n):
                if not tn.vle(conj(r(x2, y), X.hom[x1][x2]), r(x1, y)):
                    return ("left", x1, x2, y)
    for x in range(X.n):
        for y1 in range(Y.n):
            for y2 in range(Y.n):
                if not tn.vle(conj(Y.hom[y1][y2], r(x, y1)), r(x, y2)):
                    return ("right", x, y1, y2)
    return None


@dataclass(frozen=True)
class EnrichedFunctor:
    src: EnrichedCategory
    tgt: EnrichedCategory
    mapping: tuple

    def __post_init__(self):
        object.__setattr__(self, "mapping", vals._items(self.mapping, "mapping"))
        if self.src.tnorm != self.tgt.tnorm:
            raise CarrierMismatchError("a functor's source and target must share one t-norm")
        if len(self.mapping) != self.src.n:
            raise RecatError("mapping must cover the source carrier")
        vals._in_carrier(self.tgt, *self.mapping)
        if self.src.n and self.src.mode != self.tgt.mode:
            raise ModeMismatchError("a functor's source and target must hold values of one mode")
        for x in range(self.src.n):
            for y in range(self.src.n):
                if not tn.vle(self.src.hom[x][y], self.tgt.hom[self.mapping[x]][self.mapping[y]]):
                    raise NotAFunctorError(f"hom decreases at ({x}, {y})")

    def __call__(self, x: int) -> int:
        return self.mapping[x]


def graph(f: EnrichedFunctor) -> Rel:
    """f_*(x, y) = Y(f(x), y)."""
    Y = f.tgt
    return Rel(f.src.n, Y.n, tuple(tuple(Y.hom[f(x)][y] for y in range(Y.n)) for x in range(f.src.n)))


def cograph(f: EnrichedFunctor) -> Rel:
    """f^*(y, x) = Y(y, f(x))."""
    Y = f.tgt
    return Rel(Y.n, f.src.n, tuple(tuple(Y.hom[y][f(x)] for x in range(f.src.n)) for y in range(Y.n)))


def is_fully_faithful(f: EnrichedFunctor) -> bool:
    comp = compose(f.src.tnorm, cograph(f), graph(f))
    return rel_eq(comp, hom_rel(f.src))


def adjoint_pair_check(t: tn.TNorm, psi: Rel, phi: Rel, X: EnrichedCategory, Y: EnrichedCategory) -> bool:
    """psi: X -+-> Y left adjoint to phi: Y -+-> X, i.e. X <= phi o psi and psi o phi <= Y."""
    if psi.src != X.n or psi.tgt != Y.n or phi.src != Y.n or phi.tgt != X.n:
        raise CarrierMismatchError("adjoint candidates have wrong shapes")
    return rel_le(hom_rel(X), compose(t, phi, psi)) and rel_le(compose(t, psi, phi), hom_rel(Y))


def underlying_order(X: EnrichedCategory) -> FinitePoset:
    return FinitePoset(X.n, tuple(tuple(X.leq1(X.hom[x][y]) for y in range(X.n)) for x in range(X.n)))


def is_separated(X: EnrichedCategory) -> bool:
    return all(
        not (X.leq1(X.hom[x][y]) and X.leq1(X.hom[y][x]))
        for x in range(X.n)
        for y in range(X.n)
        if x != y
    )


def opposite(X: EnrichedCategory) -> EnrichedCategory:
    """X^op, with hom X^op(x, y) = X(y, x); built once per category, and opposite(X^op) is X."""
    if X._op is None:
        object.__setattr__(X, "_op", EnrichedCategory(X.tnorm, _columns(X.hom, X.n), X.names, X.grid))
        object.__setattr__(X._op, "_op", X)
    return X._op


def symmetrize(X: EnrichedCategory) -> EnrichedCategory:
    hom = tuple(tuple(min(X.hom[x][y], X.hom[y][x]) for y in range(X.n)) for x in range(X.n))
    return EnrichedCategory(X.tnorm, hom, X.names, X.grid)


def separated_quotient(X: EnrichedCategory):
    """Merge isomorphic elements; least indices represent their classes."""
    reps = []
    proj = [None] * X.n
    for x in range(X.n):
        for r in reps:
            if X.leq1(X.hom[x][r]) and X.leq1(X.hom[r][x]):
                proj[x] = r
                break
        else:
            reps.append(x)
            proj[x] = x
    index = {r: i for i, r in enumerate(reps)}
    hom = tuple(tuple(X.hom[a][b] for b in reps) for a in reps)
    names = tuple(X.names[r] for r in reps)
    return EnrichedCategory(X.tnorm, hom, names, X.grid), tuple(index[proj[x]] for x in range(X.n))


def all_functors(X: EnrichedCategory, Y: EnrichedCategory, bound: int = 4096):
    """All functor mappings X -> Y, in lexicographic order."""
    if Y.n ** X.n > vals._count(bound, "bound", 0):  # a zero bound is exceeded, not malformed
        raise BoundExceededError(f"{Y.n}^{X.n} candidate maps exceed bound {bound}")
    out = []
    for mapping in iproduct(range(Y.n), repeat=X.n):
        try:
            out.append(EnrichedFunctor(X, Y, mapping))
        except NotAFunctorError:
            continue
    return out


def hom_category(X: EnrichedCategory, Y: EnrichedCategory, bound: int = 4096) -> EnrichedCategory:
    """The category of all functors X -> Y with hom(f, g) = inf_x Y(f(x), g(x))."""
    fs = all_functors(X, Y, bound)
    one = Y.one
    hom = tuple(
        tuple(min((Y.hom[f(x)][g(x)] for x in range(X.n)), default=one) for g in fs)
        for f in fs
    )
    names = tuple("<" + ",".join(str(m) for m in f.mapping) + ">" for f in fs)
    return EnrichedCategory(Y.tnorm, hom, names, Y.grid)


def categories_isomorphic(A: EnrichedCategory, B: EnrichedCategory) -> bool:
    """Bijective hom-preserving correspondence, by permutation search (small n).

    Categories over different t-norms or of different modes are never
    isomorphic, as no EnrichedFunctor joins them, even when their homs match."""
    if A.tnorm != B.tnorm or A.mode != B.mode:
        return False
    # not any(): the one relabelling of an empty carrier, (), is falsy
    return next(_relabelings(A.hom, B.hom, tn.veq), None) is not None
