"""Weight and coweight calculus: Yoneda, colimits, tensors, Kan, Isbell.

A weight on X is a distributor X -+-> 1, kept as an n x 1 column; each sup/inf
formula is one relation-kernel call on it, the hom, and the graph or cograph of
a functor, exact on grid points and tolerance-compared in float mode.  A
coweight on X (1 -+-> X) is a weight on X^op, so each coweight operation is its
weight counterpart on `opposite(X)`, read back through `_dual`.

Every weight value passes the scalar check on construction.  On a category with
a grid, the weight law is checked on grid indices through the grid's conj table,
and `_tensor_table` reads every tensor at once off its imp table; without a grid
the law is a scalar loop over the (*) of `tn.evaluators`.  `tensor` is one
scalar loop over its ->, with or without a grid.  `sub`, the hom of PX, is a
min over the grid's imp table on indices when both weights carry the grid, and
`cosub` follows through `_dual`; `pairing`, Isbell and the Kan extensions run
on the value kernel.  `sub`, `cosub`, `pairing` and the Isbell maps check the
variance of their operands once per call: a Coweight where a Weight belongs
raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from . import tnorm as tn
from .cat import EnrichedCategory, EnrichedFunctor, Rel, _compose, _residual_left, opposite, underlying_order
from .errors import AxiomError, BoundExceededError, CarrierMismatchError, RecatError
from .poset import _joins
from .values import _check_scalars, _count, _in_carrier, _items


@dataclass(frozen=True)
class Weight:
    """phi with phi(x2) (*) X(x1, x2) <= phi(x1)."""

    base: EnrichedCategory
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", _items(self.values, "values"))
        X = self.base
        if len(self.values) != X.n:
            raise CarrierMismatchError("weight length differs from carrier")
        grid = X.grid
        i = _check_scalars(self.values, grid, mode=X.mode)
        if grid is None:
            conj, v = tn.evaluators(X.tnorm, X.mode)[0], self.values
            for x1 in range(X.n):
                for x2 in range(X.n):
                    if not tn.vle(conj(v[x2], X.hom[x1][x2]), v[x1]):
                        raise AxiomError("not a weight", witness=(x1, x2))
            return
        # on a grid the law is read off the conj table, on indices; indices ascend with the points
        pos, conj = grid._pos, grid.conj_table
        for x1, row in enumerate(X.hom):
            top = i[x1]
            for x2, h in enumerate(row):
                if conj[i[x2]][pos[h]] > top:
                    raise AxiomError("not a weight", witness=(x1, x2))

    def __call__(self, x: int):
        return self.values[x]

    def to_rel(self) -> Rel:
        return Rel(self.base.n, 1, tuple((v,) for v in self.values))


@dataclass(frozen=True)
class Coweight:
    """psi with X(y1, y2) (*) psi(y1) <= psi(y2): a weight on X^op."""

    base: EnrichedCategory
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", _items(self.values, "values"))
        if len(self.values) != self.base.n:
            raise CarrierMismatchError("coweight length differs from carrier")
        try:
            Weight(opposite(self.base), self.values)
        except AxiomError as exc:  # the witness (y2, y1) on X^op is (y1, y2) here
            raise AxiomError("not a coweight", witness=exc.witness[::-1]) from None

    def __call__(self, y: int):
        return self.values[y]

    def to_rel(self) -> Rel:
        return Rel(1, self.base.n, (tuple(self.values),))


def _same_base(A: EnrichedCategory, B: EnrichedCategory):
    # a float hom compares equal to the exact hom of the same values
    if A is not B and (A.hom != B.hom or A.tnorm != B.tnorm or A.mode != B.mode):
        raise CarrierMismatchError("weights live on different bases")


def yoneda(X: EnrichedCategory, a: int) -> Weight:
    _in_carrier(X, a)
    return Weight(X, tuple(X.hom[x][a] for x in range(X.n)))


def coyoneda(X: EnrichedCategory, a: int) -> Coweight:
    return _dual(yoneda(opposite(X), a))


def _column(m) -> tuple:
    """The entries of an n x 1 matrix."""
    return tuple(row[0] for row in m)


def _representing(vectors, want):
    """Least index whose vector equals `want` entrywise, or None."""
    for c, vec in enumerate(vectors):
        if all(tn.veq(a, b) for a, b in zip(vec, want)):
            return c
    return None


def _at(f: EnrichedFunctor, vectors) -> tuple:
    """Each vector read at f(0), ..., f(n-1): rows of the hom give the cograph
    of f row by row, columns give the graph of f column by column."""
    return tuple(tuple(v[fx] for fx in f.mapping) for v in vectors)


def _kind(what: str, cls, *operands):
    """Raise unless every operand is a `cls`: a Weight and a Coweight on one base
    have opposite variance, so the formulas of one read nothing sound off the other."""
    for v in operands:
        if type(v) is not cls:
            raise RecatError(f"{what} takes a {cls.__name__}, not a {type(v).__name__}")


def sub(phi1: Weight, phi2: Weight):
    """Hom of the weight category: inf_x (phi1(x) -> phi2(x)).

    When phi1's base has a grid and phi2's base an equal one, both vectors are
    grid points: the inf is a min over the grid's imp table on indices, which
    ascend with the points, and no scalar goes through tn.imp.  Every other
    pair (no grid, float, or a twin base without that grid) takes the value
    kernel."""
    _kind("sub", Weight, phi1, phi2)
    _same_base(phi1.base, phi2.base)
    X = phi1.base
    grid = X.grid
    if grid is not None and phi2.base.grid == grid:
        pos, imp = grid._pos, grid.imp_table
        top = len(grid.points) - 1
        return grid.points[min((imp[pos[a]][pos[b]] for a, b in zip(phi1.values, phi2.values)), default=top)]
    return _residual_left(X.tnorm, (phi2.values,), (phi1.values,), X.one)[0][0]


def cosub(psi1: Coweight, psi2: Coweight):
    """Hom of the coweight category: inf_x (psi2(x) -> psi1(x))."""
    _kind("cosub", Coweight, psi1, psi2)
    return sub(_dual(psi2), _dual(psi1))


def pairing(phi: Weight, psi: Coweight):
    """sup_x phi(x) (*) psi(x), the degree that phi and psi meet."""
    _kind("pairing", Weight, phi)
    _kind("pairing", Coweight, psi)
    _same_base(phi.base, psi.base)
    X = phi.base
    return _compose(X.tnorm, (phi.values,), (psi.values,), X.zero)[0][0]


def _unchecked(cls, X: EnrichedCategory, values: tuple):
    """A Weight or Coweight whose law holds by a theorem, built without the law check.

    In float mode the check can reject such a vector: a residual y / x scales a
    transitivity slack of X that is below TOL by 1/x.
    """
    v = object.__new__(cls)
    object.__setattr__(v, "base", X)
    object.__setattr__(v, "values", values)
    return v


def _dual(v):
    """A weight on X^op as the coweight on X with the same values, and back; one law, no check."""
    return _unchecked(Coweight if type(v) is Weight else Weight, opposite(v.base), v.values)


def _op_functor(f: EnrichedFunctor) -> EnrichedFunctor:
    return EnrichedFunctor(opposite(f.src), opposite(f.tgt), f.mapping)


def isbell_ub(phi: Weight) -> Coweight:
    """The coweight of upper bounds of phi: inf_x (phi(x) -> X(x, -))."""
    _kind("isbell_ub", Weight, phi)
    X = phi.base
    return _unchecked(Coweight, X, _residual_left(X.tnorm, opposite(X).hom, (phi.values,), X.one)[0])


def isbell_lb(psi: Coweight) -> Weight:
    """The weight of lower bounds of psi: inf_y (psi(y) -> X(-, y))."""
    _kind("isbell_lb", Coweight, psi)
    return _dual(isbell_ub(_dual(psi)))


def colim(phi: Weight):
    """Least-index element representing the upper-bound coweight, or None."""
    return _representing(phi.base.hom, isbell_ub(phi).values)


def lim(psi: Coweight):
    return colim(_dual(psi))


def weighted_colim(phi: Weight, f: EnrichedFunctor):
    """Colimit of f weighted by phi, i.e. colim of phi composed with the cograph."""
    return colim(f_exists(f, phi))


def tensor(X: EnrichedCategory, r, x: int):
    """Element c with X(c, y) = r -> X(x, y) for all y, or None; on a grid, r must be a
    grid point.  `_tensor_table` gives every tensor of a grid category at once."""
    _in_carrier(X, x)
    _check_scalars((r,), X.grid, "tensor scalar ", X.mode)
    imp = tn.evaluators(X.tnorm, X.mode)[1]
    return _representing(X.hom, tuple(imp(r, h) for h in X.hom[x]))


def cotensor(X: EnrichedCategory, r, y: int):
    """Element c with X(x, c) = r -> X(x, y) for all x, or None."""
    return tensor(opposite(X), r, y)


def _tensor_table(X: EnrichedCategory) -> tuple:
    """T[r][x] = tensor(X, r, x) at grid index r: each indexed hom row through imp row r,
    looked up among the rows."""
    pos = X.grid._pos
    rows = [tuple(pos[h] for h in row) for row in X.hom]
    least = {row: c for c, row in reversed(tuple(enumerate(rows)))}  # row -> least element with it
    return tuple(tuple(least.get(tuple(imp[i] for i in row)) for row in rows) for imp in X.grid.imp_table)


def is_cocomplete_over_grid(X: EnrichedCategory) -> bool:
    """Order-complete plus all grid tensors and cotensors exist; a finite preorder
    is complete when it has a bottom and binary joins (see `poset`)."""
    if X.grid is None:
        raise RecatError("grid cocompleteness needs a grid")
    P = underlying_order(X)
    if P.bottom is None or any(None in row for row in _joins(P)):
        return False
    return all(None not in row for Y in (X, opposite(X)) for row in _tensor_table(Y))


# --- Kan extensions -------------------------------------------------------


def f_exists(f: EnrichedFunctor, phi: Weight) -> Weight:
    """Left Kan extension along f: phi composed with the cograph of f."""
    _same_base(phi.base, f.src)
    Y = f.tgt
    return Weight(Y, _column(_compose(Y.tnorm, (phi.values,), _at(f, Y.hom), Y.zero)))


def f_inv(f: EnrichedFunctor, gamma: Weight) -> Weight:
    """Restriction along f: gamma o f."""
    return Weight(f.src, tuple(gamma(f(x)) for x in range(f.src.n)))


def f_forall(f: EnrichedFunctor, phi: Weight) -> Weight:
    """Right Kan extension along f: inf_x (Y(f(x), -) -> phi(x))."""
    _same_base(phi.base, f.src)
    Y = f.tgt
    return Weight(Y, _column(_residual_left(Y.tnorm, (phi.values,), _at(f, opposite(Y).hom), Y.one)))


def f_dag_exists(f: EnrichedFunctor, psi: Coweight) -> Coweight:
    """Covariant left extension: sup_x Y(f(x), -) (*) psi(x)."""
    return _dual(f_exists(_op_functor(f), _dual(psi)))


def f_dag_forall(f: EnrichedFunctor, psi: Coweight) -> Coweight:
    """Covariant right extension: inf_x (Y(-, f(x)) -> psi(x))."""
    return _dual(f_forall(_op_functor(f), _dual(psi)))


def f_inv_coweight(f: EnrichedFunctor, mu: Coweight) -> Coweight:
    return _dual(f_inv(_op_functor(f), _dual(mu)))


# --- enumeration ----------------------------------------------------------


def _grid_space(X: EnrichedCategory, bound: int, what: str = "weight"):
    """Raise unless X has a grid with len(grid) ** n <= bound: the precondition of a search
    over the grid vectors that are `what`s, named in errors."""
    if X.grid is None:
        raise RecatError(f"{what} enumeration needs a grid")
    if len(X.grid.points) ** X.n > _count(bound, "bound", 0):  # a zero bound is exceeded, not malformed
        raise BoundExceededError(f"{what} space exceeds bound")


def _lawful(X: EnrichedCategory, bound: int, what: str):
    """Every grid vector that the weight law accepts, lexicographically; `what` names it in errors."""
    _grid_space(X, bound, what)
    out = []
    for vec in iproduct(X.grid.points, repeat=X.n):
        try:
            out.append(Weight(X, vec))
        except AxiomError:
            continue
    return out


def enumerate_weights(X: EnrichedCategory, bound: int = 10**6):
    """All grid-valued weights of X, lexicographically (requires a grid)."""
    return _lawful(X, bound, "weight")


def enumerate_coweights(X: EnrichedCategory, bound: int = 10**6):
    return [_dual(w) for w in _lawful(opposite(X), bound, "coweight")]


def weight_closure(X: EnrichedCategory, vec) -> Weight:
    """The least weight above an arbitrary vector of X's mode: sup_z v(z) (*) X(-, z)."""
    vec = _items(vec, "vector")
    _check_scalars(vec, None, "vector value ", X.mode)
    return Weight(X, _column(_compose(X.tnorm, (vec,), X.hom, X.zero)))


def coweight_closure(X: EnrichedCategory, vec) -> Coweight:
    return _dual(weight_closure(opposite(X), vec))
