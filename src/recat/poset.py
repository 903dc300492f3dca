"""Finite order theory: Galois connections, distributivity, way-below, coprimes.

Orders are reflexive transitive boolean matrices; antisymmetry is tracked but
not required except where lattice operations need canonical meets and joins.
`_joins` is an order's binary join table, built once from `leq`.  A finite
order with a bottom and binary joins is complete, the upper bounds of A + {a}
being those of {join A, a}, so a lattice is an antisymmetric order with both.
`_least`, the one bound search, takes the order as a function `le`, so `balls`
and `laws` run it on balls and vectors.  Under the flipped order it finds the
bound of a directed family, by three theorems: a finite directed set holds an
upper bound of itself; (->) is antitone in its first argument, so a filter's
least generator attains the max over generators; and the Kowalsky generator
join is monotone in the meta and member generators.  The below relations are
closed forms: way-below is the order, and totally-below is one join per
element above y.  The pairwise directedness test and the subset searches are
oracles in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from operator import and_, eq

from .errors import AxiomError, RecatError
from .values import _count, _in_carrier, _items


@dataclass(frozen=True)
class FinitePoset:
    n: int
    leq: tuple  # n x n tuple of bool tuples

    def __post_init__(self):
        _count(self.n, "poset size", 0)
        leq = tuple(tuple(bool(v) for v in _items(row, "leq row")) for row in _items(self.leq, "leq"))
        object.__setattr__(self, "leq", leq)
        if len(self.leq) != self.n or any(len(r) != self.n for r in self.leq):
            raise RecatError("leq must be an n x n matrix")
        for i in range(self.n):
            if not self.leq[i][i]:
                raise AxiomError("order not reflexive", witness=i)
        for i in range(self.n):
            for j in range(self.n):
                if not self.leq[i][j]:
                    continue
                for k in range(self.n):
                    if self.leq[j][k] and not self.leq[i][k]:
                        raise AxiomError("order not transitive", witness=(i, j, k))

    def le(self, i, j) -> bool:
        return self.leq[i][j]

    @property
    def antisymmetric(self) -> bool:
        return all(
            not (self.leq[i][j] and self.leq[j][i])
            for i in range(self.n)
            for j in range(self.n)
            if i != j
        )

    def upper_bounds(self, elems):
        elems = _in_carrier(self, *_items(elems, "elements"))
        return [u for u in range(self.n) if all(self.leq[a][u] for a in elems)]

    def lower_bounds(self, elems):
        elems = _in_carrier(self, *_items(elems, "elements"))
        return [l for l in range(self.n) if all(self.leq[l][a] for a in elems)]

    def join(self, elems):
        """Least upper bound, or None; picks the least index among equivalents."""
        return _least(self.upper_bounds(elems), lambda a, b: self.leq[a][b])

    def meet(self, elems):
        return _least(self.lower_bounds(elems), lambda a, b: self.leq[b][a])

    @property
    def bottom(self):
        return self.join([])

    @property
    def top(self):
        return self.meet([])

    def is_lattice(self) -> bool:
        """Antisymmetric with a bottom and every binary join; meets and a top follow."""
        return self.antisymmetric and self.bottom is not None and all(None not in row for row in _joins(self))

    def opposite(self) -> "FinitePoset":
        return FinitePoset(self.n, tuple(tuple(self.leq[j][i] for j in range(self.n)) for i in range(self.n)))

    def to_json(self):
        return {"n": self.n, "leq": [list(row) for row in self.leq]}

    @staticmethod
    def from_json(data) -> "FinitePoset":
        return FinitePoset(data["n"], data["leq"])


def _least(items, le):
    """The first item a with le(a, b) for every item b, or None; under the flipped
    order, the bound of a finite directed family, None when it is not directed."""
    for a in items:
        if all(le(a, b) for b in items):
            return a
    return None


def _joins(P: FinitePoset) -> tuple:
    """joins[a][b]: the least upper bound of a and b, as `P.join([a, b])` picks it, or None."""
    leq, r = P.leq, range(P.n)

    def le(a, b):
        return leq[a][b]

    return tuple(tuple(_least([u for u in r if leq[a][u] and leq[b][u]], le) for b in r) for a in r)


def _map(f, P: FinitePoset, Q: FinitePoset) -> tuple:
    """f as a tuple with one element of Q per element of P; RecatError otherwise."""
    f = _in_carrier(Q, *_items(f, "map"))
    if len(f) != P.n:
        raise RecatError(f"a map on {P.n} elements needs {P.n} images, got {len(f)}")
    return f


def chain(n: int) -> FinitePoset:
    return FinitePoset(n, tuple(tuple(i <= j for j in range(n)) for i in range(n)))


def antichain(n: int) -> FinitePoset:
    return FinitePoset(n, tuple(tuple(i == j for j in range(n)) for i in range(n)))


def from_covers(n: int, covers) -> FinitePoset:
    """Build a poset from a cover list by reflexive transitive closure."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in covers:
        leq[a][b] = True
    return FinitePoset(n, closure(leq, and_))


def closure(matrix, op):
    """Least matrix above `matrix` with m[x][z] >= op(m[y][z], m[x][y]), as tuples.

    With `and` on booleans this is transitive closure; with a t-norm on a
    reflexive matrix it is the sup-(*) closure that makes a category.
    """
    m = [list(row) for row in matrix]
    n = len(m)
    changed = True
    while changed:
        changed = False
        for y in range(n):
            for z in range(n):
                for x in range(n):
                    v = op(m[y][z], m[x][y])
                    if v > m[x][z]:
                        m[x][z] = v
                        changed = True
    return tuple(tuple(row) for row in m)


def boolean_lattice() -> FinitePoset:
    """The four-element Boolean lattice 0 < a, b < 1."""
    return from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def m3() -> FinitePoset:
    """The diamond with three atoms."""
    return from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def n5() -> FinitePoset:
    """The pentagon: 0 < a < b < 1 and 0 < c < 1."""
    return from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def lattice_catalog(max_n: int = 5):
    """All lattices with at most max_n elements, up to isomorphism (1 <= max_n <= 5)."""
    if _count(max_n, "max_n") > 5:
        raise RecatError("catalog covers lattices with at most 5 elements")
    cat = [chain(1), chain(2), chain(3), chain(4), boolean_lattice(), chain(5), m3(), n5(),
           from_covers(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]),   # diamond with new bottom
           from_covers(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])]  # diamond with new top
    return [L for L in cat if L.n <= max_n]


def _relabelings(A, B, same):
    """Permutations p, lexicographically, with same(A[i][j], B[p[i]][p[j]]) for all i, j."""
    n = len(A)
    if n != len(B):
        return
    for perm in permutations(range(n)):
        if all(same(A[i][j], B[perm[i]][perm[j]]) for i in range(n) for j in range(n)):
            yield perm


def posets_isomorphic(P: FinitePoset, Q: FinitePoset) -> bool:
    # not any(): the one relabelling of an empty carrier, (), is falsy
    return next(_relabelings(P.leq, Q.leq, eq), None) is not None


def galois_check(f, g, P: FinitePoset, Q: FinitePoset) -> bool:
    """True iff f(x) <= y exactly when x <= g(y), for all pairs."""
    f, g = _map(f, P, Q), _map(g, Q, P)
    return all(Q.le(f[x], y) == P.le(x, g[y]) for x in range(P.n) for y in range(Q.n))


def is_monotone(f, P: FinitePoset, Q: FinitePoset) -> bool:
    f = _map(f, P, Q)
    return all(Q.le(f[x], f[y]) for x in range(P.n) for y in range(P.n) if P.le(x, y))


def left_adjoint_of(g, Q: FinitePoset, P: FinitePoset):
    """Left adjoint of g: Q -> P, or None.

    f(x) must be a least element of the g-preimage of the up-set of x;
    least-index representatives are chosen when the order is not antisymmetric.
    """
    if not is_monotone(g, Q, P):
        return None
    f = []
    for x in range(P.n):
        least = _least([y for y in range(Q.n) if P.le(x, g[y])], Q.le)
        if least is None:
            return None
        f.append(least)
    if not galois_check(f, g, P, Q):
        return None
    return f


def way_below(L: FinitePoset, x: int, y: int) -> bool:
    """x is way below y: every directed subset whose join dominates y has a member above x.

    A finite directed set holds an upper bound of itself, hence its join, so
    way-below is the order (Gierz et al., *Continuous Lattices and Domains*,
    2003).  `tests/oracles.py` searches the directed subsets.
    """
    _in_carrier(L, x, y)
    return L.le(x, y)


def totally_below(L: FinitePoset, x: int, y: int) -> bool:
    """x is totally below y: every subset whose join dominates y has a member above x.

    A subset with no member above x lies in U = {a : x not <= a}, and if it has
    join z then so has U restricted to the down-set of z, which contains it and
    lies below z.  So x is totally below y iff no z >= y is the join of the
    members of U below z: O(n) joins where the subset search takes 2^n.
    """
    _in_carrier(L, x, y)
    outside = [a for a in range(L.n) if not L.le(x, a)]
    return not any(L.le(y, z) and L.join([a for a in outside if L.le(a, z)]) == z for z in range(L.n))


def _joins_what_is_below(L: FinitePoset, below) -> bool:
    """Every x is the join of the z with below(z, x)."""
    return all(L.join([z for z in range(L.n) if below(z, x)]) == x for x in range(L.n))


def is_completely_distributive(L: FinitePoset) -> bool:
    """Every element is the join of the elements totally below it."""
    return _joins_what_is_below(L, lambda z, x: totally_below(L, z, x))


def is_continuous_lattice(L: FinitePoset) -> bool:
    """Every element is the join of the elements way below it, the elements below it
    (always true when the order is antisymmetric)."""
    return _joins_what_is_below(L, L.le)


def coprimes(L: FinitePoset, include_vacuous_bottom: bool = True):
    """Elements x with x <= a v b implying x <= a or x <= b.

    The binary definition makes the bottom vacuously coprime; both readings
    are reachable through the flag since the empty-join convention is a
    documented open point.
    """
    joins = [(a, b, j) for a, row in enumerate(_joins(L)) for b, j in enumerate(row) if j is not None]
    out = [
        x
        for x in range(L.n)
        if not any(L.le(x, j) and not (L.le(x, a) or L.le(x, b)) for a, b, j in joins)
    ]
    if not include_vacuous_bottom:
        bot = L.bottom
        out = [x for x in out if x != bot]
    return tuple(out)


def primes(L: FinitePoset):
    return coprimes(L.opposite())


def has_enough_coprimes(L: FinitePoset) -> bool:
    cs = set(coprimes(L))
    return _joins_what_is_below(L, lambda c, x: c in cs and L.le(c, x))
