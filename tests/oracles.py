"""Brute-force oracles that the tests compare the library against.

No code in `recat` calls these; each recomputes a verdict by exhaustive search
or from a different characterisation, so a test can pair it with the library's
own answer.
"""

from operator import and_

from recat.poset import FinitePoset, _subsets, closure, posets_isomorphic


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
