"""Formal balls, directed joins, the way-below distributor, compactness.

A formal ball is a pair (element, radius) ordered by r <= s (*) X(x, y).  A
finite directed set holds an upper bound of itself, which `poset._least`, the
one bound search, finds under the flipped order: it is the join (the filter
bounds in `laws` rest on two more theorems, stated in `poset`).  The public
ball functions check each ball's centre and radius once, on entry.  On a
finite carrier every ideal is representable, so the way-below distributor is
X \\ X, the hom, on every non-empty exact category, with a grid or without
and at any size: compactness, continuity and interpolation hold there and
ball way-below reads the hom.  The below-weight of complete distributivity is
a min over the n * k weights X(y, -) -> s, with no bound.  The searches these
replace are oracles in `tests/oracles.py`.
"""

from __future__ import annotations

from . import tnorm as tn
from .cat import EnrichedCategory, Rel, hom_rel, residual_right
from .errors import RecatError
from .poset import _least
from .presheaf import Weight, colim, is_cocomplete_over_grid
from .values import ValueGrid, _check_scalars, _exact, _in_carrier, _items, format_value


def _check_balls(X: EnrichedCategory, *balls) -> tuple:
    """The balls as pairs; RecatError unless each is (element of X, scalar of X's mode and grid)."""
    balls = tuple(_items(b, "a ball") for b in balls)
    if any(len(b) != 2 for b in balls):
        raise RecatError("a ball is an (element, radius) pair")
    _in_carrier(X, *(x for x, _ in balls))
    _check_scalars((r for _, r in balls), X.grid, "radius ", X.mode)
    return balls


def _order(X: EnrichedCategory):
    """The ball order of X on checked balls, b1 below b2, with X's (*) bound once."""
    conj, hom = tn.evaluators(X.tnorm, X.mode)[0], X.hom

    def leq(b1, b2) -> bool:
        (x, r), (y, s) = b1, b2
        return tn.vle(r, conj(s, hom[x][y]))

    return leq


def ball_leq(X: EnrichedCategory, b1, b2) -> bool:
    """(x, r) below (y, s) iff r <= s (*) X(x, y)."""
    return _order(X)(*_check_balls(X, b1, b2))


def ball_equiv(X: EnrichedCategory, b1, b2) -> bool:
    b1, b2 = _check_balls(X, b1, b2)
    leq = _order(X)
    return leq(b1, b2) and leq(b2, b1)


def radius_candidates(X: EnrichedCategory, balls):
    """Grid radii plus every s (*) X(x, y) realized from the input radii.

    The way-below distributor collapses to the hom matrix on finite carriers,
    so scaling against it yields the same candidate set.
    """
    balls = _check_balls(X, *_items(balls, "balls"))
    conj = tn.evaluators(X.tnorm, X.mode)[0]
    out = set(X.grid.points) if X.grid is not None else set()
    out |= {X.zero, X.one}
    for (_, s) in balls:
        out.add(s)
        for x in range(X.n):
            for y in range(X.n):
                out.add(conj(s, X.hom[x][y]))
    return sorted(out)


def directed_check(X: EnrichedCategory, balls) -> bool:
    """Every pair has an upper bound in the set: on a finite set, a member above all."""
    balls = _check_balls(X, *_items(balls, "balls"))
    leq = _order(X)
    return _least(balls, lambda a, b: leq(b, a)) is not None


def directed_join(X: EnrichedCategory, balls):
    """The least-index ball equivalent to the family's top member (y, s), its join, or
    None when the family is not directed.  Such a ball (z, t) has t <= s (*) X(z, y) <= s
    and s <= t (*) X(y, z) <= t, so t = s."""
    _exact(X, "directed joins are computed in exact mode")
    balls = _check_balls(X, *_items(balls, "balls"))
    leq = _order(X)
    top = _least(balls, lambda a, b: leq(b, a))
    if top is None:
        return None
    return next(b for b in ((z, top[1]) for z in range(X.n)) if leq(b, top) and leq(top, b))


def way_below_distributor(X: EnrichedCategory) -> Rel:
    """w(y, x) = inf over ideals phi with a colimit c of (X(x, c) -> phi(y)).

    Every ideal on a finite carrier is representable, so w is X \\ X, which is X.
    It raises in float mode and on an empty carrier, which has no ideal.
    """
    _exact(X, "the way-below distributor needs exact mode")
    if X.n == 0:
        raise RecatError("no ideals with colimits; carrier is empty")
    return hom_rel(X)


def way_below_via_representables(X: EnrichedCategory) -> Rel:
    """Closed form w(y, x) = inf_c (X(x, c) -> X(y, c)); the finite-carrier collapse.

    It is the right residual of the hom by itself, X \\ X.
    """
    return residual_right(X.tnorm, hom_rel(X), hom_rel(X))


def is_compact(X: EnrichedCategory, a: int) -> bool:
    """a is compact iff the way-below column at a is the Yoneda weight of a: true,
    since w = X."""
    way_below_distributor(X)
    _in_carrier(X, a)
    return True


def is_continuous_enriched(X: EnrichedCategory) -> bool:
    """Every way-below column is an ideal with its anchor as colimit: true, since
    w = X and each column is a Yoneda weight."""
    way_below_distributor(X)
    return True


def ball_way_below(X: EnrichedCategory, b1, b2) -> bool:
    """(x, r) way below (y, s) via the strict inequality r < s (*) w(x, y), w = X.

    The characterization is exact for Archimedean t-norms; elsewhere it is a
    heuristic, see ball_way_below_is_exact.
    """
    way_below_distributor(X)
    (x, r), (y, s) = _check_balls(X, b1, b2)
    if not (r > 0 and s > 0):
        raise RecatError("ball way-below is stated for positive radii")
    return r < X.conj(s, X.hom[x][y])


def ball_way_below_is_exact(t: tn.TNorm) -> bool:
    return tn.is_archimedean(t)


def interpolation_check(X: EnrichedCategory) -> bool:
    """w o w = w: true, since w = X is reflexive and transitive."""
    way_below_distributor(X)
    return True


def is_completely_distributive_enriched(X: EnrichedCategory):
    """(verdict, witness): every x is the colimit of its below-weight.

    The below-weight at x is the inf over grid weights phi of X(x, colim phi) -> phi;
    at y, phi = X(y, -) -> s is the largest weight with phi(y) = s, so a min over s
    suffices.  Requires a grid-cocomplete carrier.
    """
    if not is_cocomplete_over_grid(X):
        raise RecatError("enriched complete distributivity needs a grid-cocomplete carrier")
    pts = X.grid.points
    colims = [[colim(Weight(X, tuple(X.imp(h, s) for h in row))) for s in pts] for row in X.hom]
    if any(None in cs for cs in colims):
        raise RecatError("grid-cocomplete carrier is missing a colimit")
    # below[x][y] = min over s of X(x, colim (X(y, -) -> s)) -> s: row x is the below-weight at x
    below = [[min(X.imp(row[c], s) for c, s in zip(cs, pts)) for cs in colims] for row in X.hom]
    for x, vec in enumerate(below):
        c = colim(Weight(X, vec))
        if c is None or not (X.leq1(X.hom[c][x]) and X.leq1(X.hom[x][c])):
            return False, x
    return True, None


def ball_poset_dot(X: EnrichedCategory, grid=None) -> str:
    """DOT digraph of the grid-radius ball poset with covering-relation edges."""
    grid = grid or X.grid
    if not isinstance(grid, ValueGrid):
        raise RecatError("ball poset export needs a grid of radii")
    _check_scalars(grid.points, None, "radius ", X.mode)
    leq = _order(X)
    nodes = [(x, r) for x in range(X.n) for r in grid.points]
    label = {b: f"{X.names[b[0]]}@{format_value(b[1])}" for b in nodes}
    strictly = {
        (a, b)
        for a in nodes
        for b in nodes
        if a != b and leq(a, b) and not leq(b, a)
    }
    covers = []
    for a, b in sorted(strictly, key=lambda p: (label[p[0]], label[p[1]])):
        if not any((a, c) in strictly and (c, b) in strictly for c in nodes):
            covers.append((a, b))
    lines = ["digraph balls {"]
    for b in nodes:
        lines.append(f'  "{label[b]}";')
    for a, b in covers:
        lines.append(f'  "{label[a]}" -> "{label[b]}";')
    lines.append("}")
    return "\n".join(lines)
