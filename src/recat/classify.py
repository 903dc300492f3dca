"""Weight classification: representable, Cauchy, ideal, conically flat, flat.

The Cauchy verdict checks the unit only, the counit being a theorem; conical
flatness keeps its own loop, which stops at the first failing (x1, x2, p1, p2)
and, the identity being symmetric, visits only the pairs x1 <= x2.  Flatness
draws nothing: past the exhaustive cap, and in float mode, the corepresentables
decide it (see `_coweight_family`).  Completion-style verdicts are closed forms,
since on a finite carrier every sup is a max and every Cauchy or ideal weight is
representable: the Cauchy completion is the distinct Yoneda columns and Smyth
completeness is separatedness.  The theorem needs exact mode and nothing else, so these answer
every exact category, with a grid or without, at any size; a float category
raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tnorm as tn
from .cat import EnrichedCategory, _columns, is_separated, opposite
from .errors import RecatError
from .presheaf import (
    Coweight,
    Weight,
    _representing,
    _unchecked,
    coyoneda,
    enumerate_coweights,
    isbell_ub,
    pairing,
)
from .values import _encode, _exact


def is_representable(phi: Weight):
    """Least-index a with phi equal to the Yoneda weight of a, else None."""
    return _representing(opposite(phi.base).hom, phi.values)


def is_cauchy(phi: Weight):
    """The left-adjoint coweight if phi is right adjoint as a distributor, else None.

    The only possible left adjoint is the upper-bound coweight psi, so it is
    computed and checked against the unit 1 <= phi . psi.  The counit
    psi o phi <= X holds by residuation: psi(y) (*) phi(x) <= X(x, y).
    """
    X = phi.base
    psi = isbell_ub(phi)
    if not tn.vle(X.one, pairing(phi, psi)):
        return None
    return psi


def is_ideal(phi: Weight):
    """(verdict, witness): inhabited and pairwise directed at threshold values.

    On a finite carrier the strict-threshold characterization collapses to:
    some element attains 1, and every pair (x1, x2) admits x with phi(x) = 1,
    X(x1, x) >= phi(x1) and X(x2, x) >= phi(x2).
    """
    X = phi.base
    tops = [x for x in range(X.n) if tn.veq(phi(x), X.one)]
    if not tops:
        return False, ("inhabited",)
    for x1 in range(X.n):
        for x2 in range(X.n):
            if not any(
                tn.vle(phi(x1), X.hom[x1][x]) and tn.vle(phi(x2), X.hom[x2][x]) for x in tops
            ):
                return False, (x1, x2)
    return True, None


def _breakpoints(X: EnrichedCategory):
    if X.mode == "exact":
        if X.grid is None:
            raise RecatError("conical flatness needs a grid in exact mode")
        return list(X.grid.points), True
    # float mode: sample the realized values plus a small ladder, flagged approximate
    pts = sorted({v for row in X.hom for v in row} | {k / 8 for k in range(9)})
    return pts, False


def is_conically_flat(phi: Weight):
    """(verdict, witness, exact_flag): inhabited and the binary-meet identity.

    Checks (p1 (*) phi(x1)) meet (p2 (*) phi(x2)) against the sup over x of
    ((p1 (*) X(x1, x)) meet (p2 (*) X(x2, x))) (*) phi(x) for breakpoints p.
    Both sides are unchanged by swapping (x1, p1) with (x2, p2), so a failure at
    (x1, x2, p1, p2) with x1 > x2 has a mirror (x2, x1, p2, p1) that the scan
    reaches first: scanning only x2 >= x1 finds the same first failure.
    """
    X = phi.base
    eq = tn.equality(X.mode)
    if not any(eq(phi(x), X.one) for x in range(X.n)):
        return False, ("inhabited",), X.mode == "exact"
    points, exact = _breakpoints(X)
    conj, hom, v = tn.evaluators(X.tnorm, X.mode)[0], X.hom, phi.values
    for x1 in range(X.n):
        for x2 in range(x1, X.n):
            for p1 in points:
                a1 = conj(p1, v[x1])
                for p2 in points:
                    lhs = min(a1, conj(p2, v[x2]))
                    rhs = max(conj(min(conj(p1, hom[x1][x]), conj(p2, hom[x2][x])), v[x]) for x in range(X.n))
                    if not eq(lhs, rhs):
                        return False, (x1, x2, p1, p2), exact
    return True, None, exact


#: the most grid vectors whose coweights `_coweight_family` lists one by one
EXHAUSTIVE_CAP = 10**6


def _coweight_family(X: EnrichedCategory):
    """Every grid coweight when |grid| ** n <= EXHAUSTIVE_CAP, otherwise the corepresentables.

    The corepresentables X(a, -) decide flatness by themselves.  Let phi be
    conically flat.  Its set T = {x : phi(x) = 1} is directed (the identity at
    p1 = p2 = 1 puts some x of T above any two members), so the finite T holds a
    top m.  If phi is not X(-, m), take the first a with phi(a) != X(a, m); the
    weight law X(a, m) (*) phi(m) <= phi(a) makes phi(a) > X(a, m).  Then
    (r, psi) = (phi(a), X(a, -)) breaks the cotensor identity: its right side is
    1, from the x = a term, while each term of its left side is < 1, on T since
    X(a, x) <= X(a, m) < phi(a) and off T since phi(x) < 1.  Representable
    weights are flat, so scanning r over the grid radii and phi's own values
    against the corepresentables gives the exact verdict at every n.
    """
    if X.grid is not None and len(X.grid.points) ** X.n <= EXHAUSTIVE_CAP:
        return enumerate_coweights(X, EXHAUSTIVE_CAP)
    return [coyoneda(X, x) for x in range(X.n)]


def is_flat(phi: Weight):
    """(verdict, witness, exact_flag): conically flat plus cotensor stability.

    The extra condition quantifies pairing(phi, r -> psi) = r -> pairing(phi, psi)
    over the scalars r of the breakpoints and phi, and the coweights of
    `_coweight_family`.
    """
    return _flat(phi, is_conically_flat(phi))


def _flat(phi: Weight, conical):
    """is_flat, given the result of is_conically_flat(phi)."""
    cf, wit, exact = conical
    if not cf:
        return False, ("conically_flat", wit), exact
    X = phi.base
    points, _ = _breakpoints(X)
    family = _coweight_family(X)
    imp, eq = tn.evaluators(X.tnorm, X.mode)[1], tn.equality(X.mode)
    for r in sorted(set(points) | set(phi.values)):
        for psi in family:
            # r -> psi is a coweight; unchecked, since a float residual scales TOL by 1/r
            shifted = _unchecked(Coweight, X, tuple(imp(r, w) for w in psi.values))
            if not eq(pairing(phi, shifted), imp(r, pairing(phi, psi))):
                return False, (r, psi.values), exact
    return True, None, exact


@dataclass
class WeightClassReport:
    representable: int | None
    cauchy: tuple | None
    ideal: bool
    conically_flat: bool
    flat: bool
    witnesses: dict = field(default_factory=dict)
    exhaustive: bool = True

    @property
    def flags(self):
        return {
            "representable": self.representable is not None,
            "cauchy": self.cauchy is not None,
            "ideal": self.ideal,
            "conically_flat": self.conically_flat,
            "flat": self.flat,
        }

    def to_json(self):
        return {
            "flags": self.flags,
            "representable_element": self.representable,
            "cauchy_left_adjoint": _encode(self.cauchy) if self.cauchy else None,
            "witnesses": _encode(self.witnesses),
            "exhaustive": self.exhaustive,
        }


def classify(phi: Weight) -> WeightClassReport:
    """Aggregate all class predicates, enforcing the implication chain.

    A representable phi is classified as the Yoneda weight X(-, a) it equals:
    the same vector in exact mode, and in float mode one within TOL of phi
    that keeps representable => Cauchy => flat, which phi itself, a few ulps
    off the column, can break.
    """
    rep = is_representable(phi)
    if rep is not None:  # a Yoneda column is a weight: no law check
        phi = _unchecked(Weight, phi.base, tuple(row[rep] for row in phi.base.hom))
    cw = is_cauchy(phi)
    ideal, ideal_wit = is_ideal(phi)
    conical = is_conically_flat(phi)
    cf, cf_wit, _ = conical
    flat, flat_wit, exhaustive = _flat(phi, conical)
    report = WeightClassReport(
        representable=rep,
        cauchy=cw.values if cw else None,
        ideal=ideal,
        conically_flat=cf,
        flat=flat,
        exhaustive=exhaustive,
    )
    if ideal_wit is not None:
        report.witnesses["ideal"] = ideal_wit
    if cf_wit is not None:
        report.witnesses["conically_flat"] = cf_wit
    if flat_wit is not None:
        report.witnesses["flat"] = flat_wit
    chain = [
        (rep is not None, cw is not None, "representable implies cauchy"),
        (cw is not None, ideal, "cauchy implies ideal"),
        (cw is not None, flat, "cauchy implies flat"),
        (flat, cf, "flat implies conically flat"),
        (ideal, cf, "ideal implies conically flat"),
    ]
    for pre, post, label in chain:
        if pre and not post and exhaustive:
            raise RecatError(f"classification chain violated: {label}")
    return report


def cauchy_completion(X: EnrichedCategory):
    """(completion, embedding): the distinct Yoneda columns, lexicographically.

    They are the Cauchy weights, sub between the columns of a and b is
    X(a, b), and the embedding sends x to the class of its column.
    """
    _exact(X, "cauchy completion needs exact mode")
    columns = _columns(X.hom, X.n)
    first = {c: x for x, c in reversed(tuple(enumerate(columns)))}  # column -> least element with it
    classes = sorted(first)
    rep = [first[c] for c in classes]
    hom = tuple(tuple(X.hom[a][b] for b in rep) for a in rep)
    names = tuple(f"c{i}" for i in range(len(rep)))
    completion = EnrichedCategory(X.tnorm, hom, names, X.grid)
    index = {c: i for i, c in enumerate(classes)}
    return completion, tuple(index[c] for c in columns)


def is_smyth_complete(X: EnrichedCategory) -> bool:
    """Separated, since every ideal is representable."""
    _exact(X, "smyth completeness needs exact mode")
    return is_separated(X)


def is_smyth_completable(X: EnrichedCategory) -> bool:
    """True on a separated carrier, since every ideal is representable, hence Cauchy."""
    _exact(X, "smyth completability needs exact mode")
    if not is_separated(X):
        raise RecatError("smyth completability is postulated for separated carriers")
    return True
