"""Continuous t-norms on [0,1]: evaluation, residua, generators, ordinal sums.

Every continuous t-norm is an ordinal sum of Lukasiewicz and product copies
(Mostert and Shields), and a `TNorm` is built from its summands: an ordinal
sum keeps its blocks, `lukasiewicz` and `product` are one block on [0, 1], and
`godel` has none.  One formula pair, `_ordinal_conj`/`_ordinal_imp`, bound
over the summands' float or `Fraction` bounds, is each t-norm's float and
rational (*) and ->; the named bases keep their own float evaluators in
`_FLOAT_OPS`, which equal the one-block sums bit for bit.  Whether t has
exact semantics, its Archimedean base and whether its -> is continuous off
the diagonal are read off the summands once, at construction.

Exact mode works on `fractions.Fraction` values and is available when every
summand is Lukasiewicz (so for Godel too).  The product t-norm (and any
ordinal sum containing a product block) is evaluated in float mode only,
since no finite rational set is closed under it.

`conj` and `imp` check their operands on entry.  Two plain floats in
[0.0, 1.0] go straight to the t-norm's float evaluator, `float_conj` or
`float_imp`; every other pair (ints, Fractions, mixed modes, NaN, values
outside [0,1]) goes through the checked path, which settles the mode with
`same_mode`, applies `_check_range` and raises `ModeMismatchError` or
`RecatError` there.  The evaluators never check.

`evaluators(t, mode)` hands a loop over checked scalars its (*) and -> once:
the evaluators themselves in float mode, so a float loop pays no dispatch per
scalar, and `conj`/`imp` bound to t in exact mode, so the rational path and
its gate stay as they are.  `generators(t)` hands a float loop an Archimedean
t-norm's additive generator and pseudo-inverse the same way; `generator_eval`
and `pseudo_inverse` check their operand and then call that pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial, reduce

from .errors import ExactModeError, ModeMismatchError, NotArchimedeanError, RecatError

GODEL = "godel"
PRODUCT = "product"
LUKASIEWICZ = "lukasiewicz"
ORDINAL = "ordinal"

ZERO = Fraction(0)
ONE = Fraction(1)

#: comparison tolerance used throughout float mode
TOL = 1e-12

NEG_INF = float("-inf")


def mode_of(v) -> str:
    if isinstance(v, Fraction):
        return "exact"
    if isinstance(v, float):
        return "float"
    if isinstance(v, int) and not isinstance(v, bool):
        # bare ints are promoted to exact values; a bool is no scalar
        return "exact"
    raise ModeMismatchError(f"unsupported value type {type(v).__name__}")


def same_mode(x, y) -> str:
    mx, my = mode_of(x), mode_of(y)
    if mx != my:
        raise ModeMismatchError(f"mixed exact/float operands: {x!r} and {y!r}")
    return mx


def vle(x, y) -> bool:
    """Order comparison, tolerance-aware in float mode."""
    if isinstance(x, float) or isinstance(y, float):
        return x <= y + TOL
    return x <= y


def veq(x, y) -> bool:
    if isinstance(x, float) or isinstance(y, float):
        return abs(x - y) <= TOL
    return x == y


def equality(mode: str):
    """veq for a loop over scalars of `mode`, picked once: on floats, its rule undispatched."""
    return _float_eq if mode == "float" else veq


def _float_eq(x, y) -> bool:
    return abs(x - y) <= TOL


@dataclass(frozen=True)
class Block:
    """One Archimedean summand of an ordinal sum, on the closed interval [lo, hi]."""

    lo: Fraction
    hi: Fraction
    inner: str  # PRODUCT or LUKASIEWICZ

    def __post_init__(self):
        for v in (self.lo, self.hi):
            if not isinstance(v, str):
                mode_of(v)  # a bool, None or a list is no bound
        try:
            object.__setattr__(self, "lo", Fraction(self.lo))
            object.__setattr__(self, "hi", Fraction(self.hi))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:  # 'abc', '1/0', NaN, inf
            raise RecatError(f"cannot parse block bounds {self.lo!r}, {self.hi!r}") from exc
        if not (ZERO <= self.lo < self.hi <= ONE):
            raise RecatError(f"block needs 0 <= lo < hi <= 1, got [{self.lo}, {self.hi}]")
        if self.inner not in (PRODUCT, LUKASIEWICZ):
            raise RecatError(f"block inner must be product or lukasiewicz, got {self.inner!r}")


# --- evaluators ----------------------------------------------------------
# Each TNorm compiles its float and rational (*) and -> once, from these
# module-level functions (a partial over its summands' bounds, never a lambda,
# so a TNorm still pickles).  They never check their operands.


def _godel_conj(x, y):
    return x if x <= y else y


def _godel_imp(x, y):
    return 1.0 if x <= y else y


def _lukasiewicz_conj(x, y):
    z = x + y - 1.0
    return z if z > 0.0 else 0.0


def _lukasiewicz_imp(x, y):
    return 1.0 if x <= y else 1.0 - x + y


def _product_conj(x, y):
    return x * y


def _product_imp(x, y):
    return 1.0 if x <= y else y / x


def _ordinal_conj(blocks, x, y):
    """x (*) y for an ordinal sum whose blocks are (lo, hi, is_lukasiewicz) triples,
    with float bounds for float operands and Fraction bounds for Fractions."""
    for lo, hi, luka in blocks:
        if lo <= x <= hi and lo <= y <= hi:
            if luka:
                z = x + y - hi
                return z if z > lo else lo
            z = lo + (x - lo) * (y - lo) / (hi - lo)
            return z if z < hi else hi  # float rounding can land an ulp above hi
    return x if x <= y else y


def _ordinal_imp(blocks, one, x, y):
    """x -> y for the ordinal sum of `_ordinal_conj`; `one` is the mode's top."""
    if x <= y:
        return one
    for lo, hi, luka in blocks:
        if lo <= y < x <= hi:
            if luka:
                return hi - x + y
            return lo + (hi - lo) * (y - lo) / (x - lo)
    return y


_FLOAT_OPS = {
    GODEL: (_godel_conj, _godel_imp),
    LUKASIEWICZ: (_lukasiewicz_conj, _lukasiewicz_imp),
    PRODUCT: (_product_conj, _product_imp),
}


# The float additive generator g and its pseudo-inverse, x (*) y = g^-1(g(x) + g(y)),
# of each Archimedean base; like the evaluators they never check their operand.


def _lukasiewicz_generator(x):
    return x - 1.0


def _lukasiewicz_pseudo_inverse(u):
    v = u + 1.0
    return v if v > 0.0 else 0.0


def _product_generator(x):
    return math.log(x) if x > 0.0 else NEG_INF


def _product_pseudo_inverse(u):
    return math.exp(u) if u != NEG_INF else 0.0


_FLOAT_GENERATORS = {
    LUKASIEWICZ: (_lukasiewicz_generator, _lukasiewicz_pseudo_inverse),
    PRODUCT: (_product_generator, _product_pseudo_inverse),
}


@dataclass(frozen=True)
class TNorm:
    """A continuous t-norm: a named base or an ordinal sum of blocks."""

    kind: str
    blocks: tuple = ()
    # built once from the summands: the float and rational (*) and ->, whether
    # the rational pair is t's exact semantics, the Archimedean base (the inner
    # kind of one summand on [0, 1], else None) and whether -> is continuous
    # off the diagonal; an Archimedean t-norm also gets its base's float
    # generator pair, and the two fields stay unset on any other
    float_conj: object = field(init=False, repr=False, compare=False)
    float_imp: object = field(init=False, repr=False, compare=False)
    exact_conj: object = field(init=False, repr=False, compare=False)
    exact_imp: object = field(init=False, repr=False, compare=False)
    supports_exact: bool = field(init=False, repr=False, compare=False)
    base: str | None = field(init=False, repr=False, compare=False)
    continuous_off_diagonal: bool = field(init=False, repr=False, compare=False)
    float_generator: object = field(init=False, repr=False, compare=False)
    float_pseudo_inverse: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (GODEL, PRODUCT, LUKASIEWICZ, ORDINAL):
            raise RecatError(f"unknown t-norm kind {self.kind!r}")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if self.kind != ORDINAL and self.blocks:
            raise RecatError("only ordinal sums carry blocks")
        for a, b in zip(self.blocks, self.blocks[1:]):
            if a.hi > b.lo:
                raise RecatError(f"blocks overlap: [{a.lo},{a.hi}] and [{b.lo},{b.hi}]")
        summands = (Block(ZERO, ONE, self.kind),) if self.kind in (PRODUCT, LUKASIEWICZ) else self.blocks
        exact = tuple((b.lo, b.hi, b.inner == LUKASIEWICZ) for b in summands)
        floats = tuple((float(lo), float(hi), luka) for lo, hi, luka in exact)
        float_ops = _FLOAT_OPS.get(self.kind) or (partial(_ordinal_conj, floats), partial(_ordinal_imp, floats, 1.0))
        luka = [b for b in summands if b.inner == LUKASIEWICZ]
        whole = len(summands) == 1 and summands[0].lo == ZERO and summands[0].hi == ONE
        base = summands[0].inner if whole else None
        for name, value in (
            ("float_conj", float_ops[0]),
            ("float_imp", float_ops[1]),
            ("exact_conj", partial(_ordinal_conj, exact)),
            ("exact_imp", partial(_ordinal_imp, exact, ONE)),
            ("supports_exact", len(luka) == len(summands)),
            ("base", base),
            ("continuous_off_diagonal", not luka or (len(luka) == 1 and luka[0].lo == ZERO)),
            *zip(("float_generator", "float_pseudo_inverse"), _FLOAT_GENERATORS.get(base, ())),
        ):
            object.__setattr__(self, name, value)

    def __str__(self):
        return format_tnorm(self)


godel = TNorm(GODEL)
product = TNorm(PRODUCT)
lukasiewicz = TNorm(LUKASIEWICZ)


def ordinal_sum(*blocks) -> TNorm:
    return TNorm(ORDINAL, tuple(Block(*b) if not isinstance(b, Block) else b for b in blocks))


def parse_tnorm(text: str) -> TNorm:
    """Parse the textual form: godel, product, lukasiewicz, ordinal[(lo,hi,inner),...]."""
    if not isinstance(text, str):
        raise RecatError(f"cannot parse t-norm {text!r}")
    s = text.strip().lower()
    if s in (GODEL, PRODUCT, LUKASIEWICZ):
        return TNorm(s)
    if s.startswith("ordinal[") and s.endswith("]"):
        body = s[len("ordinal[") : -1].strip()
        blocks = []
        while body:
            if not body.startswith("("):
                raise RecatError(f"cannot parse t-norm {text!r}")
            try:
                close = body.index(")")
                lo, hi, inner = (p.strip() for p in body[1:close].split(","))
                blocks.append(Block(Fraction(lo), Fraction(hi), inner))
            except (ValueError, ZeroDivisionError) as exc:
                raise RecatError(f"cannot parse t-norm {text!r}") from exc
            body = body[close + 1 :].lstrip(", ")
        return TNorm(ORDINAL, tuple(blocks))
    raise RecatError(f"cannot parse t-norm {text!r}")


def format_tnorm(t: TNorm) -> str:
    if t.kind != ORDINAL:
        return t.kind
    parts = ",".join(f"({b.lo},{b.hi},{b.inner})" for b in t.blocks)
    return f"ordinal[{parts}]"


@lru_cache(maxsize=1 << 20)
def _conj_cached(t: TNorm, x, y):
    return t.exact_conj(x, y)


@lru_cache(maxsize=1 << 20)
def _imp_cached(t: TNorm, x, y):
    return t.exact_imp(x, y)


def _check_range(v):
    if not (0 <= v <= 1):
        raise RecatError(f"value {v!r} outside [0,1]")


def conj(t: TNorm, x, y):
    """x (*) y for the t-norm t."""
    if type(x) is float and type(y) is float and 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0:
        return t.float_conj(x, y)
    mode = same_mode(x, y)
    _check_range(x)
    _check_range(y)
    if mode == "exact":
        if not t.supports_exact:
            raise ExactModeError(f"{t} has no exact semantics; use float operands")
        return _conj_cached(t, Fraction(x), Fraction(y))
    return t.float_conj(x, y)


def imp(t: TNorm, x, y):
    """The residuum x -> y: the largest z with x (*) z <= y."""
    if type(x) is float and type(y) is float and 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0:
        return t.float_imp(x, y)
    mode = same_mode(x, y)
    _check_range(x)
    _check_range(y)
    if mode == "exact":
        if not t.supports_exact:
            raise ExactModeError(f"{t} has no exact semantics; use float operands")
        return _imp_cached(t, Fraction(x), Fraction(y))
    return t.float_imp(x, y)


def evaluators(t: TNorm, mode: str):
    """(x (*) y, x -> y) for loops over scalars of `mode` that were checked before the loop.

    In float mode they are t.float_conj and t.float_imp, which skip every
    check.  That is safe because each float such a loop sees was checked once,
    by `values._check_scalars` at a category, weight, radius or tensor scalar,
    or came out of an evaluator, and on [0,1] the evaluators return values in
    [0,1].  In exact mode they are `conj` and `imp` bound to t, looked up when
    the pair is built, so a wrapper put on this module counts every exact
    operation, and product still raises ExactModeError on its first call.
    """
    if mode == "float":
        return t.float_conj, t.float_imp
    return partial(conj, t), partial(imp, t)


def conj_exact_unchecked(t: TNorm, x: Fraction, y: Fraction) -> Fraction:
    """Rational evaluation without the exact-mode gate (grid closure probes)."""
    return t.exact_conj(Fraction(x), Fraction(y))


def imp_exact_unchecked(t: TNorm, x: Fraction, y: Fraction) -> Fraction:
    return t.exact_imp(Fraction(x), Fraction(y))


def power(t: TNorm, x, n: int):
    """The n-fold (*)-power of x, n >= 1."""
    from .values import _count  # values imports this module

    _count(n, "power's n")
    if n == 1:
        conj(t, x, x)  # checks x as the conj calls of a larger n do
    return reduce(lambda a, _: conj(t, a, x), range(n - 1), x)


def idempotents(t: TNorm, grid):
    """All grid points with x (*) x = x."""
    from .values import _items  # values imports this module

    points = _items(getattr(grid, "points", grid), "grid")
    return tuple(p for p in points if veq(conj(t, p, p), p))


def is_archimedean(t: TNorm) -> bool:
    return t.base is not None


def archimedean_base(t: TNorm):
    """The base kind (product or lukasiewicz) of an Archimedean t-norm."""
    if t.base is None:
        raise NotArchimedeanError(f"{t} is not Archimedean")
    return t.base


def generators(t: TNorm):
    """(g, g^-1): the float additive generator pair of an Archimedean t-norm, for loops over
    floats in [0, 1] (g) and in [-inf, 0] (g^-1) that were checked before the loop.

    They are t.float_generator and t.float_pseudo_inverse, which skip every
    check; a t-norm that is not Archimedean raises NotArchimedeanError, as in
    archimedean_base.
    """
    archimedean_base(t)
    return t.float_generator, t.float_pseudo_inverse


def generator_eval(t: TNorm, x):
    """Additive generator value in [-inf, 0]; product uses ln, Lukasiewicz x - 1.

    A plain float skips the mode lookup; any other value that is no scalar
    (a bool, a string, None, a list) raises ModeMismatchError there.  A checked
    float goes to t.float_generator, the formula of `generators`.
    """
    base = archimedean_base(t)
    exact = type(x) is not float and mode_of(x) == "exact"
    _check_range(x)
    if not exact:
        return t.float_generator(x)
    if base == LUKASIEWICZ:
        return x - ONE
    raise ExactModeError("the product generator ln(x) leaves the rationals")


def pseudo_inverse(t: TNorm, u):
    """Left adjoint of the generator: inverts on [t(0), 0], collapses below to 0.

    A plain float skips the mode lookup, as in generator_eval, and once
    checked goes to t.float_pseudo_inverse, the formula of `generators`.
    """
    base = archimedean_base(t)
    if type(u) is not float and mode_of(u) == "exact":
        if base == PRODUCT:
            raise ExactModeError("the product generator has no exact inverse")
        if u > 0:
            raise RecatError("pseudo_inverse expects u <= 0")
        v = Fraction(u) + ONE
        return v if v > ZERO else ZERO
    if not u <= 0.0:  # NaN too
        raise RecatError("pseudo_inverse expects u <= 0")
    return t.float_pseudo_inverse(u)


def continuous_off_diagonal(t: TNorm) -> bool:
    """True iff the implication is continuous at every point off the diagonal.

    Holds exactly when at most one block behaves like Lukasiewicz and that
    block starts at 0.
    """
    return t.continuous_off_diagonal
