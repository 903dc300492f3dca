"""Exact rational scalars and finite value grids closed under (*) and ->.

A grid is a finite set of rationals containing 0 and 1 that is closed under
the quantale operations of a t-norm; it is the carrier on which the sup/inf
formulas of the rest of the library evaluate exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import tnorm as tn
from .errors import CapExceededError, NotClosedError, RecatError

ZERO = tn.ZERO
ONE = tn.ONE


def parse_value(v) -> Fraction:
    """Parse a 'p/q' string, int, or Fraction into an exact value in [0,1]."""
    if isinstance(v, str):
        try:
            v = Fraction(v.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise RecatError(f"cannot parse exact value from {v!r}") from exc
    elif _KINDS.get(type(v)) != "exact":
        raise RecatError(f"cannot parse exact value from {v!r}")
    _check_scalars((v,))
    return Fraction(v)


def _normalize(v):
    # strings are parsed and ints become Fractions; other values stay the caller's objects
    if isinstance(v, str):
        return parse_value(v)
    return Fraction(v) if type(v) is int else v


def _json_array(v, what: str, optional: bool = False) -> list:
    """A JSON field that must be an array with no boolean in it; null reads as [] if optional."""
    if v is None and optional:
        return []
    if not isinstance(v, list):
        raise RecatError(f"{what} must be a JSON array, not {type(v).__name__}")
    if any(isinstance(a, bool) for a in v):
        raise RecatError(f"{what} holds a boolean")
    return v


def format_value(v: Fraction) -> str:
    return str(Fraction(v))


def _encode(v):
    """v ready for JSON: a Fraction as 'p/q', a tuple as a list, a dict by value, recursively."""
    if isinstance(v, Fraction):
        return format_value(v)
    if isinstance(v, tuple):
        return [_encode(a) for a in v]
    if isinstance(v, dict):
        return {k: _encode(a) for k, a in v.items()}
    return v


def parse_grid_text(text: str):
    """Parse the textual grid form '{0, 1/3, 2/3, 1}'."""
    s = text.strip()
    if s.startswith("{") and s.endswith("}"):
        s = s[1:-1]
    return tuple(parse_value(p) for p in s.split(",") if p.strip())


@lru_cache(maxsize=256)
def _quantale(pts: tuple, t: tn.TNorm) -> tuple:
    """(point -> index, conj_table, imp_table) of the ascending exact points under t.

    Shared by every ValueGrid on these points and t, which must not mutate
    them.  An exception is not cached, so a set that misses 0 or 1 or is not
    closed raises on every call, NotClosedError naming the first escaping pair.
    """
    pos = {p: i for i, p in enumerate(pts)}
    if ZERO not in pos or ONE not in pos:
        raise RecatError("grid must contain 0 and 1")
    conj_rows, imp_rows = [], []
    for x in pts:
        conj_row, imp_row = [], []
        for y in pts:
            c = pos.get(tn.conj_exact_unchecked(t, x, y))
            if c is None:
                raise NotClosedError(x, y, "conj")
            i = pos.get(tn.imp_exact_unchecked(t, x, y))
            if i is None:
                raise NotClosedError(x, y, "imp")
            conj_row.append(c)
            imp_row.append(i)
        conj_rows.append(tuple(conj_row))
        imp_rows.append(tuple(imp_row))
    return pos, tuple(conj_rows), tuple(imp_rows)


@dataclass(frozen=True)
class ValueGrid:
    """A finite ascending set of rationals closed under the t-norm operations.

    Construction raises on a point outside [0,1] or a missing 0 or 1, and
    with NotClosedError on the first pair whose (*) or -> escapes the set.
    The closure check keeps what it evaluates: the grid is a finite quantale,
    and conj_table[i][j] / imp_table[i][j] are the indices of
    points[i] (*) points[j] and points[i] -> points[j].  Indices ascend with
    the points, so sup and inf on the grid are max and min on indices.  The
    point -> index map and both tables come from `_quantale`, a bounded
    process-wide memo keyed on (sorted points, t-norm): equal grids share
    them, and a grid that is not closed is checked, and raises, every time.
    """

    points: tuple
    tnorm: tn.TNorm
    # point -> index for membership tests and index lookups, and the tables, from _quantale
    _pos: dict = field(init=False, repr=False, compare=False)
    conj_table: tuple = field(init=False, repr=False, compare=False)
    imp_table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple(sorted({parse_value(p) for p in _items(self.points, "grid points")}))
        object.__setattr__(self, "points", pts)
        pos, conj_table, imp_table = _quantale(pts, self.tnorm)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "conj_table", conj_table)
        object.__setattr__(self, "imp_table", imp_table)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def index(self, v) -> int:
        """Position of the point v; ValueError when v is not a point.

        Ints, floats and Fractions hash equal to the equal point, so only
        other inputs (strings) pay for the Fraction conversion.
        """
        i = self._pos.get(v)
        if i is None:
            i = self._pos.get(Fraction(v))
            if i is None:
                raise ValueError(f"{v} is not a grid point")
        return i


_KINDS = {Fraction: "exact", int: "exact", float: "float"}  # a bool is no scalar


def _check_scalars(values, grid: ValueGrid | None = None, what: str = "", mode: str | None = None):
    """The library's one scalar check: the grid index of each value, as a list, or None
    without a grid.  A scalar is exact (an int or a Fraction, never a bool) or a float, in
    [0,1]; a grid holds exact values.  Raise RecatError, its message led by `what`, on the
    first value that is not a point of the grid or, without one, no scalar of `mode`: the
    mode of a category's hom, named as such, or by default the first value's."""
    suffix = ", as the category's hom is" if mode else ""
    if grid is not None:
        pos, out = grid._pos, []
        for v in values:
            exact = _KINDS.get(type(v)) == "exact"
            i = pos.get(v) if exact else None
            if i is None:
                why = "" if exact else "; a grid holds exact values" + suffix
                raise RecatError(f"{what}{v if exact else repr(v)} is not a grid point{why}")
            out.append(i)
        return out
    for v in values:
        kind = _KINDS.get(type(v))
        mode = mode or kind
        if kind is None or kind != mode:
            raise RecatError(f"{what}{v!r} is not a scalar" if kind is None else f"{what}{v} is not {mode}{suffix}")
        if not (0.0 <= v <= 1.0 if kind == "float" else 0 <= v.numerator <= v.denominator):  # NaN fails too
            raise RecatError(f"{what}{v} is not in [0,1]")
    return None


def _in_carrier(X, *elements) -> tuple:
    """The elements, unless one is no index of X's carrier (an int, never a bool): RecatError."""
    n = X.n
    for a in elements:
        if type(a) is not int or not 0 <= a < n:
            raise RecatError(f"element {a} is not in the carrier")
    return elements


def _exact(X, message: str):
    """Raise RecatError(message) unless X is in exact mode, which the theorems that
    read a sup over a finite carrier as a max need; a grid they do not."""
    if X.mode != "exact":
        raise RecatError(message)


def _count(n, what: str, least: int = 1) -> int:
    """n if it is an int (never a bool) of at least `least`, else RecatError led by `what`."""
    if type(n) is not int or n < least:
        raise RecatError(f"{what} must be an int >= {least}, got {n!r}")
    return n


def _items(v, what: str) -> tuple:
    """The items of a container argument (a hom, its rows, values, a mapping, grid points)
    as a tuple; RecatError, led by `what`, when v is not iterable (None, an int)."""
    try:
        it = iter(v)
    except TypeError:
        raise RecatError(f"{what} must be a sequence, not {type(v).__name__}") from None
    return tuple(it)


def grid_validate(points, t: tn.TNorm) -> ValueGrid:
    """Return the validated grid, or raise NotClosedError on the first bad pair."""
    return ValueGrid(points, t)


def grid_closure(seed, t: tn.TNorm, cap: int = 4096) -> ValueGrid:
    """Least closed superset of the seed if it fits within cap elements."""
    _count(cap, "cap", 0)
    current = {parse_value(p) for p in _items(seed, "grid seed")} | {ZERO, ONE}
    while True:
        fresh = set()
        for x in current:
            for y in current:
                for v in (tn.conj_exact_unchecked(t, x, y), tn.imp_exact_unchecked(t, x, y)):
                    if v not in current:
                        fresh.add(v)
        if not fresh:
            return ValueGrid(tuple(sorted(current)), t)
        current |= fresh
        if len(current) > cap:
            raise CapExceededError(f"grid closure exceeded cap {cap}")


def unit_grid(n: int, t: tn.TNorm) -> ValueGrid:
    """The grid {0, 1/n, ..., 1}, validated against t."""
    _count(n, "the unit grid's n")
    return grid_validate([Fraction(k, n) for k in range(n + 1)], t)
