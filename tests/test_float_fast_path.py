"""The float fast path of `tnorm.conj`/`tnorm.imp` against the evaluators.

Two plain floats in [0, 1] skip the mode and range checks.  On seeded floats
and on the edge values 0.0, 1.0, -0.0 and the block endpoints, every result
must equal the t-norm's compiled `float_conj`/`float_imp` bit for bit, and
equal the formulas written out below with the block bounds converted at each
call; every operand pair outside that case must still raise.
"""

import math
import pickle
import random
import struct
from fractions import Fraction as F

import pytest

import recat.tnorm as tn
from recat.errors import ModeMismatchError, RecatError

TNORMS = {
    "godel": tn.godel,
    "product": tn.product,
    "lukasiewicz": tn.lukasiewicz,
    "lower_product_block": tn.ordinal_sum((F(0), F(1, 2), tn.PRODUCT)),
    "two_product_blocks": tn.ordinal_sum((F(1, 8), F(3, 8), tn.PRODUCT), (F(1, 2), F(1), tn.PRODUCT)),
    "lukasiewicz_and_product_blocks": tn.ordinal_sum((F(0), F(1, 4), tn.LUKASIEWICZ), (F(1, 2), F(1), tn.PRODUCT)),
}


def bits(v):
    return struct.pack("<d", v)


def operands(t):
    rng = random.Random(11)
    edges = [0.0, 1.0, -0.0]
    for b in t.blocks:
        edges += [float(b.lo), float(b.hi)]
    values = edges + [rng.random() for _ in range(40)]
    return [(x, y) for x in values for y in values]


def conj_formula(t, x, y):
    if t.kind == tn.GODEL:
        return x if x <= y else y
    if t.kind == tn.LUKASIEWICZ:
        z = x + y - 1.0
        return z if z > 0.0 else 0.0
    if t.kind == tn.PRODUCT:
        return x * y
    for b in t.blocks:
        lo, hi = float(b.lo), float(b.hi)
        if lo <= x <= hi and lo <= y <= hi:
            if b.inner == tn.LUKASIEWICZ:
                return max(x + y - hi, lo)
            return lo + (x - lo) * (y - lo) / (hi - lo)
    return x if x <= y else y


def imp_formula(t, x, y):
    if x <= y:
        return 1.0
    if t.kind == tn.GODEL:
        return y
    if t.kind == tn.LUKASIEWICZ:
        return 1.0 - x + y
    if t.kind == tn.PRODUCT:
        return y / x
    for b in t.blocks:
        lo, hi = float(b.lo), float(b.hi)
        if lo <= y < x <= hi:
            if b.inner == tn.LUKASIEWICZ:
                return hi - x + y
            return lo + (hi - lo) * (y - lo) / (x - lo)
    return y


@pytest.mark.parametrize("name", sorted(TNORMS))
def test_fast_path_equals_the_evaluators_bit_for_bit(name):
    t = TNORMS[name]
    for x, y in operands(t):
        c = tn.conj(t, x, y)
        assert bits(c) == bits(t.float_conj(x, y)) == bits(conj_formula(t, x, y))
        i = tn.imp(t, x, y)
        assert bits(i) == bits(t.float_imp(x, y)) == bits(imp_formula(t, x, y))


@pytest.mark.parametrize("name", sorted(TNORMS))
def test_a_tnorm_pickles_with_its_evaluators(name):
    """The evaluators are module-level functions or partials over them, never lambdas."""
    t = TNORMS[name]
    u = pickle.loads(pickle.dumps(t))
    assert u == t and hash(u) == hash(t) and repr(u) == repr(t)
    for x, y in operands(t):
        assert bits(u.float_conj(x, y)) == bits(t.float_conj(x, y))
        assert bits(u.float_imp(x, y)) == bits(t.float_imp(x, y))
    # the rational pair and the predicates read off the summands come back too
    assert (u.supports_exact, u.base, u.continuous_off_diagonal) == (
        t.supports_exact,
        t.base,
        t.continuous_off_diagonal,
    )
    mesh = [F(k, 12) for k in range(13)]
    for x in mesh:
        for y in mesh:
            assert u.exact_conj(x, y) == t.exact_conj(x, y)
            assert u.exact_imp(x, y) == t.exact_imp(x, y)


@pytest.mark.parametrize("name", sorted(TNORMS))
@pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5])
def test_out_of_range_floats_still_raise(name, bad):
    t = TNORMS[name]
    for op in (tn.conj, tn.imp):
        for x, y in ((bad, 0.5), (0.5, bad), (bad, bad)):
            with pytest.raises(RecatError):
                op(t, x, y)


@pytest.mark.parametrize("name", sorted(TNORMS))
def test_mixed_operands_still_raise(name):
    t = TNORMS[name]
    for op in (tn.conj, tn.imp):
        for x, y in ((F(1, 2), 0.5), (0.5, F(1, 2)), (1, 0.5), (0.5, 0)):
            with pytest.raises(ModeMismatchError):
                op(t, x, y)
