"""A t-norm is built from its ordinal summands: one formula pair, bound over the
summands' bounds, gives the rational (*) and ->, and the predicates are read
off the summands.  The oracles are the formulas switched on the t-norm's kind.
"""

import random
import struct
from fractions import Fraction as F

import pytest

import recat.tnorm as tn
from recat.errors import NotArchimedeanError
from oracles import (
    archimedean_base_by_kind,
    conj_by_kind,
    continuous_off_diagonal_by_kind,
    imp_by_kind,
    is_archimedean_by_kind,
    supports_exact_by_kind,
)

TEXTS = (
    "godel",
    "product",
    "lukasiewicz",
    "ordinal[]",
    "ordinal[(0,1,lukasiewicz)]",
    "ordinal[(0,1,product)]",
    "ordinal[(0,1/2,lukasiewicz)]",
    "ordinal[(1/4,1/2,lukasiewicz)]",
    "ordinal[(1/2,1,lukasiewicz)]",
    "ordinal[(0,1/4,lukasiewicz),(1/2,1,lukasiewicz)]",
    "ordinal[(1/4,1/2,product)]",
    "ordinal[(0,1/4,lukasiewicz),(1/2,1,product)]",
    "ordinal[(1/8,3/8,product),(1/2,1,lukasiewicz)]",
)
MESH = sorted({F(k, 24) for k in range(25)} | {F(1, 3), F(2, 3), F(5, 7)})


def bits(v):
    return struct.pack("<d", v)


@pytest.mark.parametrize("text", TEXTS)
def test_the_rational_pair_equals_the_kind_formulas_in_value_and_type(text):
    t = tn.parse_tnorm(text)
    for x in MESH:
        for y in MESH:
            for new, old in ((t.exact_conj(x, y), conj_by_kind(t, x, y)), (t.exact_imp(x, y), imp_by_kind(t, x, y))):
                assert new == old and type(new) is type(old), (text, x, y)
            assert tn.conj_exact_unchecked(t, x, y) == conj_by_kind(t, x, y)
            assert tn.imp_exact_unchecked(t, x, y) == imp_by_kind(t, x, y)


@pytest.mark.parametrize("text", TEXTS)
def test_the_predicates_equal_the_kind_predicates(text):
    t = tn.parse_tnorm(text)
    assert t.supports_exact is supports_exact_by_kind(t)
    assert tn.is_archimedean(t) is is_archimedean_by_kind(t)
    assert tn.continuous_off_diagonal(t) is continuous_off_diagonal_by_kind(t)
    base = archimedean_base_by_kind(t)
    if base is None:
        with pytest.raises(NotArchimedeanError):
            tn.archimedean_base(t)
    else:
        assert tn.archimedean_base(t) == base


@pytest.mark.parametrize("kind", [tn.LUKASIEWICZ, tn.PRODUCT])
def test_a_named_base_evaluates_as_its_one_block_sum_bit_for_bit(kind):
    t, u = tn.TNorm(kind), tn.ordinal_sum((0, 1, kind))
    assert t.float_conj is not u.float_conj  # the named base keeps its own evaluators
    rng = random.Random(23)
    floats = [float(v) for v in MESH] + [rng.random() for _ in range(2000)]
    for x in floats:
        for y in floats[:: 7]:
            assert bits(t.float_conj(x, y)) == bits(u.float_conj(x, y)), (x, y)
            assert bits(t.float_imp(x, y)) == bits(u.float_imp(x, y)), (x, y)
