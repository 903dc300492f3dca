from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recat.tnorm as tn
import recat.values as vals
from recat.errors import ExactModeError, ModeMismatchError, NotArchimedeanError, RecatError


def luka_grid(n):
    return vals.unit_grid(n, tn.lukasiewicz)


def brute_residual(t, x, y, points):
    """Independent oracle: the largest grid z with conj(x, z) <= y."""
    return max(z for z in points if tn.conj(t, x, z) <= y)


class TestConj:
    def test_lukasiewicz_example(self):
        assert tn.conj(tn.lukasiewicz, F(7, 10), F(6, 10)) == F(3, 10)

    def test_unit_law(self):
        for t in (tn.godel, tn.lukasiewicz):
            for x in luka_grid(4).points:
                assert tn.conj(t, x, F(1)) == x
        assert tn.conj(tn.product, 0.37, 1.0) == pytest.approx(0.37, abs=1e-12)

    def test_ordinal_sum_block_and_min(self):
        # one Lukasiewicz block on [0, 1/2]: inside max(0, x+y-1/2), outside min
        t = tn.ordinal_sum((0, F(1, 2), tn.LUKASIEWICZ))
        assert tn.conj(t, F(2, 10), F(3, 10)) == F(0)
        assert tn.conj(t, F(2, 10), F(7, 10)) == F(2, 10)

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            tn.conj(tn.godel, F(1, 2), 0.5)

    def test_product_exact_rejected(self):
        with pytest.raises(ExactModeError):
            tn.conj(tn.product, F(1, 2), F(1, 2))
        with pytest.raises(ExactModeError):
            tn.imp(tn.product, F(1, 2), F(1, 4))


class TestImp:
    def test_godel_example(self):
        assert tn.imp(tn.godel, F(7, 10), F(4, 10)) == F(4, 10)

    def test_product_example(self):
        assert tn.imp(tn.product, 0.5, 0.25) == pytest.approx(0.5, abs=1e-12)

    def test_equals_brute_force_residual_on_grids(self):
        for t, grid in [
            (tn.lukasiewicz, luka_grid(4)),
            (tn.godel, vals.grid_validate([0, F(1, 4), F(1, 2), F(3, 4), 1], tn.godel)),
        ]:
            for x in grid.points:
                for y in grid.points:
                    assert tn.imp(t, x, y) == brute_residual(t, x, y, grid.points)

    def test_ordinal_sum_three_cases(self):
        t = tn.ordinal_sum((F(1, 4), F(1, 2), tn.LUKASIEWICZ))
        # inside block, y >= block start
        assert tn.imp(t, F(1, 2), F(1, 4)) == F(1, 4)
        assert tn.imp(t, F(3, 8), F(1, 4)) == F(3, 8)
        # below block start falls back to the plain rule
        assert tn.imp(t, F(1, 2), F(1, 8)) == F(1, 8)
        assert tn.imp(t, F(3, 4), F(5, 8)) == F(5, 8)
        assert tn.imp(t, F(1, 8), F(1, 2)) == F(1)


class TestPower:
    def test_examples(self):
        assert tn.power(tn.lukasiewicz, F(6, 10), 3) == F(0)
        assert tn.power(tn.lukasiewicz, F(6, 10), 1) == F(6, 10)
        assert tn.power(tn.product, 0.5, 2) == pytest.approx(0.25, abs=1e-12)

    def test_monotone_decreasing_in_n(self):
        for x in luka_grid(5).points:
            powers = [tn.power(tn.lukasiewicz, x, n) for n in range(1, 6)]
            assert powers == sorted(powers, reverse=True)


class TestIdempotents:
    def test_godel_all(self):
        grid = vals.grid_validate([0, F(1, 4), F(1, 2), F(3, 4), 1], tn.godel)
        assert tn.idempotents(tn.godel, grid) == grid.points

    def test_lukasiewicz_trivial(self):
        assert tn.idempotents(tn.lukasiewicz, luka_grid(3)) == (F(0), F(1))

    def test_ordinal_block_endpoints(self):
        t = tn.ordinal_sum((F(1, 4), F(1, 2), tn.LUKASIEWICZ))
        grid = vals.grid_validate([0, F(1, 4), F(1, 2), F(3, 4), 1], t)
        assert tn.idempotents(t, grid) == grid.points


class TestArchimedean:
    def test_verdicts(self):
        assert tn.is_archimedean(tn.product)
        assert tn.is_archimedean(tn.lukasiewicz)
        assert not tn.is_archimedean(tn.godel)
        assert not tn.is_archimedean(tn.ordinal_sum((0, F(1, 2), tn.LUKASIEWICZ)))
        assert tn.is_archimedean(tn.ordinal_sum((0, 1, tn.LUKASIEWICZ)))


class TestGenerator:
    def test_product_examples(self):
        import math

        assert tn.generator_eval(tn.product, 0.5) == pytest.approx(math.log(0.5))
        assert tn.pseudo_inverse(tn.product, math.log(0.25)) == pytest.approx(0.25)
        assert tn.generator_eval(tn.product, 0.0) == tn.NEG_INF

    def test_lukasiewicz_examples(self):
        assert tn.generator_eval(tn.lukasiewicz, F(7, 10)) == F(-3, 10)
        assert tn.pseudo_inverse(tn.lukasiewicz, F(-7, 10)) == F(3, 10)
        assert tn.pseudo_inverse(tn.lukasiewicz, F(0)) == F(1)
        assert tn.pseudo_inverse(tn.lukasiewicz, F(-2)) == F(0)

    def test_non_archimedean_rejected(self):
        with pytest.raises(NotArchimedeanError):
            tn.generator_eval(tn.godel, 0.5)

    @pytest.mark.parametrize("bad", ["abc", "1/2", None, [1], (0.5,), {}], ids=repr)
    def test_a_value_that_is_no_scalar_raises_recat_error(self, bad):
        # these raised a bare TypeError from the range check or the u > 0 test
        for t in (tn.product, tn.lukasiewicz, tn.ordinal_sum((0, 1, tn.LUKASIEWICZ))):
            with pytest.raises(RecatError):
                tn.generator_eval(t, bad)
            with pytest.raises(RecatError):
                tn.pseudo_inverse(t, bad)

    def test_floats_and_exact_values_keep_their_results(self):
        import math

        assert tn.generator_eval(tn.lukasiewicz, 0.25) == -0.75
        assert tn.generator_eval(tn.lukasiewicz, 1) == F(0)
        assert tn.pseudo_inverse(tn.lukasiewicz, -0.25) == 0.75
        assert tn.pseudo_inverse(tn.lukasiewicz, -1) == F(0)
        assert tn.pseudo_inverse(tn.product, tn.NEG_INF) == 0.0
        assert tn.pseudo_inverse(tn.product, -1.0) == math.exp(-1.0)
        for bad in (1.5, -0.5, float("nan")):
            with pytest.raises(RecatError):
                tn.generator_eval(tn.product, bad)
        for t in (tn.product, tn.lukasiewicz):
            for bad in (0.5, float("nan")):  # NaN gave nan under product and 0.0 under Lukasiewicz
                with pytest.raises(RecatError, match="expects u <= 0"):
                    tn.pseudo_inverse(t, bad)
        with pytest.raises(ExactModeError):
            tn.generator_eval(tn.product, F(1, 2))
        with pytest.raises(ExactModeError):
            tn.pseudo_inverse(tn.product, F(-1, 2))

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=300)
    def test_reconstruction(self, x, y):
        for t in (tn.product, tn.lukasiewicz):
            u = tn.generator_eval(t, x) + tn.generator_eval(t, y)
            assert abs(tn.pseudo_inverse(t, u) - tn.conj(t, x, y)) <= 1e-9


class TestContinuousOffDiagonal:
    def test_verdicts(self):
        assert tn.continuous_off_diagonal(tn.godel)
        assert tn.continuous_off_diagonal(tn.product)
        assert tn.continuous_off_diagonal(tn.lukasiewicz)
        assert tn.continuous_off_diagonal(tn.ordinal_sum((0, F(1, 2), tn.LUKASIEWICZ)))
        assert not tn.continuous_off_diagonal(tn.ordinal_sum((F(1, 4), F(1, 2), tn.LUKASIEWICZ)))
        assert tn.continuous_off_diagonal(tn.ordinal_sum((F(1, 4), F(1, 2), tn.PRODUCT)))


grid_vals = st.sampled_from([F(k, 6) for k in range(7)])


class TestInvariants:
    @given(grid_vals, grid_vals, grid_vals)
    def test_residuation_adjunction_exact(self, x, y, z):
        for t in (tn.godel, tn.lukasiewicz):
            assert (tn.conj(t, x, y) <= z) == (y <= tn.imp(t, x, z))

    @given(grid_vals, grid_vals)
    def test_divisibility_exact(self, x, y):
        for t in (tn.godel, tn.lukasiewicz):
            assert tn.conj(t, x, tn.imp(t, x, y)) == min(x, y)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=300)
    def test_divisibility_float(self, x, y):
        t = tn.ordinal_sum((F(1, 4), F(1, 2), tn.PRODUCT))
        assert abs(tn.conj(t, x, tn.imp(t, x, y)) - min(x, y)) <= 1e-12

    @given(grid_vals)
    def test_double_negation_lukasiewicz(self, x):
        assert tn.imp(tn.lukasiewicz, tn.imp(tn.lukasiewicz, x, F(0)), F(0)) == x

    def test_double_negation_fails_godel_product(self):
        x = F(1, 2)
        assert tn.imp(tn.godel, tn.imp(tn.godel, x, F(0)), F(0)) != x
        xf = 0.5
        assert abs(tn.imp(tn.product, tn.imp(tn.product, xf, 0.0), 0.0) - xf) > 1e-12

    def test_parse_roundtrip(self):
        for text in ("godel", "product", "lukasiewicz", "ordinal[(1/4,1/2,lukasiewicz)]",
                     "ordinal[(0,1/4,product),(1/2,1,lukasiewicz)]"):
            assert tn.format_tnorm(tn.parse_tnorm(text)) == text
