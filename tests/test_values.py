from fractions import Fraction as F

import pytest

import recat.tnorm as tn
import recat.values as vals
from recat.errors import CapExceededError, NotClosedError, RecatError


class TestGridValidate:
    def test_lukasiewicz_thirds(self):
        g = vals.grid_validate([0, F(1, 3), F(2, 3), 1], tn.lukasiewicz)
        assert g.points == (F(0), F(1, 3), F(2, 3), F(1))

    def test_godel_any_chain(self):
        g = vals.grid_validate([0, F(2, 5), 1], tn.godel)
        assert len(g) == 3

    def test_product_not_closed(self):
        with pytest.raises(NotClosedError) as exc:
            vals.grid_validate([0, F(1, 2), 1], tn.product)
        assert (exc.value.x, exc.value.y, exc.value.op) == (F(1, 2), F(1, 2), "conj")

    def test_requires_bounds(self):
        with pytest.raises(Exception):
            vals.grid_validate([F(1, 3), 1], tn.godel)

    def test_subset_failure_names_genuine_pair(self):
        # {0, 1/4, 1} inside the closed 1/4 grid: imp(1/2...) not reachable, but
        # conj(1/4,...) fine; the violating pair must genuinely escape.
        with pytest.raises(NotClosedError) as exc:
            vals.grid_validate([0, F(3, 4), 1], tn.lukasiewicz)
        x, y, op = exc.value.x, exc.value.y, exc.value.op
        fn = tn.conj_exact_unchecked if op == "conj" else tn.imp_exact_unchecked
        assert fn(tn.lukasiewicz, x, y) not in {F(0), F(3, 4), F(1)}


class TestValueGridValidates:
    """Building a ValueGrid directly runs the same checks as grid_validate."""

    @pytest.mark.parametrize(
        "points, t, pair",
        [
            ((0, F(1, 3), 1), tn.lukasiewicz, (F(1, 3), F(0), "imp")),
            ((0, F(1, 2), 1), tn.product, (F(1, 2), F(1, 2), "conj")),
        ],
    )
    def test_not_closed(self, points, t, pair):
        with pytest.raises(NotClosedError) as exc:
            vals.ValueGrid(points, t)
        assert (exc.value.x, exc.value.y, exc.value.op) == pair

    @pytest.mark.parametrize("points", [(0, F(3, 2), 1), (0, F(-1, 2), 1), (F(1, 2), 1), (0, F(1, 2))])
    def test_out_of_range_or_missing_bound(self, points):
        with pytest.raises(RecatError):
            vals.ValueGrid(points, tn.godel)


class TestGridClosure:
    def test_godel_fixed_point(self):
        g = vals.grid_closure([0, F(2, 5), 1], tn.godel)
        assert g.points == (F(0), F(2, 5), F(1))

    def test_lukasiewicz_saturation(self):
        g = vals.grid_closure([0, F(1, 4), 1], tn.lukasiewicz, cap=16)
        assert g.points == (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))

    def test_product_cap_exceeded(self):
        with pytest.raises(CapExceededError):
            vals.grid_closure([0, F(1, 2), 1], tn.product, cap=64)

    def test_closure_validates(self):
        g = vals.grid_closure([0, F(1, 6), 1], tn.lukasiewicz)
        assert vals.grid_validate(g.points, tn.lukasiewicz).points == g.points

    def test_ordinal_block_closure(self):
        t = tn.ordinal_sum((F(1, 4), F(1, 2), tn.LUKASIEWICZ))
        g = vals.grid_closure([0, F(3, 8), 1], t)
        assert vals.grid_validate(g.points, t).points == g.points


class TestParsing:
    def test_value_roundtrip(self):
        assert vals.parse_value("2/3") == F(2, 3)
        assert vals.format_value(F(2, 3)) == "2/3"
        assert vals.parse_value(1) == F(1)

    def test_grid_text(self):
        assert vals.parse_grid_text("{0, 1/3, 2/3, 1}") == (F(0), F(1, 3), F(2, 3), F(1))

    def test_out_of_range(self):
        with pytest.raises(Exception):
            vals.parse_value("5/3")
