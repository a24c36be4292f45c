"""Tests for cell values and cell types."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dataframe.cells import (
    CellType,
    cell_token,
    coerce_value,
    format_number,
    format_value,
    infer_cell_type,
    infer_column_type,
    is_missing,
    is_numeric,
    normalize_number,
    value_sort_key,
    values_equal,
)
from repro.dataframe.errors import CellTypeError


class TestTypeInference:
    def test_numbers_are_num(self):
        assert infer_cell_type(3) is CellType.NUM
        assert infer_cell_type(3.5) is CellType.NUM

    def test_strings_are_string(self):
        assert infer_cell_type("abc") is CellType.STR

    def test_missing_is_untyped(self):
        assert infer_cell_type(None) is None

    def test_bool_is_rejected(self):
        with pytest.raises(CellTypeError):
            infer_cell_type(True)

    def test_column_type_ignores_missing(self):
        assert infer_column_type([None, 3, None]) is CellType.NUM

    def test_all_missing_column_defaults_to_string(self):
        assert infer_column_type([None, None]) is CellType.STR

    def test_mixed_column_raises(self):
        with pytest.raises(CellTypeError):
            infer_column_type([1, "a"])


class TestCoercion:
    def test_num_column_rejects_string(self):
        with pytest.raises(CellTypeError):
            coerce_value("x", CellType.NUM)

    def test_string_column_formats_number(self):
        assert coerce_value(5, CellType.STR) == "5"

    def test_missing_passes_through(self):
        assert coerce_value(None, CellType.NUM) is None
        assert coerce_value(None, CellType.STR) is None

    def test_integral_float_normalises_to_int(self):
        assert normalize_number(4.0) == 4
        assert isinstance(normalize_number(4.0), int)

    def test_format_number(self):
        assert format_number(2.0) == "2"
        assert format_number(2.5) == "2.5"


class TestExactTypeFastPaths:
    """Cells that miss the ``type(value) is int``/``float`` fast paths."""

    def test_integral_fraction(self):
        half_four = Fraction(4, 2)
        assert is_numeric(half_four)
        assert normalize_number(half_four) == 2
        assert type(normalize_number(half_four)) is int
        assert type(normalize_number(Fraction(1, 2))) is float
        assert format_value(half_four) == "2"
        assert cell_token(half_four) == "n2"
        assert value_sort_key(half_four) == (1, 2.0)
        assert values_equal(half_four, 2)
        assert infer_column_type([1, half_four, 2.5]) is CellType.NUM

    def test_bool_is_not_a_number(self):
        assert not is_numeric(True)
        assert normalize_number(True) is True
        assert format_value(True) == "True"
        assert value_sort_key(True) == (2, "True")
        with pytest.raises(CellTypeError):
            infer_column_type([1, True])
        with pytest.raises(CellTypeError):
            coerce_value(True, CellType.NUM)

    def test_only_numbers_and_their_subclasses_are_numeric(self):
        class MyInt(int):
            pass

        class MyFloat(float):
            pass

        class MyFraction(Fraction):
            pass

        class MyStr(str):
            pass

        for value in (3, 2.5, Fraction(1, 3), MyInt(4), MyFloat(0.5), MyFraction(2, 3)):
            assert is_numeric(value), value
        for value in (True, False, "3", "", MyStr("4"), None):
            assert not is_numeric(value), value

    def test_infinity_stays_a_float(self):
        infinity = float("inf")
        assert is_numeric(infinity)
        assert normalize_number(infinity) is infinity
        assert normalize_number(-infinity) == -math.inf
        assert format_value(infinity) == "inf"
        assert cell_token(-infinity) == "n-inf"
        assert value_sort_key(infinity) == (1, infinity)
        assert values_equal(infinity, infinity)
        assert not values_equal(infinity, 1e308)


class TestEqualityAndOrdering:
    def test_float_tolerance(self):
        assert values_equal(0.6666667, 2 / 3)
        assert not values_equal(0.66, 2 / 3)

    def test_missing_equals_missing_only(self):
        assert values_equal(None, None)
        assert not values_equal(None, 0)

    def test_string_equality(self):
        assert values_equal("a", "a")
        assert not values_equal("a", "b")

    def test_sort_key_orders_missing_numbers_strings(self):
        values = ["b", 3, None, 1, "a"]
        ordered = sorted(values, key=value_sort_key)
        assert ordered == [None, 1, 3, "a", "b"]

    def test_format_value(self):
        assert format_value(None) == "NA"
        assert format_value(3.0) == "3"
        assert format_value("x") == "x"


class TestProperties:
    @given(st.integers(min_value=-10**6, max_value=10**6))
    def test_numbers_equal_themselves(self, value):
        assert values_equal(value, value)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_float_reflexive(self, value):
        assert values_equal(value, value)

    @given(st.lists(st.one_of(st.integers(), st.text(max_size=5), st.none()), max_size=20))
    def test_sort_key_is_total(self, values):
        ordered = sorted(values, key=value_sort_key)
        assert len(ordered) == len(values)

    @given(st.integers(min_value=-10**6, max_value=10**6))
    def test_is_numeric_and_missing_disjoint(self, value):
        assert is_numeric(value)
        assert not is_missing(value)
