"""Cell values and cell types.

The paper (Definition 1) restricts cell types to ``num`` and ``string``.  We
mirror that restriction: every cell of a :class:`repro.dataframe.Table` holds
either a number (``int`` or ``float``) or a string.  ``None`` is additionally
accepted as a missing value (``NA`` in R) because several tidyr operations --
most notably ``spread`` on sparse key/value pairs -- naturally introduce it.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import CellTypeError

#: The Python types a cell may hold.
CellValue = Union[int, float, str, None]

#: Relative tolerance used when comparing floating point cells.
FLOAT_RELATIVE_TOLERANCE = 1e-6

#: Absolute tolerance used when comparing floating point cells.
FLOAT_ABSOLUTE_TOLERANCE = 1e-9


class CellType(enum.Enum):
    """The type of a table column (Definition 1 of the paper)."""

    NUM = "num"
    STR = "string"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def is_numeric(value: CellValue) -> bool:
    """Return ``True`` if *value* is a number (bools are not numbers here)."""
    # Exact-type tests first, for numbers and for the common non-numbers
    # (strings, missing cells): ``isinstance(..., Fraction)`` goes through
    # the ``numbers`` ABC machinery, which is slow on the per-cell paths.
    cls = type(value)
    if cls is int or cls is float:
        return True
    if cls is str or value is None:
        return False
    return isinstance(value, (int, float, Fraction)) and not isinstance(value, bool)


def is_missing(value: CellValue) -> bool:
    """Return ``True`` if *value* represents a missing cell (R's ``NA``)."""
    return value is None


def infer_cell_type(value: CellValue) -> Optional[CellType]:
    """Infer the :class:`CellType` of a single value.

    Returns ``None`` for missing values because they are compatible with any
    column type.
    """
    if is_missing(value):
        return None
    if is_numeric(value):
        return CellType.NUM
    if isinstance(value, str):
        return CellType.STR
    raise CellTypeError(f"unsupported cell value {value!r} of type {type(value).__name__}")


def infer_column_type(values: Iterable[CellValue]) -> CellType:
    """Infer the type of a column from its values.

    Missing values are ignored.  A column whose values are all missing is
    typed as ``string`` (matching R's behaviour for logical ``NA`` columns
    once coerced into a character frame).  Mixing numbers and strings raises
    :class:`CellTypeError`.
    """
    inferred: Optional[CellType] = None
    for value in values:
        cls = type(value)
        if cls is str:
            value_type = CellType.STR
        elif cls is int or cls is float:
            value_type = CellType.NUM
        else:
            value_type = infer_cell_type(value)
            if value_type is None:
                continue
        if inferred is None:
            inferred = value_type
        elif inferred is not value_type:
            raise CellTypeError(
                f"column mixes {inferred.value} and {value_type.value} values"
            )
    return inferred if inferred is not None else CellType.STR


def coerce_value(value: CellValue, cell_type: CellType) -> CellValue:
    """Coerce *value* into *cell_type*, raising :class:`CellTypeError` on mismatch."""
    if is_missing(value):
        return None
    if cell_type is CellType.NUM:
        if is_numeric(value):
            return normalize_number(value)
        raise CellTypeError(f"expected a numeric cell, got {value!r}")
    if isinstance(value, str):
        return value
    if is_numeric(value):
        # R silently prints numbers inside character columns; we do the same
        # coercion explicitly so that e.g. `unite` can join a numeric column
        # with a string column.
        return format_number(value)
    raise CellTypeError(f"expected a string cell, got {value!r}")


def normalize_number(value: Union[int, float, Fraction]) -> Union[int, float]:
    """Normalise a numeric cell: integral floats become ints, Fractions collapse."""
    cls = type(value)
    if cls is int:
        return value
    if cls is float:
        # ``is_integer`` is False for ``inf`` and ``nan``.
        return int(value) if value.is_integer() else value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return float(value)
    if isinstance(value, float) and value.is_integer() and math.isfinite(value):
        return int(value)
    return value


def format_number(value: Union[int, float]) -> str:
    """Render a number the way R renders it inside a character column."""
    normalized = normalize_number(value)
    if isinstance(normalized, int):
        return str(normalized)
    return repr(normalized)


def values_equal(left: CellValue, right: CellValue) -> bool:
    """Compare two cell values, using a tolerance for floats."""
    if is_missing(left) or is_missing(right):
        return is_missing(left) and is_missing(right)
    if is_numeric(left) and is_numeric(right):
        return math.isclose(
            float(left),
            float(right),
            rel_tol=FLOAT_RELATIVE_TOLERANCE,
            abs_tol=FLOAT_ABSOLUTE_TOLERANCE,
        )
    return left == right


def value_sort_key(value: CellValue):
    """A total order over cell values used by ``arrange`` and canonicalisation.

    Missing values sort first, then numbers, then strings.
    """
    if is_missing(value):
        return (0, 0)
    if is_numeric(value):
        return (1, float(value))
    return (2, str(value))


def format_value(value: CellValue) -> str:
    """Render a cell for display (markdown / plain text tables)."""
    if is_missing(value):
        return "NA"
    if is_numeric(value):
        return format_number(value)
    return str(value)


def cell_token(value: CellValue) -> str:
    """A type-tagged canonical string for one cell.

    Two cells share a token exactly when :func:`values_equal` considers them
    equal *at zero float distance*: numbers are rendered through
    :func:`format_number` (so ``5`` and ``5.0`` coincide) and tagged apart
    from strings (so the string ``"5"`` and the number ``5`` do not).  Table
    fingerprints and comparison digests are built from these tokens.
    """
    if is_missing(value):
        return "\x00"
    if is_numeric(value):
        return "n" + format_number(value)
    return "s" + value


def column_multiset_key(values: Iterable[CellValue]) -> tuple:
    """A canonical multiset of one column's values (float-tolerant).

    Floats are rounded to six decimal places and integral floats collapse to
    ints, so columns whose values differ only by sub-tolerance float noise
    share a key.  Used by column alignment during output comparison.
    """
    canonical = []
    for value in values:
        if isinstance(value, float):
            value = round(value, 6)
            if value.is_integer():
                value = int(value)
        canonical.append(value)
    return tuple(sorted(canonical, key=value_sort_key))
