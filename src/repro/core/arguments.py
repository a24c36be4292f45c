"""Concrete values for the first-order holes of a sketch.

Sketch completion (Section 7 of the paper) instantiates every non-table hole
with a first-order function built from the value transformers
:math:`\\Lambda_v` and from constants drawn from concrete tables.  These
classes are the normal forms of those first-order functions for the built-in
component library:

* :class:`ColumnList` / :class:`ColumnRef` -- inhabitants of ``cols`` / a
  single column name (the *Cols* rule of Figure 13).
* :class:`Predicate` -- ``lambda row. col <op> constant`` (the *Lambda*,
  *App*, *Var* and *Const* rules).
* :class:`Aggregation` -- an aggregate transformer applied to a column.
* :class:`MutationExpr` -- an arithmetic expression over columns and column
  aggregates (e.g. ``n / sum(n)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

from ..components.dplyr import GroupContext
from ..components.values import AGGREGATORS, ARITHMETIC_OPERATORS, COMPARISON_OPERATORS
from ..dataframe.cells import CellValue, format_value, is_numeric


class ValueArgument:
    """Base class of all first-order argument values."""

    def render_r(self) -> str:
        """Render this argument the way it would appear in R source."""
        raise NotImplementedError


def _value_argument(cls):
    """Make *cls* a frozen dataclass whose hash is cached.

    Arguments are hashed in every evaluation-memo probe and execution-cache
    key, so the field hash is computed on first use and kept in a ``_hash``
    field that takes no part in equality.  Like a hypothesis node's, the
    cached hash never travels with a pickle or a copy (``__reduce__`` passes
    the fields only), because it covers strings whose hash differs per
    process.
    """
    cls.__annotations__["_hash"] = "Optional[int]"
    cls._hash = field(default=None, init=False, repr=False, compare=False)
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__
    names = tuple(item.name for item in fields(cls) if item.init)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = field_hash(self)
            object.__setattr__(self, "_hash", cached)
        return cached

    def __reduce__(self):
        return cls, tuple(getattr(self, name) for name in names)

    cls.__hash__ = __hash__
    cls.__reduce__ = __reduce__
    return cls


@_value_argument
class ColumnList(ValueArgument):
    """An ordered list of column names (type ``cols``)."""

    names: Tuple[str, ...]

    def render_r(self) -> str:
        return ", ".join(self.names)

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)


@_value_argument
class ColumnRef(ValueArgument):
    """A single column name (type ``col``)."""

    name: str

    def render_r(self) -> str:
        return self.name


@_value_argument
class Constant(ValueArgument):
    """A literal constant drawn from a table (the *Const* rule)."""

    value: CellValue

    def render_r(self) -> str:
        if is_numeric(self.value):
            return format_value(self.value)
        return f'"{self.value}"'


@_value_argument
class Predicate(ValueArgument):
    """``lambda row. row[column] <operator> constant`` (type ``row -> bool``)."""

    column: str
    operator: str
    constant: Constant

    def __call__(self, row: dict) -> bool:
        return COMPARISON_OPERATORS[self.operator](row[self.column], self.constant.value)

    def render_r(self) -> str:
        return f"{self.column} {self.operator} {self.constant.render_r()}"


@_value_argument
class Aggregation(ValueArgument):
    """An aggregate transformer, optionally applied to a target column."""

    function: str
    column: Optional[str] = None

    def render_r(self) -> str:
        if self.function == "n":
            return "n()"
        return f"{self.function}({self.column})"


@_value_argument
class MutationExpr(ValueArgument):
    """A per-row arithmetic expression ``lhs <op> rhs``.

    ``lhs`` is always a column reference; ``rhs`` is either another column or
    an aggregate of a column evaluated over the row's group (dplyr semantics,
    so ``n / sum(n)`` computes a within-group proportion).
    """

    operator: str
    left_column: str
    right_column: Optional[str] = None
    right_aggregate: Optional[Aggregation] = None

    def __post_init__(self):
        if (self.right_column is None) == (self.right_aggregate is None):
            raise ValueError("exactly one of right_column / right_aggregate must be given")

    def __call__(self, row: dict, group: GroupContext) -> CellValue:
        left = row[self.left_column]
        if self.right_column is not None:
            right = row[self.right_column]
        else:
            aggregate = self.right_aggregate
            if aggregate.function == "n":
                right = group.size
            else:
                right = AGGREGATORS[aggregate.function](group.column_values(aggregate.column))
        return ARITHMETIC_OPERATORS[self.operator](left, right)

    def render_r(self) -> str:
        if self.right_column is not None:
            right = self.right_column
        else:
            right = self.right_aggregate.render_r()
        return f"{self.left_column} {self.operator} {right}"
