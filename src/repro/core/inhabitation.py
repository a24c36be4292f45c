"""Table-driven type inhabitation (Section 7, Figure 13 of the paper).

Sketch completion needs, for every first-order hole, the set of well-typed
terms that can fill it.  Following the paper, the universe of constants is
*finitized by the concrete table* the hole's enclosing component operates on:

* the *Cols* rule enumerates combinations of the table's column names;
* the *Const* rule draws literal constants from the table's cells;
* the *Var*/*App*/*Lambda* rules assemble predicates (``row -> bool``) and
  arithmetic expressions from the value transformers :math:`\\Lambda_v`.

The functions below enumerate the normal forms of those terms for each
argument kind of the built-in component library.  They are lazy generators,
and the completer pulls one argument per search step.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Sequence

from ..components.values import COLUMN_AGGREGATORS
from ..dataframe.cells import CellType
from ..dataframe.table import Table
from .arguments import (
    Aggregation,
    ColumnList,
    ColumnRef,
    Constant,
    MutationExpr,
    Predicate,
    ValueArgument,
)
from .component import Component, ValueParam
from .types import Type

#: Comparison operators applicable to numeric columns.
NUMERIC_COMPARISONS = ("==", "!=", "<", ">", "<=", ">=")

#: Comparison operators applicable to string columns.
STRING_COMPARISONS = ("==", "!=")

#: Arithmetic operators used in mutate expressions.
MUTATION_OPERATORS = ("+", "-", "*", "/")

#: Aggregates considered on the right-hand side of a mutate expression.
#: (``sum`` covers the within-group proportion idiom ``x / sum(x)``; ``max``
#: covers normalisation against a maximum.)
MUTATION_AGGREGATES = ("sum", "max")

#: Safety cap on the number of inhabitants enumerated for a single hole.
MAX_INHABITANTS = 2000


def column_subsets(names: Sequence[str], min_size: int, max_size: int) -> Iterator[ColumnList]:
    """All subsets of *names* with sizes in ``[min_size, max_size]`` (Cols rule)."""
    for size in range(min_size, max_size + 1):
        for subset in itertools.combinations(names, size):
            yield ColumnList(subset)


def column_pairs(names: Sequence[str]) -> Iterator[ColumnList]:
    """All ordered pairs of distinct columns."""
    for pair in itertools.permutations(names, 2):
        yield ColumnList(pair)


def numeric_columns(table: Table) -> List[str]:
    """Columns of numeric type."""
    return [name for name in table.columns if table.column_type(name) is CellType.NUM]


def string_columns(table: Table) -> List[str]:
    """Columns of string type."""
    return [name for name in table.columns if table.column_type(name) is CellType.STR]


def column_constants(table: Table, name: str) -> List[Constant]:
    """Distinct constants occurring in a column (the Const rule)."""
    seen = set()
    constants = []
    for value in table.column_values(name):
        if value is None:
            continue
        key = repr(value)
        if key in seen:
            continue
        seen.add(key)
        constants.append(Constant(value))
    return constants


# ----------------------------------------------------------------------
# Per-kind enumerations
# ----------------------------------------------------------------------
def predicates(table: Table) -> Iterator[Predicate]:
    """All predicates ``column <op> constant`` over the table (Lambda/App/Const)."""
    for name in table.columns:
        constants = column_constants(table, name)
        operators = (
            NUMERIC_COMPARISONS
            if table.column_type(name) is CellType.NUM
            else STRING_COMPARISONS
        )
        for operator in operators:
            for constant in constants:
                yield Predicate(name, operator, constant)


def aggregations(table: Table) -> Iterator[Aggregation]:
    """All aggregations usable by ``summarise`` on the table."""
    yield Aggregation("n")
    for function in COLUMN_AGGREGATORS:
        if function == "n_distinct":
            targets = list(table.columns)
        else:
            targets = numeric_columns(table)
        for name in targets:
            yield Aggregation(function, name)


def mutations(table: Table) -> Iterator[MutationExpr]:
    """All mutate expressions over the table's numeric columns."""
    numbers = numeric_columns(table)
    for operator in MUTATION_OPERATORS:
        for left, right in itertools.permutations(numbers, 2):
            yield MutationExpr(operator, left, right_column=right)
        for left in numbers:
            for aggregate in MUTATION_AGGREGATES:
                for target in numbers:
                    yield MutationExpr(
                        operator, left, right_aggregate=Aggregation(aggregate, target)
                    )


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def enumerate_arguments(
    component: Component, param: ValueParam, table: Table
) -> Iterable[ValueArgument]:
    """Inhabitants of *param* with respect to the concrete *table*.

    The component name determines which fragment of the type's inhabitants is
    meaningful (e.g. ``gather`` needs at least two columns and must leave one
    identifier column behind).  The enumeration is lazy and has no deadline
    of its own: the completer pulls at most one argument per search step (or
    one sibling group of :data:`~repro.core.completion.SIBLING_BATCH`), and
    the search stops only between steps.
    """
    names = list(table.columns)
    count = len(names)

    if param.param_type is Type.COLS:
        if component.name == "gather":
            iterator: Iterable[ValueArgument] = column_subsets(names, 2, max(count - 1, 0))
        elif component.name == "unite":
            iterator = column_pairs(names)
        elif component.name == "arrange":
            iterator = itertools.chain(
                column_subsets(names, 1, 1), column_pairs(names)
            )
        elif component.name == "group_by":
            iterator = column_subsets(names, 1, max(count - 1, 1))
        else:  # select and any user-defined projection-like component
            iterator = column_subsets(names, 1, max(count - 1, 0))
    elif param.param_type is Type.COL:
        if component.name == "separate":
            iterator = (ColumnRef(name) for name in string_columns(table))
        else:
            iterator = (ColumnRef(name) for name in names)
    elif param.param_type is Type.PREDICATE:
        iterator = predicates(table)
    elif param.param_type is Type.AGGREGATION:
        iterator = aggregations(table)
    elif param.param_type is Type.MUTATION:
        iterator = mutations(table)
    else:  # pragma: no cover - defensive
        raise ValueError(f"cannot enumerate arguments of type {param.param_type}")
    return itertools.islice(iterator, MAX_INHABITANTS)
