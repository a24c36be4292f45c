"""Row-major reference implementations of the component semantics.

This module retains the pre-columnar executor: every verb walks
``table.rows`` cell by cell and rebuilds its output through the row-major
:class:`~repro.dataframe.table.Table` constructor, exactly as the original
implementation did.  It exists for one purpose -- to pin the semantics of the
columnar executors in :mod:`repro.components.dplyr` and
:mod:`repro.components.tidyr`: a differential property test runs random
programs over random tables through both implementations and requires
identical outputs (cells, schema, grouping metadata) or identical errors.

Grouping metadata propagates through rebuilding verbs by the same uniform
rule as the columnar executors (see
:func:`repro.components.dplyr.surviving_group_cols`).

Do not use these executors in the synthesizer; they are deliberately the
slow path.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from ..dataframe.cells import (
    CellType,
    CellValue,
    format_value,
    infer_column_type,
    value_sort_key,
)
from ..dataframe.table import Table
from .dplyr import GroupContext, RowExpression, RowPredicate, join_key, surviving_group_cols
from .errors import EvaluationError, InvalidArgumentError
from .values import AGGREGATORS, agg_count

_SEPARATE_PATTERN = re.compile(r"[^0-9A-Za-z.]+")

DEFAULT_SEPARATOR = "_"


def _check_columns_exist(table: Table, columns: Sequence[str], verb: str) -> None:
    for name in columns:
        if not table.has_column(name):
            raise InvalidArgumentError(f"{verb}: column {name!r} not in table {list(table.columns)}")


# ----------------------------------------------------------------------
# dplyr verbs (row-major)
# ----------------------------------------------------------------------
def select(table: Table, columns: Sequence[str]) -> Table:
    columns = list(columns)
    if not columns:
        raise InvalidArgumentError("select: must keep at least one column")
    if len(set(columns)) != len(columns):
        raise InvalidArgumentError("select: selected columns must be distinct")
    _check_columns_exist(table, columns, "select")
    if len(columns) >= table.n_cols:
        raise EvaluationError("select: selection must drop at least one column")
    indices = [table.column_index(name) for name in columns]
    rows = [tuple(row[index] for index in indices) for row in table.rows]
    col_types = [table.col_types[index] for index in indices]
    group_cols = [name for name in table.group_cols if name in columns]
    return Table(columns, rows, col_types, group_cols)


def filter_rows(table: Table, predicate: RowPredicate) -> Table:
    kept = [row for index, row in enumerate(table.rows) if predicate(table.row_dict(index))]
    if len(kept) == len(table.rows):
        raise EvaluationError("filter: predicate keeps every row")
    return Table(table.columns, kept, table.col_types, table.group_cols)


def group_by(table: Table, columns: Sequence[str]) -> Table:
    columns = list(columns)
    if not columns:
        raise InvalidArgumentError("group_by: must group by at least one column")
    if len(set(columns)) != len(columns):
        raise InvalidArgumentError("group_by: grouping columns must be distinct")
    _check_columns_exist(table, columns, "group_by")
    return table.with_grouping(columns)


def summarise(
    table: Table,
    new_column: str,
    aggregator: str,
    target_column: str = None,
) -> Table:
    if aggregator not in AGGREGATORS:
        raise InvalidArgumentError(f"summarise: unknown aggregator {aggregator!r}")
    if aggregator != "n":
        if target_column is None:
            raise InvalidArgumentError(f"summarise: aggregator {aggregator!r} needs a target column")
        _check_columns_exist(table, [target_column], "summarise")
    group_columns = list(table.group_cols)
    if new_column in group_columns:
        raise EvaluationError(f"summarise: new column {new_column!r} collides with a grouping column")

    out_rows: List[Tuple[CellValue, ...]] = []
    for key, row_indices in table.group_row_indices():
        if aggregator == "n":
            value = agg_count([None] * len(row_indices))
        else:
            column_index = table.column_index(target_column)
            values = [table.rows[i][column_index] for i in row_indices]
            value = AGGREGATORS[aggregator](values)
        out_rows.append(tuple(key) + (value,))

    out_columns = group_columns + [new_column]
    result = Table(out_columns, out_rows)
    remaining_groups = group_columns[:-1]
    if remaining_groups:
        result = result.with_grouping(remaining_groups)
    return result


def mutate(table: Table, new_column: str, expression: RowExpression) -> Table:
    if table.has_column(new_column):
        raise EvaluationError(f"mutate: column {new_column!r} already exists")
    group_of_row: Dict[int, GroupContext] = {}
    for _key, row_indices in table.group_row_indices():
        context = GroupContext(table, row_indices)
        for row_index in row_indices:
            group_of_row[row_index] = context

    values: List[CellValue] = []
    for row_index in range(table.n_rows):
        context = group_of_row.get(row_index, GroupContext(table, range(table.n_rows)))
        values.append(expression(table.row_dict(row_index), context))

    columns = list(table.columns) + [new_column]
    rows = [tuple(row) + (values[index],) for index, row in enumerate(table.rows)]
    col_types = list(table.col_types) + [infer_column_type(values)]
    return Table(columns, rows, col_types, table.group_cols)


def inner_join(left: Table, right: Table) -> Table:
    shared = [name for name in left.columns if right.has_column(name)]
    if not shared:
        raise EvaluationError("inner_join: tables share no columns")
    left_indices = [left.column_index(name) for name in shared]
    right_indices = [right.column_index(name) for name in shared]
    right_extra = [name for name in right.columns if name not in shared]
    right_extra_indices = [right.column_index(name) for name in right_extra]

    buckets: Dict[Tuple, List[Tuple[CellValue, ...]]] = {}
    for row in right.rows:
        key = tuple(join_key(row[index]) for index in right_indices)
        buckets.setdefault(key, []).append(row)

    out_rows: List[Tuple[CellValue, ...]] = []
    for row in left.rows:
        key = tuple(join_key(row[index]) for index in left_indices)
        for match in buckets.get(key, ()):
            out_rows.append(tuple(row) + tuple(match[index] for index in right_extra_indices))

    out_columns = list(left.columns) + right_extra
    if not out_rows:
        raise EvaluationError("inner_join: join result is empty")
    return Table(out_columns, out_rows, group_cols=surviving_group_cols(left, out_columns))


def arrange(table: Table, columns: Sequence[str], descending: bool = False) -> Table:
    columns = list(columns)
    if not columns:
        raise InvalidArgumentError("arrange: must sort by at least one column")
    if len(set(columns)) != len(columns):
        raise InvalidArgumentError("arrange: sort columns must be distinct")
    _check_columns_exist(table, columns, "arrange")
    indices = [table.column_index(name) for name in columns]

    def key(row):
        return tuple(value_sort_key(row[index]) for index in indices)

    rows = sorted(table.rows, key=key, reverse=descending)
    return Table(table.columns, rows, table.col_types, table.group_cols)


# ----------------------------------------------------------------------
# tidyr verbs (row-major)
# ----------------------------------------------------------------------
def gather(table: Table, key: str, value: str, columns: Sequence[str]) -> Table:
    columns = list(columns)
    if len(columns) < 2:
        raise InvalidArgumentError("gather: must gather at least two columns")
    _check_columns_exist(table, columns, "gather")
    if len(columns) >= table.n_cols:
        raise EvaluationError("gather: cannot gather every column of the table")
    id_columns = [name for name in table.columns if name not in set(columns)]
    if key in id_columns or value in id_columns or key == value:
        raise InvalidArgumentError("gather: key/value names collide with remaining columns")

    gathered_types = {table.column_type(name) for name in columns}
    value_type = CellType.NUM if gathered_types == {CellType.NUM} else CellType.STR

    id_indices = [table.column_index(name) for name in id_columns]
    out_rows: List[Tuple[CellValue, ...]] = []
    for gathered in columns:
        gathered_index = table.column_index(gathered)
        for row in table.rows:
            cell = row[gathered_index]
            if value_type is CellType.STR and cell is not None:
                cell = format_value(cell)
            out_rows.append(tuple(row[index] for index in id_indices) + (gathered, cell))

    out_columns = id_columns + [key, value]
    out_types = [table.column_type(name) for name in id_columns] + [CellType.STR, value_type]
    return Table(
        out_columns, out_rows, out_types,
        group_cols=surviving_group_cols(table, id_columns),
    )


def spread(table: Table, key: str, value: str) -> Table:
    if key == value:
        raise InvalidArgumentError("spread: key and value must be different columns")
    _check_columns_exist(table, [key, value], "spread")

    id_columns = [name for name in table.columns if name not in (key, value)]
    if not id_columns:
        raise EvaluationError("spread: no identifier columns remain")
    id_indices = [table.column_index(name) for name in id_columns]
    key_index = table.column_index(key)
    value_index = table.column_index(value)

    key_values: List[CellValue] = []
    for row in table.rows:
        if row[key_index] is None:
            raise EvaluationError("spread: key column contains a missing value")
        if row[key_index] not in key_values:
            key_values.append(row[key_index])
    key_values.sort(key=value_sort_key)
    new_columns = [format_value(key_value) for key_value in key_values]
    if len(set(new_columns)) != len(new_columns):
        raise EvaluationError("spread: key values collide after formatting")
    for name in new_columns:
        if name in id_columns:
            raise EvaluationError(f"spread: new column {name!r} collides with an existing column")

    groups: List[Tuple[CellValue, ...]] = []
    cells = {}
    for row in table.rows:
        group_key = tuple(row[index] for index in id_indices)
        if group_key not in cells:
            groups.append(group_key)
            cells[group_key] = {}
        column_name = format_value(row[key_index])
        if column_name in cells[group_key]:
            raise EvaluationError("spread: duplicate identifiers for rows")
        cells[group_key][column_name] = row[value_index]

    out_rows = []
    for group_key in groups:
        out_rows.append(group_key + tuple(cells[group_key].get(name) for name in new_columns))

    out_columns = id_columns + new_columns
    return Table(
        out_columns, out_rows,
        group_cols=surviving_group_cols(table, id_columns),
    )


def separate(
    table: Table,
    column: str,
    into: Sequence[str],
    separator: Optional[str] = None,
) -> Table:
    _check_columns_exist(table, [column], "separate")
    into = list(into)
    if len(into) != 2:
        raise InvalidArgumentError("separate: exactly two target column names are supported")
    if len(set(into)) != len(into):
        raise InvalidArgumentError("separate: target column names must be distinct")
    for name in into:
        if name != column and table.has_column(name):
            raise EvaluationError(f"separate: column {name!r} already exists")

    column_index = table.column_index(column)
    left_values: List[CellValue] = []
    right_values: List[CellValue] = []
    for row in table.rows:
        cell = row[column_index]
        if cell is None:
            left_values.append(None)
            right_values.append(None)
            continue
        text = format_value(cell)
        if separator is not None:
            parts = text.split(separator, 1)
        else:
            parts = _SEPARATE_PATTERN.split(text, maxsplit=1)
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise EvaluationError(f"separate: value {text!r} cannot be split into two pieces")
        left_values.append(parts[0])
        right_values.append(parts[1])

    out_columns = []
    out_rows_columns = []
    for name in table.columns:
        if name == column:
            out_columns.extend(into)
            out_rows_columns.append(left_values)
            out_rows_columns.append(right_values)
        else:
            out_columns.append(name)
            out_rows_columns.append(list(table.column_values(name)))

    out_rows = list(zip(*out_rows_columns)) if out_rows_columns else []
    return Table(
        out_columns, out_rows,
        group_cols=surviving_group_cols(table, [c for c in table.columns if c != column]),
    )


def unite(
    table: Table,
    new_column: str,
    columns: Sequence[str],
    separator: str = DEFAULT_SEPARATOR,
) -> Table:
    columns = list(columns)
    if len(columns) < 2:
        raise InvalidArgumentError("unite: need at least two columns to unite")
    if len(set(columns)) != len(columns):
        raise InvalidArgumentError("unite: columns to unite must be distinct")
    _check_columns_exist(table, columns, "unite")
    if table.has_column(new_column) and new_column not in columns:
        raise EvaluationError(f"unite: column {new_column!r} already exists")

    column_indices = [table.column_index(name) for name in columns]
    united_values = []
    for row in table.rows:
        pieces = [format_value(row[index]) for index in column_indices]
        united_values.append(separator.join(pieces))

    first_position = min(table.column_index(name) for name in columns)
    out_columns: List[str] = []
    out_columns_values: List[List[CellValue]] = []
    inserted = False
    for position, name in enumerate(table.columns):
        if name in columns:
            if position == first_position and not inserted:
                out_columns.append(new_column)
                out_columns_values.append(united_values)
                inserted = True
            continue
        out_columns.append(name)
        out_columns_values.append(list(table.column_values(name)))
    if not inserted:
        out_columns.insert(0, new_column)
        out_columns_values.insert(0, united_values)

    out_rows = list(zip(*out_columns_values)) if out_columns_values else []
    return Table(
        out_columns, out_rows,
        group_cols=surviving_group_cols(table, [c for c in table.columns if c not in columns]),
    )


#: Reference implementation of every table transformer, by verb name.
REFERENCE_VERBS = {
    "select": select,
    "filter": filter_rows,
    "group_by": group_by,
    "summarise": summarise,
    "mutate": mutate,
    "inner_join": inner_join,
    "arrange": arrange,
    "gather": gather,
    "spread": spread,
    "separate": separate,
    "unite": unite,
}
