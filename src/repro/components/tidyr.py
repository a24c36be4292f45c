"""Re-implementation of the four tidyr verbs used by Morpheus.

``gather``, ``spread``, ``separate`` and ``unite`` reshape a data frame
between its "wide" and "long" representations.  The semantics follow tidyr
closely enough for the synthesis benchmarks: the executor is what candidate
programs are run on, and the specs in :mod:`repro.core.specs` only need to
over-approximate it.

Like the dplyr verbs, every reshaping operation is columnar: outputs are
assembled as column vectors (identifier columns of ``gather`` are whole-vector
repetitions, ``spread`` cells are scattered into per-key vectors), and
grouping metadata propagates to every grouping column that survives into the
output schema.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from ..dataframe.cells import CellType, CellValue, format_value, value_sort_key
from ..dataframe.table import Table
from .dplyr import surviving_group_cols
from .errors import EvaluationError, InvalidArgumentError

#: Separator used by ``unite`` and (by default) by ``separate``.
DEFAULT_SEPARATOR = "_"

_SEPARATE_PATTERN = re.compile(r"[^0-9A-Za-z.]+")


def _check_columns_exist(table: Table, columns: Sequence[str], verb: str) -> None:
    for name in columns:
        if not table.has_column(name):
            raise InvalidArgumentError(f"{verb}: column {name!r} not in table {list(table.columns)}")


def gather(table: Table, key: str, value: str, columns: Sequence[str]) -> Table:
    """Collapse *columns* into key/value pairs (wide to long).

    Every remaining column is duplicated for each gathered column, the *key*
    column holds the gathered column's name and the *value* column holds the
    cell value.
    """
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

    repeats = len(columns)
    out_vectors: List[Sequence[CellValue]] = [
        table.column_values(name) * repeats for name in id_columns
    ]
    key_vector: List[CellValue] = []
    value_vector: List[CellValue] = []
    for gathered in columns:
        key_vector.extend([gathered] * table.n_rows)
        cells = table.column_values(gathered)
        if value_type is CellType.STR:
            cells = tuple(
                format_value(cell) if cell is not None else None for cell in cells
            )
        value_vector.extend(cells)
    out_vectors.append(key_vector)
    out_vectors.append(value_vector)

    out_columns = id_columns + [key, value]
    out_types = [table.column_type(name) for name in id_columns] + [CellType.STR, value_type]
    return Table.from_vectors(
        out_columns, out_vectors, out_types, surviving_group_cols(table, id_columns)
    )


def spread(table: Table, key: str, value: str) -> Table:
    """Spread a key/value pair across multiple columns (long to wide)."""
    if key == value:
        raise InvalidArgumentError("spread: key and value must be different columns")
    _check_columns_exist(table, [key, value], "spread")

    id_columns = [name for name in table.columns if name not in (key, value)]
    if not id_columns:
        raise EvaluationError("spread: no identifier columns remain")
    key_vector = table.column_values(key)

    # New columns are the distinct key values, in sorted order (like tidyr).
    seen: Dict[CellValue, None] = {}
    for cell in key_vector:
        if cell is None:
            raise EvaluationError("spread: key column contains a missing value")
        if cell not in seen:
            seen[cell] = None
    key_values = sorted(seen, key=value_sort_key)
    new_columns = [format_value(key_value) for key_value in key_values]
    if len(set(new_columns)) != len(new_columns):
        raise EvaluationError("spread: key values collide after formatting")
    for name in new_columns:
        if name in id_columns:
            raise EvaluationError(f"spread: new column {name!r} collides with an existing column")

    # Scatter the value cells into one vector per new column; *first_rows*
    # holds the first row of each identifier group (insertion order) and
    # missing combinations stay ``None``.
    id_vectors = [table.column_values(name) for name in id_columns]
    value_vector = table.column_values(value)

    name_of = dict(zip(key_values, new_columns))

    first_rows: List[int] = []
    index_of: Dict[Tuple[CellValue, ...], int] = {}
    cells: List[Dict[str, CellValue]] = []
    for row_index, group_key in enumerate(zip(*id_vectors)):
        position = index_of.get(group_key)
        if position is None:
            position = index_of[group_key] = len(first_rows)
            first_rows.append(row_index)
            cells.append({})
        column_name = name_of[key_vector[row_index]]
        if column_name in cells[position]:
            raise EvaluationError("spread: duplicate identifiers for rows")
        cells[position][column_name] = value_vector[row_index]

    value_vectors = [
        [cells[position].get(name) for position in range(len(first_rows))]
        for name in new_columns
    ]

    out_vectors: List[List[CellValue]] = [
        [vector[row] for row in first_rows] for vector in id_vectors
    ]
    out_vectors.extend(value_vectors)

    out_columns = id_columns + new_columns
    return Table.from_vectors(
        out_columns, out_vectors,
        group_cols=surviving_group_cols(table, id_columns),
    )


def separate(
    table: Table,
    column: str,
    into: Sequence[str],
    separator: Optional[str] = None,
) -> Table:
    """Split one (string) column into two columns.

    By default the split happens at the first run of non-alphanumeric
    characters, mirroring tidyr's default separator.
    """
    _check_columns_exist(table, [column], "separate")
    into = list(into)
    if len(into) != 2:
        raise InvalidArgumentError("separate: exactly two target column names are supported")
    if len(set(into)) != len(into):
        raise InvalidArgumentError("separate: target column names must be distinct")
    for name in into:
        if name != column and table.has_column(name):
            raise EvaluationError(f"separate: column {name!r} already exists")

    left_values: List[CellValue] = []
    right_values: List[CellValue] = []
    for cell in table.column_values(column):
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

    out_columns: List[str] = []
    out_vectors: List[Sequence[CellValue]] = []
    for name in table.columns:
        if name == column:
            out_columns.extend(into)
            out_vectors.append(left_values)
            out_vectors.append(right_values)
        else:
            out_columns.append(name)
            out_vectors.append(table.column_values(name))

    return Table.from_vectors(
        out_columns, out_vectors,
        group_cols=surviving_group_cols(table, [c for c in table.columns if c != column]),
    )


def unite(
    table: Table,
    new_column: str,
    columns: Sequence[str],
    separator: str = DEFAULT_SEPARATOR,
) -> Table:
    """Paste several columns into one, separated by ``separator``."""
    columns = list(columns)
    if len(columns) < 2:
        raise InvalidArgumentError("unite: need at least two columns to unite")
    if len(set(columns)) != len(columns):
        raise InvalidArgumentError("unite: columns to unite must be distinct")
    _check_columns_exist(table, columns, "unite")
    if table.has_column(new_column) and new_column not in columns:
        raise EvaluationError(f"unite: column {new_column!r} already exists")

    united_vectors = [table.column_values(name) for name in columns]
    united_values = [
        separator.join(format_value(vector[row_index]) for vector in united_vectors)
        for row_index in range(table.n_rows)
    ]

    first_position = min(table.column_index(name) for name in columns)
    out_columns: List[str] = []
    out_vectors: List[Sequence[CellValue]] = []
    inserted = False
    for position, name in enumerate(table.columns):
        if name in columns:
            if position == first_position and not inserted:
                out_columns.append(new_column)
                out_vectors.append(united_values)
                inserted = True
            continue
        out_columns.append(name)
        out_vectors.append(table.column_values(name))
    if not inserted:
        out_columns.insert(0, new_column)
        out_vectors.insert(0, united_values)

    return Table.from_vectors(
        out_columns, out_vectors,
        group_cols=surviving_group_cols(table, [c for c in table.columns if c not in columns]),
    )
