"""Re-implementation of the four tidyr verbs used by Morpheus.

``gather``, ``spread``, ``separate`` and ``unite`` reshape a data frame
between its "wide" and "long" representations.  The semantics follow tidyr
closely enough for the synthesis benchmarks: the executor is what candidate
programs are run on, and the specs in :mod:`repro.core.specs` only need to
over-approximate it.

Like the dplyr verbs, every reshaping operation is columnar: outputs are
assembled as column vectors (identifier columns of ``gather`` are whole-vector
repetitions, ``spread`` cells are scattered into one flat slot list), and
grouping metadata propagates to every grouping column that survives into the
output schema.  Cells carried over from the input are already canonical, so
outputs go through the trusted :meth:`~repro.dataframe.table.Table.from_canonical`;
only new cells are coerced and interned.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from ..dataframe.cells import CellType, CellValue, format_value, value_sort_key
from ..dataframe.table import Table, carried_type, coerce_column, new_vector
from .dplyr import surviving_group_cols
from .errors import EvaluationError, InvalidArgumentError, batch_outcomes

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

    # Identifier columns and numeric values are carried; the key cells (the
    # gathered names) and formatted values are new.
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
    out_vectors.append(coerce_column(key_vector, CellType.STR))
    if value_type is CellType.STR:
        out_vectors.append(coerce_column(value_vector, CellType.STR))
    else:
        out_vectors.append(tuple(value_vector))

    out_columns = (*id_columns, key, value)
    out_types = (*(table.column_type(name) for name in id_columns), CellType.STR, value_type)
    return Table.from_canonical(
        out_columns, out_types, tuple(out_vectors),
        surviving_group_cols(table, id_columns), table.n_rows * repeats,
    )


def spread(table: Table, key: str, value: str) -> Table:
    """Spread a key/value pair across multiple columns (long to wide).

    A batch of one: the same kernel :func:`spread_batch` runs per sibling.
    """
    return _SpreadKernel(table).run(key, value)


def spread_batch(table: Table, pairs: Sequence[Tuple[str, str]]) -> List[object]:
    """Spread one table under several ``(key, value)`` pairs, sharing key-side work.

    The batched-sibling-evaluation entry point: sibling fillings of
    ``spread``'s last hole differ in one column name, so the work that
    depends on the table and the key column alone (the missing-value scan,
    the sorted distinct keys, the formatted column names and the key to
    column map) is done once per key.  Returns one entry per pair -- the
    spread table, or the prunable error :func:`spread` raises for it (same
    type, same message).  Nothing outlives the call.
    """
    return batch_outcomes(_SpreadKernel(table).run, pairs)


class _KeySide:
    """What ``spread`` derives from the key column alone.

    ``error`` is the ``(class, message)`` of the key column's own failure
    (a missing key cell, or key values that collide once formatted), raised
    afresh for each sibling that reaches it; otherwise ``new_columns`` are
    the formatted distinct keys in sorted order and ``positions`` gives each
    row's new-column index.
    """

    __slots__ = ("error", "new_columns", "positions")

    def __init__(self, key_vector: Sequence[CellValue]) -> None:
        self.error: Optional[Tuple[type, str]] = None
        self.new_columns: Tuple[str, ...] = ()
        self.positions: List[int] = []
        # New columns are the distinct key values, in sorted order (like tidyr).
        distinct = dict.fromkeys(key_vector)
        if None in distinct:
            self.error = (EvaluationError, "spread: key column contains a missing value")
            return
        key_values = sorted(distinct, key=value_sort_key)
        new_columns = tuple(format_value(key_value) for key_value in key_values)
        if len(set(new_columns)) != len(new_columns):
            self.error = (EvaluationError, "spread: key values collide after formatting")
            return
        position_of = {key_value: index for index, key_value in enumerate(key_values)}
        self.new_columns = new_columns
        self.positions = [position_of[cell] for cell in key_vector]


class _SpreadKernel:
    """``spread`` over one table; the key side is computed once per key column."""

    __slots__ = ("table", "key_sides")

    def __init__(self, table: Table) -> None:
        self.table = table
        self.key_sides: Dict[str, _KeySide] = {}

    def run(self, key: str, value: str) -> Table:
        table = self.table
        if key == value:
            raise InvalidArgumentError("spread: key and value must be different columns")
        _check_columns_exist(table, [key, value], "spread")
        columns = table.columns
        if len(columns) == 2:
            raise EvaluationError("spread: no identifier columns remain")
        side = self.key_sides.get(key)
        if side is None:
            side = self.key_sides[key] = _KeySide(table.column_values(key))
        if side.error is not None:
            error_class, message = side.error
            raise error_class(message)
        new_columns = side.new_columns
        for name in new_columns:
            if name in columns and name != key and name != value:
                raise EvaluationError(
                    f"spread: new column {name!r} collides with an existing column"
                )

        # Number the identifier groups in first-appearance order; the dict
        # keeps each group's first row as its key, which is the output row.
        id_indices = [
            index for index, name in enumerate(columns) if name != key and name != value
        ]
        vectors = table.vectors
        value_index = table.column_index(value)
        if len(id_indices) == 1:
            row_keys = vectors[id_indices[0]]
        else:
            row_keys = zip(*[vectors[index] for index in id_indices])
        group_of: Dict[object, int] = {}
        setdefault = group_of.setdefault
        groups = [setdefault(row_key, len(group_of)) for row_key in row_keys]
        n_groups = len(group_of)

        # Scatter the value cells into one flat, column-major slot list;
        # a slot hit twice is a duplicate identifier, an empty one stays None.
        slot_ids = [
            position * n_groups + group for group, position in zip(groups, side.positions)
        ]
        if len(set(slot_ids)) != len(slot_ids):
            raise EvaluationError("spread: duplicate identifiers for rows")
        slots: List[CellValue] = [None] * (n_groups * len(new_columns))
        for slot, cell in zip(slot_ids, vectors[value_index]):
            slots[slot] = cell

        if len(id_indices) == 1:
            out_vectors = [tuple(group_of)]
        elif group_of:
            out_vectors = list(zip(*group_of))
        else:
            out_vectors = [()] * len(id_indices)
        col_types = table.col_types
        out_types = [
            carried_type(vector, col_types[index])
            for vector, index in zip(out_vectors, id_indices)
        ]
        value_type = col_types[value_index]
        for position in range(len(new_columns)):
            vector = tuple(slots[position * n_groups:(position + 1) * n_groups])
            out_vectors.append(vector)
            out_types.append(carried_type(vector, value_type))
        return Table.from_canonical(
            tuple(columns[index] for index in id_indices) + new_columns,
            tuple(out_types),
            tuple(out_vectors),
            tuple(name for name in table.group_cols if name != key and name != value),
            n_groups,
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
    out_types: List[CellType] = []
    for name, vector, cell_type in zip(table.columns, table.vectors, table.col_types):
        if name == column:
            for part in (left_values, right_values):
                part_type, cells = new_vector(part)
                out_vectors.append(cells)
                out_types.append(part_type)
            out_columns.extend(into)
        else:
            out_columns.append(name)
            out_vectors.append(vector)
            out_types.append(carried_type(vector, cell_type))

    return Table.from_canonical(
        tuple(out_columns), tuple(out_types), tuple(out_vectors),
        surviving_group_cols(table, [c for c in table.columns if c != column]),
        table.n_rows,
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

    united_type, united_cells = new_vector(united_values)
    first_position = min(table.column_index(name) for name in columns)
    out_columns: List[str] = []
    out_vectors: List[Sequence[CellValue]] = []
    out_types: List[CellType] = []
    for position, (name, vector, cell_type) in enumerate(
        zip(table.columns, table.vectors, table.col_types)
    ):
        if name in columns:
            if position == first_position:
                out_columns.append(new_column)
                out_vectors.append(united_cells)
                out_types.append(united_type)
            continue
        out_columns.append(name)
        out_vectors.append(vector)
        out_types.append(carried_type(vector, cell_type))

    return Table.from_canonical(
        tuple(out_columns), tuple(out_types), tuple(out_vectors),
        surviving_group_cols(table, [c for c in table.columns if c not in columns]),
        table.n_rows,
    )
