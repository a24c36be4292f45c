"""Re-implementation of the dplyr verbs used by Morpheus.

``select``, ``filter``, ``summarise``, ``group_by``, ``mutate``,
``inner_join`` and ``arrange`` manipulate a data frame without changing its
long/wide orientation.  Grouping is carried as metadata on the table (see
:class:`repro.dataframe.Table`), exactly the information Spec 2's ``T.group``
attribute abstracts.

Every verb is a **columnar** transform: inputs are consumed as shared column
vectors and outputs are assembled column-by-column, so verbs that keep a
column intact (``select``, ``group_by``, ``mutate``'s pass-through columns)
share its vector with the input table instead of copying cells.  Grouping
metadata propagates uniformly: a verb's output stays grouped by every
grouping column that survives into the output schema (``summarise`` keeps
its dplyr-specific rule of dropping the last grouping level).

A row-major reference implementation of the same semantics lives in
:mod:`repro.components.reference`; a differential property test keeps the
two in lock-step.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..dataframe.cells import CellValue, value_sort_key
from ..dataframe.table import Table, carried_type, new_vector
from .errors import EvaluationError, InvalidArgumentError, batch_outcomes
from .values import AGGREGATORS, agg_count

#: A predicate over a single row, given as ``{column: value}``.
RowPredicate = Callable[[Dict[str, CellValue]], bool]

#: A mutate expression: receives the row and the rows of the row's group.
RowExpression = Callable[[Dict[str, CellValue], "GroupContext"], CellValue]


class GroupContext:
    """The rows of the group a ``mutate`` expression is evaluated in.

    dplyr evaluates aggregate calls inside ``mutate`` (e.g. ``sum(n)``) over
    the *group* of the current row, so expressions receive this context.
    """

    def __init__(self, table: Table, row_indices: Sequence[int]):
        self._table = table
        self._row_indices = tuple(row_indices)

    def column_values(self, column: str) -> Tuple[CellValue, ...]:
        """Values of *column* restricted to the rows of this group."""
        vector = self._table.column_values(column)
        return tuple(vector[i] for i in self._row_indices)

    @property
    def size(self) -> int:
        """Number of rows in the group."""
        return len(self._row_indices)


def _check_columns_exist(table: Table, columns: Sequence[str], verb: str) -> None:
    for name in columns:
        if not table.has_column(name):
            raise InvalidArgumentError(f"{verb}: column {name!r} not in table {list(table.columns)}")


def surviving_group_cols(table: Table, out_columns: Sequence[str]) -> Tuple[str, ...]:
    """The grouping columns of *table* that survive into *out_columns*.

    The uniform propagation rule shared by every verb that rebuilds its
    output table: grouping metadata follows the columns that still exist.
    """
    out = set(out_columns)
    return tuple(name for name in table.group_cols if name in out)


def select(table: Table, columns: Sequence[str]) -> Table:
    """Project the table onto *columns* (a strict subset, like the paper's spec)."""
    columns = list(columns)
    if not columns:
        raise InvalidArgumentError("select: must keep at least one column")
    if len(set(columns)) != len(columns):
        raise InvalidArgumentError("select: selected columns must be distinct")
    _check_columns_exist(table, columns, "select")
    if len(columns) >= table.n_cols:
        raise EvaluationError("select: selection must drop at least one column")
    return table.select_columns(columns)


def filter_rows(table: Table, predicate: RowPredicate) -> Table:
    """Keep the rows satisfying *predicate*.

    A batch of one: the same kernel :func:`filter_rows_batch` runs per sibling.
    """
    return _FilterKernel(table).run(predicate)


def filter_rows_batch(table: Table, predicates: Sequence[RowPredicate]) -> List[object]:
    """Apply several filter predicates to one table, sharing per-table work.

    The batched-sibling-evaluation entry point: predicates filling sibling
    hypotheses of the same hole all scan the same input table, so the
    per-table setup (one ``{column: value}`` view per row) is paid once.
    Returns one entry per predicate -- the filtered table, or the prunable
    error that predicate raises under :func:`filter_rows` (same type, same
    message).
    """
    return batch_outcomes(_FilterKernel(table).run, [(predicate,) for predicate in predicates])


class _FilterKernel:
    """``filter`` over one table; the per-row views are built once."""

    __slots__ = ("table", "rows")

    def __init__(self, table: Table) -> None:
        self.table = table
        self.rows = [table.row_dict(index) for index in range(table.n_rows)]

    def run(self, predicate: RowPredicate) -> Table:
        kept = [index for index, row in enumerate(self.rows) if predicate(row)]
        if len(kept) == self.table.n_rows:
            # The paper's spec requires a strictly smaller table (footnote 3):
            # a filter that keeps everything is never needed for a minimal program.
            raise EvaluationError("filter: predicate keeps every row")
        return self.table.take_rows(kept)


def group_by(table: Table, columns: Sequence[str]) -> Table:
    """Attach grouping metadata to the table."""
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
    """Collapse each group to a single row holding an aggregate value.

    The output contains the grouping columns (one row per group) followed by
    the new aggregate column.  Like dplyr, the result drops the *last*
    grouping level, so ``summarise(group_by(df, g), ...)`` is ungrouped and a
    later ``mutate`` aggregates over the whole table (this is what makes
    ``mutate(prop = n / sum(n))`` in the paper's Example 2 work).
    """
    if aggregator not in AGGREGATORS:
        raise InvalidArgumentError(f"summarise: unknown aggregator {aggregator!r}")
    if aggregator != "n":
        if target_column is None:
            raise InvalidArgumentError(f"summarise: aggregator {aggregator!r} needs a target column")
        _check_columns_exist(table, [target_column], "summarise")
    group_columns = list(table.group_cols)
    if new_column in group_columns:
        raise EvaluationError(f"summarise: new column {new_column!r} collides with a grouping column")

    # Group keys appear in first-appearance order (dplyr semantics).
    groups = table.group_row_indices()
    keys = [key for key, _indices in groups]
    if aggregator == "n":
        aggregates = [agg_count([None] * len(indices)) for _key, indices in groups]
    else:
        target = table.column_values(target_column)
        aggregates = [
            AGGREGATORS[aggregator]([target[i] for i in indices])
            for _key, indices in groups
        ]

    # The group-key columns are carried; the aggregates are new cells.
    out_columns = group_columns + [new_column]
    out_vectors = [
        tuple(key[position] for key in keys)
        for position in range(len(group_columns))
    ]
    out_types = [
        carried_type(vector, table.column_type(name))
        for vector, name in zip(out_vectors, group_columns)
    ]
    aggregate_type, aggregate_cells = new_vector(aggregates)
    out_vectors.append(aggregate_cells)
    out_types.append(aggregate_type)
    result = Table.from_canonical(
        tuple(out_columns), tuple(out_types), tuple(out_vectors), (), len(keys)
    )
    remaining_groups = group_columns[:-1]
    if remaining_groups:
        result = result.with_grouping(remaining_groups)
    return result


def mutate(table: Table, new_column: str, expression: RowExpression) -> Table:
    """Add a new column computed from each row (and its group)."""
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
    return table.with_column(new_column, values)


def inner_join(left: Table, right: Table) -> Table:
    """Natural inner join on all shared columns (like dplyr's default).

    The output keeps every left column followed by the right table's
    non-shared columns; like dplyr, the left table's grouping survives (all
    of its columns do).
    """
    shared = [name for name in left.columns if right.has_column(name)]
    if not shared:
        raise EvaluationError("inner_join: tables share no columns")
    right_extra = [name for name in right.columns if name not in shared]

    left_indices, right_indices = _join_pairs(left, right, shared)
    if not left_indices:
        raise EvaluationError("inner_join: join result is empty")

    # Every output cell is carried from one of the two tables.
    out_columns = list(left.columns) + right_extra
    sources = [
        (vector, cell_type, left_indices)
        for vector, cell_type in zip(left.vectors, left.col_types)
    ] + [
        (right.column_values(name), right.column_type(name), right_indices)
        for name in right_extra
    ]
    out_vectors = []
    out_types = []
    for vector, cell_type, indices in sources:
        cells = tuple([vector[i] for i in indices])
        out_vectors.append(cells)
        out_types.append(carried_type(cells, cell_type))
    return Table.from_canonical(
        tuple(out_columns), tuple(out_types), tuple(out_vectors),
        surviving_group_cols(left, out_columns), len(left_indices),
    )


def join_key(value: CellValue):
    """The equality key ``inner_join`` matches rows on.

    Missing cells only match missing cells; numbers compare as floats (so
    ``5`` joins ``5.0``); everything else compares as itself.
    """
    if value is None:
        return (0, None)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (1, float(value))
    return (2, value)


def _join_pairs(
    left: Table, right: Table, shared: Sequence[str]
) -> Tuple[List[int], List[int]]:
    """Matching ``(left_indices, right_indices)`` of the natural join.

    Pairs are emitted in left-row order; a left row's matches appear in
    right-row order.
    """
    left_vectors = [left.column_values(name) for name in shared]
    right_vectors = [right.column_values(name) for name in shared]

    buckets: Dict[Tuple, List[int]] = {}
    for row_index in range(right.n_rows):
        key = tuple(join_key(vector[row_index]) for vector in right_vectors)
        buckets.setdefault(key, []).append(row_index)

    left_indices: List[int] = []
    right_indices: List[int] = []
    for row_index in range(left.n_rows):
        key = tuple(join_key(vector[row_index]) for vector in left_vectors)
        for match in buckets.get(key, ()):
            left_indices.append(row_index)
            right_indices.append(match)
    return left_indices, right_indices


def arrange(table: Table, columns: Sequence[str], descending: bool = False) -> Table:
    """Sort the table by *columns* (ascending by default, like dplyr)."""
    columns = list(columns)
    if not columns:
        raise InvalidArgumentError("arrange: must sort by at least one column")
    if len(set(columns)) != len(columns):
        raise InvalidArgumentError("arrange: sort columns must be distinct")
    _check_columns_exist(table, columns, "arrange")
    vectors = [table.column_values(name) for name in columns]

    def key(index):
        return tuple(value_sort_key(vector[index]) for vector in vectors)

    return table.take_rows(sorted(range(table.n_rows), key=key, reverse=descending))
