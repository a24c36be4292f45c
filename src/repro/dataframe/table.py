"""The :class:`Table` data structure.

A table (Definition 1 of the paper) is a tuple ``(r, c, tau, sigma)`` where
``r`` and ``c`` are the number of rows and columns, ``tau`` is a record type
mapping column names to cell types, and ``sigma`` maps each cell to a value.

This module provides an immutable, pure-Python implementation of that
definition together with the handful of extras the rest of the system needs:

* *grouping metadata* -- ``dplyr::group_by`` does not change the contents of a
  data frame, it only attaches grouping information that later verbs
  (``summarise``, ``mutate``) consult.  ``Table.group_cols`` records that
  information, and ``Table.n_groups`` is exactly the ``T.group`` attribute used
  by Spec 2 (Table 3 of the paper).
* *value/column-name sets* -- Spec 2 constrains ``T.newCols`` / ``T.newVals``,
  the number of column names / values of a table that do not already appear in
  the input tables.  :meth:`Table.header_set` and :meth:`Table.value_set`
  expose the underlying sets.

Storage is **columnar**: cells live in one immutable tuple per column, and
every derived-table operation that keeps a column intact (projection,
renaming, grouping, appending a column) *shares* the underlying vectors
instead of copying cells.  Cell values are interned through a process-wide
pool (:mod:`repro.dataframe.interning`), every table exposes a stable
structural :meth:`fingerprint`, and the Spec-2 attributes (``n_groups``,
``header_set``, ``value_set``) are computed once per table and memoised.
The row-major views (:attr:`rows`, :meth:`row_dict`) are materialised
lazily for the call sites that still want them.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import interning
from .cells import (
    CellType,
    CellValue,
    cell_token,
    coerce_value,
    column_multiset_key,
    format_value,
    infer_column_type,
    value_sort_key,
    values_equal,
)
from .errors import ColumnNotFoundError, DuplicateColumnError, SchemaError
from .profiling import execution_stats


def _encode_tokens(hasher, tokens: Iterable[str]) -> None:
    """Feed length-prefixed tokens into *hasher* (unambiguous framing)."""
    for token in tokens:
        data = token.encode("utf-8", "surrogatepass")
        hasher.update(b"%d:" % len(data))
        hasher.update(data)


def coerce_column(values: Iterable[CellValue], cell_type: CellType) -> Tuple[CellValue, ...]:
    """Coerce every cell of one column to *cell_type* and intern it.

    Equivalent to passing each cell through
    :func:`~repro.dataframe.cells.coerce_value` and then
    :func:`~repro.dataframe.interning.intern_value` -- same cells, same
    errors, same ``cells_interned`` count -- but in one loop that dispatches
    on each cell's exact type and falls back to ``coerce_value`` only for the
    rare cells (``Fraction``, ``bool``, subclasses, mismatches).  The pool is
    read from :mod:`~repro.dataframe.interning` at call time because
    :class:`~repro.engine.context.TaskContext` swaps it per task.
    """
    pool = interning._POOL
    capacity = interning.POOL_CAPACITY
    numeric = cell_type is CellType.NUM
    cells: List[CellValue] = []
    append = cells.append
    hits = 0
    try:
        for value in values:
            if value is None:
                append(None)
                continue
            cls = type(value)
            if numeric:
                if cls is float:
                    if value.is_integer():
                        value = int(value)
                elif cls is not int:
                    value = coerce_value(value, cell_type)
            elif cls is not str:
                value = coerce_value(value, cell_type)
            canonical = pool.get(value)
            if canonical is None:
                if len(pool) < capacity:
                    pool[value] = value
                append(value)
            else:
                hits += 1
                append(canonical)
    finally:
        if hits:
            execution_stats().cells_interned += hits
    return tuple(cells)


class Table:
    """An immutable table of typed cells (columnar storage).

    Parameters
    ----------
    columns:
        Ordered column names.
    rows:
        Row-major cell values.  Every row must have exactly ``len(columns)``
        entries.
    col_types:
        Optional explicit column types.  When omitted the types are inferred
        from the data.
    group_cols:
        Names of the columns the table is currently grouped by (attached by
        ``group_by``, consumed by ``summarise``).
    """

    __slots__ = (
        "_columns",
        "_col_types",
        "_group_cols",
        "_n_rows",
        "_column_data",
        "_rows",
        "_fingerprint",
        "_multiset_digest",
        "_column_keys",
        "_n_groups",
        "_header_set",
        "_value_set",
    )

    def __init__(
        self,
        columns: Sequence[str],
        rows: Iterable[Sequence[CellValue]],
        col_types: Optional[Sequence[CellType]] = None,
        group_cols: Sequence[str] = (),
    ) -> None:
        columns = tuple(str(c) for c in columns)
        if len(set(columns)) != len(columns):
            raise DuplicateColumnError(f"duplicate column names in {list(columns)}")
        materialized: List[Tuple[CellValue, ...]] = []
        for row in rows:
            row = tuple(row)
            if len(row) != len(columns):
                raise SchemaError(
                    f"row {row!r} has {len(row)} cells but the table has "
                    f"{len(columns)} columns"
                )
            materialized.append(row)

        vectors: List[Tuple[CellValue, ...]] = [
            tuple(row[index] for row in materialized) for index in range(len(columns))
        ]
        if col_types is None:
            col_types = [infer_column_type(vector) for vector in vectors]
        col_types = tuple(col_types)
        if len(col_types) != len(columns):
            raise SchemaError("col_types must have one entry per column")

        coerced = tuple(
            coerce_column(vector, cell_type) for vector, cell_type in zip(vectors, col_types)
        )

        for name in group_cols:
            if name not in columns:
                raise ColumnNotFoundError(name, columns)

        self._init_shared(columns, col_types, coerced, tuple(group_cols), len(materialized))

    def _init_shared(
        self,
        columns: Tuple[str, ...],
        col_types: Tuple[CellType, ...],
        column_data: Tuple[Tuple[CellValue, ...], ...],
        group_cols: Tuple[str, ...],
        n_rows: int,
    ) -> None:
        self._columns = columns
        self._col_types = col_types
        self._column_data = column_data
        self._group_cols = group_cols
        self._n_rows = n_rows
        self._rows = None
        self._fingerprint = None
        self._multiset_digest = None
        self._column_keys = None
        self._n_groups = None
        self._header_set = None
        self._value_set = None
        execution_stats().tables_built += 1

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _from_shared(
        cls,
        columns: Tuple[str, ...],
        col_types: Tuple[CellType, ...],
        column_data: Tuple[Tuple[CellValue, ...], ...],
        group_cols: Tuple[str, ...],
        n_rows: int,
    ) -> "Table":
        """Trusted constructor sharing already-coerced, interned vectors.

        Internal copy-on-write fast path: callers guarantee the vectors came
        out of an existing table (or were coerced and interned by
        :meth:`from_vectors`), so no validation or per-cell work happens.
        """
        table = cls.__new__(cls)
        table._init_shared(columns, col_types, column_data, group_cols, n_rows)
        return table

    @classmethod
    def from_vectors(
        cls,
        columns: Sequence[str],
        vectors: Sequence[Sequence[CellValue]],
        col_types: Optional[Sequence[CellType]] = None,
        group_cols: Sequence[str] = (),
    ) -> "Table":
        """Build a table from parallel column vectors (validating, coercing).

        The columnar analogue of the row-major constructor: duplicate names,
        inconsistent lengths and type mismatches raise the same errors, cells
        are coerced and interned per column, but no row tuples are ever built.
        """
        columns = tuple(str(c) for c in columns)
        if len(set(columns)) != len(columns):
            raise DuplicateColumnError(f"duplicate column names in {list(columns)}")
        if len(vectors) != len(columns):
            raise SchemaError("from_vectors needs one vector per column")
        lengths = {len(vector) for vector in vectors}
        if len(lengths) > 1:
            raise SchemaError(f"columns have inconsistent lengths: {sorted(lengths)}")
        n_rows = lengths.pop() if lengths else 0
        if col_types is None:
            col_types = [infer_column_type(vector) for vector in vectors]
        col_types = tuple(col_types)
        if len(col_types) != len(columns):
            raise SchemaError("col_types must have one entry per column")
        coerced = tuple(
            coerce_column(vector, cell_type) for vector, cell_type in zip(vectors, col_types)
        )
        for name in group_cols:
            if name not in columns:
                raise ColumnNotFoundError(name, columns)
        return cls._from_shared(columns, col_types, coerced, tuple(group_cols), n_rows)

    @classmethod
    def from_records(
        cls,
        records: Sequence[Mapping[str, CellValue]],
        columns: Optional[Sequence[str]] = None,
    ) -> "Table":
        """Build a table from a list of dictionaries (one per row)."""
        if columns is None:
            if not records:
                raise SchemaError("cannot infer columns from an empty record list")
            columns = list(records[0].keys())
        rows = [[record.get(column) for column in columns] for record in records]
        return cls(columns, rows)

    @classmethod
    def from_columns(cls, data: Mapping[str, Sequence[CellValue]]) -> "Table":
        """Build a table from a mapping of column name to column values."""
        return cls.from_vectors(list(data.keys()), list(data.values()))

    @classmethod
    def empty(cls, columns: Sequence[str], col_types: Optional[Sequence[CellType]] = None) -> "Table":
        """Build an empty table with the given schema."""
        return cls(columns, [], col_types=col_types)

    # ------------------------------------------------------------------
    # Basic accessors (Definition 1: T.row, T.col, type(T), T_{i,j})
    # ------------------------------------------------------------------
    @property
    def columns(self) -> Tuple[str, ...]:
        """Ordered column names."""
        return self._columns

    @property
    def col_types(self) -> Tuple[CellType, ...]:
        """Column types, aligned with :attr:`columns`."""
        return self._col_types

    @property
    def rows(self) -> Tuple[Tuple[CellValue, ...], ...]:
        """All rows as tuples of cell values (materialised lazily, memoised)."""
        if self._rows is None:
            if self._column_data:
                self._rows = tuple(zip(*self._column_data))
            else:
                self._rows = tuple(() for _ in range(self._n_rows))
        return self._rows

    @property
    def group_cols(self) -> Tuple[str, ...]:
        """Columns the table is grouped by (empty when ungrouped)."""
        return self._group_cols

    @property
    def n_rows(self) -> int:
        """``T.row`` in the paper's notation."""
        return self._n_rows

    @property
    def n_cols(self) -> int:
        """``T.col`` in the paper's notation."""
        return len(self._columns)

    @property
    def shape(self) -> Tuple[int, int]:
        """``(rows, columns)``."""
        return (self._n_rows, len(self._columns))

    def schema(self) -> Dict[str, CellType]:
        """``type(T)``: mapping from column name to cell type."""
        return dict(zip(self._columns, self._col_types))

    def has_column(self, name: str) -> bool:
        """Return ``True`` if *name* is a column of this table."""
        return name in self._columns

    def column_index(self, name: str) -> int:
        """Return the position of column *name*, raising if it is absent."""
        try:
            return self._columns.index(name)
        except ValueError:
            raise ColumnNotFoundError(name, self._columns) from None

    def column_type(self, name: str) -> CellType:
        """Return the :class:`CellType` of column *name*."""
        return self._col_types[self.column_index(name)]

    def column_values(self, name: str) -> Tuple[CellValue, ...]:
        """Return all values of column *name*, in row order (shared vector)."""
        return self._column_data[self.column_index(name)]

    def cell(self, row_index: int, column: str) -> CellValue:
        """Return the value stored at ``(row_index, column)``."""
        return self._column_data[self.column_index(column)][row_index]

    def row_dict(self, row_index: int) -> Dict[str, CellValue]:
        """Return row *row_index* as an ordered ``{column: value}`` mapping."""
        return {
            name: vector[row_index]
            for name, vector in zip(self._columns, self._column_data)
        }

    def iter_records(self) -> Iterable[Dict[str, CellValue]]:
        """Iterate over all rows as dictionaries."""
        for index in range(self._n_rows):
            yield self.row_dict(index)

    # ------------------------------------------------------------------
    # Grouping (used by Spec 2's T.group attribute)
    # ------------------------------------------------------------------
    def with_grouping(self, group_cols: Sequence[str]) -> "Table":
        """Return a copy of this table grouped by *group_cols* (vectors shared)."""
        for name in group_cols:
            if name not in self._columns:
                raise ColumnNotFoundError(name, self._columns)
        return Table._from_shared(
            self._columns, self._col_types, self._column_data,
            tuple(group_cols), self._n_rows,
        )

    def ungrouped(self) -> "Table":
        """Return a copy of this table with grouping metadata removed."""
        if not self._group_cols:
            return self
        return Table._from_shared(
            self._columns, self._col_types, self._column_data, (), self._n_rows
        )

    def group_keys(self) -> List[Tuple[CellValue, ...]]:
        """Distinct values of the grouping columns, in first-appearance order."""
        if not self._group_cols:
            return [()] if self._n_rows else []
        vectors = [self._column_data[self.column_index(name)] for name in self._group_cols]
        seen: Dict[Tuple[CellValue, ...], None] = {}
        for key in zip(*vectors):
            if key not in seen:
                seen[key] = None
        return list(seen)

    def group_row_indices(self) -> List[Tuple[Tuple[CellValue, ...], List[int]]]:
        """Rows of each group as ``(key, row_indices)`` pairs."""
        if not self._group_cols:
            return [((), list(range(self._n_rows)))] if self._n_rows else []
        vectors = [self._column_data[self.column_index(name)] for name in self._group_cols]
        buckets: Dict[Tuple[CellValue, ...], List[int]] = {}
        for row_index, key in enumerate(zip(*vectors)):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [row_index]
            else:
                bucket.append(row_index)
        return list(buckets.items())

    @property
    def n_groups(self) -> int:
        """``T.group``: the number of groups (memoised).

        An ungrouped non-empty table forms a single group; an empty table has
        no groups; a grouped table has one group per distinct key.
        """
        if self._n_groups is None:
            if not self._group_cols:
                self._n_groups = 1 if self._n_rows else 0
            else:
                self._n_groups = len(self.group_keys())
        return self._n_groups

    # ------------------------------------------------------------------
    # Sets used by the Spec 2 abstraction (T.newCols / T.newVals)
    # ------------------------------------------------------------------
    def header_set(self) -> frozenset:
        """The set of column names of this table (memoised)."""
        if self._header_set is None:
            self._header_set = frozenset(self._columns)
        return self._header_set

    def value_set(self) -> frozenset:
        """The set of values of this table (memoised).

        Following the appendix of the paper, the value set of a table contains
        its column names *and* its cell contents (cells are canonicalised via
        :func:`repro.dataframe.cells.format_value` so ``5`` and ``5.0`` are the
        same value).
        """
        if self._value_set is None:
            values = set(self._columns)
            for vector in self._column_data:
                for value in vector:
                    values.add(format_value(value))
            self._value_set = frozenset(values)
        return self._value_set

    # ------------------------------------------------------------------
    # Fingerprints (structural identity keys for the engine caches)
    # ------------------------------------------------------------------
    def fingerprint(self) -> bytes:
        """A stable structural digest of this table (memoised).

        Two tables share a fingerprint exactly when their column names,
        column types, grouping metadata and canonicalised cell contents all
        coincide, so the digest can key cross-hypothesis caches (attribute
        vectors, component executions).  The digest is content-derived
        (BLAKE2b over a canonical serialisation), **not** built on Python's
        randomised ``hash()``, so it is identical across processes -- the
        property ``--jobs N`` determinism rests on.
        """
        if self._fingerprint is None:
            execution_stats().fingerprint_misses += 1
            hasher = blake2b(digest_size=16)
            _encode_tokens(hasher, self._columns)
            hasher.update(b"|")
            _encode_tokens(hasher, (cell_type.value for cell_type in self._col_types))
            hasher.update(b"|")
            _encode_tokens(hasher, self._group_cols)
            hasher.update(b"|%d|" % self._n_rows)
            for vector in self._column_data:
                _encode_tokens(hasher, (cell_token(value) for value in vector))
                hasher.update(b";")
            self._fingerprint = hasher.digest()
        else:
            execution_stats().fingerprint_hits += 1
        return self._fingerprint

    def row_multiset_digest(self) -> bytes:
        """A digest of the rows as a multiset (memoised).

        Row order, grouping metadata and column types do not contribute --
        only the ordered cell contents of each row, canonicalised the same
        way :func:`~repro.dataframe.cells.values_equal` considers cells equal
        at zero float distance.  Equal digests therefore *guarantee* the two
        tables' rows match as multisets; unequal digests guarantee nothing
        (float tolerance), so comparisons use this as a positive fast path
        only.
        """
        if self._multiset_digest is None:
            row_tokens = sorted(
                tuple(cell_token(vector[index]) for vector in self._column_data)
                for index in range(self._n_rows)
            )
            hasher = blake2b(digest_size=16)
            hasher.update(b"%d|%d|" % (self._n_rows, len(self._columns)))
            for tokens in row_tokens:
                _encode_tokens(hasher, tokens)
                hasher.update(b";")
            self._multiset_digest = hasher.digest()
        return self._multiset_digest

    def column_multiset_keys(self) -> Tuple[tuple, ...]:
        """Canonical value multisets of every column (memoised).

        Used by :func:`repro.dataframe.compare.align_columns` to match
        candidate columns against expected columns without re-scanning the
        table for every comparison.
        """
        if self._column_keys is None:
            self._column_keys = tuple(
                column_multiset_key(vector) for vector in self._column_data
            )
        return self._column_keys

    # ------------------------------------------------------------------
    # Derived tables
    # ------------------------------------------------------------------
    def with_rows(self, rows: Iterable[Sequence[CellValue]]) -> "Table":
        """Return a table with the same schema but different rows."""
        return Table(self._columns, rows, self._col_types, self._group_cols)

    def take_rows(self, indices: Sequence[int]) -> "Table":
        """Project this table onto the given row indices (types preserved).

        The columnar analogue of ``with_rows`` for rows that already live in
        this table: each column vector is sliced directly, skipping type
        inference and coercion.
        """
        column_data = tuple(
            tuple(vector[index] for index in indices) for vector in self._column_data
        )
        return Table._from_shared(
            self._columns, self._col_types, column_data, self._group_cols, len(indices)
        )

    def select_columns(self, names: Sequence[str]) -> "Table":
        """Project this table onto *names* (in the given order, vectors shared)."""
        names = tuple(str(name) for name in names)
        indices = [self.column_index(name) for name in names]
        column_data = tuple(self._column_data[index] for index in indices)
        col_types = tuple(self._col_types[index] for index in indices)
        group_cols = tuple(name for name in self._group_cols if name in names)
        if len(set(names)) != len(names):
            raise DuplicateColumnError(f"duplicate column names in {list(names)}")
        return Table._from_shared(names, col_types, column_data, group_cols, self._n_rows)

    def drop_columns(self, names: Sequence[str]) -> "Table":
        """Remove *names* from this table."""
        keep = [name for name in self._columns if name not in set(names)]
        return self.select_columns(keep)

    def rename_column(self, old: str, new: str) -> "Table":
        """Rename a single column (vectors shared)."""
        index = self.column_index(old)
        if new in self._columns and new != old:
            raise DuplicateColumnError(f"column {new!r} already exists")
        columns = list(self._columns)
        columns[index] = str(new)
        group_cols = tuple(new if name == old else name for name in self._group_cols)
        return Table._from_shared(
            tuple(columns), self._col_types, self._column_data, group_cols, self._n_rows
        )

    def with_column(self, name: str, values: Sequence[CellValue]) -> "Table":
        """Append a new column called *name* (existing vectors shared)."""
        if name in self._columns:
            raise DuplicateColumnError(f"column {name!r} already exists")
        if len(values) != self._n_rows:
            raise SchemaError(
                f"new column has {len(values)} values but the table has {self._n_rows} rows"
            )
        new_type = infer_column_type(values)
        new_vector = coerce_column(values, new_type)
        return Table._from_shared(
            self._columns + (str(name),),
            self._col_types + (new_type,),
            self._column_data + (new_vector,),
            self._group_cols,
            self._n_rows,
        )

    def sorted_by(self, names: Sequence[str]) -> "Table":
        """Return this table sorted (ascending) by the given columns."""
        vectors = [self._column_data[self.column_index(name)] for name in names]

        def key(index):
            return tuple(value_sort_key(vector[index]) for vector in vectors)

        order = sorted(range(self._n_rows), key=key)
        return self.take_rows(order)

    # ------------------------------------------------------------------
    # Equality / rendering
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Structural equality: schema, grouping metadata and cell contents.

        Grouping is part of a table's identity -- ``group_by`` changes how
        later verbs behave even though the cells are untouched.
        """
        if not isinstance(other, Table):
            return NotImplemented
        if self._columns != other._columns or self._n_rows != other._n_rows:
            return False
        if self._group_cols != other._group_cols:
            return False
        for left, right in zip(self._column_data, other._column_data):
            if left is right:
                continue
            for lvalue, rvalue in zip(left, right):
                if not values_equal(lvalue, rvalue):
                    return False
        return True

    def __hash__(self) -> int:
        return hash(
            (
                self._columns,
                self._group_cols,
                tuple(
                    tuple(format_value(value) for value in vector)
                    for vector in self._column_data
                ),
            )
        )

    def __len__(self) -> int:
        return self._n_rows

    def to_markdown(self) -> str:
        """Render this table as a GitHub-flavoured markdown table."""
        header = "| " + " | ".join(self._columns) + " |"
        separator = "| " + " | ".join("---" for _ in self._columns) + " |"
        lines = [header, separator]
        for row in self.rows:
            lines.append("| " + " | ".join(format_value(value) for value in row) + " |")
        return "\n".join(lines)

    def __repr__(self) -> str:
        grouped = f", grouped by {list(self._group_cols)}" if self._group_cols else ""
        return f"<Table {self.n_rows}x{self.n_cols} columns={list(self._columns)}{grouped}>"

    def __str__(self) -> str:
        return self.to_markdown()
