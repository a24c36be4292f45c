"""Pure-Python data-frame substrate.

The paper's artifact executes candidate programs with the R interpreter over
R data frames.  This package is the stand-in substrate: an immutable, typed
:class:`Table` plus the comparison policies used to check candidate programs
against the user-provided output example.
"""

from .cells import (
    CellType,
    CellValue,
    format_value,
    infer_cell_type,
    infer_column_type,
    is_missing,
    is_numeric,
    value_sort_key,
    values_equal,
)
from .compare import (
    DEFAULT_POLICY,
    POSITIONAL_POLICY,
    STRICT_POLICY,
    ComparePolicy,
    align_columns,
    tables_equivalent,
    tables_match_for_synthesis,
)
from .errors import (
    CellTypeError,
    ColumnNotFoundError,
    DataFrameError,
    DuplicateColumnError,
    SchemaError,
)
from .interning import clear_intern_pool, intern_pool_size, intern_value
from .profiling import ExecutionStats, execution_stats
from .table import Table

__all__ = [
    "CellType",
    "CellValue",
    "CellTypeError",
    "ColumnNotFoundError",
    "ComparePolicy",
    "DataFrameError",
    "DEFAULT_POLICY",
    "DuplicateColumnError",
    "ExecutionStats",
    "POSITIONAL_POLICY",
    "STRICT_POLICY",
    "SchemaError",
    "Table",
    "align_columns",
    "clear_intern_pool",
    "execution_stats",
    "format_value",
    "tables_match_for_synthesis",
    "infer_cell_type",
    "infer_column_type",
    "intern_pool_size",
    "intern_value",
    "is_missing",
    "is_numeric",
    "tables_equivalent",
    "value_sort_key",
    "values_equal",
]
