"""The DSL type system (Figure 3 of the paper).

The synthesizer distinguishes table-typed holes (filled during sketch
generation by binding input variables or refining with table transformers)
from first-order holes (filled during sketch completion by enumerating
inhabitants with respect to a concrete table).  The first-order argument
*kinds* below refine the paper's ``cols`` / ``row -> bool`` / value types into
the concrete argument grammars of the built-in component library.
"""

from __future__ import annotations

import enum


class Type(enum.Enum):
    """Types of holes in a hypothesis."""

    #: A table (``tbl`` in Figure 3).
    TABLE = "tbl"
    #: A list of column names (``cols``).
    COLS = "cols"
    #: A single column name.
    COL = "col"
    #: A predicate ``row -> bool`` (argument of ``filter``).
    PREDICATE = "row -> bool"
    #: An aggregation ``col x rows -> num`` (argument of ``summarise``).
    AGGREGATION = "aggregation"
    #: A per-row numeric expression (argument of ``mutate``).
    MUTATION = "row -> num"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

