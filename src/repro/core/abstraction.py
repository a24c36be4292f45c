"""The abstraction function :math:`\\alpha` and symbolic table attributes.

The deduction engine reasons about tables only through a small vector of
integer attributes.  :class:`TableVars` bundles the SMT variables standing for
one (possibly unknown) table; :func:`abstract_table` is the abstraction
function :math:`\\alpha` of Figure 12, which constrains those variables to the
attribute values of a *concrete* table.

Two granularities are supported, matching the paper's evaluation:

* **Spec 1** (Table 2): only ``row`` and ``col``.
* **Spec 2** (Table 3): additionally ``group`` (number of groups),
  ``newCols`` and ``newVals`` (number of column names / values that do not
  already occur in the user-provided input tables).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from ..dataframe.table import Table
from ..engine.cache import LRUCache
from ..smt.terms import Formula, Int, LinExpr, conjoin


class SpecLevel(enum.Enum):
    """Which component specification (and abstraction granularity) to use."""

    SPEC1 = 1
    SPEC2 = 2


@dataclass(frozen=True)
class TableVars:
    """The SMT variables describing one table."""

    name: str

    @property
    def row(self) -> LinExpr:
        """Number of rows (``T.row``)."""
        return Int(f"{self.name}.row")

    @property
    def col(self) -> LinExpr:
        """Number of columns (``T.col``)."""
        return Int(f"{self.name}.col")

    @property
    def group(self) -> LinExpr:
        """Number of groups (``T.group``, Spec 2 only)."""
        return Int(f"{self.name}.group")

    @property
    def new_cols(self) -> LinExpr:
        """Number of column names not present in the example inputs (``T.newCols``)."""
        return Int(f"{self.name}.newCols")

    @property
    def new_vals(self) -> LinExpr:
        """Number of values not present in the example inputs (``T.newVals``)."""
        return Int(f"{self.name}.newVals")

    def equal_to(self, other: "TableVars", level: SpecLevel) -> Formula:
        """Attribute-wise equality between two symbolic tables.

        Used for the :math:`\\varphi_{in}` / :math:`\\varphi_{out}` constraints
        of Algorithm 2 that identify hypothesis holes with input variables and
        the hypothesis root with the synthesized program's return value.
        """
        constraints = [
            self.row.equals(other.row),
            self.col.equals(other.col),
        ]
        if level is SpecLevel.SPEC2:
            constraints.extend(
                [
                    self.group.equals(other.group),
                    self.new_cols.equals(other.new_cols),
                    self.new_vals.equals(other.new_vals),
                ]
            )
        return conjoin(constraints)


@dataclass(frozen=True)
class ExampleBaseline:
    """The value / header universe of the user-provided input tables.

    ``newCols`` and ``newVals`` are measured against this baseline (see the
    appendix of the paper, Example 13).
    """

    headers: frozenset
    values: frozenset

    @staticmethod
    def from_tables(tables: Iterable[Table]) -> "ExampleBaseline":
        """Build the baseline from the example's input tables."""
        headers = frozenset()
        values = frozenset()
        for table in tables:
            headers |= table.header_set()
            values |= table.value_set()
        return ExampleBaseline(headers, values)

    def new_cols(self, table: Table) -> int:
        """``T.newCols``: column names of *table* that appear nowhere in the inputs.

        The comparison is against the inputs' full *value* universe (column
        names and cell contents), not just their headers: a ``spread`` turns
        cell values into column names, and those columns are not "new"
        information.  This keeps the spread/gather specifications of Table 3
        sound; with the header-only definition, ``spread`` applied directly to
        an input table would violate its own specification.
        """
        return len(table.header_set() - self.values)

    def new_vals(self, table: Table) -> int:
        """``T.newVals`` for a concrete table."""
        return len(table.value_set() - self.values)


def table_group_count(table: Table) -> int:
    """``T.group`` for a concrete table (1 for an ungrouped, non-empty table)."""
    return table.n_groups


def table_attribute_vector(
    table: Table, level: SpecLevel, baseline: ExampleBaseline
) -> Tuple[int, int, int, int, int]:
    """The ground ``(row, col, group, newCols, newVals)`` vector of a table.

    This is the attribute vector both tiers of the deduction pipeline consume:
    tier 1 (:mod:`repro.core.propagation`) plugs it straight into compiled
    interval transfers, tier 2 wraps it in SMT variables via
    :func:`abstract_attributes`.  Under Spec 1 the last three attributes never
    reach either tier, so the whole-table scans they require are skipped
    (zeroing them also keeps attribute-keyed caches from splitting on unused
    fields).
    """
    if level is SpecLevel.SPEC1:
        return (table.n_rows, table.n_cols, 0, 0, 0)
    return (
        table.n_rows,
        table.n_cols,
        table_group_count(table),
        baseline.new_cols(table),
        baseline.new_vals(table),
    )


def abstract_table(
    table: Table,
    variables: TableVars,
    level: SpecLevel,
    baseline: ExampleBaseline,
    symbolic_group: bool = False,
) -> Formula:
    """The abstraction :math:`\\alpha(T)` of a concrete table.

    When ``symbolic_group`` is set the ``group`` attribute is only constrained
    to be positive: the user-provided *output* table carries no grouping
    metadata, so (as in the appendix of the paper) its group count is a fresh
    unknown.
    """
    attributes = table_attribute_vector(table, level, baseline)
    return abstract_attributes(attributes, variables, level, symbolic_group)


#: Default bound of one :class:`AbstractionCache` (attribute vectors are tiny
#: tuples, so the memory cost per entry is a few hundred bytes).
ABSTRACTION_CACHE_SIZE = 8192


class AbstractionCache:
    """LRU-bounded memo of abstraction formulas.

    The deduction engine re-abstracts the same (table attributes, variable
    name) pairs for thousands of queries per synthesis run; this cache keys
    the resulting formula fragments by the attribute vector rather than the
    table object, so structurally identical tables produced by different
    candidate programs share one formula.
    """

    __slots__ = ("_formulas",)

    def __init__(self, maxsize: Optional[int] = ABSTRACTION_CACHE_SIZE) -> None:
        self._formulas: LRUCache = LRUCache(maxsize=maxsize)

    def abstract(
        self,
        attributes: Tuple[int, int, int, int, int],
        variables: TableVars,
        level: SpecLevel,
        symbolic_group: bool = False,
    ) -> Formula:
        """The abstraction formula for a table with the given attribute vector."""
        key = (attributes, variables.name, level, symbolic_group)
        cached = self._formulas.get(key)
        if cached is not None:
            return cached
        formula = abstract_attributes(attributes, variables, level, symbolic_group)
        self._formulas.put(key, formula)
        return formula


def abstract_attributes(
    attributes: Tuple[int, int, int, int, int],
    variables: TableVars,
    level: SpecLevel,
    symbolic_group: bool = False,
) -> Formula:
    """:func:`abstract_table` on a pre-computed attribute vector."""
    rows, cols, groups, new_cols, new_vals = attributes
    constraints = [variables.row.equals(rows), variables.col.equals(cols)]
    if level is SpecLevel.SPEC2:
        if symbolic_group:
            constraints.append(variables.group >= 1)
            constraints.append(variables.group <= max(rows, 1))
        else:
            constraints.append(variables.group.equals(groups))
        constraints.append(variables.new_cols.equals(new_cols))
        constraints.append(variables.new_vals.equals(new_vals))
    return conjoin(constraints)


def nonnegativity(variables: Sequence[TableVars], level: SpecLevel) -> Formula:
    """Basic sanity constraints every table satisfies (rows, cols, groups >= 0)."""
    constraints = []
    for table_vars in variables:
        constraints.append(table_vars.row >= 0)
        constraints.append(table_vars.col >= 1)
        if level is SpecLevel.SPEC2:
            constraints.append(table_vars.group >= 0)
            constraints.append(table_vars.group <= table_vars.row)
            constraints.append(table_vars.new_cols >= 0)
            constraints.append(table_vars.new_vals >= 0)
            constraints.append(table_vars.new_cols <= table_vars.col)
            constraints.append(table_vars.new_cols <= table_vars.new_vals)
    return conjoin(constraints)
