"""The built-in component library (tidyr + dplyr).

The paper's evaluation uses ten table transformation components from tidyr
and dplyr plus ten first-order value transformers.  :func:`standard_library`
builds exactly that set (``arrange`` is included as an eleventh transformer
because the motivating Example 3 uses it; callers can restrict the library).

New columns created by a component (the ``key``/``value`` columns of
``gather``, the aggregate column of ``summarise``, ...) receive canonical
machine-generated names derived from the hypothesis node that created them.
The synthesizer compares candidate outputs against the expected output with a
column-name-insensitive policy (see :func:`repro.dataframe.compare.align_columns`),
mirroring how the Morpheus artifact checks examples; the user-facing R
rendering keeps the canonical names.
"""

from __future__ import annotations

from typing import Sequence

from ..components import dplyr, tidyr
from ..components.errors import InvalidArgumentError
from ..components.values import default_value_components
from .arguments import Aggregation, ColumnList, ColumnRef, MutationExpr, Predicate, ValueArgument
from .component import Component, ComponentLibrary, ValueParam
from .types import Type


def _one_arg(arguments: Sequence[ValueArgument], expected_type) -> ValueArgument:
    (argument,) = arguments
    if not isinstance(argument, expected_type):
        raise InvalidArgumentError(
            f"expected a {expected_type.__name__}, got {type(argument).__name__}"
        )
    return argument


# ----------------------------------------------------------------------
# Executor adapters: (tables, value arguments, fresh prefix) -> Table
# ----------------------------------------------------------------------
def _run_gather(tables, arguments, prefix):
    columns = _one_arg(arguments, ColumnList)
    # The key column's name is derived from the gathered columns rather than
    # from the hypothesis node: two gather applications over the same columns
    # (e.g. in the two branches of a consolidation join, as in the paper's
    # Example 3) then produce the *same* key column, so a later natural join
    # unifies them -- exactly the role the user-chosen key name plays in the
    # paper's R solutions.  The value column stays node-unique so the joined
    # branches keep their separate measurements.
    key_name = "key_" + "_".join(columns)
    return tidyr.gather(tables[0], key_name, f"{prefix}value", list(columns))


def _run_spread(tables, arguments, prefix):
    key, value = arguments
    return tidyr.spread(tables[0], key.name, value.name)


def _run_spread_batch(tables, argument_lists, prefix):
    pairs = [(key.name, value.name) for key, value in argument_lists]
    return tidyr.spread_batch(tables[0], pairs)


def _run_separate(tables, arguments, prefix):
    column = _one_arg(arguments, ColumnRef)
    return tidyr.separate(tables[0], column.name, [f"{prefix}left", f"{prefix}right"])


def _run_unite(tables, arguments, prefix):
    columns = _one_arg(arguments, ColumnList)
    return tidyr.unite(tables[0], f"{prefix}united", list(columns))


def _run_select(tables, arguments, prefix):
    columns = _one_arg(arguments, ColumnList)
    return dplyr.select(tables[0], list(columns))


def _run_filter(tables, arguments, prefix):
    predicate = _one_arg(arguments, Predicate)
    return dplyr.filter_rows(tables[0], predicate)


def _run_filter_batch(tables, argument_lists, prefix):
    predicates = [_one_arg(arguments, Predicate) for arguments in argument_lists]
    return dplyr.filter_rows_batch(tables[0], predicates)


def _run_group_by(tables, arguments, prefix):
    columns = _one_arg(arguments, ColumnList)
    return dplyr.group_by(tables[0], list(columns))


def _run_summarise(tables, arguments, prefix):
    aggregation = _one_arg(arguments, Aggregation)
    return dplyr.summarise(
        tables[0], f"{prefix}agg", aggregation.function, aggregation.column
    )


def _run_mutate(tables, arguments, prefix):
    expression = _one_arg(arguments, MutationExpr)
    return dplyr.mutate(tables[0], f"{prefix}val", expression)


def _run_inner_join(tables, arguments, prefix):
    return dplyr.inner_join(tables[0], tables[1])


def _run_arrange(tables, arguments, prefix):
    columns = _one_arg(arguments, ColumnList)
    return dplyr.arrange(tables[0], list(columns))


# ----------------------------------------------------------------------
# Renderers (R surface syntax)
# ----------------------------------------------------------------------
def _render_gather(table_args, arguments):
    columns = arguments[0].render_r()
    return f"gather({table_args[0]}, key, value, {columns})"


def _render_spread(table_args, arguments):
    return f"spread({table_args[0]}, {arguments[0].render_r()}, {arguments[1].render_r()})"


def _render_separate(table_args, arguments):
    return f"separate({table_args[0]}, {arguments[0].render_r()}, into = c(\"left\", \"right\"))"


def _render_unite(table_args, arguments):
    return f"unite({table_args[0]}, united, {arguments[0].render_r()})"


def _render_select(table_args, arguments):
    return f"select({table_args[0]}, {arguments[0].render_r()})"


def _render_filter(table_args, arguments):
    return f"filter({table_args[0]}, {arguments[0].render_r()})"


def _render_group_by(table_args, arguments):
    return f"group_by({table_args[0]}, {arguments[0].render_r()})"


def _render_summarise(table_args, arguments):
    return f"summarise({table_args[0]}, agg = {arguments[0].render_r()})"


def _render_mutate(table_args, arguments):
    return f"mutate({table_args[0]}, val = {arguments[0].render_r()})"


def _render_inner_join(table_args, arguments):
    return f"inner_join({table_args[0]}, {table_args[1]})"


def _render_arrange(table_args, arguments):
    return f"arrange({table_args[0]}, {arguments[0].render_r()})"


# ----------------------------------------------------------------------
# The library
# ----------------------------------------------------------------------
def standard_library(include_arrange: bool = True) -> ComponentLibrary:
    """The tidyr/dplyr component set used throughout the paper's evaluation."""
    components = [
        Component(
            "gather",
            1,
            (ValueParam("columns", Type.COLS),),
            _run_gather,
            _render_gather,
            "Collapse multiple columns into key/value pairs.",
        ),
        Component(
            "spread",
            1,
            (ValueParam("key", Type.COL), ValueParam("value", Type.COL)),
            _run_spread,
            _render_spread,
            "Spread a key/value pair across multiple columns.",
            batch_executor=_run_spread_batch,
        ),
        Component(
            "separate",
            1,
            (ValueParam("column", Type.COL),),
            _run_separate,
            _render_separate,
            "Separate one column into two.",
        ),
        Component(
            "unite",
            1,
            (ValueParam("columns", Type.COLS),),
            _run_unite,
            _render_unite,
            "Unite two columns into one.",
        ),
        Component(
            "select",
            1,
            (ValueParam("columns", Type.COLS),),
            _run_select,
            _render_select,
            "Project a subset of columns.",
        ),
        Component(
            "filter",
            1,
            (ValueParam("predicate", Type.PREDICATE),),
            _run_filter,
            _render_filter,
            "Select a subset of rows.",
            batch_executor=_run_filter_batch,
        ),
        Component(
            "summarise",
            1,
            (ValueParam("aggregation", Type.AGGREGATION),),
            _run_summarise,
            _render_summarise,
            "Summarise each group to a single value.",
        ),
        Component(
            "group_by",
            1,
            (ValueParam("columns", Type.COLS),),
            _run_group_by,
            _render_group_by,
            "Group a table by one or more variables.",
        ),
        Component(
            "mutate",
            1,
            (ValueParam("expression", Type.MUTATION),),
            _run_mutate,
            _render_mutate,
            "Add a new computed column.",
        ),
        Component(
            "inner_join",
            2,
            (),
            _run_inner_join,
            _render_inner_join,
            "Natural inner join of two tables.",
        ),
    ]
    if include_arrange:
        components.append(
            Component(
                "arrange",
                1,
                (ValueParam("columns", Type.COLS),),
                _run_arrange,
                _render_arrange,
                "Sort rows by one or more columns.",
            )
        )
    value_names = tuple(component.name for component in default_value_components())
    return ComponentLibrary(tuple(components), value_names)


def sql_library() -> ComponentLibrary:
    """The eight-component library used for the SQLSynthesizer comparison.

    Figure 18 of the paper evaluates Morpheus on SQL benchmarks using "a total
    of eight higher-order components that are relevant to SQL": selection,
    projection, joins, grouping and aggregation -- i.e. the dplyr subset of
    the standard library.
    """
    names = (
        "select",
        "filter",
        "summarise",
        "group_by",
        "mutate",
        "inner_join",
        "arrange",
        "unite",
    )
    return standard_library(include_arrange=True).restricted_to(names)
