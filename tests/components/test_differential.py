"""Differential test: columnar executors vs the row-major reference.

Random programs (sequences of verbs with randomly drawn arguments, valid and
invalid alike) run over random tables through both the columnar executors in
``repro.components.dplyr`` / ``repro.components.tidyr`` and the retained
row-major reference implementation in ``repro.components.reference``.  The
two must agree on everything observable: cell contents, column names, column
types, grouping metadata -- or raise the same error class with the same
message.  Any divergence prints the seed and the failing step.
"""

import random

import pytest

from repro.components import dplyr, reference, tidyr
from repro.components.errors import ComponentError
from repro.core.arguments import Constant, Predicate
from repro.dataframe import Table
from repro.dataframe.cells import CellType
from repro.dataframe.errors import DataFrameError


#: Columnar implementation of every verb, aligned with REFERENCE_VERBS.
COLUMNAR_VERBS = {
    "select": dplyr.select,
    "filter": dplyr.filter_rows,
    "group_by": dplyr.group_by,
    "summarise": dplyr.summarise,
    "mutate": dplyr.mutate,
    "inner_join": dplyr.inner_join,
    "arrange": dplyr.arrange,
    "gather": tidyr.gather,
    "spread": tidyr.spread,
    "separate": tidyr.separate,
    "unite": tidyr.unite,
}

COMPARABLE_ERRORS = (ComponentError, DataFrameError, ZeroDivisionError)


def random_table(rng: random.Random) -> Table:
    """A random table: 2-5 columns of num/str cells, maybe grouped.

    Mostly small (0-7 rows), like the tables of an input-output example,
    but one draw in four has 30-90 rows so the verbs also run over larger
    groups, join buckets and sort inputs.
    """
    n_cols = rng.randint(2, 5)
    roll = rng.random()
    if roll < 0.75:
        n_rows = rng.randint(0, 7)
    elif roll < 0.9:
        n_rows = rng.randint(30, 36)
    else:
        n_rows = rng.randint(60, 90)
    columns = [f"c{i}" for i in range(n_cols)]
    vectors = []
    for _ in range(n_cols):
        kind = rng.choice(["num", "str", "splitable"])
        vector = []
        for _ in range(n_rows):
            if rng.random() < 0.1:
                vector.append(None)
            elif kind == "num":
                vector.append(rng.choice([rng.randint(-5, 9), rng.random() * 10]))
            elif kind == "splitable":
                vector.append(f"{rng.choice('abc')}_{rng.randint(0, 3)}")
            else:
                vector.append(rng.choice(["x", "y", "z", "x_1", "long word"]))
        vectors.append(vector)
    table = Table(columns, list(zip(*vectors)) if vectors else [])
    if n_rows and rng.random() < 0.4:
        group_count = rng.randint(1, min(2, n_cols))
        table = table.with_grouping(rng.sample(columns, group_count))
    return table


def random_call(rng: random.Random, table: Table):
    """Draw a verb and plausible (sometimes invalid) arguments for *table*."""
    verb = rng.choice(list(COLUMNAR_VERBS))
    columns = list(table.columns)
    any_column = lambda: rng.choice(columns) if columns else "missing"  # noqa: E731

    def some_columns(k_min=1):
        k = rng.randint(k_min, max(k_min, len(columns)))
        return rng.sample(columns, min(k, len(columns)))

    if verb == "select":
        return verb, (some_columns(),)
    if verb == "filter":
        column = any_column()
        constant = rng.choice([0, 1, "x", 2.5, None])
        op = rng.choice(["==", "!=", "<", ">", "<=", ">="])
        if rng.random() < 0.5:
            # Structured predicate: the shape the synthesizer produces (None
            # constants and the ordered operators exercise the missing-value
            # error paths).
            return verb, (Predicate(column, op, Constant(constant)),)

        def predicate(row, column=column, op=op, constant=constant):
            from repro.components.values import COMPARISON_OPERATORS

            return COMPARISON_OPERATORS[op](row[column], constant)

        return verb, (predicate,)
    if verb == "group_by":
        return verb, (some_columns(),)
    if verb == "summarise":
        aggregator = rng.choice(["n", "sum", "mean", "min", "max", "n_distinct"])
        target = None if aggregator == "n" else any_column()
        return verb, ("agg_out", aggregator, target)
    if verb == "mutate":

        def expression(row, group, column=any_column()):
            values = group.column_values(column)
            total = sum(v for v in values if isinstance(v, (int, float))) or 1
            cell = row[column]
            return (cell if isinstance(cell, (int, float)) and cell is not None else 0) / total

        return verb, ("mut_out", expression)
    if verb == "inner_join":
        return verb, ()  # second table supplied by the driver
    if verb == "arrange":
        return verb, (some_columns(),)
    if verb == "gather":
        return verb, ("gkey", "gvalue", some_columns(k_min=2))
    if verb == "spread":
        return verb, (any_column(), any_column())
    if verb == "separate":
        return verb, (any_column(), ["sep_left", "sep_right"])
    if verb == "unite":
        return verb, ("united_out", some_columns(k_min=2))
    raise AssertionError(verb)


def apply_verb(impl, verb, table, args, other):
    if verb == "inner_join":
        return impl[verb](table, other)
    return impl[verb](table, *args)


def assert_tables_identical(columnar: Table, legacy: Table, context: str):
    assert columnar.columns == legacy.columns, context
    assert columnar.col_types == legacy.col_types, context
    assert columnar.group_cols == legacy.group_cols, context
    assert columnar.n_rows == legacy.n_rows, context
    assert columnar.rows == legacy.rows, context


@pytest.mark.parametrize("seed", range(40))
def test_columnar_and_reference_executors_agree(seed):
    rng = random.Random(seed)
    for iteration in range(25):
        table = random_table(rng)
        other = random_table(rng)
        steps = rng.randint(1, 3)
        columnar_table, legacy_table = table, table
        for step in range(steps):
            verb, args = random_call(rng, columnar_table)
            context = f"seed={seed} iteration={iteration} step={step} verb={verb} args={args!r}"
            columnar_error = legacy_error = None
            try:
                columnar_result = apply_verb(COLUMNAR_VERBS, verb, columnar_table, args, other)
            except COMPARABLE_ERRORS as error:
                columnar_error = error
            try:
                legacy_result = apply_verb(reference.REFERENCE_VERBS, verb, legacy_table, args, other)
            except COMPARABLE_ERRORS as error:
                legacy_error = error

            if columnar_error is not None or legacy_error is not None:
                assert columnar_error is not None and legacy_error is not None, context
                assert type(columnar_error) is type(legacy_error), context
                assert str(columnar_error) == str(legacy_error), context
                break
            assert_tables_identical(columnar_result, legacy_result, context)
            columnar_table, legacy_table = columnar_result, legacy_result


SPREAD_EDGE_CASES = {
    "numeric keys mixing ints and non-integral floats": Table(
        ["id", "site", "k", "v"],
        [["a", 1, 1, 10], ["a", 1, 2.5, 11], ["b", 2, 1, 12], ["b", 2, 0.25, 13], ["a", 2, 1, 14]],
    ),
    "missing cells in the value column": Table(
        ["id", "k", "v"],
        [["a", "x", None], ["a", "y", 1.5], ["b", "x", 2], ["c", "y", None]],
    ),
    "duplicate identifiers": Table(
        ["id", "k", "v"], [["a", "x", 1], ["b", "x", 2], ["a", "x", 3]]
    ),
}


@pytest.mark.parametrize("case", sorted(SPREAD_EDGE_CASES))
def test_spread_edge_cases_match_reference(case):
    table = SPREAD_EDGE_CASES[case]
    outcomes = []
    for spread in (tidyr.spread, reference.spread):
        try:
            outcomes.append(spread(table, "k", "v"))
        except COMPARABLE_ERRORS as error:
            outcomes.append((type(error), str(error)))
    columnar, legacy = outcomes
    if case == "duplicate identifiers":
        assert columnar == legacy
        assert columnar[1] == "spread: duplicate identifiers for rows"
        return
    assert_tables_identical(columnar, legacy, case)
    assert any(None in row for row in columnar.rows)
    if case.startswith("numeric"):
        assert columnar.columns == ("id", "site", "0.25", "1", "2.5")


def test_reference_covers_every_component():
    assert set(reference.REFERENCE_VERBS) == set(COLUMNAR_VERBS)


#: A table whose ``n`` column is typed NUM but holds no number: carried
#: through a verb that infers types, it must come out STR (what inferring
#: from its cells gives), like the reference's.
NUM = CellType.NUM
STR = CellType.STR
EMPTY_NUM = Table(
    ["id", "n", "k", "v", "s"],
    [["a", None, "x", 1, "p_1"], ["a", None, "y", 2, "q_2"], ["b", None, "x", 3, "r_3"]],
    [STR, NUM, STR, NUM, STR],
)
PARTNER = Table(["id", "m"], [["a", 5], ["b", 6]])

CARRIED_TYPE_CASES = {
    "spread": (lambda verbs: verbs["spread"](EMPTY_NUM, "k", "v"), "n", STR),
    "inner_join": (lambda verbs: verbs["inner_join"](EMPTY_NUM, PARTNER), "n", STR),
    "summarise": (
        lambda verbs: verbs["summarise"](EMPTY_NUM.with_grouping(["n"]), "agg", "sum", "v"),
        "n", STR,
    ),
    "unite": (lambda verbs: verbs["unite"](EMPTY_NUM, "u", ["id", "k"]), "n", STR),
    "separate": (lambda verbs: verbs["separate"](EMPTY_NUM, "s", ["l", "r"]), "n", STR),
    "gather keeps the declared type": (
        lambda verbs: verbs["gather"](EMPTY_NUM, "key", "value", ["k", "s"]), "n", NUM,
    ),
    "spread of zero rows": (
        lambda verbs: verbs["spread"](EMPTY_NUM.take_rows([]), "k", "v"), "n", STR,
    ),
    "spread of one row": (
        lambda verbs: verbs["spread"](EMPTY_NUM.take_rows([2]), "k", "v"), "x", NUM,
    ),
}


@pytest.mark.parametrize("case", sorted(CARRIED_TYPE_CASES))
def test_carried_column_types_match_reference(case):
    run, column, expected_type = CARRIED_TYPE_CASES[case]
    columnar, legacy = run(COLUMNAR_VERBS), run(reference.REFERENCE_VERBS)
    assert_tables_identical(columnar, legacy, case)
    assert columnar.column_type(column) is expected_type
