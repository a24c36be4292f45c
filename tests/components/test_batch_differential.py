"""Differential test: batched executors vs one call per argument list.

Sibling fillings of a node's last hole run through
``Component.execute_batch``, which uses the component's batch executor when
it has one (``filter``, ``spread``).  Over random tables and random sibling
groups, the batch must return exactly what ``Component.execute`` gives for
each argument list on its own: the same table (cells, column names, column
types, grouping) or an error of the same class with the same message, the
batch's errors carrying no traceback.
"""

import random

import pytest

from repro.components.errors import PRUNABLE_ERRORS
from repro.core.arguments import ColumnRef, Constant, Predicate
from repro.core.library import standard_library
from repro.dataframe import Table
from repro.dataframe.cells import CellType

from test_differential import assert_tables_identical, random_table

LIBRARY = standard_library()


def spread_table(rng: random.Random) -> Table:
    """A long table for ``spread``: identifiers, a key, values, a spare column.

    Cell pools are small so that every spread error occurs: key cells may be
    missing, NaN (two NaNs format alike), or equal to a column name; id/key
    pairs repeat often enough for duplicate identifiers.
    """
    n_rows = rng.choice([0, 1, rng.randint(2, 8), rng.randint(8, 24)])
    numeric_keys = rng.random() < 0.4
    rows = []
    for _ in range(n_rows):
        keys = [1, 2, 2.5] if numeric_keys else ["x", "y", "z"]
        if rng.random() < 0.2:
            keys += [float("nan"), None] if numeric_keys else ["id", "w", None]
        key = rng.choice(keys)
        rows.append([
            rng.choice(["a", "b", "c"]),
            rng.choice([1, 2, None]),
            key,
            rng.choice([rng.randint(0, 9), None]),
            rng.choice(["p", "q", None]),
        ])
    col_types = [CellType.STR, CellType.NUM, CellType.NUM if numeric_keys else CellType.STR,
                 CellType.NUM, CellType.STR]
    table = Table(["id", "site", "key", "value", "note"], rows, col_types)
    names = ["key", "value"] + rng.sample(["id", "site", "note"], rng.choice([0, 1, 2, 3, 3]))
    rng.shuffle(names)
    table = table.select_columns(names)
    if n_rows and rng.random() < 0.3:
        table = table.with_grouping([rng.choice(names)])
    return table


def spread_group(rng: random.Random, table: Table):
    """Sibling argument lists of ``spread``: mostly the key fixed, the value varying."""
    names = list(table.columns) + ["missing"]
    key = rng.choice(names)
    group = []
    for _ in range(rng.randint(1, 8)):
        sibling_key = rng.choice(names) if rng.random() < 0.2 else key
        group.append([ColumnRef(sibling_key), ColumnRef(rng.choice(names))])
    if rng.random() < 0.3:
        group.insert(rng.randrange(len(group) + 1), [ColumnRef(key), ColumnRef(key)])
    return group


def filter_group(rng: random.Random, table: Table):
    """Sibling argument lists of ``filter``: one predicate each, over present columns."""
    constants = [0, 1, 2.5, "x", "a", None]
    return [
        [Predicate(rng.choice(table.columns), rng.choice(["==", "!=", "<", ">", "<=", ">="]),
                   Constant(rng.choice(constants)))]
        for _ in range(rng.randint(1, 8))
    ]


def spread_case(rng: random.Random):
    table = spread_table(rng) if rng.random() < 0.7 else random_table(rng)
    return table, spread_group(rng, table)


def filter_case(rng: random.Random):
    table = random_table(rng)
    return table, filter_group(rng, table)


#: A random ``(table, sibling group)`` per batch-capable component.
GENERATORS = {"spread": spread_case, "filter": filter_case}


def outcome(component, table, arguments):
    try:
        return component.execute([table], arguments, "_n1_")
    except PRUNABLE_ERRORS as error:
        return error


def assert_same_outcome(batched, single, context):
    if isinstance(single, Exception):
        assert isinstance(batched, Exception), context
        assert type(batched) is type(single), context
        assert str(batched) == str(single), context
        assert batched.__traceback__ is None, context
    else:
        assert isinstance(batched, Table), context
        assert_tables_identical(batched, single, context)


def test_every_batch_executor_is_covered():
    batched = {component.name for component in LIBRARY if component.batch_executor is not None}
    assert batched == set(GENERATORS) == {"filter", "spread"}


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("seed", range(20))
def test_batch_equals_one_call_per_argument_list(name, seed):
    rng = random.Random(seed)
    component = LIBRARY.by_name(name)
    for iteration in range(30):
        table, group = GENERATORS[name](rng)
        batched = component.execute_batch([table], group, "_n1_")
        assert len(batched) == len(group)
        for index, arguments in enumerate(group):
            context = f"seed={seed} iteration={iteration} sibling={index} args={arguments!r}"
            assert_same_outcome(batched[index], outcome(component, table, arguments), context)


def test_spread_batches_meet_every_error():
    """The random spread groups reach each of spread's seven failures."""
    seen = set()
    component = LIBRARY.by_name("spread")
    for seed in range(20):
        rng = random.Random(seed)
        for _ in range(30):
            table, group = GENERATORS["spread"](rng)
            for result in component.execute_batch([table], group, "_n1_"):
                if isinstance(result, Exception):
                    seen.add(str(result).split("'")[0])
    assert seen == {
        "spread: key and value must be different columns",
        "spread: column ",
        "spread: no identifier columns remain",
        "spread: key column contains a missing value",
        "spread: key values collide after formatting",
        "spread: new column ",
        "spread: duplicate identifiers for rows",
    }
