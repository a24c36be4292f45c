"""Edge-cell property tests: columnar verbs vs the row-major reference.

The columnar verbs of :mod:`repro.components.dplyr` and
:mod:`repro.components.tidyr` must be observationally identical to the
row-major reference executor (:mod:`repro.components.reference`): same
cells, same column types, same fingerprints, same error class *and message*
-- over adversarial inputs (NaN, None, huge integers, empty strings, empty
tables).  The random-program differential suite covers ordinary cells; these
tests aim the same oracle at the cells most likely to expose a divergence.
"""

import math
import random

import pytest

from repro.components import dplyr, reference, tidyr
from repro.components.errors import ComponentError
from repro.core.arguments import Constant, Predicate
from repro.dataframe import Table
from repro.dataframe.errors import DataFrameError
from repro.engine.context import TaskContext

COMPARABLE_ERRORS = (ComponentError, DataFrameError, ZeroDivisionError)

#: Adversarial cell pool: missing values, NaN, magnitudes past the int-sum
#: safety guard, float extremes, empty strings and lookalike text.
NASTY_CELLS = [
    None,
    float("nan"),
    0,
    1,
    -5,
    2.5,
    -2.5,
    2**60,
    -(2**55),
    1e308,
    -1e308,
    0.1,
    "",
    "a",
    "b",
    "0",
    "nan",
]


def cells_equal(left, right):
    if (
        isinstance(left, float)
        and isinstance(right, float)
        and math.isnan(left)
        and math.isnan(right)
    ):
        return True
    return type(left) is type(right) and left == right


def run_with(dplyr_verbs, tidyr_verbs, thunk):
    """Run *thunk* on one verb implementation in an isolated task context."""
    with TaskContext().active():
        try:
            result = thunk(dplyr_verbs, tidyr_verbs)
            return (
                "ok",
                result.columns,
                result.col_types,
                result.group_cols,
                result.rows,
                result.fingerprint(),
            )
        except COMPARABLE_ERRORS as error:
            return ("error", type(error).__name__, str(error))


def assert_matches_reference(thunk, context=""):
    """*thunk(d, t)* must behave the same on the columnar and reference verbs.

    ``d``/``t`` are the modules holding the dplyr/tidyr verbs: the columnar
    ``dplyr``/``tidyr`` pair, or ``reference`` for both.
    """
    columnar = run_with(dplyr, tidyr, thunk)
    expected = run_with(reference, reference, thunk)
    assert columnar[0] == expected[0], (context, columnar, expected)
    if columnar[0] == "error":
        assert columnar == expected, context
        return
    assert columnar[1:4] == expected[1:4], context
    assert columnar[5] == expected[5], (context, "fingerprint mismatch")
    assert len(columnar[4]) == len(expected[4]), context
    for row_columnar, row_expected in zip(columnar[4], expected[4]):
        for cell_columnar, cell_expected in zip(row_columnar, row_expected):
            assert cells_equal(cell_columnar, cell_expected), (
                context,
                cell_columnar,
                cell_expected,
            )


def nasty_table(rng, n_rows, n_cols=3):
    data = [
        [
            rng.choice(NASTY_CELLS) if rng.random() < 0.35 else rng.randrange(8)
            for _ in range(n_cols)
        ]
        for _ in range(n_rows)
    ]
    return [f"c{i}" for i in range(n_cols)], data


def typed_nasty_table(rng, n_rows, n_cols=3):
    """Like :func:`nasty_table`, but every column is all-number or all-text.

    Mixed columns fail in the ``Table`` constructor before any verb runs;
    single-typed ones carry the nasty cells into the verb itself.
    """
    vectors = []
    for _ in range(n_cols):
        if rng.random() < 0.5:
            pool = [cell for cell in NASTY_CELLS if not isinstance(cell, str)]
            plain = lambda: rng.randrange(8)  # noqa: E731
        else:
            pool = [cell for cell in NASTY_CELLS if not isinstance(cell, (int, float))]
            plain = lambda: rng.choice("xyz")  # noqa: E731
        vectors.append(
            [rng.choice(pool) if rng.random() < 0.35 else plain() for _ in range(n_rows)]
        )
    return [f"c{i}" for i in range(n_cols)], [list(row) for row in zip(*vectors)]


#: Empty, single-row, small and a few larger tables.
SIZES = [0, 1, 7, 31, 32, 33, 64, 300]


@pytest.mark.parametrize("seed", range(12))
def test_verbs_match_reference_on_nasty_filter(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        columns, data = nasty_table(rng, n_rows)
        constant = rng.choice([None, 0, 1, 2.5, "a", ""])
        operator = rng.choice(["==", "!=", "<", ">", "<=", ">="])
        predicate = Predicate("c1", operator, Constant(constant))
        assert_matches_reference(
            lambda d, t: d.filter_rows(Table(columns, data), predicate),
            f"seed={seed} rows={n_rows} {operator} {constant!r}",
        )


@pytest.mark.parametrize("seed", range(12))
def test_verbs_match_reference_on_nasty_arrange(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        columns, data = nasty_table(rng, n_rows)
        keys = rng.sample(columns, rng.randint(1, len(columns)))
        assert_matches_reference(
            lambda d, t: d.arrange(Table(columns, data), keys),
            f"seed={seed} rows={n_rows} keys={keys}",
        )


@pytest.mark.parametrize("seed", range(12))
def test_verbs_match_reference_on_nasty_gather(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        columns, data = nasty_table(rng, n_rows, n_cols=4)
        gathered = rng.sample(columns, rng.randint(2, 3))
        assert_matches_reference(
            lambda d, t: t.gather(Table(columns, data), "key", "value", gathered),
            f"seed={seed} rows={n_rows} gathered={gathered}",
        )


@pytest.mark.parametrize("seed", range(12))
def test_verbs_match_reference_on_nasty_join(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        left_columns, left_data = nasty_table(rng, n_rows)
        # Share c0/c1 so the natural join has real key columns; c2 renames
        # to a right-only payload column.
        right_columns = ["c0", "c1", "payload"]
        _, right_data = nasty_table(rng, max(0, n_rows - rng.randint(0, 5)))
        assert_matches_reference(
            lambda d, t: d.inner_join(
                Table(left_columns, left_data), Table(right_columns, right_data)
            ),
            f"seed={seed} rows={n_rows}",
        )


@pytest.mark.parametrize("seed", range(12))
def test_verbs_match_reference_on_nasty_summarise(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        columns, data = nasty_table(rng, n_rows)
        aggregator = rng.choice(["n", "sum", "mean", "min", "max"])
        assert_matches_reference(
            lambda d, t: d.summarise(
                d.group_by(Table(columns, data), ["c0"]), "agg", aggregator, "c1"
            ),
            f"seed={seed} rows={n_rows} agg={aggregator}",
        )


@pytest.mark.parametrize("seed", range(12))
def test_verbs_match_reference_on_nasty_spread(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        columns, data = typed_nasty_table(rng, n_rows)
        key, value = rng.sample(columns, 2)
        assert_matches_reference(
            lambda d, t: t.spread(Table(columns, data), key, value),
            f"seed={seed} rows={n_rows} key={key} value={value}",
        )


@pytest.mark.parametrize("seed", range(12))
def test_verbs_match_reference_on_nasty_unite(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        columns, data = typed_nasty_table(rng, n_rows, n_cols=4)
        united = rng.sample(columns, rng.randint(2, 3))
        assert_matches_reference(
            lambda d, t: t.unite(Table(columns, data), "united", united),
            f"seed={seed} rows={n_rows} united={united}",
        )


@pytest.mark.parametrize("seed", range(12))
def test_verbs_match_reference_on_nasty_separate(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        columns, data = typed_nasty_table(rng, n_rows)
        # Joining two nasty cells with "_" gives a splittable column unless a
        # piece formats to the empty string.
        data = [[f"{row[0]}_{row[1]}", row[1], row[2]] for row in data]
        column = rng.choice(columns)
        assert_matches_reference(
            lambda d, t: t.separate(Table(columns, data), column, ["left", "right"]),
            f"seed={seed} rows={n_rows} column={column}",
        )


@pytest.mark.parametrize("seed", range(12))
def test_verbs_match_reference_on_nasty_mutate(seed):
    rng = random.Random(seed)

    def ratio(row, group, column="c1"):
        # Cell over its group's size; text and missing cells give None.
        cell = row[column]
        return cell / group.size if isinstance(cell, (int, float)) else None

    for n_rows in SIZES:
        columns, data = typed_nasty_table(rng, n_rows)
        grouped = rng.random() < 0.5
        assert_matches_reference(
            lambda d, t: d.mutate(
                d.group_by(Table(columns, data), ["c0"]) if grouped else Table(columns, data),
                "ratio",
                ratio,
            ),
            f"seed={seed} rows={n_rows} grouped={grouped}",
        )


def test_verbs_match_reference_on_empty_tables():
    empty = lambda: Table(["a", "b"], [])  # noqa: E731
    assert_matches_reference(
        lambda d, t: d.filter_rows(empty(), Predicate("a", ">", Constant(1))),
        "filter",
    )
    assert_matches_reference(lambda d, t: d.arrange(empty(), ["a"]), "arrange")
    assert_matches_reference(
        lambda d, t: t.gather(empty(), "key", "value", ["a", "b"]), "gather"
    )
    assert_matches_reference(lambda d, t: d.inner_join(empty(), empty()), "join")
    assert_matches_reference(
        lambda d, t: d.summarise(d.group_by(empty(), ["a"]), "agg", "n", None),
        "summarise",
    )


def test_missing_value_comparison_errors_match_reference():
    # The ordered-comparison-with-missing error must be identical on a small
    # and a larger table.
    for n_rows in (4, 64):
        data = [[index, None] for index in range(n_rows)]
        predicate = Predicate("v", "<", Constant(3))
        assert_matches_reference(
            lambda d, t: d.filter_rows(Table(["i", "v"], data), predicate),
            f"rows={n_rows}",
        )
