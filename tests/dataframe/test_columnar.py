"""Tests for the columnar backend: interning, sharing, fingerprints, memos."""

import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.dataframe import Table
from repro.dataframe.cells import CellType, coerce_value, infer_cell_type, infer_column_type
from repro.dataframe.errors import CellTypeError
from repro.dataframe.interning import (
    clear_intern_pool,
    install_intern_pool,
    intern_pool_size,
    intern_value,
)
from repro.dataframe.profiling import execution_stats
from repro.dataframe.table import coerce_column
from repro.engine.context import TaskContext


class TestInterning:
    def test_equal_cells_share_one_object(self):
        clear_intern_pool()
        left = Table(["a"], [["shared-string"]])
        right = Table(["a"], [["shared-" + "string"]])
        assert left.cell(0, "a") is right.cell(0, "a")

    def test_interning_is_counted(self):
        with TaskContext().active():
            Table(["a"], [["v"], ["v"], ["v"]])
            assert execution_stats().cells_interned == 2

    def test_pool_clears(self):
        Table(["a"], [["x"]])
        assert intern_pool_size() > 0
        clear_intern_pool()
        assert intern_pool_size() == 0


class Label(str):
    """A ``str`` subclass: misses the exact-type fast path."""


NUMERIC_CELLS = (
    lambda rng: rng.randint(-3, 3),
    lambda rng: float(rng.randint(-3, 3)),
    lambda rng: rng.randint(-12, 12) / 8,
    lambda rng: float("nan"),
    lambda rng: rng.choice((math.inf, -math.inf)),
    lambda rng: Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
)
STRING_CELLS = (
    lambda rng: rng.choice(("a", "b", "1", "2.5", "x_1")),
    lambda rng: Label(rng.choice(("a", "c"))),
)
ODD_CELLS = (
    lambda rng: rng.choice((True, False)),
    lambda rng: b"raw",
)


def random_vector(rng: random.Random) -> list:
    """0-12 cells: all numeric, all string, or anything (mixed types)."""
    kinds = rng.choice(
        (NUMERIC_CELLS, STRING_CELLS, NUMERIC_CELLS + STRING_CELLS + ODD_CELLS)
    )
    return [
        None if rng.random() < 0.15 else rng.choice(kinds)(rng)
        for _ in range(rng.randint(0, 12))
    ]


def per_cell_column_type(values):
    """Reference inference: a fold of :func:`infer_cell_type` over the cells."""
    inferred = None
    for value in values:
        value_type = infer_cell_type(value)
        if value_type is None or value_type is inferred:
            continue
        if inferred is not None:
            raise CellTypeError(f"column mixes {inferred.value} and {value_type.value} values")
        inferred = value_type
    return inferred if inferred is not None else CellType.STR


def per_cell_column(values, cell_type):
    """Reference coercion: every cell through coerce_value then intern_value."""
    return tuple(intern_value(coerce_value(value, cell_type)) for value in values)


def run_with_pool(pool, function, *args):
    """``(result, error, cells_interned delta)`` of *function* run against *pool*."""
    previous = install_intern_pool(pool)
    stats = execution_stats()
    before = stats.cells_interned
    result = error = None
    try:
        result = function(*args)
    except CellTypeError as raised:
        error = (type(raised), str(raised))
    finally:
        install_intern_pool(previous)
    return result, error, stats.cells_interned - before


def typed(values):
    """Cells with their exact types (so ``2 != 2.0`` and ``nan`` matches itself)."""
    return [(type(value), repr(value)) for value in values]


def assert_fused_path_matches(rng: random.Random, vectors: int = 60) -> None:
    """coerce_column/infer_column_type agree with the per-cell reference path."""
    pool = {}
    for _ in range(vectors):
        vector = random_vector(rng)
        context = repr(vector)
        inferred = run_with_pool({}, infer_column_type, vector)
        assert inferred == run_with_pool({}, per_cell_column_type, vector), context
        for cell_type in CellType:
            expected_pool, fused_pool = dict(pool), dict(pool)
            cells, error, interned = run_with_pool(fused_pool, coerce_column, vector, cell_type)
            expected = run_with_pool(expected_pool, per_cell_column, vector, cell_type)
            assert error == expected[1], context
            assert interned == expected[2], context
            assert typed(fused_pool) == typed(expected_pool), context
            if error is None:
                assert type(cells) is tuple
                assert typed(cells) == typed(expected[0]), context
                assert all(cell is None or fused_pool[cell] is cell for cell in cells), context
            pool = fused_pool


class TestFusedCellPath:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_cell_coerce_and_intern(self, seed):
        assert_fused_path_matches(random.Random(seed))

    def test_uses_the_pool_a_task_context_installs(self):
        pool_size = intern_pool_size()
        with TaskContext().active() as context:
            cells = coerce_column(["task-local", "task-" + "local", None], CellType.STR)
            assert cells[1] is cells[0]
            assert context.intern_pool == {"task-local": "task-local"}
            assert context.execution.cells_interned == 1
            assert_fused_path_matches(random.Random(99), vectors=20)
        assert intern_pool_size() == pool_size

    def test_constructors_share_the_fused_path(self):
        clear_intern_pool()
        rows = Table(["a", "b"], [[2.0, "x"], [Fraction(1, 2), Label("x")]])
        columns = Table.from_vectors(["a", "b"], [[2, 0.5], ["x", "x"]])
        extended = Table(["a"], [[1], [2]]).with_column("b", [Fraction(3, 1), None])
        assert rows.column_values("a") == (2, 0.5)
        assert type(rows.column_values("a")[0]) is int
        assert rows.column_values("b")[1] is columns.column_values("b")[0]
        assert extended.column_values("b") == (3, None)
        assert extended.col_types == (CellType.NUM, CellType.NUM)


class TestCopyOnWriteSharing:
    def test_select_shares_vectors(self):
        table = Table(["a", "b"], [[1, "x"], [2, "y"]])
        projected = table.select_columns(["b"])
        assert projected.column_values("b") is table.column_values("b")

    def test_grouping_shares_vectors(self):
        table = Table(["a", "b"], [[1, "x"], [2, "y"]])
        grouped = table.with_grouping(["a"])
        assert grouped.column_values("a") is table.column_values("a")
        assert grouped.ungrouped().column_values("b") is table.column_values("b")

    def test_rename_shares_vectors(self):
        table = Table(["a", "b"], [[1, "x"]])
        renamed = table.rename_column("a", "z")
        assert renamed.column_values("z") is table.column_values("a")

    def test_with_column_shares_existing_vectors(self):
        table = Table(["a"], [[1], [2]])
        extended = table.with_column("b", ["x", "y"])
        assert extended.column_values("a") is table.column_values("a")

    def test_take_rows_preserves_types(self):
        table = Table(["a"], [[1.5], [2.5], [3.5]])
        sliced = table.take_rows([2, 0])
        assert sliced.col_types == table.col_types
        assert sliced.column_values("a") == (3.5, 1.5)

    def test_from_vectors_matches_row_major_constructor(self):
        columnar = Table.from_vectors(["a", "b"], [[1, 2.0], ["x", "y"]])
        row_major = Table(["a", "b"], [[1, "x"], [2.0, "y"]])
        assert columnar == row_major
        assert columnar.col_types == row_major.col_types


class TestFingerprint:
    def test_equal_content_equal_fingerprint(self):
        left = Table(["a", "b"], [[1, "x"], [2, "y"]])
        right = Table(["a", "b"], [[1, "x"], [2, "y"]])
        assert left.fingerprint() == right.fingerprint()

    def test_number_formatting_is_canonical(self):
        assert Table(["a"], [[5]]).fingerprint() == Table(["a"], [[5.0]]).fingerprint()

    def test_cell_content_changes_fingerprint(self):
        assert Table(["a"], [[1]]).fingerprint() != Table(["a"], [[2]]).fingerprint()

    def test_grouping_changes_fingerprint(self):
        plain = Table(["a"], [["x"]])
        assert plain.fingerprint() != plain.with_grouping(["a"]).fingerprint()

    def test_row_order_changes_fingerprint_but_not_multiset_digest(self):
        forward = Table(["a"], [[1], [2]])
        backward = Table(["a"], [[2], [1]])
        assert forward.fingerprint() != backward.fingerprint()
        assert forward.row_multiset_digest() == backward.row_multiset_digest()

    def test_string_and_number_cells_are_distinguished(self):
        assert Table(["a"], [["5"]]).fingerprint() != Table(["a"], [[5]]).fingerprint()

    def test_fingerprint_is_memoised(self):
        with TaskContext().active():
            table = Table(["a"], [[1]])
            table.fingerprint()
            misses = execution_stats().fingerprint_misses
            table.fingerprint()
            assert execution_stats().fingerprint_misses == misses
            assert execution_stats().fingerprint_hits >= 1

    def test_fingerprint_is_stable_across_processes(self):
        # --jobs N determinism rests on content-derived digests, so the
        # fingerprint must not depend on PYTHONHASHSEED.
        script = (
            "import sys; sys.path.insert(0, 'src');"
            "from repro.dataframe import Table;"
            "print(Table(['a','b'],[[1,'x'],[2.5,'y']],"
            "group_cols=['a']).fingerprint().hex())"
        )
        digests = set()
        for seed in ("0", "1", "random"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                cwd=str(Path(__file__).resolve().parents[2]),
            )
            digests.add(result.stdout.strip())
        assert len(digests) == 1


class TestMemoisedAttributes:
    def test_spec2_attributes_computed_once(self):
        table = Table(["g", "v"], [["a", 1], ["b", 2], ["a", 3]]).with_grouping(["g"])
        assert table.n_groups == 2
        assert table.n_groups == 2  # second read served from the memo
        assert table.header_set() is table.header_set()
        assert table.value_set() is table.value_set()

    def test_rows_view_is_lazy_and_memoised(self):
        table = Table(["a", "b"], [[1, "x"], [2, "y"]])
        assert table.rows is table.rows
        assert table.rows == ((1, "x"), (2, "y"))
