"""Table equivalence used by the synthesizer's ``CHECK`` step.

Stack Overflow posters rarely care about row order, and the column order of a
``spread`` result depends on the key ordering, so the synthesizer compares the
candidate output against the expected output with configurable leniency.  The
default (:data:`DEFAULT_POLICY`) ignores row order but requires identical
column names; this matches how the paper's motivating examples are judged
(Example 3 uses an explicit ``arrange`` when the asker requested an order).

Comparisons are layered for speed, because CHECK runs on thousands of
candidate outputs per synthesis task:

1. shape prechecks (rows/columns) reject most candidates immediately;
2. a **digest fast path** -- the memoised
   :meth:`~repro.dataframe.table.Table.row_multiset_digest` and per-column
   :meth:`~repro.dataframe.table.Table.column_multiset_keys` -- decides
   shape-compatible comparisons without walking cells (equal digests
   guarantee a multiset match; a mismatched column-key multiset guarantees
   no bijection exists);
3. only float-noise edge cases fall through to the tolerant cell-by-cell
   comparison, which is unchanged and keeps the verdicts bit-identical to
   the row-major implementation.

Fast-path activity is counted in
:mod:`repro.dataframe.profiling` (``compare_fastpath_hits``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Set

from .cells import value_sort_key, values_equal
from .profiling import execution_stats
from .table import Table


@dataclass(frozen=True)
class ComparePolicy:
    """How strictly two tables are compared.

    Attributes
    ----------
    ignore_row_order:
        Treat rows as a multiset rather than a sequence.
    ignore_col_order:
        Allow columns to appear in a different order (names must still match).
    ignore_col_names:
        Compare by position only; column names are not required to match.
        (Used by the SQL baseline, whose synthesized aggregate columns have
        machine-generated names.)
    """

    ignore_row_order: bool = True
    ignore_col_order: bool = False
    ignore_col_names: bool = False


#: The policy used by the synthesizer unless a task overrides it.
DEFAULT_POLICY = ComparePolicy()

#: Strict, positional comparison (exact reproduction of Definition 1 equality).
STRICT_POLICY = ComparePolicy(ignore_row_order=False, ignore_col_order=False)

#: Lenient comparison used for the SQL baseline of Figure 18.
POSITIONAL_POLICY = ComparePolicy(ignore_row_order=True, ignore_col_order=False, ignore_col_names=True)


def _rows_equal(left, right) -> bool:
    return all(values_equal(lvalue, rvalue) for lvalue, rvalue in zip(left, right))


def _multiset_rows_equal(left_rows, right_rows) -> bool:
    def canonical(rows):
        return sorted(
            rows, key=lambda row: tuple(value_sort_key(value) for value in row)
        )

    left_sorted = canonical(left_rows)
    right_sorted = canonical(right_rows)
    return all(_rows_equal(lrow, rrow) for lrow, rrow in zip(left_sorted, right_sorted))


def _multiset_tables_equal(left: Table, right: Table) -> bool:
    """Order-insensitive row comparison with the digest fast path."""
    if left.row_multiset_digest() == right.row_multiset_digest():
        execution_stats().compare_fastpath_hits += 1
        return True
    execution_stats().compare_fastpath_misses += 1
    return _multiset_rows_equal(left.rows, right.rows)


def align_columns(actual: Table, expected: Table):
    """Find a permutation of *actual*'s columns matching *expected*.

    Synthesized programs give machine-generated names to new columns, so the
    candidate output is compared to the expected output up to a bijection
    between columns.  Returns the list of actual column names in expected
    order, or ``None`` if no alignment reproduces the expected rows (as a
    multiset).

    Columns with matching names are preferred; the remaining columns are
    matched by backtracking over columns with identical value multisets.
    """
    if actual.n_rows != expected.n_rows or actual.n_cols != expected.n_cols:
        return None

    actual_keys = actual.column_multiset_keys()
    expected_keys = expected.column_multiset_keys()

    # Prefilter: a bijection pairs every expected column with a distinct
    # actual column of equal value multiset, so unequal key multisets rule
    # out any alignment without touching cells.
    if Counter(actual_keys) != Counter(expected_keys):
        execution_stats().compare_fastpath_hits += 1
        return None

    expected_count = expected.n_cols
    candidates = []
    for expected_index in range(expected_count):
        expected_name = expected.columns[expected_index]
        fingerprint = expected_keys[expected_index]
        matching = [
            actual_index
            for actual_index in range(actual.n_cols)
            if actual_keys[actual_index] == fingerprint
        ]
        if not matching:
            return None
        # Prefer a same-named column when one exists.
        matching.sort(key=lambda index: (actual.columns[index] != expected_name, index))
        candidates.append(matching)

    assignment = [None] * expected_count
    if _backtrack_alignment(0, candidates, assignment, set(), actual, expected):
        return [actual.columns[i] for i in assignment]
    return None


def _backtrack_alignment(
    position: int,
    candidates: List[List[int]],
    assignment: List[Optional[int]],
    used: Set[int],
    actual: Table,
    expected: Table,
) -> bool:
    """Extend *assignment* from *position* on to a bijection that matches."""
    if position == len(candidates):
        aligned = actual.select_columns([actual.columns[i] for i in assignment])
        return _multiset_tables_equal(aligned, expected)
    for actual_index in candidates[position]:
        if actual_index in used:
            continue
        used.add(actual_index)
        assignment[position] = actual_index
        if _backtrack_alignment(position + 1, candidates, assignment, used, actual, expected):
            return True
        used.discard(actual_index)
    return False


def tables_match_for_synthesis(actual: Table, expected: Table) -> bool:
    """The CHECK used by the synthesizer: rows as a multiset, columns up to renaming."""
    if actual.shape == expected.shape and actual.columns == expected.columns:
        # Identity alignment: equal digests prove the match outright.
        if actual.row_multiset_digest() == expected.row_multiset_digest():
            execution_stats().compare_fastpath_hits += 1
            return True
    return align_columns(actual, expected) is not None


def tables_equivalent(
    actual: Table, expected: Table, policy: ComparePolicy = DEFAULT_POLICY
) -> bool:
    """Return ``True`` if *actual* matches *expected* under *policy*."""
    if actual.n_rows != expected.n_rows or actual.n_cols != expected.n_cols:
        return False

    if policy.ignore_col_names:
        pass
    elif policy.ignore_col_order:
        if actual.header_set() != expected.header_set():
            return False
        actual = actual.select_columns(list(expected.columns))
    else:
        if actual.columns != expected.columns:
            return False

    if policy.ignore_row_order:
        if policy.ignore_col_names:
            # Positional comparison: digests include cell contents only per
            # row, so they remain sound without the column-name check.
            if actual.row_multiset_digest() == expected.row_multiset_digest():
                execution_stats().compare_fastpath_hits += 1
                return True
            execution_stats().compare_fastpath_misses += 1
            return _multiset_rows_equal(actual.rows, expected.rows)
        return _multiset_tables_equal(actual, expected)
    if actual.fingerprint() == expected.fingerprint():
        execution_stats().compare_fastpath_hits += 1
        return True
    execution_stats().compare_fastpath_misses += 1
    return all(_rows_equal(arow, erow) for arow, erow in zip(actual.rows, expected.rows))
