"""A process-wide intern pool for cell values.

Every cell that enters a :class:`~repro.dataframe.table.Table` through a
validating constructor is interned -- by
:func:`~repro.dataframe.table.coerce_column`, the per-column form of
:func:`intern_value` -- so equal cells share one Python object across all
live tables.  Synthesis executes thousands of candidate programs over the
same handful of example tables, and almost every value a verb produces
already occurred somewhere upstream -- interning collapses that into
pointer sharing, which both bounds memory and makes the identity-based fast
paths (dict buckets, ``is`` checks inside tuple comparison) fire far more
often.

The pool maps a value to its canonical instance.  Only hashable cell values
exist (``int``/``float``/``str``/``None``), and numeric cells are already
normalised by :func:`~repro.dataframe.cells.coerce_value` before interning,
so a plain dict keyed by the value itself is sufficient.  ``None`` passes
through untouched (the runtime already has exactly one of it).

The pool is process-wide and therefore warm across tasks, except that each
synthesis session installs a private, initially empty pool through its
:class:`~repro.engine.context.TaskContext` (see :func:`install_intern_pool`)
so the ``cells_interned`` counter stays deterministic under ``--jobs N``.
For long-lived users of the process-wide pool, it is size-capped: once
full it keeps deduplicating against the values it already holds but admits
no new ones, so memory stays bounded while behaviour (sharing is a pure
optimisation) is unchanged.
"""

from __future__ import annotations

from typing import Dict

from .cells import CellValue
from .profiling import execution_stats

#: value -> canonical shared instance.
_POOL: Dict[CellValue, CellValue] = {}

#: Distinct values the pool may hold before it stops admitting new ones.
#: The cap is deterministic (a pure function of the insertion sequence), so
#: capped runs still report identical counters serial vs ``--jobs N``.
POOL_CAPACITY = 1 << 20


def intern_value(value: CellValue) -> CellValue:
    """Return the canonical shared instance of *value*.

    The first occurrence of a value becomes its canonical instance; later
    equal values are replaced by it (and counted as ``cells_interned``).
    ``None`` passes through untouched.
    """
    if value is None:
        return None
    canonical = _POOL.get(value)
    if canonical is None:
        if len(_POOL) < POOL_CAPACITY:
            _POOL[value] = value
        return value
    execution_stats().cells_interned += 1
    return canonical


def intern_pool_size() -> int:
    """Number of distinct values currently held by the pool."""
    return len(_POOL)


def clear_intern_pool() -> None:
    """Drop every pooled value (live tables keep their own references)."""
    _POOL.clear()


def install_intern_pool(pool: Dict[CellValue, CellValue]) -> Dict[CellValue, CellValue]:
    """Swap the process-wide pool, returning the previous one.

    Used by :class:`repro.engine.context.TaskContext` to give each session
    its own pool: sharing is a pure optimisation, but the ``cells_interned``
    counter depends on pool warmth, so per-task pools keep the counter
    independent of what else ran in the process.
    """
    global _POOL
    previous = _POOL
    _POOL = pool
    return previous
