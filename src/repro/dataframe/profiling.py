"""Process-wide counters for the concrete-execution side of the search.

The deduction stack already reports its work through
:class:`~repro.engine.cache.CacheStats`; this module gives the *concrete*
side -- table construction, value interning, fingerprinting, component
execution and output comparison -- the same treatment.  A single
process-wide :class:`ExecutionStats` instance accumulates counters; a search
kernel reads :meth:`ExecutionStats.counters` when it opens its counting
window and reports the change since (see ``SearchKernel.execution_window``).

All counters are deterministic for a fixed synthesis problem, provided the
problem starts from an empty intern pool and zeroed counters.  Every
synthesis session gets exactly that from its own
:class:`~repro.engine.context.TaskContext`, which installs a private counter
block (:func:`install_execution_stats`) and intern pool while the session
runs, so the benchmark harness can compare counters byte-for-byte between
serial and ``--jobs N`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..engine.cache import CacheStats


@dataclass
class ExecutionStats:
    """Counters describing concrete-execution work (tables, cells, compares)."""

    #: Tables constructed (validating and shared-vector constructors alike).
    tables_built: int = 0
    #: Cell values deduplicated against the intern pool (pool hits).
    cells_interned: int = 0
    #: ``Table.fingerprint()`` calls answered from the per-table memo.
    fingerprint_hits: int = 0
    #: ``Table.fingerprint()`` calls that had to hash the table.
    fingerprint_misses: int = 0
    #: Table comparisons decided by a digest precheck (no cell-by-cell walk).
    compare_fastpath_hits: int = 0
    #: Shape-compatible comparisons that fell back to the tolerant slow path.
    compare_fastpath_misses: int = 0
    #: Hit/miss accounting of the fingerprint-keyed component-execution memo.
    exec_cache: CacheStats = field(default_factory=CacheStats)

    def counters(self) -> Dict[str, int]:
        """The counters a run reports, under their names in the session schema."""
        return {
            "tables_built": self.tables_built,
            "cells_interned": self.cells_interned,
            "fingerprint_hits": self.fingerprint_hits,
            "exec_cache_hits": self.exec_cache.hits,
            "compare_fastpath_hits": self.compare_fastpath_hits,
        }


#: The process-wide counter instance (a run counts the change over its window).
_EXECUTION_STATS = ExecutionStats()


def execution_stats() -> ExecutionStats:
    """The process-wide execution counters."""
    return _EXECUTION_STATS


def install_execution_stats(stats: ExecutionStats) -> ExecutionStats:
    """Swap the process-wide counter instance, returning the previous one.

    Used by :class:`repro.engine.context.TaskContext` to give each
    session its own counter block, so per-task counters are independent of
    what else ran in the process.
    """
    global _EXECUTION_STATS
    previous = _EXECUTION_STATS
    _EXECUTION_STATS = stats
    return previous
