"""Process-wide counters for the concrete-execution side of the search.

The deduction stack already reports its work through
:class:`~repro.engine.cache.CacheStats`; this module gives the *concrete*
side -- table construction, value interning, fingerprinting, component
execution and output comparison -- the same treatment.  A single
process-wide :class:`ExecutionStats` instance accumulates counters; callers
that need a per-run slice snapshot it before the run and diff afterwards
(the same ``snapshot()``/``since()`` discipline the SMT formula cache uses).

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

    @property
    def fingerprint_lookups(self) -> int:
        """Total number of ``fingerprint()`` calls."""
        return self.fingerprint_hits + self.fingerprint_misses

    @property
    def exec_cache_hits(self) -> int:
        """Component executions answered from the fingerprint-keyed memo."""
        return self.exec_cache.hits

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate another stats object into this one."""
        self.tables_built += other.tables_built
        self.cells_interned += other.cells_interned
        self.fingerprint_hits += other.fingerprint_hits
        self.fingerprint_misses += other.fingerprint_misses
        self.compare_fastpath_hits += other.compare_fastpath_hits
        self.compare_fastpath_misses += other.compare_fastpath_misses
        self.exec_cache.merge(other.exec_cache)

    def snapshot(self) -> "ExecutionStats":
        """An independent copy (for per-run slicing)."""
        copy = ExecutionStats(
            self.tables_built,
            self.cells_interned,
            self.fingerprint_hits,
            self.fingerprint_misses,
            self.compare_fastpath_hits,
            self.compare_fastpath_misses,
            self.exec_cache.snapshot(),
        )
        return copy

    def since(self, baseline: "ExecutionStats") -> "ExecutionStats":
        """The delta between this snapshot and an earlier *baseline*."""
        return ExecutionStats(
            self.tables_built - baseline.tables_built,
            self.cells_interned - baseline.cells_interned,
            self.fingerprint_hits - baseline.fingerprint_hits,
            self.fingerprint_misses - baseline.fingerprint_misses,
            self.compare_fastpath_hits - baseline.compare_fastpath_hits,
            self.compare_fastpath_misses - baseline.compare_fastpath_misses,
            self.exec_cache.since(baseline.exec_cache),
        )

    def clear(self) -> None:
        """Reset every counter to zero."""
        self.tables_built = 0
        self.cells_interned = 0
        self.fingerprint_hits = 0
        self.fingerprint_misses = 0
        self.compare_fastpath_hits = 0
        self.compare_fastpath_misses = 0
        self.exec_cache.clear()


#: The process-wide counter instance (sliced per run via snapshot/since).
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
