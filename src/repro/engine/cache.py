"""Bounded memoization primitives shared by the deduction hot path.

Every layer of the deduction stack -- verdicts in
:class:`~repro.core.deduction.DeductionEngine`, abstraction formulas in
:mod:`repro.core.abstraction`, and satisfiability results in
:mod:`repro.smt.solver` -- re-derives the same values thousands of times per
synthesis run.  :class:`LRUCache` gives each of them a bounded memo table with
uniform hit/miss accounting, so the benchmark harness can report how much of
the analysis work was deduplicated.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, Hashable, Optional, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: Sentinel distinguishing "not cached" from a cached ``None``/``False``.
_MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one memo table."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of cache probes."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered from the cache (0.0 when never probed)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        """An independent copy (the baseline of a per-run slice)."""
        return CacheStats(self.hits, self.misses, self.evictions)

    def since(self, baseline: "CacheStats") -> "CacheStats":
        """The delta between this snapshot and an earlier *baseline*.

        Used to attribute a slice of a process-wide cache's activity (for
        example the SMT formula cache) to one synthesis run.
        """
        return CacheStats(
            self.hits - baseline.hits,
            self.misses - baseline.misses,
            self.evictions - baseline.evictions,
        )

    def clear(self) -> None:
        """Reset all counters to zero."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0


#: Default bound of one :class:`ExecutionCache` (entries hold whole tables,
#: but candidate programs revisit a small universe of intermediate results).
EXECUTION_CACHE_SIZE = 16384


class ExecutionCache:
    """Fingerprint-keyed memo of concrete component executions.

    The partial evaluator executes the same ``component(tables, args)``
    application for many *different* hypotheses: two candidate programs whose
    sub-programs produce structurally identical intermediate tables repeat
    exactly the same concrete work above them.  This cache keys each
    execution by ``(component, node id, input-table fingerprints, argument
    values)`` -- the table *contents* rather than the sub-hypothesis that
    produced them -- so identical intermediate tables share one execution
    (and one result object, which in turn shares its memoised fingerprints
    and comparison digests downstream).

    Failed executions are cached too: the stored value is a
    traceback-free ``EvaluationFailure`` whose message every hit re-raises
    as a fresh exception.

    With a knowledge-base view attached (warm start,
    :mod:`repro.engine.kb`), a local miss falls through to the disk tier
    and every execution is written back, so identical work in a *later
    process* is answered from disk.  The local hit/miss counters see only
    the in-memory probe: a key's first probe is a miss whether the result
    is then computed or restored from the KB, so the deterministic counter
    block stays byte-identical between cold and warm runs.
    """

    __slots__ = ("_results", "_kb")

    def __init__(
        self,
        maxsize: Optional[int] = EXECUTION_CACHE_SIZE,
        stats: Optional[CacheStats] = None,
        kb=None,
    ) -> None:
        self._results: "LRUCache[tuple, object]" = LRUCache(maxsize=maxsize, stats=stats)
        self._kb = kb

    @property
    def stats(self) -> CacheStats:
        """Hit/miss counters of the execution memo."""
        return self._results.stats

    def get(self, key: tuple):
        """The cached result (table or failure) for *key*, or ``None``."""
        result = self._results.get(key)
        if result is None and self._kb is not None:
            result = self._kb.get_execution(key)
            if result is not None:
                self._results.put(key, result)
        return result

    def put(self, key: tuple, result: object) -> None:
        """Record the execution result (table or failure) for *key*."""
        self._results.put(key, result)
        if self._kb is not None:
            self._kb.put_execution(key, result)

    def clear(self) -> None:
        """Drop every memoised execution (counters are left untouched)."""
        self._results.clear()


class LRUCache(Generic[K, V]):
    """A size-bounded mapping with least-recently-used eviction.

    ``maxsize=None`` disables eviction (unbounded memoization); ``maxsize=0``
    disables caching entirely while keeping the miss accounting, which lets
    callers turn a cache off without touching the call sites.
    """

    __slots__ = ("maxsize", "stats", "_data")

    def __init__(self, maxsize: Optional[int] = 4096, stats: Optional[CacheStats] = None) -> None:
        if maxsize is not None and maxsize < 0:
            raise ValueError(f"maxsize must be None or >= 0, got {maxsize}")
        self.maxsize = maxsize
        self.stats = stats if stats is not None else CacheStats()
        self._data: "OrderedDict[K, V]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """Look up *key*, recording a hit or a miss."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.stats.misses += 1
            return default
        self.stats.hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> None:
        """Insert or refresh a cache entry, evicting the LRU entry when full."""
        if self.maxsize == 0:
            return
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if self.maxsize is not None and len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (the counters are left untouched)."""
        self._data.clear()
