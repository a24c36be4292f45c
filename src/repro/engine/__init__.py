"""Parallel execution and memoization subsystem.

Three layers live here:

* :mod:`repro.engine.cache` -- the bounded LRU memo tables (with hit/miss
  accounting) backing deduction verdicts, abstraction formulas, and SMT
  satisfiability results.
* :mod:`repro.engine.context` -- :class:`TaskContext`, the per-task bundle
  of swappable process-wide state (intern pool, execution counters, formula
  cache) that keeps interleaved kernels byte-identical to dedicated runs.
* :mod:`repro.engine.parallel` -- scheduling drivers: a
  :class:`KernelInterleaver` that steps many search kernels round-robin in
  one process, a :class:`ParallelRunner` that fans benchmark x
  configuration pairs over a ``multiprocessing`` pool (each worker
  interleaving its batch), :func:`synthesize_batch` for serving many
  examples concurrently, and :func:`synthesize_portfolio` for racing
  several configurations on one example.

The parallel and context layers are imported lazily: :mod:`repro.core` and
:mod:`repro.smt.solver` import the cache primitives from this package, while
:mod:`repro.engine.parallel` imports the synthesizer and
:mod:`repro.engine.context` imports the solver, so an eager import here
would be circular.
"""

from .cache import CacheStats, ExecutionCache, LRUCache

_PARALLEL_EXPORTS = frozenset(
    {
        "KernelInterleaver",
        "ParallelRunner",
        "PortfolioResult",
        "default_job_count",
        "interleave_benchmarks",
        "synthesize_batch",
        "synthesize_portfolio",
    }
)

__all__ = [
    "CacheStats",
    "ExecutionCache",
    "LRUCache",
    "TaskContext",
    *sorted(_PARALLEL_EXPORTS),
]


def __getattr__(name):
    if name in _PARALLEL_EXPORTS:
        from . import parallel

        return getattr(parallel, name)
    if name == "TaskContext":
        # Lazy for the same reason as the parallel exports: the context
        # module imports the SMT solver, which itself imports this package.
        from .context import TaskContext

        return TaskContext
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
