"""Memoization, per-task isolation and warm-start subsystem.

Four layers live here:

* :mod:`repro.engine.cache` -- the bounded LRU memo tables (with hit/miss
  accounting) backing deduction verdicts, abstraction formulas, and SMT
  satisfiability results.
* :mod:`repro.engine.context` -- :class:`TaskContext`, the per-task bundle
  of swappable process-wide state (intern pool, execution counters, formula
  cache, knowledge base) that every :class:`repro.api.SynthesisSession`
  runs its search in, so a task's programs and counters do not depend on
  what else ran in the process.
* :mod:`repro.engine.kb` -- the sqlite warm-start knowledge base.
* :mod:`repro.engine.pool` -- the worker-pool plumbing behind
  ``--jobs N`` (:func:`repro.benchmarks.runner.run_pairs`).

The context layer is imported lazily: :mod:`repro.core` and
:mod:`repro.smt.solver` import the cache primitives from this package, while
:mod:`repro.engine.context` imports the solver, so an eager import here
would be circular.
"""

from .cache import CacheStats, ExecutionCache, LRUCache

__all__ = [
    "CacheStats",
    "ExecutionCache",
    "LRUCache",
    "TaskContext",
]


def __getattr__(name):
    if name == "TaskContext":
        from .context import TaskContext

        return TaskContext
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
