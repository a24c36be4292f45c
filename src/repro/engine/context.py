"""Per-task isolation of the process-wide execution state.

Three pieces of process-wide state feed the deterministic per-task counters
the benchmark harness diffs byte-for-byte: the value intern pool
(:mod:`repro.dataframe.interning`), the execution counter block
(:mod:`repro.dataframe.profiling`), and the SMT formula cache
(:mod:`repro.smt.solver`).  Nothing resets them between tasks; instead
each task gets its own copies, installed whenever its kernel runs.

:class:`TaskContext` packages them (plus the task's knowledge-base handle)
into one swappable unit; every :class:`repro.api.SynthesisSession` owns
one.  A kernel constructed and stepped inside ``with context.active():``
observes exactly the state a dedicated, fresh process would have observed,
so its counters (and, because caches only affect *work*, its synthesized
programs) do not depend on what else ran in the process.  Activation is
cheap -- four module globals are swapped, no data is copied -- which is
what makes stepping many sessions round-robin in one process (the
service's scheduler) affordable.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..dataframe.interning import install_intern_pool
from ..dataframe.profiling import ExecutionStats, install_execution_stats
from ..smt.solver import install_formula_cache, new_formula_cache
from .kb import current_kb, install_kb


class TaskContext:
    """Isolated intern pool + execution counters + formula cache for one task.

    The context also carries the task's knowledge-base handle
    (:mod:`repro.engine.kb`): ``kb=None`` inherits whatever KB is active when
    the context is *created* (usually the process default set by the CLI or
    a pool initializer), so round-robin sessions keep their warm-start tier
    across install/uninstall swaps without any per-call plumbing.
    """

    __slots__ = (
        "execution",
        "intern_pool",
        "formula_cache",
        "kb",
        "_previous",
    )

    def __init__(self, kb=None) -> None:
        self.execution = ExecutionStats()
        self.intern_pool: dict = {}
        self.formula_cache = new_formula_cache()
        self.kb = kb if kb is not None else current_kb()
        self._previous = None

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Swap this context's state into the process globals."""
        if self._previous is not None:
            raise RuntimeError("TaskContext is already installed")
        self._previous = (
            install_execution_stats(self.execution),
            install_intern_pool(self.intern_pool),
            install_formula_cache(self.formula_cache),
            install_kb(self.kb),
        )

    def uninstall(self) -> None:
        """Restore the state that was installed before :meth:`install`."""
        if self._previous is None:
            raise RuntimeError("TaskContext is not installed")
        execution, pool, cache, kb = self._previous
        self._previous = None
        install_execution_stats(execution)
        install_intern_pool(pool)
        install_formula_cache(cache)
        install_kb(kb)

    @contextmanager
    def active(self):
        """Run a block with this context's state installed."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
