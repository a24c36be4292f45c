"""Shared worker-pool plumbing for the process-parallel scheduler.

:mod:`repro.engine.parallel` (inter-task fan-out: many benchmarks over a
pool, ``--jobs N``) needs three pieces:

* job-count resolution (``jobs=None`` means one worker per CPU),
* the knowledge-base pool initializer (sqlite connections must not cross
  ``fork``/``spawn`` boundaries, so each worker opens its own handle), and
* the generic index-preserving pool map helpers.

``repro.engine.parallel`` re-exports them under its historical names for
backward compatibility.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Dict, Optional, Sequence


def default_job_count() -> int:
    """Worker count used when ``jobs`` is not given (one per CPU)."""
    return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Validate an explicit worker count, or default to one per CPU."""
    if jobs is None:
        return default_job_count()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def init_worker_kb(kb_path: str) -> None:
    """Pool initializer: open this worker's own warm-start knowledge base.

    sqlite connections must not cross ``fork``/``spawn`` boundaries, so each
    worker process opens the shared file itself (WAL journaling arbitrates
    the concurrent writers).  The handle is installed as the process default,
    which freshly created :class:`~repro.engine.context.TaskContext` objects
    inherit.
    """
    from .kb import KnowledgeBase, set_default_kb

    set_default_kb(KnowledgeBase(kb_path))


def pool_initializer(kb_path: Optional[str]) -> tuple:
    """The ``(initializer, initargs)`` pair for worker pools.

    ``kb_path=None`` (no warm-start KB) yields ``(None, ())`` -- the shape
    ``multiprocessing.Pool`` accepts for "no initializer".
    """
    if kb_path is None:
        return None, ()
    return init_worker_kb, (kb_path,)


def map_indexed(
    worker,
    tasks: Sequence[tuple],
    jobs: int,
    start_method: Optional[str] = None,
    on_result=None,
    stop=None,
    initializer=None,
    initargs=(),
) -> Dict[int, object]:
    """Run index-prefixed *tasks* through *worker*, serially or over a pool.

    Results are collected into an index-keyed dict so callers can restore
    input order regardless of completion order.  ``on_result(index, value)``
    fires in the parent as results arrive; ``stop(index, value)`` returning
    true ends the run early (remaining pool workers are terminated).
    """
    collected: Dict[int, object] = {}

    def record(index, value) -> bool:
        collected[index] = value
        if on_result is not None:
            on_result(index, value)
        return stop is not None and stop(index, value)

    if jobs == 1 or len(tasks) <= 1:
        for task in tasks:
            index, value = worker(task)
            if record(index, value):
                break
        return collected
    context = (
        multiprocessing.get_context(start_method)
        if start_method is not None
        else multiprocessing
    )
    with context.Pool(
        processes=min(jobs, len(tasks)), initializer=initializer, initargs=initargs
    ) as pool:
        for index, value in pool.imap_unordered(worker, tasks):
            if record(index, value):
                # Exiting the with-block terminates the remaining workers.
                break
    return collected


def map_batched(
    worker,
    batch_tasks: Sequence[tuple],
    jobs: int,
    start_method: Optional[str] = None,
    on_result=None,
    initializer=None,
    initargs=(),
) -> Dict[int, object]:
    """Run batch workers (each returning ``[(index, value), ...]``) and flatten."""
    collected: Dict[int, object] = {}

    def record(results) -> None:
        for index, value in results:
            collected[index] = value
            if on_result is not None:
                on_result(index, value)

    if jobs == 1 or len(batch_tasks) <= 1:
        for task in batch_tasks:
            record(worker(task))
        return collected
    context = (
        multiprocessing.get_context(start_method)
        if start_method is not None
        else multiprocessing
    )
    with context.Pool(
        processes=min(jobs, len(batch_tasks)),
        initializer=initializer,
        initargs=initargs,
    ) as pool:
        for results in pool.imap_unordered(worker, batch_tasks):
            record(results)
    return collected
