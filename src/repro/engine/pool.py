"""Worker-pool plumbing for ``--jobs N`` benchmark runs.

:func:`repro.benchmarks.runner.run_pairs` fans benchmark x configuration
pairs over a process pool and needs two pieces:

* the knowledge-base pool initializer (sqlite connections must not cross
  ``fork``/``spawn`` boundaries, so each worker opens its own handle) and
  its in-process counterpart :func:`installed_kb`, and
* the index-preserving pool map :func:`map_indexed`.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from typing import Dict, Optional, Sequence


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


@contextmanager
def installed_kb(kb_path: Optional[str]):
    """Open the knowledge base at *kb_path* as the process default for a block.

    Serial runs execute in this process, where no pool initializer fires.
    The KB is installed for the block only: afterwards the previous default
    is restored and the KB is closed, which flushes its batched writes.
    ``kb_path=None`` leaves the process default untouched.
    """
    if kb_path is None:
        yield
        return
    from .kb import KnowledgeBase, install_kb

    kb = KnowledgeBase(kb_path)
    previous = install_kb(kb)
    try:
        yield
    finally:
        install_kb(previous)
        kb.close()


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
    on_result=None,
    initializer=None,
    initargs=(),
) -> Dict[int, object]:
    """Run index-prefixed *tasks* through *worker*, serially or over a pool.

    Results are collected into an index-keyed dict so callers can restore
    input order regardless of completion order.  ``on_result(index, value)``
    fires in the parent as results arrive.  With ``jobs == 1`` (or at most
    one task) the tasks run in this process and *initializer* does not fire.
    """
    collected: Dict[int, object] = {}

    def record(index, value) -> None:
        collected[index] = value
        if on_result is not None:
            on_result(index, value)

    if jobs == 1 or len(tasks) <= 1:
        for task in tasks:
            record(*worker(task))
        return collected
    with multiprocessing.Pool(
        processes=min(jobs, len(tasks)), initializer=initializer, initargs=initargs
    ) as pool:
        for index, value in pool.imap_unordered(worker, tasks):
            record(index, value)
    return collected
