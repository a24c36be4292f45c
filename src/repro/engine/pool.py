"""Worker-pool plumbing for ``--jobs N`` benchmark runs.

:func:`repro.benchmarks.runner.run_pairs` fans benchmark x configuration
pairs over a process pool through the index-preserving pool map
:func:`map_indexed`.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, Sequence


def map_indexed(
    worker,
    tasks: Sequence[tuple],
    jobs: int,
    on_result=None,
) -> Dict[int, object]:
    """Run index-prefixed *tasks* through *worker*, serially or over a pool.

    Results are collected into an index-keyed dict so callers can restore
    input order regardless of completion order.  ``on_result(index, value)``
    fires in the parent as results arrive.  With ``jobs == 1`` (or at most
    one task) the tasks run in this process.
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
    with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
        for index, value in pool.imap_unordered(worker, tasks):
            record(index, value)
    return collected
