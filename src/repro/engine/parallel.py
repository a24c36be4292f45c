"""Process-parallel and interleaved synthesis drivers.

Two scheduling layers live here:

* :class:`KernelInterleaver` -- cooperative, single-process scheduling: one
  :class:`~repro.core.frontier.SearchKernel` per task, stepped round-robin
  in bounded slices.  Each kernel runs inside its own
  :class:`~repro.engine.context.TaskContext` (private intern pool, formula
  cache and execution counters) and is charged *active* time only, so its
  search -- programs **and** counters -- is byte-identical to a dedicated
  process running the task alone, while a fast task no longer waits behind
  a slow one.
* :class:`ParallelRunner` -- process-level fan-out: benchmark x
  configuration pairs are split into batches, each worker process
  interleaves the kernels of its batch.  ``--jobs N`` therefore interleaves
  kernel steps instead of whole tasks; ``interleave=False`` restores the
  one-task-at-a-time workers.

:func:`synthesize_batch` serves many input-output examples concurrently and
returns the results in input order; :func:`synthesize_portfolio` races
several configurations on one example and returns as soon as any of them
finds a program.

Workers are plain top-level functions so they pickle under every start
method.  Conflict-driven lemma state never crosses task boundaries: lemmas
rest on one example's formulas and live on the per-kernel deduction engine,
so every task mines its own lemmas from scratch and a ``--jobs N`` suite run
is bit-identical to the serial one -- including the lemma-prune, SMT-call,
OE-merge and frontier counters on each outcome.  (The one timing-sensitive
edge, unchanged from whole-task scheduling: a task whose solve time
approaches the per-task budget may flip to a timeout when workers
oversubscribe the CPUs, and a timed-out task's counters depend on where the
budget cut the search.)
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..benchmarks.runner import (
    BenchmarkOutcome,
    SuiteRun,
    outcome_from_result,
    run_benchmark,
)
from ..benchmarks.suite import Benchmark, BenchmarkSuite
from ..core.synthesizer import Example, Morpheus, SynthesisConfig, SynthesisResult
from ..dataframe.profiling import reset_execution_state
from ..smt.solver import clear_formula_cache
from .context import TaskContext
from .pool import (
    default_job_count as default_job_count,  # re-exported (repro.engine)
    installed_kb,
    map_batched,
    map_indexed,
    pool_initializer,
    resolve_jobs,
)

#: A unit of benchmark work: (benchmark, configuration, label, library).
BenchmarkPair = Tuple[Benchmark, SynthesisConfig, str, object]

#: Kernel steps one interleaved task runs before yielding to the next.
#: Small enough that no task monopolises its worker for long (one step is at
#: most one deduction query), large enough that context switches stay noise.
DEFAULT_SLICE_STEPS = 64

#: Batches dealt to each pool worker over a run (smaller batches improve
#: progress granularity, larger ones improve interleaving fairness).
BATCHES_PER_WORKER = 4


def _coerce_example(example) -> Example:
    if isinstance(example, Example):
        return example
    inputs, output = example
    return Example.make(inputs, output)


# ----------------------------------------------------------------------
# KernelInterleaver: cooperative stepping of many kernels in one process
# ----------------------------------------------------------------------
@dataclass
class _InterleavedTask:
    """One kernel's scheduling state inside the interleaver."""

    index: int
    example: Optional[Example] = None
    morpheus: Optional[Morpheus] = None
    context: TaskContext = field(default_factory=TaskContext)
    kernel: object = None
    result: Optional[SynthesisResult] = None
    #: Externally managed task: any object with ``advance(max_steps) -> bool``
    #: (True when finished).  The driver owns its own kernel, context and
    #: budget accounting; the interleaver only provides the round-robin slot.
    driver: object = None


class KernelInterleaver:
    """Steps many search kernels round-robin inside one process.

    Tasks are added with :meth:`add` and driven by :meth:`run` -- or, for
    long-lived callers like the synthesis service, by repeated :meth:`pump`
    calls: one round-robin pass per call, with new tasks allowed to join the
    rotation at any time (``add``/``add_driver`` are safe to call from other
    threads while one thread pumps).  Each task's kernel is constructed,
    stepped and finalised inside that task's :class:`TaskContext`, and its
    per-task wall-clock budget (``config.timeout``) is charged against
    *active* time -- the seconds its own steps consumed -- not against the
    shared wall clock, so interleaved tasks neither starve nor subsidise one
    another.
    """

    def __init__(self, slice_steps: int = DEFAULT_SLICE_STEPS) -> None:
        if slice_steps < 1:
            raise ValueError(f"slice_steps must be >= 1, got {slice_steps}")
        self.slice_steps = slice_steps
        self._tasks: List[_InterleavedTask] = []
        self._pending: deque = deque()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._tasks)

    @property
    def unfinished(self) -> int:
        """Tasks still waiting for (more) pump passes."""
        return len(self._pending)

    def _register(self, task: _InterleavedTask) -> int:
        with self._lock:
            if task.driver is None:
                task.index = len(self._tasks)
                self._tasks.append(task)
            # Driver-backed tasks live only in the pending rotation: they are
            # dropped outright when their driver finishes (a long-lived
            # service re-enrolls resumed sessions with a fresh registration),
            # so the interleaver never pins a finished session's kernel, OE
            # store or tables in memory.
            self._pending.append(task)
        return task.index

    def add(
        self,
        example,
        config: Optional[SynthesisConfig] = None,
        library=None,
    ) -> int:
        """Register a task; returns its index (results come back in order)."""
        return self._register(
            _InterleavedTask(
                index=-1,
                example=_coerce_example(example),
                morpheus=Morpheus(library=library, config=config, _sanctioned=True),
            )
        )

    def add_driver(self, driver) -> int:
        """Register an externally managed task.

        *driver* is any object with ``advance(max_steps) -> bool`` returning
        ``True`` when the task is finished.  The driver owns its kernel,
        context and budget; the interleaver contributes only the fair
        round-robin slicing.  This is how the synthesis service enrolls
        long-lived sessions (whose kernels are replaced across
        snapshot/restore resumes) into the same scheduler that drives
        benchmark batches.

        Unlike :meth:`add`, a driver task joins only the pending rotation
        (there is no result to collect in :meth:`run` order), so the returned
        index is always ``-1`` and the task is released as soon as its
        ``advance`` reports completion.

        A driver may also define ``fail(error)``: when its ``advance``
        raises, :meth:`pump` hands it the exception, drops it from the
        rotation and keeps slicing the others.  Without ``fail`` the
        exception propagates to the pump's caller.
        """
        return self._register(_InterleavedTask(index=-1, driver=driver))

    # ------------------------------------------------------------------
    def pump(
        self,
        on_result: Optional[Callable[[int, SynthesisResult], None]] = None,
    ) -> int:
        """One round-robin pass over the unfinished tasks.

        Every task pending at the start of the pass gets one slice; finished
        tasks leave the rotation (kernel tasks fire ``on_result``).  Returns
        the number of tasks still unfinished.  Only one thread may pump at a
        time; concurrent :meth:`add`/:meth:`add_driver` calls join the next
        pass.
        """
        with self._lock:
            rotation = len(self._pending)
        for _ in range(rotation):
            with self._lock:
                if not self._pending:
                    break
                task = self._pending.popleft()
            if task.driver is not None:
                try:
                    finished = task.driver.advance(self.slice_steps)
                except Exception as error:
                    fail = getattr(task.driver, "fail", None)
                    if fail is None:
                        raise
                    fail(error)
                    finished = True
            else:
                finished = self._advance(task)
            if finished:
                if task.driver is None and on_result is not None:
                    on_result(task.index, task.result)
            else:
                with self._lock:
                    self._pending.append(task)
        return self.unfinished

    def run(
        self,
        on_result: Optional[Callable[[int, SynthesisResult], None]] = None,
    ) -> List[SynthesisResult]:
        """Drive every task to completion; results in :meth:`add` order.

        ``on_result(index, result)`` fires as each task finishes (fast tasks
        finish first regardless of registration order).
        """
        while self.pump(on_result=on_result):
            pass
        return [task.result for task in self._tasks]

    def _advance(self, task: _InterleavedTask) -> bool:
        """Run one slice of *task*'s kernel; True when the task finished."""
        config = task.morpheus.config
        with task.context.active():
            if task.kernel is None:
                started = time.perf_counter()
                task.kernel = task.morpheus.kernel(task.example)
                task.kernel.active_seconds += time.perf_counter() - started
            kernel = task.kernel
            budget = config.timeout
            remaining = None if budget is None else budget - kernel.active_seconds
            # Deterministic step-count budget (``config.max_steps``): unlike
            # the wall-clock budget it cuts the search at the same frontier
            # position on any host, so near-budget tasks cannot flip between
            # solve and timeout when workers oversubscribe the CPUs.
            step_budget = config.max_steps
            slice_budget = self.slice_steps
            if step_budget is not None:
                slice_budget = min(slice_budget, step_budget - kernel.steps_taken)
            more = False
            if (remaining is None or remaining > 0) and slice_budget > 0:
                deadline = (
                    None if remaining is None else time.monotonic() + remaining
                )
                more = kernel.run(deadline=deadline, max_steps=slice_budget)
            out_of_time = budget is not None and kernel.active_seconds >= budget
            out_of_steps = (
                step_budget is not None and kernel.steps_taken >= step_budget
            )
            if more and not out_of_time and not out_of_steps:
                return False
            task.result = task.morpheus.finalize(
                kernel, elapsed=kernel.active_seconds
            )
        # Free the search state and the per-task caches (the context holds
        # the task's whole intern pool and formula cache); only the result
        # is kept.
        task.kernel = None
        task.context = None
        return True


def interleave_benchmarks(
    pairs: Sequence[BenchmarkPair],
    slice_steps: int = DEFAULT_SLICE_STEPS,
    on_result: Optional[Callable[[int, BenchmarkOutcome], None]] = None,
) -> List[BenchmarkOutcome]:
    """Run benchmark x configuration pairs through one interleaver.

    The single-process backend of the ``--jobs`` harness: outcomes are
    byte-identical to :func:`repro.benchmarks.runner.run_benchmark` on every
    deterministic field, in input order.
    """
    interleaver = KernelInterleaver(slice_steps=slice_steps)
    for benchmark, config, label, library in pairs:
        interleaver.add(
            Example.make(benchmark.inputs, benchmark.output), config, library
        )
    outcomes: Dict[int, BenchmarkOutcome] = {}

    def finish(index: int, result: SynthesisResult) -> None:
        benchmark, config, label, _library = pairs[index]
        outcomes[index] = outcome_from_result(benchmark, config, result, label=label)
        if on_result is not None:
            on_result(index, outcomes[index])

    interleaver.run(on_result=finish)
    return [outcomes[index] for index in range(len(pairs))]


# ----------------------------------------------------------------------
# Worker functions (top-level so they pickle under the spawn start method)
# ----------------------------------------------------------------------
def _run_pair_task(task):
    index, benchmark, config, label, library = task
    return index, run_benchmark(benchmark, config, library=library, label=label)


def _run_pair_batch(task):
    """Interleave one batch of indexed benchmark pairs inside a worker."""
    indices, pairs, slice_steps = task
    outcomes = interleave_benchmarks(pairs, slice_steps=slice_steps)
    return list(zip(indices, outcomes))


def _synthesize_task(task):
    index, example, config, library = task
    # Start from a cold formula cache, execution counters and intern pool so
    # the outcome does not depend on what this process (or pool worker) ran
    # before -- the same independence discipline run_benchmark applies for
    # the benchmark harness.
    clear_formula_cache()
    reset_execution_state()
    result = Morpheus(library=library, config=config, _sanctioned=True).synthesize(example)
    return index, result


def _synthesize_batch_task(task):
    """Interleave one batch of indexed examples inside a worker."""
    indices, examples, config, library, slice_steps = task
    interleaver = KernelInterleaver(slice_steps=slice_steps)
    for example in examples:
        interleaver.add(example, config, library)
    results = interleaver.run()
    return list(zip(indices, results))


def _round_robin_batches(count: int, batches: int) -> List[List[int]]:
    """Deterministically deal ``count`` indices into ``batches`` groups."""
    groups: List[List[int]] = [[] for _ in range(max(1, min(batches, count)))]
    for index in range(count):
        groups[index % len(groups)].append(index)
    return [group for group in groups if group]


# ----------------------------------------------------------------------
# ParallelRunner: benchmark x configuration fan-out
# ----------------------------------------------------------------------
@dataclass
class ParallelRunner:
    """Runs benchmark x configuration pairs over a process pool.

    ``jobs=None`` uses one worker per CPU; ``jobs=1`` degrades to a serial
    loop with identical semantics (and no pool overhead), so callers can
    thread a single ``--jobs`` value through unconditionally.

    With ``interleave`` (the default) each worker process receives a *batch*
    of pairs and steps their search kernels round-robin under per-task
    :class:`TaskContext` isolation, so a fast task never queues behind a
    slow one inside a worker; ``interleave=False`` restores the classic
    one-whole-task-per-worker-at-a-time scheduling.  Deterministic outcome
    fields are byte-identical between the two modes and the serial loop.
    """

    jobs: Optional[int] = None
    #: Optional multiprocessing start method ("fork", "spawn", ...).
    start_method: Optional[str] = None
    #: Interleave kernel steps across each worker's batch of tasks.
    interleave: bool = True
    #: Kernel steps per scheduling slice (interleaved mode).
    slice_steps: int = DEFAULT_SLICE_STEPS
    #: Batches handed to each worker over the run (smaller batches improve
    #: progress granularity, larger ones improve interleaving fairness).
    batches_per_worker: int = BATCHES_PER_WORKER
    #: Path to a warm-start knowledge base file (:mod:`repro.engine.kb`).
    #: Each worker process opens its own connection to it; ``None`` runs
    #: cold.  The KB only changes how much work each task performs, never
    #: its programs or deterministic counters, so ``--jobs`` equivalence
    #: holds with or without it.
    kb_path: Optional[str] = None

    def __post_init__(self) -> None:
        self.jobs = resolve_jobs(self.jobs)

    def _pool_initializer(self) -> tuple:
        """The ``(initializer, initargs)`` pair for worker pools."""
        return pool_initializer(self.kb_path)

    # ------------------------------------------------------------------
    def map_benchmarks(
        self,
        pairs: Sequence[BenchmarkPair],
        progress: Optional[Callable[[BenchmarkOutcome], None]] = None,
    ) -> List[BenchmarkOutcome]:
        """Run every (benchmark, config, label, library) pair; results in input order.

        ``progress`` is invoked in the parent process as outcomes arrive:
        per task with ``jobs=1`` (one in-process interleaver drives every
        kernel and reports each finish immediately), per completed batch
        under a pool (a worker's outcomes only cross the process boundary
        together).
        """
        on_result = None if progress is None else (lambda _index, outcome: progress(outcome))
        initializer, initargs = self._pool_initializer()
        # Serial runs (and pool-skipping fallbacks for tiny inputs) execute
        # in this process, where no initializer hook fires.
        with installed_kb(self.kb_path):
            if self.interleave and self.jobs == 1:
                # One interleaver over everything: maximal fairness and
                # per-task progress (no batch granularity in-process).
                return interleave_benchmarks(
                    pairs, slice_steps=self.slice_steps, on_result=on_result
                )
            if self.interleave:
                groups = _round_robin_batches(
                    len(pairs), self.jobs * max(1, self.batches_per_worker)
                )
                batch_tasks = [
                    (indices, [pairs[index] for index in indices], self.slice_steps)
                    for indices in groups
                ]
                collected = map_batched(
                    _run_pair_batch, batch_tasks, self.jobs, self.start_method,
                    on_result=on_result, initializer=initializer, initargs=initargs,
                )
            else:
                tasks = [
                    (index, benchmark, config, label, library)
                    for index, (benchmark, config, label, library) in enumerate(pairs)
                ]
                collected = map_indexed(
                    _run_pair_task, tasks, self.jobs, self.start_method,
                    on_result=on_result, initializer=initializer, initargs=initargs,
                )
        return [collected[index] for index in range(len(pairs))]

    def run_suite(
        self,
        suite: BenchmarkSuite,
        config_factory: Callable[[Optional[float]], SynthesisConfig],
        timeout: float = 20.0,
        label: Optional[str] = None,
        library=None,
        progress: Optional[Callable[[BenchmarkOutcome], None]] = None,
    ) -> SuiteRun:
        """Parallel drop-in for :func:`repro.benchmarks.runner.run_suite`."""
        config = config_factory(timeout)
        resolved = label or config.describe()
        outcomes = self.map_benchmarks(
            [(benchmark, config, resolved, library) for benchmark in suite],
            progress=progress,
        )
        return SuiteRun(configuration=resolved, outcomes=outcomes)

    def run_matrix(
        self,
        suite: BenchmarkSuite,
        configurations: Mapping[str, Callable[[Optional[float]], SynthesisConfig]],
        timeout: float = 20.0,
        library=None,
        progress: Optional[Callable[[BenchmarkOutcome], None]] = None,
    ) -> Dict[str, SuiteRun]:
        """Fan the whole benchmark x configuration grid into one pool.

        Scheduling all cells together keeps every worker busy even when one
        configuration is much slower than the others (the per-configuration
        loop of the serial harness would serialise on it).
        """
        pairs: List[BenchmarkPair] = []
        for label, factory in configurations.items():
            config = factory(timeout)
            pairs.extend((benchmark, config, label, library) for benchmark in suite)
        outcomes = self.map_benchmarks(pairs, progress=progress)
        runs = {label: SuiteRun(configuration=label) for label in configurations}
        for outcome in outcomes:
            runs[outcome.configuration].outcomes.append(outcome)
        return runs


# ----------------------------------------------------------------------
# synthesize_batch: many examples, one configuration
# ----------------------------------------------------------------------
def synthesize_batch(
    examples: Sequence,
    config: Optional[SynthesisConfig] = None,
    library=None,
    jobs: Optional[int] = None,
    interleave: bool = False,
    slice_steps: int = DEFAULT_SLICE_STEPS,
) -> List[SynthesisResult]:
    """Synthesize a program for every example, fanning over worker processes.

    *examples* may be :class:`Example` objects or ``(inputs, output)`` pairs.
    Results come back in input order regardless of completion order, and each
    example's search is bit-for-bit the search ``Morpheus.synthesize`` would
    run serially (workers share nothing), so the outcomes are deterministic.

    ``interleave=True`` steps the kernels of each worker's batch round-robin
    under per-task :class:`TaskContext` isolation (with ``jobs=1`` this is
    pure cooperative scheduling in the calling process); per-task budgets
    are then charged against active time.  The one timing-sensitive edge in
    either mode: an example whose solve time approaches the configured
    wall-clock timeout may time out when more workers run than there are
    CPU cores.
    """
    jobs = resolve_jobs(jobs)
    config = config if config is not None else SynthesisConfig()
    coerced = [_coerce_example(example) for example in examples]
    if interleave:
        if jobs == 1:
            # One interleaver over every example: pure cooperative
            # scheduling, no sequential batch boundaries.
            interleaver = KernelInterleaver(slice_steps=slice_steps)
            for example in coerced:
                interleaver.add(example, config, library)
            return interleaver.run()
        groups = _round_robin_batches(len(coerced), jobs * BATCHES_PER_WORKER)
        batch_tasks = [
            (indices, [coerced[index] for index in indices], config, library, slice_steps)
            for indices in groups
        ]
        collected = map_batched(_synthesize_batch_task, batch_tasks, jobs)
    else:
        tasks = [
            (index, example, config, library)
            for index, example in enumerate(coerced)
        ]
        collected = map_indexed(_synthesize_task, tasks, jobs)
    return [collected[index] for index in range(len(coerced))]


# ----------------------------------------------------------------------
# synthesize_portfolio: one example, racing configurations
# ----------------------------------------------------------------------
@dataclass
class PortfolioResult:
    """Outcome of racing several configurations on one example."""

    #: The winning (or, if nothing solved, the first configuration's) result.
    result: SynthesisResult
    #: ``describe()`` of the configuration that produced :attr:`result`.
    winner: Optional[str]
    #: How many configurations ran to completion before the race ended.
    attempts: int

    @property
    def solved(self) -> bool:
        return self.result.solved


def synthesize_portfolio(
    example,
    configs: Sequence[SynthesisConfig],
    library=None,
    jobs: Optional[int] = None,
) -> PortfolioResult:
    """Race *configs* on one example; return the first solution found.

    With ``jobs > 1`` the configurations run concurrently and the remaining
    workers are cancelled as soon as one solves the example -- which
    configuration wins can therefore depend on timing.  With ``jobs=1`` the
    configurations run in order and the first solver wins deterministically.
    If no configuration solves the example, the first configuration's
    (unsolved) result is returned with ``winner=None``.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("synthesize_portfolio needs at least one configuration")
    jobs = resolve_jobs(jobs)
    example = _coerce_example(example)
    tasks = [(index, example, config, library) for index, config in enumerate(configs)]

    collected = map_indexed(
        _synthesize_task, tasks, jobs,
        stop=lambda _index, result: result.solved,
    )
    attempts = len(collected)
    for index, result in collected.items():
        if result.solved:
            return PortfolioResult(result, configs[index].describe(), attempts)
    return PortfolioResult(collected[min(collected)], None, attempts)
