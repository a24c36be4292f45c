"""Benchmark runner: regenerates the data behind Figures 16, 17 and 18.

The runner executes a benchmark suite under one or more synthesis
configurations and aggregates per-category solve counts and median times,
cumulative-time curves, and baseline comparisons.  Absolute numbers differ
from the paper (different hardware, a pure-Python substrate instead of
C++/Z3/R, a single core), but the relative shape -- which configuration
solves more benchmarks, and faster -- is what the harness reproduces.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..api import CLOCK_COUNTERS, SynthesisRequest, create_session, sum_counters
from ..baselines.configurations import (
    ALL_FIGURE17_CONFIGS,
    FIGURE16_CONFIGS,
    override_config,
)
from ..baselines.lambda2 import Lambda2Synthesizer
from ..baselines.sql_synthesizer import SqlSynthesizer
from ..core.library import sql_library
from ..core.synthesizer import SynthesisConfig
from ..engine.pool import map_indexed
from .r_suite import r_benchmark_suite
from .sql_suite import sql_benchmark_suite
from .suite import Benchmark, BenchmarkSuite


@dataclass
class BenchmarkOutcome:
    """Result of running one benchmark under one configuration."""

    benchmark: str
    category: str
    configuration: str
    solved: bool
    elapsed: float
    program_size: Optional[int] = None
    #: Share of partial programs pruned before completion
    #: (``pruned_partial / partial_programs`` of the counters below).
    prune_rate: float = 0.0
    #: The synthesized program's rendered source (None when unsolved).  Kept
    #: on the outcome so ablation and determinism harnesses can assert that
    #: configurations agree on *what* was synthesized, not just how fast.
    program: Optional[str] = None
    #: The session's deterministic counters: :meth:`SynthesisSession.counters`
    #: without its clock keys (``repro.api.CLOCK_COUNTERS``).  Each task
    #: runs in its own session context with a fresh intern pool and counter
    #: block, so serial and ``--jobs N`` runs report identical values.
    counters: Dict[str, int] = field(default_factory=dict)


@dataclass
class SuiteRun:
    """All outcomes of one configuration over one suite."""

    configuration: str
    outcomes: List[BenchmarkOutcome] = field(default_factory=list)

    @property
    def solved(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.solved)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    def median_time(self, solved_only: bool = True) -> Optional[float]:
        """Median running time (of solved benchmarks by default)."""
        times = [o.elapsed for o in self.outcomes if o.solved or not solved_only]
        if not times:
            return None
        return statistics.median(times)

    def cumulative_times(self) -> List[float]:
        """Sorted per-benchmark times with unsolved tasks charged their full timeout.

        This is the data behind Figure 17's cumulative running-time curves.
        """
        return sorted(outcome.elapsed for outcome in self.outcomes)

    def by_category(self) -> Dict[str, List[BenchmarkOutcome]]:
        grouped: Dict[str, List[BenchmarkOutcome]] = {}
        for outcome in self.outcomes:
            grouped.setdefault(outcome.category, []).append(outcome)
        return grouped


#: A unit of benchmark work: (benchmark, configuration, label, library).
BenchmarkPair = Tuple[Benchmark, SynthesisConfig, str, object]


def _morpheus_config(timeout: Optional[float]) -> SynthesisConfig:
    """The default full-strength configuration (used by Figure 18 / pruning)."""
    return SynthesisConfig(timeout=timeout)


def run_benchmark(
    benchmark: Benchmark,
    config: SynthesisConfig,
    library=None,
    label: Optional[str] = None,
) -> BenchmarkOutcome:
    """Run Morpheus on one benchmark under one configuration.

    Goes through the sanctioned facade (:func:`repro.api.create_session`):
    each benchmark runs in its own session, whose private
    :class:`~repro.engine.context.TaskContext` provides a fresh SMT formula
    cache, execution counters and value intern pool -- so the outcome does
    not depend on which benchmarks ran earlier in the same process.  That
    independence is what makes serial and ``--jobs N`` harness runs report
    byte-identical programs and counters.
    """
    request = SynthesisRequest.from_tables(
        benchmark.inputs, benchmark.output, config=config
    )
    session = create_session(request, library=library)
    result = session.solve()
    counters = session.counters()
    for name in CLOCK_COUNTERS:
        del counters[name]
    partial = counters["partial_programs"]
    return BenchmarkOutcome(
        benchmark=benchmark.name,
        category=benchmark.category,
        configuration=label or config.describe(),
        solved=result.solved,
        elapsed=result.elapsed,
        program_size=result.size,
        prune_rate=counters["pruned_partial"] / partial if partial else 0.0,
        program=result.render() if result.solved else None,
        counters=counters,
    )


def _run_pair(task):
    """Pool worker (top-level so it pickles): one indexed pair -> outcome."""
    index, (benchmark, config, label, library) = task
    return index, run_benchmark(benchmark, config, library=library, label=label)


def run_pairs(
    pairs: Sequence[BenchmarkPair],
    jobs: int = 1,
    progress: Optional[Callable[[BenchmarkOutcome], None]] = None,
) -> List[BenchmarkOutcome]:
    """Run every (benchmark, config, label, library) pair; outcomes in input order.

    ``jobs == 1`` runs the pairs one after another in this process;
    ``jobs > 1`` maps them over a pool of that many worker processes.  Both
    execute :func:`run_benchmark` per pair, so every deterministic outcome
    field is identical between them.  (Caveat: a task whose solve time
    approaches its wall-clock ``timeout`` can flip to a timeout when more
    workers run than there are CPU cores.)

    ``progress`` fires in this process once per outcome, as it arrives.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    on_result = None if progress is None else (lambda _index, outcome: progress(outcome))
    collected = map_indexed(_run_pair, list(enumerate(pairs)), jobs, on_result=on_result)
    return [collected[index] for index in range(len(pairs))]


def run_suite(
    suite: BenchmarkSuite,
    config_factory: Callable[[Optional[float]], SynthesisConfig],
    timeout: float = 20.0,
    label: Optional[str] = None,
    library=None,
    progress: Optional[Callable[[BenchmarkOutcome], None]] = None,
    jobs: int = 1,
) -> SuiteRun:
    """Run a whole suite under one configuration factory.

    ``jobs`` is passed to :func:`run_pairs`: the outcomes are the serial
    ones, in suite order, whatever the worker count.
    """
    config = config_factory(timeout)
    resolved = label or config.describe()
    outcomes = run_pairs(
        [(benchmark, config, resolved, library) for benchmark in suite],
        jobs=jobs, progress=progress,
    )
    return SuiteRun(configuration=resolved, outcomes=outcomes)


def _run_matrix(
    suite: BenchmarkSuite,
    configurations: Dict[str, Callable[[Optional[float]], SynthesisConfig]],
    timeout: float,
    progress: Optional[Callable[[BenchmarkOutcome], None]],
    jobs: int,
) -> Dict[str, SuiteRun]:
    """Run the whole benchmark x configuration grid through one :func:`run_pairs`.

    Scheduling all cells together keeps every pool worker busy even when one
    configuration is much slower than the others.
    """
    pairs: List[BenchmarkPair] = []
    for label, factory in configurations.items():
        config = factory(timeout)
        pairs.extend((benchmark, config, label, None) for benchmark in suite)
    runs = {label: SuiteRun(configuration=label) for label in configurations}
    for outcome in run_pairs(pairs, jobs=jobs, progress=progress):
        runs[outcome.configuration].outcomes.append(outcome)
    return runs


# ----------------------------------------------------------------------
# Figure 16: per-category solve counts and median times for three configs
# ----------------------------------------------------------------------
def run_figure16(
    timeout: float = 20.0,
    suite: Optional[BenchmarkSuite] = None,
    configurations: Optional[Dict[str, Callable]] = None,
    progress: Optional[Callable[[BenchmarkOutcome], None]] = None,
    jobs: int = 1,
) -> Dict[str, SuiteRun]:
    """Run the Figure 16 experiment (No deduction / Spec 1 / Spec 2)."""
    suite = suite if suite is not None else r_benchmark_suite()
    configurations = configurations if configurations is not None else FIGURE16_CONFIGS
    return _run_matrix(suite, configurations, timeout, progress, jobs)


# ----------------------------------------------------------------------
# Figure 17: cumulative running time for five configurations
# ----------------------------------------------------------------------
def run_figure17(
    timeout: float = 20.0,
    suite: Optional[BenchmarkSuite] = None,
    configurations: Optional[Dict[str, Callable]] = None,
    progress: Optional[Callable[[BenchmarkOutcome], None]] = None,
    jobs: int = 1,
) -> Dict[str, SuiteRun]:
    """Run the Figure 17 experiment (deduction x partial evaluation grid)."""
    suite = suite if suite is not None else r_benchmark_suite()
    configurations = (
        configurations if configurations is not None else ALL_FIGURE17_CONFIGS
    )
    return _run_matrix(suite, configurations, timeout, progress, jobs)


# ----------------------------------------------------------------------
# Figure 18: Morpheus vs the SQLSynthesizer baseline (and lambda2)
# ----------------------------------------------------------------------
@dataclass
class Figure18Row:
    """Solve-rate of one tool on one suite."""

    tool: str
    suite: str
    solved: int
    total: int
    median_time: Optional[float]

    @property
    def percentage(self) -> float:
        return 100.0 * self.solved / self.total if self.total else 0.0


def run_figure18(
    timeout: float = 20.0,
    include_lambda2: bool = True,
    r_suite: Optional[BenchmarkSuite] = None,
    sql_suite: Optional[BenchmarkSuite] = None,
    jobs: int = 1,
    morpheus_config: Optional[Callable[[Optional[float]], SynthesisConfig]] = None,
) -> List[Figure18Row]:
    """Compare Morpheus with the SQLSynthesizer (and lambda2) baselines.

    ``morpheus_config`` overrides the configuration factory used for the
    Morpheus rows (the CLI passes the no-OE factory for ``--no-oe``);
    the baselines have no deduction engine and are unaffected.
    """
    r_suite = r_suite if r_suite is not None else r_benchmark_suite()
    sql_suite = sql_suite if sql_suite is not None else sql_benchmark_suite()
    factory = morpheus_config if morpheus_config is not None else _morpheus_config
    rows: List[Figure18Row] = []

    # Morpheus on both suites (the baselines below are cheap and stay serial).
    morpheus_r = run_suite(
        r_suite, factory, timeout=timeout, label="morpheus", jobs=jobs
    )
    rows.append(Figure18Row("morpheus", "r-benchmarks", morpheus_r.solved, morpheus_r.total, morpheus_r.median_time()))
    morpheus_sql = run_suite(
        sql_suite, factory, timeout=timeout,
        label="morpheus", library=sql_library(), jobs=jobs,
    )
    rows.append(Figure18Row("morpheus", "sql-benchmarks", morpheus_sql.solved, morpheus_sql.total, morpheus_sql.median_time()))

    # SQLSynthesizer baseline on both suites.
    for suite, suite_label in ((r_suite, "r-benchmarks"), (sql_suite, "sql-benchmarks")):
        solved = 0
        times: List[float] = []
        for benchmark in suite:
            result = SqlSynthesizer(timeout=timeout).synthesize(list(benchmark.inputs), benchmark.output)
            solved += int(result.solved)
            if result.solved:
                times.append(result.elapsed)
        rows.append(
            Figure18Row("sqlsynthesizer", suite_label, solved, len(suite),
                        statistics.median(times) if times else None)
        )

    if include_lambda2:
        solved = 0
        times = []
        for benchmark in r_suite:
            result = Lambda2Synthesizer(timeout=min(timeout, 10.0)).synthesize(
                list(benchmark.inputs), benchmark.output
            )
            solved += int(result.solved)
            if result.solved:
                times.append(result.elapsed)
        rows.append(
            Figure18Row("lambda2", "r-benchmarks", solved, len(r_suite),
                        statistics.median(times) if times else None)
        )
    return rows


# ----------------------------------------------------------------------
# Pruning statistics (Section 9, "Impact of partial evaluation")
# ----------------------------------------------------------------------
#: The counters ``run_pruning_statistics`` totals over the suite, in order.
PRUNING_COUNTERS = (
    "smt_calls", "prescreen_decided", "prescreen_fallback",
    "partial_programs", "oe_candidates", "oe_merged",
)


def run_pruning_statistics(
    timeout: float = 20.0,
    suite: Optional[BenchmarkSuite] = None,
    jobs: int = 1,
    oe: bool = True,
) -> Dict[str, float]:
    """Measure how many partial programs deduction prunes before completion."""
    suite = suite if suite is not None else r_benchmark_suite()
    factory, label = _morpheus_config, "spec2"
    if not oe:
        factory, label = override_config(factory, oe=False), "spec2-no-oe"
    run = run_suite(suite, factory, timeout=timeout, label=label, jobs=jobs)
    rates = [outcome.prune_rate for outcome in run.outcomes if outcome.prune_rate > 0]
    totals = sum_counters(outcome.counters for outcome in run.outcomes)
    report = {
        "mean_prune_rate": statistics.mean(rates) if rates else 0.0,
        "median_prune_rate": statistics.median(rates) if rates else 0.0,
        "benchmarks": float(len(rates)),
    }
    report.update((name, float(totals.get(name, 0))) for name in PRUNING_COUNTERS)
    return report
