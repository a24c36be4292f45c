"""Tests for ``--jobs`` runs (repro.benchmarks.runner.run_pairs), per-task
contexts, and round-robin scheduling of synthesis sessions."""

import inspect

import pytest

from repro.api import SynthesisRequest, create_session
from repro.baselines import FIGURE16_CONFIGS
from repro.benchmarks import (
    r_benchmark_suite,
    run_figure16,
    run_figure17,
    run_figure18,
    run_pairs,
    run_pruning_statistics,
    run_suite,
)
from repro.core import SynthesisConfig
from repro.engine import TaskContext

#: Fast representative benchmarks (each solves in well under a second).
FAST_NAMES = [
    "c1_prices_long_to_wide",
    "c2_orders_count_by_region",
    "c5_join_filter_large_orders",
]

TIMEOUT = 30.0

#: Every runner entry point that takes a worker count.
JOBS_ENTRY_POINTS = [
    run_pairs,
    run_suite,
    run_figure16,
    run_figure17,
    run_figure18,
    run_pruning_statistics,
]


def fast_suite():
    return r_benchmark_suite().subset(names=FAST_NAMES)


def empty_suite():
    return r_benchmark_suite().subset(names=[])


def outcome_fingerprint(run):
    return [
        (o.benchmark, o.category, o.configuration, o.solved, o.program_size)
        for o in run.outcomes
    ]


class TestJobs:
    @pytest.mark.parametrize("entry", JOBS_ENTRY_POINTS, ids=lambda f: f.__name__)
    def test_default_is_one_serial_worker(self, entry):
        # One meaning of ``jobs`` everywhere: omitting it runs serially.
        assert inspect.signature(entry).parameters["jobs"].default == 1

    @pytest.mark.parametrize("entry", JOBS_ENTRY_POINTS, ids=lambda f: f.__name__)
    def test_jobs_below_one_is_rejected_by_the_library(self, entry):
        calls = {
            run_pairs: lambda jobs: run_pairs([], jobs=jobs),
            run_suite: lambda jobs: run_suite(
                empty_suite(), FIGURE16_CONFIGS["spec2"], jobs=jobs
            ),
            run_figure16: lambda jobs: run_figure16(suite=empty_suite(), jobs=jobs),
            run_figure17: lambda jobs: run_figure17(suite=empty_suite(), jobs=jobs),
            run_figure18: lambda jobs: run_figure18(
                include_lambda2=False, r_suite=empty_suite(),
                sql_suite=empty_suite(), jobs=jobs,
            ),
            run_pruning_statistics: lambda jobs: run_pruning_statistics(
                suite=empty_suite(), jobs=jobs
            ),
        }
        for jobs in (0, -2):
            with pytest.raises(ValueError, match="jobs must be >= 1"):
                calls[entry](jobs)


class TestRunPairs:
    def test_parallel_suite_matches_serial(self):
        suite = fast_suite()
        serial = run_suite(suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2")
        parallel = run_suite(
            suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2", jobs=2
        )
        assert outcome_fingerprint(parallel) == outcome_fingerprint(serial)

    def test_run_matrix_matches_serial_figure16(self):
        suite = fast_suite()
        serial = run_figure16(timeout=TIMEOUT, suite=suite)
        parallel = run_figure16(timeout=TIMEOUT, suite=suite, jobs=2)
        assert set(parallel) == set(serial)
        for label in serial:
            assert outcome_fingerprint(parallel[label]) == outcome_fingerprint(serial[label])

    def test_progress_callback_sees_every_outcome(self):
        suite = fast_suite()
        seen = []
        run_suite(
            suite,
            FIGURE16_CONFIGS["spec2"],
            timeout=TIMEOUT,
            label="spec2",
            progress=seen.append,
            jobs=2,
        )
        assert sorted(o.benchmark for o in seen) == sorted(suite.names())

    def test_pool_progress_sees_every_figure16_pair_once(self):
        suite = fast_suite()
        seen = []
        runs = run_figure16(timeout=TIMEOUT, suite=suite, jobs=2, progress=seen.append)
        pairs = [(o.configuration, o.benchmark) for o in seen]
        assert sorted(pairs) == sorted(
            (label, name) for label in FIGURE16_CONFIGS for name in suite.names()
        )
        assert len(set(pairs)) == len(pairs)
        assert set(runs) == set(FIGURE16_CONFIGS)

    def test_jobs_one_is_a_serial_loop(self):
        suite = fast_suite()
        run = run_suite(
            suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2", jobs=1
        )
        assert [o.benchmark for o in run.outcomes] == suite.names()


class TestTaskContext:
    def test_active_isolates_intern_pool_and_counters(self):
        from repro.dataframe.interning import intern_pool_size, intern_value
        from repro.dataframe.profiling import execution_stats

        outer_size = intern_pool_size()
        context = TaskContext()
        with context.active():
            intern_value("only-in-context")
            intern_value("only-in-context")
            assert execution_stats() is context.execution
            assert context.execution.cells_interned == 1
        assert intern_pool_size() == outer_size
        assert execution_stats() is not context.execution

    def test_nested_install_is_rejected(self):
        context = TaskContext()
        with context.active():
            with pytest.raises(RuntimeError):
                context.install()
        with pytest.raises(RuntimeError):
            context.uninstall()

    def test_formula_cache_is_swapped(self):
        from repro.smt.solver import formula_cache_stats

        context = TaskContext()
        with context.active():
            assert formula_cache_stats() is context.formula_cache.stats
        assert formula_cache_stats() is not context.formula_cache.stats

    def test_context_cache_mirrors_configured_size(self):
        # Per-task caches must evict exactly like the process-wide cache a
        # caller configured, or sliced and whole-task runs diverge.
        from repro.smt.solver import FORMULA_CACHE_SIZE, configure_formula_cache

        try:
            configure_formula_cache(77)
            assert TaskContext().formula_cache.maxsize == 77
        finally:
            configure_formula_cache(FORMULA_CACHE_SIZE)
        assert TaskContext().formula_cache.maxsize == FORMULA_CACHE_SIZE


def sessions_for(config):
    return [
        create_session(SynthesisRequest.from_tables(b.inputs, b.output, config=config))
        for b in fast_suite()
    ]


def round_robin(sessions, slice_steps):
    """Advance every unfinished session one slice per pass, in one process."""
    pending = list(sessions)
    while pending:
        pending = [s for s in pending if not s.advance(max_steps=slice_steps)]


def deterministic_counters(session):
    counters = dict(session.counters())
    del counters["active_seconds"]
    return counters


def assert_sessions_match(sliced, dedicated):
    assert len(sliced) == len(dedicated)
    for actual, expected in zip(sliced, dedicated):
        assert actual.status == expected.status
        assert [c.program for c in actual.candidates] == [
            c.program for c in expected.candidates
        ]
        assert deterministic_counters(actual) == deterministic_counters(expected)


class TestSessionScheduling:
    """Sliced, round-robin sessions search exactly like dedicated ones.

    ``SynthesisSession.advance`` is the one way a scheduler runs a search
    (the service's rotation grants each session one slice per pass), so a
    task cut into slices and interleaved with other tasks in one process
    must find the program ``solve()`` finds, with the same counters.
    """

    def test_round_robin_sessions_match_dedicated_runs(self):
        config = SynthesisConfig(timeout=TIMEOUT)
        dedicated = sessions_for(config)
        for session in dedicated:
            session.solve()
        sliced = sessions_for(config)
        round_robin(sliced, slice_steps=5)
        assert_sessions_match(sliced, dedicated)
        assert all(session.status == "done" for session in sliced)
        assert all(deterministic_counters(s)["tables_built"] > 0 for s in sliced)

    def test_step_budget_bounds_an_untimed_search(self):
        # timeout=None + max_steps: the only budget is the deterministic
        # step count, so the run must terminate (unsolved) after exactly the
        # budget, independent of host speed.
        sessions = sessions_for(SynthesisConfig(timeout=None, max_steps=3))
        round_robin(sessions, slice_steps=2)
        for session in sessions:
            assert session.status == "timeout"
            assert session.steps == 3
            assert not session.candidates

    def test_step_budget_matches_dedicated_runs(self):
        # With a step budget, uneven slices cut every search at the same
        # frontier position as a dedicated run, however wall-clock time is
        # divided across slices -- so near-budget tasks cannot flip between
        # solve and timeout on an oversubscribed host.
        for budget in (25, 10_000):
            config = SynthesisConfig(timeout=None, max_steps=budget)
            dedicated = sessions_for(config)
            for session in dedicated:
                session.solve()
            # 7 deliberately does not divide the budget evenly.
            sliced = sessions_for(config)
            round_robin(sliced, slice_steps=7)
            assert_sessions_match(sliced, dedicated)
