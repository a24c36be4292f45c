"""Tests for the process-parallel drivers (repro.engine.parallel)."""

import pytest

from repro.baselines import FIGURE16_CONFIGS
from repro.benchmarks import r_benchmark_suite, run_figure16, run_suite
from repro.core import Example, Morpheus, SpecLevel, SynthesisConfig
from repro.dataframe import Table
from repro.engine import (
    KernelInterleaver,
    ParallelRunner,
    TaskContext,
    synthesize_batch,
    synthesize_portfolio,
)

#: Fast representative benchmarks (each solves in well under a second).
FAST_NAMES = [
    "c1_prices_long_to_wide",
    "c2_orders_count_by_region",
    "c5_join_filter_large_orders",
]

TIMEOUT = 30.0


def fast_suite():
    return r_benchmark_suite().subset(names=FAST_NAMES)


def outcome_fingerprint(run):
    return [
        (o.benchmark, o.category, o.configuration, o.solved, o.program_size)
        for o in run.outcomes
    ]


class TestParallelRunner:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)

    def test_default_jobs_is_at_least_one(self):
        assert ParallelRunner().jobs >= 1

    def test_parallel_suite_matches_serial(self):
        suite = fast_suite()
        serial = run_suite(suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2")
        parallel = ParallelRunner(jobs=2).run_suite(
            suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2"
        )
        assert outcome_fingerprint(parallel) == outcome_fingerprint(serial)

    def test_run_suite_jobs_parameter_routes_to_parallel_runner(self):
        suite = fast_suite()
        serial = run_suite(suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2")
        threaded = run_suite(
            suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2", jobs=2
        )
        assert outcome_fingerprint(threaded) == outcome_fingerprint(serial)

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
        ParallelRunner(jobs=2).run_suite(
            suite,
            FIGURE16_CONFIGS["spec2"],
            timeout=TIMEOUT,
            label="spec2",
            progress=seen.append,
        )
        assert sorted(o.benchmark for o in seen) == sorted(suite.names())

    def test_jobs_one_is_a_serial_loop(self):
        suite = fast_suite()
        runner = ParallelRunner(jobs=1)
        run = runner.run_suite(suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2")
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
        # caller configured, or interleaved and whole-task runs diverge.
        from repro.smt.solver import FORMULA_CACHE_SIZE, configure_formula_cache

        try:
            configure_formula_cache(77)
            assert TaskContext().formula_cache.maxsize == 77
        finally:
            configure_formula_cache(FORMULA_CACHE_SIZE)
        assert TaskContext().formula_cache.maxsize == FORMULA_CACHE_SIZE


class TestKernelInterleaver:
    def examples(self):
        suite = fast_suite()
        return [Example.make(b.inputs, b.output) for b in suite]

    def test_interleaved_results_match_dedicated_runs(self):
        config = SynthesisConfig(timeout=TIMEOUT)
        dedicated = []
        for example in self.examples():
            context = TaskContext()
            with context.active():
                dedicated.append(Morpheus(config=config).synthesize(example))
        interleaver = KernelInterleaver(slice_steps=5)
        for example in self.examples():
            interleaver.add(example, config)
        results = interleaver.run()
        assert len(results) == len(dedicated)
        for expected, actual in zip(dedicated, results):
            assert actual.solved == expected.solved
            assert actual.render() == expected.render()
            assert actual.stats.smt_calls == expected.stats.smt_calls
            assert actual.stats.frontier_peak == expected.stats.frontier_peak
            assert (
                actual.stats.completion.partial_programs
                == expected.stats.completion.partial_programs
            )
            assert actual.stats.tables_built == expected.stats.tables_built
            assert actual.stats.cells_interned == expected.stats.cells_interned

    def test_on_result_fires_once_per_task(self):
        config = SynthesisConfig(timeout=TIMEOUT)
        interleaver = KernelInterleaver()
        for example in self.examples():
            interleaver.add(example, config)
        seen = []
        interleaver.run(on_result=lambda index, result: seen.append(index))
        assert sorted(seen) == list(range(len(self.examples())))

    def test_rejects_invalid_slice_steps(self):
        with pytest.raises(ValueError):
            KernelInterleaver(slice_steps=0)

    def test_finished_driver_tasks_are_released(self):
        class FakeDriver:
            def __init__(self, slices):
                self.slices = slices

            def advance(self, max_steps):
                self.slices -= 1
                return self.slices <= 0

        interleaver = KernelInterleaver(slice_steps=1)
        interleaver.add_driver(FakeDriver(1))
        interleaver.add_driver(FakeDriver(3))
        assert interleaver.unfinished == 2
        while interleaver.pump():
            pass
        # Finished drivers leave the rotation *and* hold no task-list slot:
        # a long-lived service re-enrolls sessions on every resume, so any
        # retained reference would pin expired sessions in memory forever.
        assert interleaver.unfinished == 0
        assert len(interleaver._tasks) == 0
        interleaver.add_driver(FakeDriver(2))
        assert interleaver.unfinished == 1
        while interleaver.pump():
            pass
        assert interleaver.unfinished == 0
        assert len(interleaver._tasks) == 0

    def test_raising_driver_fails_alone(self):
        class Driver:
            def __init__(self, slices, raises=False):
                self.slices = slices
                self.raises = raises
                self.error = None

            def advance(self, max_steps):
                if self.raises:
                    raise RuntimeError("injected fault")
                self.slices -= 1
                return self.slices <= 0

            def fail(self, error):
                self.error = error

        broken, healthy = Driver(5, raises=True), Driver(3)
        interleaver = KernelInterleaver(slice_steps=1)
        interleaver.add_driver(broken)
        interleaver.add_driver(healthy)
        while interleaver.pump():
            pass
        assert isinstance(broken.error, RuntimeError)
        assert healthy.slices == 0 and healthy.error is None

    def test_raising_driver_without_fail_hook_propagates(self):
        class Driver:
            def advance(self, max_steps):
                raise RuntimeError("injected fault")

        interleaver = KernelInterleaver(slice_steps=1)
        interleaver.add_driver(Driver())
        with pytest.raises(RuntimeError):
            interleaver.pump()

    def test_step_budget_bounds_an_untimed_search(self):
        # timeout=None + max_steps: the only budget is the deterministic
        # step count, so the run must terminate (and report unsolved) after
        # exactly the budget, independent of host speed.
        config = SynthesisConfig(timeout=None, max_steps=3)
        interleaver = KernelInterleaver(slice_steps=2)
        for example in self.examples():
            interleaver.add(example, config)
        results = interleaver.run()
        assert all(not result.solved for result in results)

    def test_step_budget_matches_dedicated_runs(self):
        # The deterministic slice mode: with a step budget the interleaver
        # cuts every kernel at the same frontier position as a dedicated
        # run, no matter how wall-clock time is divided across slices --
        # the fix for the PR 5 caveat where near-timeout tasks flipped
        # solve/timeout under --jobs on an oversubscribed host.
        for budget in (25, 10_000):
            config = SynthesisConfig(timeout=None, max_steps=budget)
            dedicated = []
            for example in self.examples():
                context = TaskContext()
                with context.active():
                    dedicated.append(Morpheus(config=config).synthesize(example))
            # slice_steps deliberately does not divide the budget evenly.
            interleaver = KernelInterleaver(slice_steps=7)
            for example in self.examples():
                interleaver.add(example, config)
            results = interleaver.run()
            for expected, actual in zip(dedicated, results):
                assert actual.solved == expected.solved
                assert actual.render() == expected.render()
                assert actual.stats.smt_calls == expected.stats.smt_calls
                assert actual.stats.frontier_peak == expected.stats.frontier_peak
                assert (
                    actual.stats.completion.partial_programs
                    == expected.stats.completion.partial_programs
                )

    def test_synthesize_batch_interleaved_matches_plain(self):
        config = SynthesisConfig(timeout=TIMEOUT)
        plain = synthesize_batch(self.examples(), config=config, jobs=1)
        interleaved = synthesize_batch(
            self.examples(), config=config, jobs=1, interleave=True
        )
        assert [r.render() for r in interleaved] == [r.render() for r in plain]
        assert [r.solved for r in interleaved] == [r.solved for r in plain]


class TestSynthesizeBatch:
    def examples(self):
        suite = fast_suite()
        return [Example.make(b.inputs, b.output) for b in suite]

    def test_results_come_back_in_input_order(self):
        examples = self.examples()
        config = SynthesisConfig(timeout=TIMEOUT)
        serial = [Morpheus(config=config).synthesize(e) for e in examples]
        batch = synthesize_batch(examples, config=config, jobs=2)
        assert len(batch) == len(examples)
        for expected, actual in zip(serial, batch):
            assert actual.solved == expected.solved
            assert actual.size == expected.size
            assert actual.render() == expected.render()

    def test_batch_is_deterministic_across_runs(self):
        examples = self.examples()
        config = SynthesisConfig(timeout=TIMEOUT)
        first = synthesize_batch(examples, config=config, jobs=2)
        second = synthesize_batch(examples, config=config, jobs=2)
        assert [r.render() for r in first] == [r.render() for r in second]

    def test_accepts_inputs_output_pairs(self):
        inputs = [Table(["a", "b", "c"], [[1, 2, 3], [4, 5, 6]])]
        output = Table(["a", "b"], [[1, 2], [4, 5]])
        results = synthesize_batch([(inputs, output)], jobs=1,
                                   config=SynthesisConfig(timeout=TIMEOUT))
        assert results[0].solved

    def test_rejects_invalid_jobs(self):
        with pytest.raises(ValueError):
            synthesize_batch([], jobs=-2)


class TestSynthesizePortfolio:
    def example(self):
        inputs = [Table(["a", "b", "c"], [[1, 2, 3], [4, 5, 6]])]
        output = Table(["a", "b"], [[1, 2], [4, 5]])
        return inputs, output

    def test_requires_at_least_one_config(self):
        with pytest.raises(ValueError):
            synthesize_portfolio(self.example(), [])

    def test_serial_portfolio_prefers_earlier_configs(self):
        configs = [
            SynthesisConfig(timeout=TIMEOUT),
            SynthesisConfig(deduction=False, timeout=TIMEOUT),
        ]
        portfolio = synthesize_portfolio(self.example(), configs, jobs=1)
        assert portfolio.solved
        assert portfolio.winner == configs[0].describe()
        assert portfolio.attempts == 1

    def test_parallel_portfolio_returns_a_solution(self):
        configs = [
            SynthesisConfig(timeout=TIMEOUT),
            SynthesisConfig(deduction=False, timeout=TIMEOUT),
        ]
        portfolio = synthesize_portfolio(self.example(), configs, jobs=2)
        assert portfolio.solved
        assert portfolio.winner in {c.describe() for c in configs}
        assert 1 <= portfolio.attempts <= len(configs)

    def test_unsolvable_example_returns_first_config_result(self):
        # An output whose values cannot be produced from the input.
        inputs = [Table(["a", "b"], [[1, 2], [3, 4]])]
        output = Table(["zz"], [["impossible"]])
        configs = [
            SynthesisConfig(timeout=2.0, max_size=1),
            SynthesisConfig(timeout=2.0, max_size=1, spec_level=SpecLevel.SPEC1),
        ]
        portfolio = synthesize_portfolio((inputs, output), configs, jobs=1)
        assert not portfolio.solved
        assert portfolio.winner is None
        assert portfolio.attempts == len(configs)
