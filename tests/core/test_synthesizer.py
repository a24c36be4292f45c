"""Tests for the top-level synthesis algorithm (Algorithm 1)."""

from repro.api import SynthesisRequest, create_session
from repro.core import (
    Example,
    SpecLevel,
    SynthesisConfig,
    sql_library,
    standard_library,
)
from repro.dataframe import Table, tables_match_for_synthesis
from repro.core.hypothesis import evaluate

STUDENTS = Table(["name", "age", "gpa"],
                 [["Alice", 8, 4.0], ["Bob", 18, 3.2], ["Tom", 12, 3.0]])


def solve_session(inputs, output, config, library=None):
    """Drive one session to completion; the session and its core result."""
    request = SynthesisRequest.from_tables(inputs, output, config=config)
    session = create_session(request, library=library)
    return session, session.solve()


def solve(inputs, output, config, library=None):
    """The core result (program, elapsed, stats) of one finished session."""
    return solve_session(inputs, output, config, library=library)[1]


def check_result(result, example):
    assert result.solved
    assert result.program is not None
    actual = evaluate(result.program, list(example.inputs))
    assert tables_match_for_synthesis(actual, example.output)


class TestSimpleTasks:
    def test_filter_task(self):
        output = Table(["name", "age", "gpa"], [["Bob", 18, 3.2], ["Tom", 12, 3.0]])
        result = solve([STUDENTS], output, SynthesisConfig(timeout=20))
        check_result(result, Example.make([STUDENTS], output))
        assert result.size == 1

    def test_select_task(self):
        output = Table(["name", "gpa"], [["Alice", 4.0], ["Bob", 3.2], ["Tom", 3.0]])
        result = solve([STUDENTS], output, SynthesisConfig(timeout=20))
        check_result(result, Example.make([STUDENTS], output))

    def test_count_task(self):
        table = Table(["city", "person"],
                      [["austin", "a"], ["austin", "b"], ["waco", "c"]])
        output = Table(["city", "n"], [["austin", 2], ["waco", 1]])
        result = solve([table], output, SynthesisConfig(timeout=30))
        check_result(result, Example.make([table], output))

    def test_join_task(self):
        left = Table(["id", "x"], [[1, "a"], [2, "b"], [3, "c"]])
        right = Table(["id", "y"], [[1, 10], [2, 30], [3, 40]])
        output = Table(["id", "x", "y"], [[1, "a", 10], [2, "b", 30], [3, "c", 40]])
        result = solve([left, right], output, SynthesisConfig(timeout=30))
        check_result(result, Example.make([left, right], output))

    def test_gather_task(self):
        wide = Table(["shop", "q1", "q2"], [["n", 10, 12], ["s", 7, 6]])
        from repro.components import gather

        output = gather(wide, "quarter", "sales", ["q1", "q2"])
        result = solve([wide], output, SynthesisConfig(timeout=30))
        check_result(result, Example.make([wide], output))

    def test_unsolvable_task_reports_failure(self):
        # The output values cannot be produced from the input by any program
        # in the language within the budget.
        output = Table(["name"], [["Zoe"]])
        result = solve([STUDENTS], output, SynthesisConfig(timeout=3, max_size=2))
        assert not result.solved
        assert result.program is None
        assert result.render() == "<no program found>"

    def test_timeout_is_respected(self):
        output = Table(["name"], [["Zoe"]])
        result = solve([STUDENTS], output, SynthesisConfig(timeout=1.0, max_size=3))
        assert result.elapsed < 10

    def test_timeout_is_honored_inside_refinement_fanout(self):
        # A library whose iteration never terminates: without the deadline
        # check inside the refinement loop, a single hypothesis expansion
        # would spin forever fanning out refinements.
        class EndlessLibrary:
            def __init__(self, components):
                self._components = list(components)

            def __iter__(self):
                while True:
                    yield from self._components

        output = Table(["name"], [["Zoe"]])
        result = solve(
            [STUDENTS],
            output,
            SynthesisConfig(timeout=0.5),
            library=EndlessLibrary(standard_library()),
        )
        assert not result.solved
        assert result.elapsed < 10


class TestConfigurations:
    def test_describe(self):
        assert SynthesisConfig().describe() == "spec2"
        assert SynthesisConfig(spec_level=SpecLevel.SPEC1).describe() == "spec1"
        assert SynthesisConfig(deduction=False).describe() == "no-deduction"
        assert SynthesisConfig(partial_evaluation=False).describe() == "spec2-no-pe"
        assert SynthesisConfig(prescreen=False).describe() == "spec2-no-prescreen"

    def test_prescreen_counters_surface_through_synthesis_stats(self):
        # A task whose completion enumerates (and prunes) candidate hole
        # fillings, so the prescreen's share of the pruning is visible.
        from repro.benchmarks import r_benchmark_suite

        benchmark = r_benchmark_suite().get("c2_orders_count_by_region")
        table, output = benchmark.inputs[0], benchmark.output
        tiered = solve([table], output, SynthesisConfig(timeout=30))
        plain = solve(
            [table], output, SynthesisConfig(timeout=30, prescreen=False)
        )
        assert tiered.solved and plain.solved
        assert tiered.render() == plain.render()
        assert tiered.stats.deduction.prescreen_decided > 0
        assert 0.0 < tiered.stats.deduction.prescreen_hit_rate <= 1.0
        assert plain.stats.deduction.prescreen_decided == 0
        assert plain.stats.deduction.prescreen_fallback == 0
        # The prescreen's pruning shows up inside sketch completion too.
        assert tiered.stats.completion.pruned_by_prescreen > 0
        assert (
            tiered.stats.completion.pruned_by_prescreen
            <= tiered.stats.completion.pruned_partial
        )

    def test_no_deduction_still_solves_simple_tasks(self):
        output = Table(["name", "age", "gpa"], [["Bob", 18, 3.2], ["Tom", 12, 3.0]])
        result = solve(
            [STUDENTS], output, SynthesisConfig(timeout=20, deduction=False)
        )
        assert result.solved
        assert result.stats.deduction.smt_calls == 0

    def test_spec1_solves_simple_tasks(self):
        output = Table(["name", "gpa"], [["Alice", 4.0], ["Bob", 3.2], ["Tom", 3.0]])
        result = solve(
            [STUDENTS], output,
            SynthesisConfig(timeout=20, spec_level=SpecLevel.SPEC1),
        )
        assert result.solved

    def test_deduction_reduces_checked_programs(self):
        table = Table(["city", "person"],
                      [["austin", "a"], ["austin", "b"], ["waco", "c"]])
        output = Table(["city", "n"], [["austin", 2], ["waco", 1]])
        with_deduction = solve([table], output, SynthesisConfig(timeout=30))
        without = solve(
            [table], output, SynthesisConfig(timeout=30, deduction=False)
        )
        assert with_deduction.solved and without.solved
        assert (
            with_deduction.stats.programs_checked <= without.stats.programs_checked
        )

    def test_restricted_library(self):
        output = Table(["name", "age", "gpa"], [["Bob", 18, 3.2], ["Tom", 12, 3.0]])
        result = solve(
            [STUDENTS], output, SynthesisConfig(timeout=20), library=sql_library()
        )
        assert result.solved

    def test_stats_are_populated(self):
        output = Table(["name", "age", "gpa"], [["Bob", 18, 3.2], ["Tom", 12, 3.0]])
        session, result = solve_session([STUDENTS], output, SynthesisConfig(timeout=20))
        stats = result.stats
        assert stats.hypotheses_expanded >= 1
        assert stats.hypotheses_enqueued >= stats.hypotheses_expanded
        assert stats.sketches_generated >= 1
        counters = session.counters()
        assert 0 <= counters["pruned_partial"] <= counters["partial_programs"]


class TestRendering:
    def test_render_uses_input_names(self):
        output = Table(["name", "age", "gpa"], [["Bob", 18, 3.2], ["Tom", 12, 3.0]])
        result = solve([STUDENTS], output, SynthesisConfig(timeout=20))
        text = result.render(["students"])
        assert "students" in text
        assert text.startswith("df1 =")
