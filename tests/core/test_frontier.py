"""Tests for the explicit search frontier and the anytime search kernel."""

import itertools

import pytest
from snapshots import encode_hypothesis, watch

from repro.api import SynthesisRequest, create_session
from repro.benchmarks import r_benchmark_suite
from repro.core import Example, SynthesisConfig, standard_library
from repro.core.cost import CostModel
from repro.core.frontier import (
    CompletionState,
    Frontier,
    HypothesisState,
    SearchKernel,
    SketchState,
)
from repro.core.hypothesis import (
    evaluate,
    initial_hypothesis,
    refine,
    render_program,
    table_holes,
)
from repro.dataframe import Table, tables_match_for_synthesis

LIBRARY = standard_library()
COMPONENTS = {component.name: component for component in LIBRARY}

STUDENTS = Table(["name", "age", "gpa"],
                 [["Alice", 8, 4.0], ["Bob", 18, 3.2], ["Tom", 12, 3.0]])
ADULTS = Table(["name", "age", "gpa"], [["Bob", 18, 3.2], ["Tom", 12, 3.0]])
NAME_GPA = Table(["name", "gpa"], [["Alice", 4.0], ["Bob", 3.2], ["Tom", 3.0]])


def kernel_for(example, k=1, timeout=20):
    """A search kernel for tests that drive it directly, built as a session builds it."""
    return SearchKernel(example, SynthesisConfig(timeout=timeout), standard_library(), k=k)


def kernel_counters(kernel):
    """Every deterministic search counter of *kernel*, as a comparable dict."""
    return {
        "stats": repr(kernel.stats),
        "node_counter": kernel._node_counter,
        "tiebreak": kernel._tiebreak,
        "peak": kernel.frontier.peak,
    }


def solve_session(inputs, output, config):
    """Drive one session to completion; the session and its core result."""
    session = create_session(SynthesisRequest.from_tables(inputs, output, config=config))
    return session, session.solve()


def solve(example, **knobs):
    """The core result of one session over *example* (20 s budget)."""
    return solve_session(example.inputs, example.output, SynthesisConfig(timeout=20, **knobs))[1]


def build_hypothesis(*names):
    next_id = itertools.count(1)
    hypothesis = initial_hypothesis()
    for name in names:
        hole = table_holes(hypothesis)[0]
        hypothesis = refine(hypothesis, hole, COMPONENTS[name], lambda: next(next_id))
    return hypothesis


class TestFrontier:
    def test_continuations_pop_before_hypotheses(self):
        frontier = Frontier(CostModel())
        frontier.push_hypothesis(build_hypothesis("filter"), 0)
        marker = SketchState(build_hypothesis("select"))
        frontier.push_continuation(marker)
        assert frontier.pop() is marker
        popped = frontier.pop()
        assert isinstance(popped, HypothesisState)

    def test_continuations_are_lifo(self):
        frontier = Frontier(CostModel())
        first, second = SketchState(None), SketchState(None)
        frontier.push_continuation(first)
        frontier.push_continuation(second)
        assert frontier.pop() is second
        assert frontier.pop() is first

    def test_hypotheses_pop_in_cost_order(self):
        frontier = Frontier(CostModel())
        small = build_hypothesis("filter")
        large = build_hypothesis("gather", "spread")
        frontier.push_hypothesis(large, 0)
        frontier.push_hypothesis(small, 1)
        assert frontier.pop().hypothesis == small
        assert frontier.pop().hypothesis == large

    def test_peak_tracks_maximum_size(self):
        frontier = Frontier(CostModel())
        for tiebreak in range(5):
            frontier.push_hypothesis(build_hypothesis("filter"), tiebreak)
        for _ in range(5):
            frontier.pop()
        assert frontier.peak == 5
        assert len(frontier) == 0


class TestHypothesisSerialisation:
    def test_encoding_names_components_and_node_ids(self):
        hypothesis = build_hypothesis("gather", "spread")
        payload = encode_hypothesis(hypothesis)
        assert payload["kind"] == "apply"
        assert payload["id"] == hypothesis.node_id
        # The last refinement fills the first one's table hole.
        assert payload["component"] == "gather"
        assert payload["children"][0]["component"] == "spread"
        assert payload["children"][0]["children"][0]["kind"] == "hole"

    def test_encoding_is_json_compatible(self):
        import json

        payload = encode_hypothesis(build_hypothesis("group_by", "summarise"))
        assert json.loads(json.dumps(payload)) == payload


class TestSearchKernel:
    def example(self):
        return Example.make([STUDENTS], ADULTS)

    def test_run_finds_the_same_program_as_synthesize(self):
        result = solve(self.example())
        kernel = kernel_for(self.example())
        kernel.run()
        assert kernel.solved
        assert kernel.solutions[0] == result.program

    def test_anytime_stepping_reaches_the_same_program(self):
        reference = solve(self.example())
        kernel = kernel_for(self.example())
        # Drive the kernel in small slices, as an interleaving service would.
        while kernel.run(max_steps=7):
            pass
        assert kernel.solutions[0] == reference.program

    def test_step_advances_one_state_at_a_time(self):
        kernel = kernel_for(self.example())
        steps = 0
        while not kernel.done and steps < 100_000:
            kernel.step()
            steps += 1
        assert kernel.solved
        assert steps > 1

    def test_run_resumes_after_an_expired_deadline(self):
        # The deadline is checked before each step and never inside one: a
        # run() whose deadline has already passed takes no step and leaves
        # the frontier and every counter as they were.  A later run() with
        # no deadline (which also clears the stale one) finds the program
        # an uninterrupted search finds.
        import time

        reference = solve(self.example())
        kernel = kernel_for(self.example())
        kernel.run(max_steps=5)
        pending, counters = len(kernel.frontier), kernel_counters(kernel)
        assert kernel.run(deadline=time.monotonic() - 1.0)
        assert kernel.steps_taken == 5
        assert len(kernel.frontier) == pending
        assert kernel_counters(kernel) == counters
        assert kernel.run() is False  # clears the stale deadline and drains
        assert kernel.solutions[0] == reference.program

    def test_intermittent_timeouts_do_not_lose_search_states(self):
        # Expired run() calls between steps are no-ops: the kernel ends
        # with the program, the step count and the counters of a kernel
        # that was never interrupted.
        import time

        reference = kernel_for(self.example())
        reference.run()
        kernel = kernel_for(self.example())
        steps = 0
        while not kernel.done and steps < 100_000:
            if steps % 5 == 4:
                assert kernel.run(deadline=time.monotonic() - 1.0)
            kernel.step()
            steps += 1
        assert kernel.solved
        assert kernel.solutions == reference.solutions
        assert kernel.steps_taken == reference.steps_taken == steps
        assert kernel_counters(kernel) == kernel_counters(reference)

    def test_snapshot_of_a_solved_kernel_records_the_met_quota(self):
        kernel = kernel_for(self.example())
        snapshot = watch(kernel)
        kernel.run()
        assert kernel.solved
        payload = snapshot()
        assert payload["k"] == 0  # no program left to find
        assert payload["found"] == [render_program(kernel.solutions[0])]

    def test_snapshot_is_json_serialisable(self):
        import json

        kernel = kernel_for(self.example())
        snapshot = watch(kernel)
        kernel.run(max_steps=5)
        payload = json.loads(json.dumps(snapshot()))
        assert payload["version"] == 1
        assert payload["pending"]
        assert "lower_bound" not in payload
        assert all("rank" not in entry for entry in payload["pending"])

    def test_each_kernel_counts_into_its_own_stats(self):
        first, second = kernel_for(self.example()), kernel_for(self.example())
        assert first.stats is not second.stats
        first.run(max_steps=5)
        assert first.stats.hypotheses_expanded > 0
        assert second.stats.hypotheses_expanded == 0

    def test_frontier_peak_is_reported(self):
        example = self.example()
        session, _ = solve_session(example.inputs, example.output, SynthesisConfig(timeout=20))
        assert session.counters()["frontier_peak"] > 0


class TestTopK:
    def test_top_k_collects_distinct_programs(self):
        # Selecting two of three columns has several observationally distinct
        # solutions (select variants, negative selects, ...).
        output = Table(["name", "gpa"], [["Alice", 4.0], ["Bob", 3.2], ["Tom", 3.0]])
        _, result = solve_session([STUDENTS], output, SynthesisConfig(timeout=20, top_k=3))
        assert result.solved
        assert 1 <= len(result.programs) <= 3
        rendered = result.render_all()
        assert len(set(rendered)) == len(rendered)
        for program in result.programs:
            assert tables_match_for_synthesis(evaluate(program, [STUDENTS]), output)

    def test_first_solution_is_independent_of_k(self):
        output = Table(["name", "gpa"], [["Alice", 4.0], ["Bob", 3.2], ["Tom", 3.0]])
        _, single = solve_session([STUDENTS], output, SynthesisConfig(timeout=20))
        _, multi = solve_session([STUDENTS], output, SynthesisConfig(timeout=20, top_k=3))
        assert multi.program == single.program
        assert multi.programs[0] == multi.program

    def test_config_describe_mentions_no_oe(self):
        assert SynthesisConfig(oe=False).describe() == "spec2-no-oe"
        assert SynthesisConfig().describe() == "spec2"

class TestRaisingTheQuota:
    """Raising ``k`` on a live kernel continues the uninterrupted search."""

    @staticmethod
    def example(name):
        if name == "students_name_gpa":
            return Example.make([STUDENTS], NAME_GPA)
        benchmark = r_benchmark_suite().get(name)
        return Example.make(benchmark.inputs, benchmark.output)

    @pytest.mark.parametrize("quotas", [(1, 2, 3), (1, 3)])
    @pytest.mark.parametrize(
        "name", ["students_name_gpa", "c2_orders_count_by_region", "c3_sensor_gather_separate"]
    )
    def test_raising_k_matches_an_uninterrupted_kernel(self, name, quotas):
        example = self.example(name)
        reference = kernel_for(example, k=3, timeout=None)
        reference.run()
        assert len(reference.solutions) == 3

        kernel = kernel_for(example, k=1, timeout=None)
        for k in quotas:
            kernel.k = k
            kernel.run()
            assert len(kernel.solutions) == k
        assert [render_program(p) for p in kernel.solutions] == [
            render_program(p) for p in reference.solutions
        ]
        # Same search, step for step: nothing was dropped or re-explored.
        assert kernel.steps_taken == reference.steps_taken
        assert kernel.stats == reference.stats
        assert len(kernel.frontier) == len(reference.frontier)

    def test_the_run_that_meets_the_quota_stays_on_the_frontier(self):
        kernel = kernel_for(self.example("students_name_gpa"))
        kernel.run()
        assert kernel.solved
        top = kernel.frontier.continuation_states()[-1]
        assert isinstance(top, CompletionState)
        assert not top.run.exhausted
