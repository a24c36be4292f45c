"""Tests for the explicit search frontier and the anytime search kernel."""

import itertools

from repro.api import SynthesisRequest, create_session
from repro.core import Example, SynthesisConfig, SynthesisStats, standard_library
from repro.core.cost import CostModel
from repro.core.frontier import (
    Frontier,
    HypothesisState,
    SearchKernel,
    SketchState,
    decode_hypothesis,
    encode_hypothesis,
)
from repro.core.hypothesis import (
    evaluate,
    initial_hypothesis,
    refine,
    table_holes,
)
from repro.dataframe import Table, tables_match_for_synthesis

LIBRARY = standard_library()
COMPONENTS = {component.name: component for component in LIBRARY}

STUDENTS = Table(["name", "age", "gpa"],
                 [["Alice", 8, 4.0], ["Bob", 18, 3.2], ["Tom", 12, 3.0]])
ADULTS = Table(["name", "age", "gpa"], [["Bob", 18, 3.2], ["Tom", 12, 3.0]])


def kernel_for(example, k=1, timeout=20):
    """A search kernel for tests that drive it directly, built as a session builds it."""
    return SearchKernel(
        example, SynthesisConfig(timeout=timeout), standard_library(), SynthesisStats(), k=k
    )


def restore(payload, example, timeout=20, **kwargs):
    """``SearchKernel.restore`` under the configuration ``kernel_for`` uses."""
    return SearchKernel.restore(
        payload, example, SynthesisConfig(timeout=timeout), standard_library(),
        SynthesisStats(), **kwargs
    )


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
    def test_roundtrip_preserves_structure(self):
        hypothesis = build_hypothesis("gather", "spread")
        payload = encode_hypothesis(hypothesis)
        restored = decode_hypothesis(payload, LIBRARY)
        assert repr(restored) == repr(hypothesis)

    def test_roundtrip_is_json_compatible(self):
        import json

        hypothesis = build_hypothesis("group_by", "summarise")
        payload = json.loads(json.dumps(encode_hypothesis(hypothesis)))
        restored = decode_hypothesis(payload, LIBRARY)
        assert repr(restored) == repr(hypothesis)


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
        # A deadline firing mid-completion must not lose the in-flight
        # state: a later run() with no deadline (which also clears the
        # stale one) continues exactly where the bounded run stopped and
        # finds the same program as an uninterrupted search.
        import time

        reference = solve(self.example())
        kernel = kernel_for(self.example())
        # An already-expired deadline: the first completion step raises
        # CompletionTimeout, which must re-push the interrupted state.
        assert kernel.run(deadline=time.monotonic() - 1.0)
        assert not kernel.solved
        interrupted_pending = len(kernel.frontier)
        assert interrupted_pending > 0
        assert kernel.run() is False  # clears the stale deadline and drains
        assert kernel.solutions[0] == reference.program

    def test_intermittent_timeouts_do_not_lose_search_states(self):
        # Expire the deadline between (and inside) steps repeatedly: every
        # interrupted state -- in-flight completion frames, half-done
        # refinement fan-outs -- must be restored, so the search still finds
        # the same program an uninterrupted run finds.
        import time

        from repro.core.completion import CompletionTimeout
        from repro.core.hypothesis import render_program

        reference = solve(self.example())
        kernel = kernel_for(self.example())
        steps = 0
        while not kernel.done and steps < 100_000:
            if steps % 5 == 4:
                kernel.set_deadline(time.monotonic() - 1.0)
                try:
                    kernel.step()
                except CompletionTimeout:
                    pass
                kernel.set_deadline(None)
            kernel.step()
            steps += 1
        assert kernel.solved
        assert render_program(kernel.solutions[0]) == reference.render()

    def test_snapshot_restore_resumes_to_the_same_program(self):
        reference = solve(self.example())

        kernel = kernel_for(self.example())
        kernel.run(max_steps=5)
        assert not kernel.solved  # interrupted mid-search
        payload = kernel.snapshot()

        restored = restore(payload, self.example())
        restored.run()
        assert restored.solved
        assert restored.solutions[0] == reference.program

    def test_snapshot_after_a_solution_does_not_double_count_on_restore(self):
        # Snapshot taken after a solution was found but with the expansion
        # still in flight: the restored kernel re-runs that expansion and
        # re-finds the first program, which must not consume the remaining
        # top-k quota -- the caller already holds it.
        from repro.core.hypothesis import render_program

        output = Table(["name", "gpa"], [["Alice", 4.0], ["Bob", 3.2], ["Tom", 3.0]])
        example = Example.make([STUDENTS], output)
        reference = solve(example, top_k=2)
        assert len(reference.programs) == 2

        kernel = kernel_for(example, k=2)
        while not kernel.solutions:
            kernel.step()
        payload = kernel.snapshot()
        restored = restore(payload, example)
        restored.run()
        combined = [render_program(kernel.solutions[0])] + [
            render_program(program) for program in restored.solutions
        ]
        assert len(set(combined)) == len(combined)
        assert combined == reference.render_all()

    def test_snapshot_of_a_solved_kernel_restores_to_done(self):
        kernel = kernel_for(self.example())
        kernel.run()
        assert kernel.solved
        restored = restore(kernel.snapshot(), self.example())
        assert restored.done  # quota already met; no extra program is hunted
        assert restored.run() is False
        assert restored.solutions == []

    def test_snapshot_is_json_serialisable(self):
        import json

        kernel = kernel_for(self.example())
        kernel.run(max_steps=5)
        payload = json.loads(json.dumps(kernel.snapshot()))
        assert payload["version"] == 1
        assert payload["pending"]

    def test_restore_ignores_advisory_rank_fields(self):
        # Snapshots written by older versions carry a
        # per-entry "rank" and a top-level "lower_bound".  Restore must
        # accept them and resume exactly where the search stopped.
        import json

        from repro.core.hypothesis import render_program

        uninterrupted = kernel_for(self.example(), timeout=None)
        uninterrupted.run()
        assert uninterrupted.solved

        kernel = kernel_for(self.example(), timeout=None)
        # Stop at a hypothesis boundary, where nothing is re-expanded.
        while kernel.steps_taken < 5 or kernel.frontier.has_continuations:
            kernel.step()
        assert not kernel.solved
        payload = json.loads(json.dumps(kernel.snapshot()))
        assert "lower_bound" not in payload
        assert all("rank" not in entry for entry in payload["pending"])
        for entry in payload["pending"]:
            entry["rank"] = [1, [2.5, 2], [0, 0], entry["tiebreak"]]
        payload["lower_bound"] = [[2.5, 2], [1, [1.0, 1], [0, 0], 3]]

        restored = restore(payload, self.example(), timeout=None)
        restored.run()
        assert [render_program(p) for p in restored.solutions] == [
            render_program(p) for p in uninterrupted.solutions
        ]
        assert kernel.steps_taken + restored.steps_taken == uninterrupted.steps_taken

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

class TestSnapshotValidation:
    def example(self):
        return Example.make([STUDENTS], ADULTS)

    def restore(self, payload):
        return restore(payload, self.example())

    def snapshot(self):
        kernel = kernel_for(self.example())
        kernel.run(max_steps=5)
        return kernel.snapshot()

    def test_wrong_version_raises_typed_error(self):
        import pytest

        from repro.core import SnapshotVersionError

        payload = self.snapshot()
        payload["version"] = 999
        with pytest.raises(SnapshotVersionError, match="version 999"):
            self.restore(payload)

    def test_missing_version_raises_typed_error(self):
        import pytest

        from repro.core import SnapshotVersionError

        payload = self.snapshot()
        del payload["version"]
        with pytest.raises(SnapshotVersionError):
            self.restore(payload)

    def test_missing_required_key_raises_typed_error_not_keyerror(self):
        import pytest

        from repro.core import SnapshotVersionError

        for key in ("k", "tiebreak", "node_counter", "visited", "pending"):
            payload = self.snapshot()
            del payload[key]
            with pytest.raises(SnapshotVersionError, match=key):
                self.restore(payload)

    def test_non_dict_payload_raises_snapshot_error(self):
        import pytest

        from repro.core import SnapshotError

        with pytest.raises(SnapshotError, match="dict"):
            self.restore([1, 2, 3])

    def test_malformed_pending_lane_raises_snapshot_error(self):
        import pytest

        from repro.core import SnapshotError

        payload = self.snapshot()
        payload["pending"] = [{"tiebreak": 0, "hypothesis": {"bogus": True}}]
        with pytest.raises(SnapshotError, match="pending"):
            self.restore(payload)

    def test_snapshot_error_is_a_value_error(self):
        from repro.core import SnapshotError, SnapshotVersionError

        assert issubclass(SnapshotVersionError, SnapshotError)
        assert issubclass(SnapshotError, ValueError)


class TestSuspendResume:
    """suspend() + the oe_store carry: resume without re-exploring merged states."""

    def example(self):
        output = Table(["name", "gpa"], [["Alice", 4.0], ["Bob", 3.2], ["Tom", 3.0]])
        return Example.make([STUDENTS], output)

    def build(self, k=3):
        return kernel_for(self.example(), k=k)

    def test_suspended_kernel_resumes_to_the_same_programs(self):
        from repro.core.hypothesis import render_program

        reference = self.build()
        reference.run()
        expected = [render_program(p) for p in reference.solutions]

        kernel = self.build()
        while not kernel.solutions:
            kernel.step()
        found = [render_program(p) for p in kernel.solutions]
        payload = kernel.suspend()
        restored = restore(payload, self.example(), oe_store=kernel.oe_store)
        restored.run()
        assert found + [render_program(p) for p in restored.solutions] == expected

    def test_oe_carry_keeps_merged_states_merged(self):
        # The carried store is adopted by the successor kernel (identity,
        # not a copy), and the representatives the suspended search fully
        # explored stay in it -- an observationally equal state offered
        # after the resume merges instead of being re-enumerated.
        from repro.core.oe import OEStore

        kernel = self.build()
        while not (kernel.solutions and kernel.frontier.has_continuations):
            kernel.step()
        payload = kernel.suspend()
        assert len(kernel.oe_store) > 0  # fully-explored representatives survive
        surviving = set(kernel.oe_store._representatives)

        restored = restore(payload, self.example(), oe_store=kernel.oe_store)
        assert restored.oe_store is kernel.oe_store
        assert restored.completer.oe_store is kernel.oe_store
        # A pre-suspend state re-offered post-resume merges with the carry...
        key = next(iter(surviving))
        assert restored.oe_store.admit(key) is False
        # ...but would be re-explored from a fresh store (what a restore
        # without the carry would do).
        assert OEStore().admit(key) is True

    def test_suspend_withdraws_pending_admissions(self):
        # States still pending on the continuation lane are only partially
        # explored; suspend() must withdraw their admissions so the
        # successor's re-expansion is not wrongly suppressed.
        from repro.core.frontier import CompletionState

        kernel = self.build()
        while not (kernel.solutions and kernel.frontier.has_continuations):
            kernel.step()
        pending_admits = sum(
            len(state.run._admitted)
            for state in kernel.frontier.continuation_states()
            if isinstance(state, CompletionState)
        )
        before = len(kernel.oe_store)
        kernel.suspend()
        assert len(kernel.oe_store) == before - pending_admits

    def test_steps_taken_counts_this_kernels_work_only(self):
        kernel = self.build(k=1)
        assert kernel.steps_taken == 0
        kernel.run(max_steps=5)
        assert kernel.steps_taken == 5
        restored = restore(kernel.suspend(), self.example(), oe_store=kernel.oe_store)
        assert restored.steps_taken == 0  # accumulating across kernels is the caller's job
        restored.run(max_steps=3)
        assert restored.steps_taken == 3
