"""Tests for the sanctioned facade: repro.api."""

import json

import pytest

from repro import Table
from repro.api import (
    CLOCK_COUNTERS,
    RequestError,
    SessionState,
    SynthesisRequest,
    SynthesisResult,
    config_from_json,
    config_to_json,
    create_session,
    example_to_json,
    solve,
    table_from_json,
    table_to_json,
)
from repro.benchmarks import r_benchmark_suite
from repro.core import Apply, Example, SynthesisConfig, render_program

STUDENTS = Table(["name", "age", "gpa"],
                 [["Alice", 8, 4.0], ["Bob", 18, 3.2], ["Tom", 12, 3.0]])
ADULTS = Table(["name", "age", "gpa"], [["Bob", 18, 3.2], ["Tom", 12, 3.0]])

EMPLOYEES = Table(
    ["name", "dept", "salary"],
    [["ann", "eng", 100], ["bob", "eng", 90], ["cal", "ops", 80]],
)
HEADCOUNT = Table(["dept", "n"], [["eng", 2], ["ops", 1]])


def filter_request(**knobs):
    knobs.setdefault("timeout", 20)
    return SynthesisRequest.from_tables([STUDENTS], ADULTS, **knobs)


class TestTableJson:
    def test_round_trip_preserves_content_and_types(self):
        payload = json.loads(json.dumps(table_to_json(STUDENTS)))
        restored = table_from_json(payload)
        assert restored.columns == STUDENTS.columns
        assert restored.rows == STUDENTS.rows
        assert restored.col_types == STUDENTS.col_types

    def test_col_types_are_optional(self):
        restored = table_from_json({"columns": ["a"], "rows": [[1], [2]]})
        assert restored.rows == ((1,), (2,))

    def test_malformed_payloads_raise_request_error(self):
        with pytest.raises(RequestError):
            table_from_json("not a table")
        with pytest.raises(RequestError, match="rows"):
            table_from_json({"columns": ["a"]})
        with pytest.raises(RequestError, match="column type"):
            table_from_json(
                {"columns": ["a"], "rows": [[1]], "col_types": ["bogus"]}
            )


class TestRequestJson:
    def test_round_trip(self):
        request = filter_request(top_k=2)
        restored = SynthesisRequest.from_json(json.loads(json.dumps(request.to_json())))
        assert restored == request

    def test_config_round_trip_covers_every_knob(self):
        config = SynthesisConfig(timeout=5.0, top_k=3, oe=False)
        assert config_from_json(config_to_json(config)) == config

    def test_unknown_config_knob_raises(self):
        # distributed/workers were knobs of the removed distributed search,
        # backend picked the removed numpy execution backend.
        for knob in ("warp_drive", "distributed", "workers", "backend"):
            with pytest.raises(RequestError, match="unknown config knobs"):
                config_from_json({knob: True})

    def test_unknown_library_raises(self):
        with pytest.raises(RequestError, match="library"):
            SynthesisRequest.from_json(
                {"examples": [example_to_json(Example.make([STUDENTS], ADULTS))],
                 "library": "pandas"}
            )

    def test_empty_examples_raise(self):
        with pytest.raises(RequestError, match="examples"):
            SynthesisRequest.from_json({"examples": []})

    def test_examples_with_another_number_of_inputs_raise(self):
        payload = {
            "examples": [
                example_to_json(Example.make([STUDENTS], ADULTS)),
                example_to_json(Example.make([STUDENTS, EMPLOYEES], ADULTS)),
            ]
        }
        with pytest.raises(RequestError, match="example 1 has 2 input tables"):
            SynthesisRequest.from_json(payload)
        with pytest.raises(RequestError, match="input tables"):
            create_session(
                SynthesisRequest(
                    (Example.make([STUDENTS], ADULTS), Example.make([STUDENTS, STUDENTS], ADULTS))
                )
            )

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("timeout", float("nan")),
            ("timeout", float("inf")),
            ("timeout", "x"),
            ("timeout", -1),
            ("max_steps", "7"),
            ("max_steps", 2.5),
            ("max_steps", -3),
            ("max_size", "3"),
            ("max_size", True),
            ("completion_budget", -1),
            ("top_k", None),
            ("size_weight", float("nan")),
            ("deduction", "no"),
            ("oe", 1),
        ],
    )
    def test_bad_knob_values_raise(self, knob, value):
        with pytest.raises(RequestError, match=knob):
            config_from_json({knob: value})

    def test_nan_from_a_json_body_is_rejected(self):
        body = json.dumps(
            {"examples": [example_to_json(Example.make([STUDENTS], ADULTS))],
             "config": {"timeout": float("nan")}}
        )
        assert "NaN" in body  # json.dumps/json.loads both allow it
        with pytest.raises(RequestError, match="timeout"):
            SynthesisRequest.from_json(json.loads(body))

    def test_good_knob_values_pass(self):
        knobs = {"timeout": None, "max_steps": 0, "size_weight": 2, "deduction": False}
        config = config_from_json(knobs)
        assert (config.timeout, config.max_steps, config.size_weight) == (None, 0, 2)
        assert config.deduction is False


class TestOneShotSolve:
    def test_result_json_round_trip(self):
        result = solve(filter_request())
        restored = SynthesisResult.from_json(json.loads(json.dumps(result.to_json())))
        assert restored.program == result.program
        assert restored.counters == result.counters

    def test_counters_are_populated(self):
        result = solve(filter_request())
        assert result.counters["steps"] > 0
        assert result.counters["hypotheses_expanded"] > 0
        assert result.counters["tables_built"] > 0


class TestSessionLifecycle:
    def test_advance_streams_candidates_anytime(self):
        session = create_session(filter_request(top_k=2))
        assert session.status == "created"
        seen = []
        while not session.finished:
            session.advance(max_steps=16)
            for candidate in session.candidates[len(seen):]:
                seen.append(candidate)
        assert session.status in ("done", "exhausted", "timeout")
        assert seen
        assert [c.rank for c in seen] == list(range(1, len(seen) + 1))

    def test_solve_equals_sliced_advance(self):
        sliced = create_session(filter_request())
        while not sliced.finished:
            sliced.advance(max_steps=8)
        solved = create_session(filter_request()).solve()
        assert sliced.candidates[0].program == solved.render()

    def test_solve_on_a_finished_session_only_collects_its_result(self):
        session = create_session(filter_request())
        while not session.advance(max_steps=8):
            pass
        steps = session.steps
        result = session.solve()
        assert session.steps == steps  # no step taken
        assert result.solved
        assert isinstance(result.program, Apply)  # the drained program tree
        assert render_program(result.program) == session.candidates[0].program

    def test_solve_after_advance_charges_one_time_budget(self):
        # An output no program produces: the search runs until its budget.
        budget = 1.5
        request = SynthesisRequest.from_tables(
            [STUDENTS], Table(["name"], [["Zoe"]]), timeout=budget
        )
        session = create_session(request)
        while session.active_seconds < budget / 2:
            assert not session.advance(max_steps=16)
        spent = session.active_seconds
        result = session.solve()
        assert session.status == "timeout"
        # solve() gets what is left of the budget, not a fresh one.
        assert result.elapsed < budget - spent + 0.4
        assert session.active_seconds < budget + 0.4

    def test_state_json_round_trip(self):
        session = create_session(filter_request())
        session.advance(max_steps=64)
        state = session.state()
        restored = SessionState.from_json(json.loads(json.dumps(state.to_json())))
        assert restored == state


class TestAddExample:
    DISTINGUISHER = Example.make(
        [Table(["name", "age", "gpa"], [["Zoe", 8, 3.5], ["Max", 20, 2.0]])],
        Table(["name", "age", "gpa"], [["Max", 20, 2.0]]),
    )

    def run_to_first_candidate(self):
        session = create_session(filter_request())
        while not session.finished and not session.candidates:
            session.advance(max_steps=32)
        return session

    def test_counters_continue_across_the_resume(self):
        session = self.run_to_first_candidate()
        before = session.counters()
        session.add_example(self.DISTINGUISHER)
        assert session.resumes == 1
        after_resume = session.counters()
        assert after_resume["steps"] == before["steps"]  # resume loses nothing
        while not session.finished:
            session.advance(max_steps=64)
        after = session.counters()
        assert after["steps"] > before["steps"]
        assert after["partial_programs"] >= before["partial_programs"]
        assert after["frontier_peak"] >= before["frontier_peak"]

    def test_add_example_raises_the_live_kernels_quota(self):
        session = self.run_to_first_candidate()
        kernel = session._kernel
        assert kernel.k == 1
        session.add_example(self.DISTINGUISHER)
        # One kernel for the session's life: the overfit candidate stays in
        # its solution list, and the quota grows by the one still missing.
        assert session._kernel is kernel
        assert kernel.k == 2
        assert session.status == "searching"

    def test_resumes_count_the_examples_added_after_creation(self):
        session = self.run_to_first_candidate()
        for _ in range(2):
            session.add_example(self.DISTINGUISHER)
        # The quota is recomputed from the candidates, not raised per call.
        assert session._kernel.k == 2
        assert session.resumes == 2
        assert session.counters()["resumes"] == 2
        assert self.two_example_session().counters()["resumes"] == 0

    def test_revalidation_marks_overfit_candidates(self):
        session = self.run_to_first_candidate()
        assert session.candidates[0].validated
        session.add_example(self.DISTINGUISHER)
        assert not session.candidates[0].validated

    def test_resumed_program_matches_cold_two_example_run(self):
        session = self.run_to_first_candidate()
        session.add_example(self.DISTINGUISHER)
        while not session.finished and not session.validated_count:
            session.advance(max_steps=64)
        resumed = [c.program for c in session.candidates if c.validated]
        assert resumed

        cold = create_session(
            SynthesisRequest(
                (Example.make([STUDENTS], ADULTS), self.DISTINGUISHER),
                config=SynthesisConfig(timeout=20),
            )
        )
        while not cold.finished and not cold.validated_count:
            cold.advance(max_steps=64)
        cold_programs = [c.program for c in cold.candidates if c.validated]
        assert resumed[0] == cold_programs[0]

    def two_example_session(self):
        return create_session(
            SynthesisRequest(
                (Example.make([STUDENTS], ADULTS), self.DISTINGUISHER),
                config=SynthesisConfig(timeout=20),
            )
        )

    def test_cold_two_example_request_finds_the_primary_searchs_second_program(self):
        # filter(age != 8) is the second program of the primary example's own
        # search.  The completion run that surfaced the first (overfit) one
        # must stay on the frontier, or the widened quota skips past it.
        session = self.two_example_session()
        while not session.finished and not session.validated_count:
            session.advance(max_steps=64)
        validated = [c.program for c in session.candidates if c.validated]
        assert validated[0] == "df1 = filter(table1, age != 8)"
        assert session.steps < 100

    def test_added_example_continues_the_search_a_cold_session_runs(self):
        session = self.run_to_first_candidate()
        session.add_example(self.DISTINGUISHER)
        session.solve()
        cold = self.two_example_session()
        cold.solve()
        assert session.candidates == cold.candidates
        # Every count agrees, step for step; only the resume itself differs.
        ignored = {"resumes", *CLOCK_COUNTERS}
        resumed, fresh = (
            {name: value for name, value in s.counters().items() if name not in ignored}
            for s in (session, cold)
        )
        assert resumed == fresh

    def test_example_with_another_number_of_inputs_leaves_the_session_unchanged(self):
        # A 1-table example on a solved 2-table session used to raise
        # IndexError during revalidation, after it had joined the examples.
        benchmark = r_benchmark_suite().get("c5_orders_join_city")
        session = create_session(
            SynthesisRequest.from_tables(benchmark.inputs, benchmark.output, timeout=20)
        )
        session.solve()
        before = session.state()
        with pytest.raises(RequestError, match="input tables"):
            session.add_example(Example.make([STUDENTS], ADULTS))
        assert session.state() == before
        assert session.resumes == 0

    def test_consistent_extra_example_keeps_candidates_valid(self):
        session = self.run_to_first_candidate()
        # An example the current candidate already satisfies: nothing is
        # invalidated and the met quota ends the session.
        session.add_example(
            Example.make(
                [Table(["name", "age", "gpa"], [["Alice", 8, 4.0], ["Max", 20, 2.0]])],
                Table(["name", "age", "gpa"], [["Max", 20, 2.0]]),
            )
        )
        assert session.candidates[0].validated
        assert session.status == "done"
