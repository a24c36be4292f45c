"""Tests for the sanctioned facade: repro.api."""

import json
import sys
import warnings

import pytest

from repro import Table
from repro.api import (
    CandidateProgram,
    ExamplePayload,
    RequestError,
    SessionState,
    SynthesisRequest,
    SynthesisResult,
    config_from_json,
    config_to_json,
    create_session,
    solve,
    table_from_json,
    table_to_json,
)
from repro.core import Morpheus, SynthesisConfig, synthesize

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
                {"examples": [ExamplePayload.make([STUDENTS], ADULTS).to_json()],
                 "library": "pandas"}
            )

    def test_empty_examples_raise(self):
        with pytest.raises(RequestError, match="examples"):
            SynthesisRequest.from_json({"examples": []})


class TestOneShotSolve:
    def test_matches_the_legacy_synthesize_entry_point(self):
        legacy = synthesize([STUDENTS], ADULTS, config=SynthesisConfig(timeout=20))
        result = solve(filter_request())
        assert result.solved
        assert result.status == "done"
        assert result.program == legacy.render()

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

    def test_state_json_round_trip(self):
        session = create_session(filter_request())
        session.advance(max_steps=64)
        state = session.state()
        restored = SessionState.from_json(json.loads(json.dumps(state.to_json())))
        assert restored == state


class TestAddExample:
    DISTINGUISHER = ExamplePayload.make(
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
                (ExamplePayload.make([STUDENTS], ADULTS), self.DISTINGUISHER),
                config=SynthesisConfig(timeout=20),
            )
        )
        while not cold.finished and not cold.validated_count:
            cold.advance(max_steps=64)
        cold_programs = [c.program for c in cold.candidates if c.validated]
        assert resumed[0] == cold_programs[0]

    def test_consistent_extra_example_keeps_candidates_valid(self):
        session = self.run_to_first_candidate()
        # An example the current candidate already satisfies: nothing is
        # invalidated and the met quota ends the session.
        session.add_example(
            ExamplePayload.make(
                [Table(["name", "age", "gpa"], [["Alice", 8, 4.0], ["Max", 20, 2.0]])],
                Table(["name", "age", "gpa"], [["Max", 20, 2.0]]),
            )
        )
        assert session.candidates[0].validated
        assert session.status == "done"


class TestDeprecation:
    def test_direct_morpheus_construction_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Morpheus()
            warned_at = sys._getframe().f_lineno - 1
        deprecations = [
            w for w in caught
            if issubclass(w.category, DeprecationWarning)
            and "repro.api.create_session" in str(w.message)
        ]
        assert deprecations
        # The warning must point at the caller's own line, not somewhere
        # inside core/synthesizer.py -- that is what makes it actionable.
        assert deprecations[0].filename == __file__
        assert deprecations[0].lineno == warned_at

    def test_sanctioned_paths_do_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve(SynthesisRequest.from_tables([EMPLOYEES], HEADCOUNT, timeout=20))
        assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]
