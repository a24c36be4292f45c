"""Tests for the SMT-based deduction engine (Algorithm 2)."""

import itertools

from repro.core import SpecLevel, standard_library
from repro.core.arguments import Constant, Predicate
from repro.core.deduction import DeductionEngine
from repro.core.hypothesis import (
    fill_value_hole,
    initial_hypothesis,
    refine,
    sketches,
    table_holes,
    unfilled_value_holes,
)
from repro.dataframe import Table

LIBRARY = standard_library()
COMPONENTS = {component.name: component for component in LIBRARY}

# Figure 8 of the paper: T1 (3 students) and T2 (a selection of its rows).
T1 = Table(["id", "name", "age", "gpa"],
           [[1, "Alice", 8, 4.0], [2, "Bob", 18, 3.2], [3, "Tom", 12, 3.0]])
T2 = Table(["id", "name", "age", "gpa"],
           [[2, "Bob", 18, 3.2], [3, "Tom", 12, 3.0]])
T3 = Table(["id", "name", "age"],
           [[2, "Bob", 18], [3, "Tom", 12]])


def build_chain(*names):
    next_id = itertools.count(1)
    hypothesis = initial_hypothesis()
    for name in names:
        hole = table_holes(hypothesis)[0]
        hypothesis = refine(hypothesis, hole, COMPONENTS[name], lambda: next(next_id))
    return hypothesis


class TestHypothesisLevelDeduction:
    def test_example10_rejects_select_filter_for_equal_columns(self):
        # Output has the same number of columns as the input, but the
        # hypothesis contains a projection that must drop a column: UNSAT.
        engine = DeductionEngine(inputs=[T1], output=T2)
        hypothesis = build_chain("select", "filter")
        assert engine.deduce(hypothesis) is False
        assert engine.stats.prescreen_decided + engine.stats.smt_calls == 1

    def test_select_filter_accepted_when_columns_shrink(self):
        engine = DeductionEngine(inputs=[T1], output=T3)
        hypothesis = build_chain("select", "filter")
        assert engine.deduce(hypothesis) is True

    def test_filter_alone_accepted(self):
        engine = DeductionEngine(inputs=[T1], output=T2)
        assert engine.deduce(build_chain("filter")) is True

    def test_mutate_rejected_when_columns_match(self):
        engine = DeductionEngine(inputs=[T1], output=T2)
        assert engine.deduce(build_chain("mutate")) is False

    def test_spec1_weaker_than_spec2(self):
        # Spreading the Example 1 input cannot create 4 new column names; only
        # Spec 2 sees that (appendix Example 13).
        wide = Table(["id", "year", "A", "B"],
                     [[1, 2007, 5, 10], [2, 2009, 3, 50], [1, 2007, 5, 17], [2, 2009, 6, 17]])
        out = Table(["id", "A_2007", "B_2007", "A_2009", "B_2009"],
                    [[1, 5, 10, 5, 17], [2, 3, 50, 6, 17]])
        hypothesis = build_chain("spread")
        spec1 = DeductionEngine(inputs=[wide], output=out, level=SpecLevel.SPEC1)
        spec2 = DeductionEngine(inputs=[wide], output=out, level=SpecLevel.SPEC2)
        assert spec1.deduce(hypothesis) is True
        assert spec2.deduce(hypothesis) is False

    def test_disabled_engine_never_rejects(self):
        engine = DeductionEngine(inputs=[T1], output=T2, enabled=False)
        assert engine.deduce(build_chain("select", "filter")) is True
        assert engine.stats.smt_calls == 0


class TestPartialEvaluationInDeduction:
    def _sketch(self):
        hypothesis = build_chain("select", "filter")
        return next(sketches(hypothesis, 1))

    def test_example12_partially_filled_sketch_rejected(self):
        # Filling the filter predicate with age > 12 keeps a single row, which
        # cannot lead to the two-row output (Example 12 of the paper).
        engine = DeductionEngine(inputs=[T1], output=T3)
        sketch = self._sketch()
        predicate_hole = [
            hole for hole in unfilled_value_holes(sketch)
            if hole.hole_type.value == "row -> bool"
        ][0]
        candidate = fill_value_hole(sketch, predicate_hole, Predicate("age", ">", Constant(12)))
        assert engine.deduce(candidate) is False

    def test_correct_predicate_survives(self):
        engine = DeductionEngine(inputs=[T1], output=T3)
        sketch = self._sketch()
        predicate_hole = [
            hole for hole in unfilled_value_holes(sketch)
            if hole.hole_type.value == "row -> bool"
        ][0]
        candidate = fill_value_hole(sketch, predicate_hole, Predicate("age", ">", Constant(8)))
        assert engine.deduce(candidate) is True

    def test_evaluation_failure_rejects_before_any_tier(self):
        engine = DeductionEngine(inputs=[T1], output=T3)
        sketch = self._sketch()
        predicate_hole = [
            hole for hole in unfilled_value_holes(sketch)
            if hole.hole_type.value == "row -> bool"
        ][0]
        # age > 0 keeps every row, which the executor refuses.
        candidate = fill_value_hole(sketch, predicate_hole, Predicate("age", ">", Constant(0)))
        assert engine.deduce(candidate) is False
        stats = engine.stats
        assert (stats.prescreen_decided, stats.prescreen_fallback, stats.smt_calls) == (0, 0, 0)

    def test_without_partial_evaluation_the_candidate_survives(self):
        engine = DeductionEngine(inputs=[T1], output=T3, use_partial_evaluation=False)
        sketch = self._sketch()
        predicate_hole = [
            hole for hole in unfilled_value_holes(sketch)
            if hole.hole_type.value == "row -> bool"
        ][0]
        candidate = fill_value_hole(sketch, predicate_hole, Predicate("age", ">", Constant(12)))
        assert engine.deduce(candidate) is True

    def test_verdict_cache_reuses_results(self):
        engine = DeductionEngine(inputs=[T1], output=T2)
        hypothesis = build_chain("select", "filter")
        engine.deduce(hypothesis)
        calls = engine.stats.smt_calls
        engine.deduce(hypothesis)
        assert engine.stats.smt_calls == calls


class TestStats:
    def test_stats_accumulate(self):
        engine = DeductionEngine(inputs=[T1], output=T2)
        engine.deduce(build_chain("filter"))
        engine.deduce(build_chain("mutate"))
        # Two distinct queries: each reaches the prescreen once.
        assert engine.stats.prescreen_decided + engine.stats.prescreen_fallback == 2
        assert engine.stats.smt_calls >= 1
