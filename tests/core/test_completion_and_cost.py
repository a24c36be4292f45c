"""Tests for sketch completion (Figure 14) and the statistical cost model."""

import itertools

import pytest

from repro.core import standard_library
from repro.core.completion import CompletionBudgetExceeded, SketchCompleter
from repro.core.cost import CostModel, NGramModel, UniformCostModel, default_ngram_model
from repro.core.deduction import DeductionEngine
from repro.core.hypothesis import (
    evaluate,
    initial_hypothesis,
    is_complete,
    refine,
    sketches,
    table_holes,
)
from repro.dataframe import Table, tables_match_for_synthesis

LIBRARY = standard_library()
COMPONENTS = {component.name: component for component in LIBRARY}
STUDENTS = Table(["name", "age", "gpa"],
                 [["Alice", 8, 4.0], ["Bob", 18, 3.2], ["Tom", 12, 3.0]])
ADULTS = Table(["name", "age", "gpa"], [["Bob", 18, 3.2], ["Tom", 12, 3.0]])
NAMES_OF_ADULTS = Table(["name", "age"], [["Bob", 18], ["Tom", 12]])


def build_sketch(*names, inputs=1):
    next_id = itertools.count(1)
    hypothesis = initial_hypothesis()
    for name in names:
        hole = table_holes(hypothesis)[0]
        hypothesis = refine(hypothesis, hole, COMPONENTS[name], lambda: next(next_id))
    return next(sketches(hypothesis, inputs))


class TestSketchCompletion:
    def test_filter_sketch_yields_matching_program(self):
        engine = DeductionEngine(inputs=[STUDENTS], output=ADULTS)
        completer = SketchCompleter(engine)
        sketch = build_sketch("filter")
        programs = list(completer.fill_sketch(sketch))
        assert programs
        assert any(
            tables_match_for_synthesis(evaluate(program, [STUDENTS]), ADULTS)
            for program in programs
        )

    def test_all_yields_are_complete(self):
        engine = DeductionEngine(inputs=[STUDENTS], output=ADULTS)
        completer = SketchCompleter(engine)
        for program in completer.fill_sketch(build_sketch("filter")):
            assert is_complete(program)

    def test_select_filter_chain_completion(self):
        engine = DeductionEngine(inputs=[STUDENTS], output=NAMES_OF_ADULTS)
        completer = SketchCompleter(engine)
        sketch = build_sketch("select", "filter")
        found = False
        for program in completer.fill_sketch(sketch):
            if tables_match_for_synthesis(evaluate(program, [STUDENTS]), NAMES_OF_ADULTS):
                found = True
                break
        assert found

    def test_deduction_prunes_partial_candidates(self):
        engine = DeductionEngine(inputs=[STUDENTS], output=NAMES_OF_ADULTS)
        completer = SketchCompleter(engine)
        list(completer.fill_sketch(build_sketch("select", "filter")))
        assert completer.stats.pruned_partial > 0
        assert completer.stats.partial_programs > completer.stats.pruned_partial

    def test_budget_is_enforced(self):
        engine = DeductionEngine(inputs=[STUDENTS], output=NAMES_OF_ADULTS)
        completer = SketchCompleter(engine, budget=3)
        with pytest.raises(CompletionBudgetExceeded):
            list(completer.fill_sketch(build_sketch("select", "filter")))

    def test_stepwise_run_yields_the_recursion_order(self):
        # The iterative worklist must surface complete programs in exactly
        # the order the recursive FILLSKETCH produced them (DFS over the
        # argument enumeration).
        engine = DeductionEngine(inputs=[STUDENTS], output=ADULTS)
        completer = SketchCompleter(engine)
        run = completer.start(build_sketch("filter"))
        stepped = []
        while not run.exhausted:
            finished = run.step()
            if finished is not None:
                stepped.append(repr(finished.sketch))
        engine2 = DeductionEngine(inputs=[STUDENTS], output=ADULTS)
        completer2 = SketchCompleter(engine2)
        pulled = [repr(p) for p in completer2.fill_sketch(build_sketch("filter"))]
        assert stepped == pulled
        assert stepped


class TestNGramModel:
    def test_trained_bigrams_are_more_likely(self):
        model = default_ngram_model()
        likely = model.bigram_log_probability("group_by", "summarise")
        unlikely = model.bigram_log_probability("summarise", "group_by")
        assert likely > unlikely

    def test_sequence_probability_sums_bigrams(self):
        model = NGramModel(["a", "b"])
        model.train([("a", "b"), ("a", "b")])
        two = model.sequence_log_probability(["a", "b"])
        one = model.sequence_log_probability(["a"])
        assert two > one + model.bigram_log_probability("a", "a")  # b follows a more often

    def test_unseen_tokens_get_smoothed_probability(self):
        model = default_ngram_model()
        assert model.bigram_log_probability("spread", "never_seen") < 0
        assert model.sequence_log_probability(["never_seen", "spread"]) < 0

    def test_table_scores_equal_the_formula(self):
        """Sequences score from a bigram table, bit-identical to the formula."""
        model = default_ngram_model()
        names = [component.name for component in LIBRARY]
        compared = 0
        for length in range(5):
            for sequence in itertools.product(names, repeat=length):
                for closed in (False, True):
                    tokens = ["<s>", *sequence] + (["</s>"] if closed else [])
                    formula = 0.0
                    for left, right in zip(tokens, tokens[1:]):
                        formula += model.bigram_log_probability(left, right)
                    assert model.sequence_log_probability(sequence, closed) == formula
                    compared += 1
        assert compared == 2 * sum(len(names) ** length for length in range(5))

    def test_training_rebuilds_the_table(self):
        model = NGramModel(["a", "b"])
        model.train([("a", "b")])
        before = model.sequence_log_probability(["a", "b"])
        model.train([("a", "b")])
        assert model.sequence_log_probability(["a", "b"]) > before


class TestCostModel:
    def test_smaller_is_cheaper_for_same_idiom(self):
        model = CostModel()
        assert model.score(1, ("gather",)) < model.score(2, ("gather", "spread"))

    def test_idiomatic_sequences_beat_exotic_ones_of_same_size(self):
        model = CostModel()
        idiomatic = model.score(2, ("group_by", "summarise"))
        exotic = model.score(2, ("arrange", "separate"))
        assert idiomatic < exotic

    def test_uniform_model_ignores_sequence(self):
        model = UniformCostModel()
        assert model.priority(2, ("group_by", "summarise")) == model.priority(2, ("arrange", "separate"))

    def test_priority_orders_by_score(self):
        model = CostModel(size_weight=1.0)
        first = model.priority(1, ("filter",))
        second = model.priority(4, ("separate", "arrange", "separate", "arrange"))
        assert first < second
