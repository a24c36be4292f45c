"""Tests for deduction memoization and the layered formula caches."""

import itertools

from repro.api import SynthesisRequest, create_session
from repro.core import SynthesisConfig, standard_library
from repro.core.deduction import DeductionEngine
from repro.core.hypothesis import initial_hypothesis, refine, table_holes
from repro.dataframe import Table
from repro.smt.solver import (
    CheckResult,
    Solver,
    clear_formula_cache,
    formula_cache_stats,
)
from repro.smt.terms import Int

LIBRARY = standard_library()
COMPONENTS = {component.name: component for component in LIBRARY}

T1 = Table(["id", "name", "age", "gpa"],
           [[1, "Alice", 8, 4.0], [2, "Bob", 18, 3.2], [3, "Tom", 12, 3.0]])
T3 = Table(["id", "name", "age"],
           [[2, "Bob", 18], [3, "Tom", 12]])


def build_chain(*names):
    next_id = itertools.count(1)
    hypothesis = initial_hypothesis()
    for name in names:
        hole = table_holes(hypothesis)[0]
        hypothesis = refine(hypothesis, hole, COMPONENTS[name], lambda: next(next_id))
    return hypothesis


class TestVerdictMemo:
    def test_repeated_query_is_a_cache_hit(self):
        engine = DeductionEngine(inputs=[T1], output=T3)
        hypothesis = build_chain("select", "filter")
        first = engine.deduce(hypothesis)
        smt_calls = engine.stats.smt_calls
        second = engine.deduce(hypothesis)
        assert first is second is True
        assert engine.stats.cache_hits == 1
        assert engine.stats.cache_misses >= 1
        assert engine.stats.smt_calls == smt_calls  # no new SMT work

    def test_cached_rejection_still_counts_as_rejected(self):
        # With lemma learning off, the second rejection is a verdict-cache hit.
        engine = DeductionEngine(inputs=[T1], output=T1, cdcl=False)
        hypothesis = build_chain("select")  # must drop a column: UNSAT
        assert engine.deduce(hypothesis) is False
        rejected = engine.stats.hypotheses_rejected
        assert engine.deduce(hypothesis) is False
        assert engine.stats.hypotheses_rejected == rejected + 1
        assert engine.stats.cache_hits == 1

    def test_lemma_store_answers_repeated_rejections_before_the_cache(self):
        # With lemma learning on, the first rejection mines a blocking lemma,
        # and the replay is answered by the store without a cache probe.
        # (Prescreen off: tier 1 would decide this chain before the SMT
        # tier, and prescreen rejections deliberately skip lemma mining.)
        engine = DeductionEngine(inputs=[T1], output=T1, prescreen=False)
        hypothesis = build_chain("select")
        assert engine.deduce(hypothesis) is False
        assert engine.stats.lemmas_learned >= 1
        rejected = engine.stats.hypotheses_rejected
        assert engine.deduce(hypothesis) is False
        assert engine.stats.hypotheses_rejected == rejected + 1
        assert engine.stats.lemma_prunes == 1
        assert engine.stats.cache_hits == 0

    def test_verdict_key_includes_level_and_partial_evaluation(self):
        engine = DeductionEngine(inputs=[T1], output=T3)
        hypothesis = build_chain("filter")
        key = engine._verdict_key(hypothesis, {})
        assert key[0] is engine.level
        assert key[1] is engine.use_partial_evaluation

    def test_hit_rate_surfaces_through_synthesis_stats(self):
        # A multi-component task re-deduces structurally identical partial
        # programs during completion, so the verdict memo must report hits.
        inputs = [Table(["name", "year", "price"],
                        [["p1", 2017, 10], ["p1", 2018, 12],
                         ["p2", 2017, 20], ["p2", 2018, 24]])]
        output = Table(["name", "2017", "2018"],
                       [["p1", 10, 12], ["p2", 20, 24]])
        request = SynthesisRequest.from_tables(
            inputs, output, config=SynthesisConfig(timeout=30.0)
        )
        result = create_session(request).solve()
        assert result.solved
        assert result.stats.deduction.cache_hits > 0
        assert result.stats.deduction.cache_hit_rate > 0.0


class TestAbstractionCache:
    def test_equal_attribute_vectors_share_a_formula(self):
        engine = DeductionEngine(inputs=[T1], output=T3)
        engine.deduce(build_chain("filter"))
        baseline_hits = engine.stats.abstraction_cache.hits
        engine.deduce(build_chain("select"))
        # The example formula fragments (inputs + output) are reused.
        assert engine.stats.abstraction_cache.hits >= baseline_hits
        assert engine.stats.abstraction_cache.misses > 0


class TestFormulaCache:
    def setup_method(self):
        clear_formula_cache()

    def teardown_method(self):
        clear_formula_cache()

    def test_identical_formulas_share_one_check(self):
        x = Int("x")
        formula = (x >= 1) & (x <= 3)
        first = Solver()
        first.add(formula)
        assert first.check() is CheckResult.SAT
        misses = formula_cache_stats().misses
        second = Solver()
        second.add(formula)
        assert second.check() is CheckResult.SAT
        assert formula_cache_stats().hits == 1
        assert formula_cache_stats().misses == misses

    def test_cached_sat_result_restores_a_model(self):
        x = Int("x")
        formula = (x >= 2) & (x <= 2)
        first = Solver()
        first.add(formula)
        first.check()
        second = Solver()
        second.add(formula)
        assert second.check() is CheckResult.SAT
        model = second.model()
        assert model is not None and model["x"] == 2
        # The cached model must not be aliased between solvers.
        model["x"] = 99
        third = Solver()
        third.add(formula)
        third.check()
        assert third.model()["x"] == 2

    def test_unsat_results_are_cached_too(self):
        x = Int("x")
        formula = (x >= 3) & (x <= 1)
        for _ in range(2):
            solver = Solver()
            solver.add(formula)
            assert solver.check() is CheckResult.UNSAT
        assert formula_cache_stats().hits == 1
