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


def tier_counters(engine):
    """The counters of the deduction tiers a query can reach past the memo."""
    stats = engine.stats
    return stats.smt_calls, stats.prescreen_decided, stats.prescreen_fallback


class TestVerdictMemo:
    def test_repeated_query_is_a_cache_hit(self):
        engine = DeductionEngine(inputs=[T1], output=T3)
        hypothesis = build_chain("select", "filter")
        first = engine.deduce(hypothesis)
        counted = tier_counters(engine)
        second = engine.deduce(hypothesis)
        assert first is second is True
        assert sum(counted) >= 1
        assert tier_counters(engine) == counted  # no new prescreen or SMT work

    def test_repeated_rejection_is_answered_by_the_memo(self):
        # The second rejection is a verdict-cache hit.
        engine = DeductionEngine(inputs=[T1], output=T1)
        hypothesis = build_chain("select")  # must drop a column: UNSAT
        assert engine.deduce(hypothesis) is False
        counted = tier_counters(engine)
        assert engine.deduce(hypothesis) is False
        assert tier_counters(engine) == counted

    def test_verdict_key_includes_level_and_partial_evaluation(self):
        engine = DeductionEngine(inputs=[T1], output=T3)
        hypothesis = build_chain("filter")
        key = engine._verdict_key(hypothesis, {})
        assert key[0] is engine.level
        assert key[1] is engine.use_partial_evaluation

    def test_memo_answers_repeated_queries_during_a_search(self):
        # A multi-component task re-deduces structurally identical partial
        # programs during completion, so the verdict memo must be hit.
        inputs = [Table(["name", "year", "price"],
                        [["p1", 2017, 10], ["p1", 2018, 12],
                         ["p2", 2017, 20], ["p2", 2018, 24]])]
        output = Table(["name", "2017", "2018"],
                       [["p1", 10, 12], ["p2", 20, 24]])
        request = SynthesisRequest.from_tables(
            inputs, output, config=SynthesisConfig(timeout=30.0)
        )
        session = create_session(request)
        assert session.solve().solved
        assert session._kernel.engine._verdict_cache.stats.hits > 0


class TestAbstractionCache:
    def test_equal_attribute_vectors_share_a_formula(self):
        engine = DeductionEngine(inputs=[T1], output=T3)
        variables = engine.node_vars(1)
        first = engine._abstract(T1, variables)
        # A distinct table object with the same contents has the same
        # attribute vector, so the memo hands back the very same formula.
        twin = Table(list(T1.columns), [list(row) for row in T1.rows])
        assert twin is not T1
        assert engine._abstract(twin, variables) is first
        assert engine._abstract(T3, variables) is not first


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
