"""Incremental sketch completion computes exactly what the full walk did.

Every completion frame carries the partial-evaluation map of its sketch, and
a hole fill evaluates only what it completed, seeded from its parent frame's
map (``partial_evaluate(..., known=)``).  Two properties pin that down:

* at every completion deduction and every CHECK, the map the search uses,
  read top-down, names the same nodes with the same table fingerprints as a
  from-scratch ``partial_evaluate`` of the same candidate;
* programs and the recorded counters of four ablation configurations, on a
  task subset under a fixed step budget, equal the values in
  ``data/incremental_counters.json``, recorded with the completer that
  re-walked every sketch from its root.

Regenerate the data (only for a deliberate change of search order or
counters) with::

    PYTHONPATH=src python tests/core/test_incremental_completion.py
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import SynthesisRequest, create_session
from repro.baselines import (
    no_deduction_config,
    spec1_config,
    spec2_config,
    spec2_no_oe_config,
    spec2_no_partial_eval_config,
)
from repro.benchmarks import r_benchmark_suite
from repro.core import frontier
from repro.core.deduction import DeductionEngine
from repro.core.hypothesis import Apply, EvaluationFailure, partial_evaluate
from repro.smt.solver import clear_formula_cache

COUNTERS_PATH = Path(__file__).parent / "data" / "incremental_counters.json"

#: Fast benchmarks (each solves in well under a second).
FAST_NAMES = [
    "c1_prices_long_to_wide",
    "c2_orders_count_by_region",
    "c5_join_filter_large_orders",
]

#: Two tasks spec2 cannot solve in 20 s (one SMT-bound, one
#: enumeration-bound), cut short by a small step budget.
HARD_TASKS = {
    "c4_counts_per_key_spread": 1350,
    "c7_vehicle_consolidation": 4000,
}

CONFIGURATIONS = {
    "spec1": spec1_config,
    "spec2_no_partial_eval": spec2_no_partial_eval_config,
    "spec2_no_oe": spec2_no_oe_config,
    "no_deduction": no_deduction_config,
}

#: The counters ``perfbench/record.json`` records per task.
COUNTER_NAMES = (
    "steps",
    "partial_programs",
    "smt_calls",
    "prescreen_decided",
    "oe_merged",
    "tables_built",
    "exec_cache_hits",
)

#: Step budget of the pinned runs, and every fourth task of the suite.
PINNED_STEPS = 1500
PINNED_STRIDE = 4


def pinned_names():
    return [benchmark.name for benchmark in r_benchmark_suite()][::PINNED_STRIDE]


def solve(benchmark, config):
    clear_formula_cache()
    session = create_session(
        SynthesisRequest.from_tables(benchmark.inputs, benchmark.output, config=config)
    )
    return session, session.solve()


def top_down(node, evaluated, out=None):
    """``(node id, fingerprint)`` of the evaluated nodes a top-down reader sees."""
    out = [] if out is None else out
    table = evaluated.get(node.node_id)
    if table is not None:
        out.append((node.node_id, table.fingerprint()))
    elif isinstance(node, Apply):
        for child in node.table_children:
            top_down(child, evaluated, out)
    return out


def scratch(hypothesis, inputs):
    """A from-scratch evaluation: no memo, no execution cache, no seed."""
    try:
        return partial_evaluate(hypothesis, inputs)
    except EvaluationFailure:
        return None


class TestSeededMapsEqualTheFullWalk:
    @pytest.fixture
    def observed(self, monkeypatch):
        """Compare every map the search reads against a from-scratch walk."""
        seen = {"deduce": 0, "seeded_checks": 0, "mismatches": []}
        deduce = DeductionEngine.deduce
        evaluate = frontier.evaluate

        def traced_deduce(engine, hypothesis, learn=True, evaluated=None):
            if evaluated is not None:
                seen["deduce"] += 1
                expected = scratch(hypothesis, engine.inputs)
                if expected is None or top_down(hypothesis, evaluated) != top_down(
                    hypothesis, expected
                ):
                    seen["mismatches"].append(("deduce", repr(hypothesis)))
            return deduce(engine, hypothesis, learn=learn, evaluated=evaluated)

        def traced_evaluate(hypothesis, inputs, memo=None, exec_cache=None, known=None):
            seen["seeded_checks"] += bool(known)
            expected = scratch(hypothesis, inputs)
            try:
                results = partial_evaluate(
                    hypothesis, inputs, memo=memo, exec_cache=exec_cache, known=known
                )
            except EvaluationFailure:
                if expected is not None:
                    seen["mismatches"].append(("check failed", repr(hypothesis)))
                raise
            if expected is None or top_down(hypothesis, results) != top_down(
                hypothesis, expected
            ):
                seen["mismatches"].append(("check", repr(hypothesis)))
            return evaluate(hypothesis, inputs, memo, exec_cache, known)

        monkeypatch.setattr(DeductionEngine, "deduce", traced_deduce)
        monkeypatch.setattr(frontier, "evaluate", traced_evaluate)
        return seen

    @pytest.mark.parametrize(
        "name,max_steps",
        [(name, None) for name in FAST_NAMES] + sorted(HARD_TASKS.items()),
    )
    def test_every_deduction_and_check_sees_the_full_walk(self, observed, name, max_steps):
        benchmark = r_benchmark_suite().get(name)
        config = replace(spec2_config(timeout=60.0), max_steps=max_steps)
        _session, result = solve(benchmark, config)
        assert result.solved or max_steps is not None
        assert observed["mismatches"] == []
        # Not vacuous: completion deductions and seeded CHECKs both ran.
        assert observed["deduce"] > 0
        assert observed["seeded_checks"] > 0


def record_counters():
    """``{config: {task: {program, counters...}}}`` for the pinned runs."""
    suite = r_benchmark_suite()
    rows = {}
    for label, factory in CONFIGURATIONS.items():
        rows[label] = {}
        for name in pinned_names():
            config = replace(factory(timeout=60.0), max_steps=PINNED_STEPS)
            session, result = solve(suite.get(name), config)
            counters = session.counters()
            row = {key: counters[key] for key in COUNTER_NAMES}
            row["program"] = None if result.program is None else repr(result.program)
            rows[label][name] = row
    return rows


class TestPinnedCounters:
    def test_programs_and_counters_match_the_full_walk(self):
        with open(COUNTERS_PATH, encoding="utf-8") as handle:
            expected = json.load(handle)
        actual = record_counters()
        assert sorted(actual) == sorted(expected)
        for label in expected:
            for name, row in expected[label].items():
                assert actual[label][name] == row, (label, name)


if __name__ == "__main__":
    with open(COUNTERS_PATH, "w", encoding="utf-8") as handle:
        json.dump(record_counters(), handle, indent=1, sort_keys=True)
        handle.write("\n")
