"""The counter schema: ``SynthesisSession.counters()`` and the views that read it.

Every counter view -- ``--stats``, ``--json``, ``pruning``, ``/metrics`` and
the perfbench harness -- reads the session's one flat counter dict, counted
over one window (from the end of each kernel's construction).  These tests
pin the schema's keys and their order, that the window does not depend on
what ran earlier in the process, that the ``--json`` rows carry exactly the
schema, and that the names the perfbench harness reads exist in it.
"""

import ast
from pathlib import Path

from repro.api import CLOCK_COUNTERS, SynthesisRequest, create_session
from repro.baselines import spec2_config
from repro.benchmarks import r_benchmark_suite
from repro.benchmarks.reporting import outcome_record
from repro.benchmarks.runner import run_benchmark

#: A one-component task whose example tables are fingerprinted while the
#: deduction engine is built, so a window opened too early sees the
#: fingerprint memo warm up between sessions.
TASK = "c1_scores_wide_to_long"

WORKER = Path(__file__).resolve().parents[2] / "perfbench" / "worker.py"

#: The ``--json`` row fields that describe the task rather than count work.
OUTCOME_FIELDS = {
    "benchmark", "category", "configuration", "solved", "elapsed_s",
    "program", "program_size", "prune_rate",
}


def solved_session(benchmark, config):
    session = create_session(
        SynthesisRequest.from_tables(benchmark.inputs, benchmark.output, config=config)
    )
    session.solve()
    return session


def deterministic(counters):
    return {name: value for name, value in counters.items() if name not in CLOCK_COUNTERS}


def worker_constant(name, tree=None):
    """A tuple constant of perfbench/worker.py, read without importing it."""
    tree = tree if tree is not None else ast.parse(WORKER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
            getattr(target, "id", None) for target in node.targets
        ] == [name]:
            return _constant_value(node.value, tree)
    raise AssertionError(f"{name} is not assigned in {WORKER}")


def _constant_value(node, tree):
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _constant_value(node.left, tree) + _constant_value(node.right, tree)
    if isinstance(node, ast.Name):
        return worker_constant(node.id, tree)
    return ast.literal_eval(node)


#: ``SynthesisSession.counters()`` keys, in order: the kernel's clock and
#: frontier, the ``SynthesisStats`` block, the execution window, ``resumes``.
SCHEMA = [
    "steps", "active_seconds", "frontier_peak",
    "hypotheses_expanded", "hypotheses_enqueued", "sketches_generated",
    "sketches_rejected", "programs_checked", "partial_programs", "pruned_partial",
    "oe_candidates", "oe_merged", "sibling_batches", "batched_fills",
    "smt_calls", "prescreen_decided", "prescreen_fallback", "lemma_prunes",
    "lemmas_learned", "lemma_mining_solves",
    "tables_built", "cells_interned", "fingerprint_hits", "exec_cache_hits",
    "compare_fastpath_hits",
    "resumes",
]


def test_schema_keys_and_order_are_pinned():
    # A dropped, renamed or reordered counter changes every counter view
    # (--json, --stats, pruning, /metrics, perfbench's record).
    session = solved_session(r_benchmark_suite().get(TASK), spec2_config(timeout=30))
    assert list(session.counters()) == SCHEMA


def test_counters_do_not_depend_on_cache_warmth():
    # The first session of a process fingerprints the (process-cached)
    # example tables; later sessions find them memoized.  Counting that
    # set-up made fingerprint_hits differ between sessions and from --json.
    benchmark = r_benchmark_suite().get(TASK)
    config = spec2_config(timeout=30)
    runs = [
        deterministic(solved_session(benchmark, config).counters()) for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2]
    record = outcome_record(run_benchmark(benchmark, config))
    assert {name: record[name] for name in runs[0]} == runs[0]


def test_outcome_record_emits_exactly_the_schema():
    benchmark = r_benchmark_suite().get(TASK)
    config = spec2_config(timeout=30)
    counters = solved_session(benchmark, config).counters()
    record = outcome_record(run_benchmark(benchmark, config))
    assert set(record) - OUTCOME_FIELDS == set(deterministic(counters))
    assert "lemma_mining_solves" in record


def test_schema_holds_every_counter_perfbench_reads():
    recorded = worker_constant("RECORDED_COUNTERS")
    layer = worker_constant("LAYER_COUNTERS")
    assert set(recorded) <= set(layer)
    benchmark = r_benchmark_suite().get(TASK)
    counters = solved_session(benchmark, spec2_config(timeout=30)).counters()
    for name in (*recorded, "active_seconds"):
        assert name in counters, name
    # ``counter_sums`` reads the per-layer names with a 0 default; only the
    # two SMT-session names, constant 0 since residual sessions went, are
    # left to that default.
    assert {name for name in layer if name not in counters} == {
        "smt_sessions", "smt_session_reuse",
    }
