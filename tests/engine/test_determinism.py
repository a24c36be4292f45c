"""Parallel determinism of the CDCL-enabled benchmark harness.

Lemma state is strictly per-task (a fresh store and incremental session per
synthesis run), so a ``ParallelRunner --jobs 4`` suite run must reproduce the
serial run byte for byte on every deterministic outcome field -- including
the synthesized program text and the lemma-prune / SMT-call counters that
the conflict-driven engine adds.  ``elapsed`` is wall clock and necessarily
excluded.
"""

from repro.baselines import FIGURE16_CONFIGS, spec2_no_cdcl_config
from repro.benchmarks import r_benchmark_suite, run_suite
from repro.engine import ParallelRunner

FAST_NAMES = [
    "c1_prices_long_to_wide",
    "c2_orders_count_by_region",
    "c5_join_filter_large_orders",
]

TIMEOUT = 30.0


def fast_suite():
    return r_benchmark_suite().subset(names=FAST_NAMES)


def deterministic_fingerprint(run):
    """Every outcome field that must be identical across schedulers."""
    return [
        (
            outcome.benchmark,
            outcome.category,
            outcome.configuration,
            outcome.solved,
            outcome.program_size,
            outcome.program,
            outcome.smt_calls,
            outcome.lemma_prunes,
            outcome.lemmas_learned,
            # Tier-1 prescreen counters: pure functions of the (deterministic)
            # query sequence, so they too must match byte for byte.
            outcome.prescreen_decided,
            outcome.prescreen_fallback,
            # Search-kernel counters: completion worklist size, OE-store
            # activity and frontier peak are pure functions of the search
            # order, which the kernel keeps identical across schedulers.
            outcome.partial_programs,
            outcome.oe_candidates,
            outcome.oe_merged,
            outcome.frontier_peak,
            # Concrete-execution counters: the runner resets the intern pool
            # and counters per task, so these must match byte for byte too.
            outcome.tables_built,
            outcome.cells_interned,
            outcome.fingerprint_hits,
            outcome.exec_cache_hits,
            outcome.compare_fastpath_hits,
            # Batched sibling evaluation and residual-SMT session counters:
            # pure functions of the completion/deduction order, so they too
            # must match byte for byte across schedulers.
            outcome.sibling_batches,
            outcome.batched_fills,
            outcome.smt_sessions,
            outcome.smt_session_reuse,
        )
        for outcome in run.outcomes
    ]


def test_jobs4_suite_is_byte_identical_to_serial_with_cdcl():
    suite = fast_suite()
    serial = run_suite(suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2")
    parallel = ParallelRunner(jobs=4).run_suite(
        suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2"
    )
    assert deterministic_fingerprint(parallel) == deterministic_fingerprint(serial)
    # The tier-1 prescreen actually ran (this is not a vacuous comparison).
    assert sum(outcome.prescreen_decided for outcome in serial.outcomes) > 0


def test_interleaved_and_whole_task_scheduling_agree():
    # --jobs now interleaves kernel steps across each worker's batch; the
    # classic one-task-at-a-time workers must report byte-identical
    # deterministic fields, and so must in-process interleaving (jobs=1
    # through the runner drives every kernel in the calling process).
    suite = fast_suite()
    serial = run_suite(suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2")
    interleaved = ParallelRunner(jobs=1).run_suite(
        suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2"
    )
    whole_tasks = ParallelRunner(jobs=4, interleave=False).run_suite(
        suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2"
    )
    assert deterministic_fingerprint(interleaved) == deterministic_fingerprint(serial)
    assert deterministic_fingerprint(whole_tasks) == deterministic_fingerprint(serial)


def test_jobs4_is_byte_identical_to_serial_without_oe():
    from repro.baselines import spec2_no_oe_config

    suite = fast_suite()
    serial = run_suite(
        suite, spec2_no_oe_config, timeout=TIMEOUT, label="spec2-no-oe"
    )
    parallel = ParallelRunner(jobs=4).run_suite(
        suite, spec2_no_oe_config, timeout=TIMEOUT, label="spec2-no-oe"
    )
    assert deterministic_fingerprint(parallel) == deterministic_fingerprint(serial)
    assert all(outcome.oe_candidates == 0 for outcome in serial.outcomes)


def test_jobs4_is_byte_identical_to_serial_without_prescreen():
    # With the prescreen ablated, every UNSAT query reaches the SMT tier and
    # the CDCL machinery carries the pruning -- the lemma counters must stay
    # deterministic across schedulers there too (and actually fire, which
    # they rarely do with the prescreen absorbing the easy conflicts).
    from repro.baselines import spec2_no_prescreen_config

    suite = fast_suite()
    serial = run_suite(
        suite, spec2_no_prescreen_config, timeout=TIMEOUT, label="spec2-no-prescreen"
    )
    parallel = ParallelRunner(jobs=4).run_suite(
        suite, spec2_no_prescreen_config, timeout=TIMEOUT, label="spec2-no-prescreen"
    )
    assert deterministic_fingerprint(parallel) == deterministic_fingerprint(serial)
    assert sum(outcome.lemmas_learned for outcome in serial.outcomes) > 0
    assert all(outcome.prescreen_decided == 0 for outcome in serial.outcomes)


def test_cdcl_and_ablation_agree_on_programs_across_schedulers():
    suite = fast_suite()
    cdcl = ParallelRunner(jobs=4).run_suite(
        suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2"
    )
    plain = run_suite(suite, spec2_no_cdcl_config, timeout=TIMEOUT, label="spec2")
    programs = lambda run: [(o.benchmark, o.solved, o.program) for o in run.outcomes]  # noqa: E731
    assert programs(cdcl) == programs(plain)
    assert all(outcome.lemmas_learned == 0 for outcome in plain.outcomes)
