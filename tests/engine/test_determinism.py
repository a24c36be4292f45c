"""Parallel determinism of the benchmark harness.

Deduction state is strictly per-task (a fresh engine per synthesis run), so
a ``run_suite(jobs=4)`` suite run must reproduce the serial run byte for
byte on every deterministic outcome field -- including the synthesized
program text and the SMT-call and prescreen counters.  ``elapsed`` is wall
clock and necessarily excluded.
"""

from repro.baselines import FIGURE16_CONFIGS
from repro.api import SynthesisRequest, create_session
from repro.benchmarks import r_benchmark_suite, run_suite

FAST_NAMES = [
    "c1_prices_long_to_wide",
    "c2_orders_count_by_region",
    "c5_join_filter_large_orders",
]

TIMEOUT = 30.0


def fast_suite():
    return r_benchmark_suite().subset(names=FAST_NAMES)


def deterministic_fingerprint(run):
    """Every outcome field that must be identical across schedulers.

    The counters are the whole session schema minus its clock keys: SMT
    calls, prescreen activity, the completion worklist, OE-store
    and frontier counters (pure functions of the search order, which the
    kernel keeps identical across schedulers), and the execution counters
    (every task runs in its own session context with a fresh intern pool
    and counter block).
    """
    return [
        (
            outcome.benchmark,
            outcome.category,
            outcome.configuration,
            outcome.solved,
            outcome.program_size,
            outcome.program,
            outcome.counters,
        )
        for outcome in run.outcomes
    ]


def test_jobs4_suite_is_byte_identical_to_serial():
    suite = fast_suite()
    serial = run_suite(suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2")
    parallel = run_suite(
        suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2", jobs=4
    )
    assert deterministic_fingerprint(parallel) == deterministic_fingerprint(serial)
    # The tier-1 prescreen actually ran (this is not a vacuous comparison).
    assert sum(outcome.counters["prescreen_decided"] for outcome in serial.outcomes) > 0


def test_round_robin_sessions_agree_with_the_harness():
    # The service's scheduling -- every session advanced one default slice
    # per round-robin pass, all in one process -- must find the harness's
    # programs, with counters identical to dedicated whole-task sessions and
    # to the harness's outcome counters (one schema, one counting window).
    suite = fast_suite()
    config = FIGURE16_CONFIGS["spec2"](TIMEOUT)
    serial = run_suite(suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2")

    def sessions():
        return [
            create_session(SynthesisRequest.from_tables(b.inputs, b.output, config=config))
            for b in suite
        ]

    dedicated = sessions()
    for session in dedicated:
        session.solve()
    rotated = sessions()
    pending = list(rotated)
    while pending:
        pending = [session for session in pending if not session.advance()]
    for outcome, expected, actual in zip(serial.outcomes, dedicated, rotated):
        assert outcome.solved and actual.status == expected.status == "done"
        assert actual.candidates[0].program == outcome.program
        counters, reference = actual.counters(), expected.counters()
        del counters["active_seconds"], reference["active_seconds"]
        assert counters == reference == outcome.counters


def test_jobs4_is_byte_identical_to_serial_without_oe():
    from repro.baselines import spec2_no_oe_config

    suite = fast_suite()
    serial = run_suite(
        suite, spec2_no_oe_config, timeout=TIMEOUT, label="spec2-no-oe"
    )
    parallel = run_suite(
        suite, spec2_no_oe_config, timeout=TIMEOUT, label="spec2-no-oe", jobs=4
    )
    assert deterministic_fingerprint(parallel) == deterministic_fingerprint(serial)
    assert all(outcome.counters["oe_candidates"] == 0 for outcome in serial.outcomes)
