"""Batched sibling evaluation tests.

Batching is a pure work-mover: grouping sibling hole fills into one batched
``execute`` must leave the synthesized program, the search order and every
deterministic counter unchanged -- only the amount of repeated setup drops.
The tests pin the counters (batching actually engages) and the invariance
(disabling batching changes nothing observable).
"""

from repro.api import SynthesisRequest, create_session
from repro.core import SynthesisConfig
from repro.core import completion
from repro.dataframe import Table

ORDERS = Table(
    ["region", "order"],
    [["west", "a"], ["west", "b"], ["north", "c"], ["west", "d"]],
)
COUNTS = Table(["region", "n"], [["west", 3], ["north", 1]])


def run(config=None):
    """The core result of one solved session and the session's counters."""
    config = config or SynthesisConfig(timeout=30)
    session = create_session(SynthesisRequest.from_tables([ORDERS], COUNTS, config=config))
    return session.solve(), session.counters()


def test_sibling_batching_engages_and_counts():
    result, counters = run()
    assert result.solved
    assert counters["sibling_batches"] > 0
    # Every batch groups at least two fills (singletons are not batches).
    assert counters["batched_fills"] >= 2 * counters["sibling_batches"]


def test_disabling_batching_changes_nothing_observable(monkeypatch):
    batched, batched_counters = run()
    monkeypatch.setattr(completion, "SIBLING_BATCH", 1)
    unbatched, unbatched_counters = run()
    assert unbatched_counters["sibling_batches"] == 0
    assert unbatched_counters["batched_fills"] == 0
    assert batched.solved and unbatched.solved
    assert batched.render() == unbatched.render()
    # The search itself is untouched: same completion work, same deduction
    # query sequence, same prescreen split.
    for name in ("partial_programs", "smt_calls", "prescreen_decided"):
        assert batched_counters[name] == unbatched_counters[name], name


def test_batching_disabled_without_partial_evaluation():
    result, counters = run(SynthesisConfig(timeout=30, partial_evaluation=False))
    assert result.solved
    assert counters["sibling_batches"] == 0
    assert counters["batched_fills"] == 0


def test_batching_counters_deterministic_across_runs():
    (_, first), (_, second) = run(), run()
    for name in ("sibling_batches", "batched_fills", "smt_calls"):
        assert first[name] == second[name], name
