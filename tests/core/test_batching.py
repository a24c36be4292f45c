"""Batched sibling evaluation tests.

Batching is a pure work-mover: grouping sibling hole fills into one batched
``execute`` must leave the synthesized program, the search order and every
deterministic counter unchanged -- only the amount of repeated setup drops.
The tests pin the counters (batching actually engages) and the invariance
(disabling batching changes nothing observable).
"""

from repro.core import SynthesisConfig, synthesize
from repro.core import completion
from repro.dataframe import Table

ORDERS = Table(
    ["region", "order"],
    [["west", "a"], ["west", "b"], ["north", "c"], ["west", "d"]],
)
COUNTS = Table(["region", "n"], [["west", 3], ["north", 1]])


def run(config=None):
    return synthesize([ORDERS], COUNTS, config=config or SynthesisConfig(timeout=30))


def test_sibling_batching_engages_and_counts():
    result = run()
    assert result.solved
    stats = result.stats.completion
    assert stats.sibling_batches > 0
    # Every batch groups at least two fills (singletons are not batches).
    assert stats.batched_fills >= 2 * stats.sibling_batches


def test_disabling_batching_changes_nothing_observable(monkeypatch):
    batched = run()
    monkeypatch.setattr(completion, "SIBLING_BATCH", 1)
    unbatched = run()
    assert unbatched.stats.completion.sibling_batches == 0
    assert unbatched.stats.completion.batched_fills == 0
    assert batched.solved and unbatched.solved
    assert batched.render() == unbatched.render()
    # The search itself is untouched: same completion work, same deduction
    # query sequence, same prescreen split.
    assert (
        batched.stats.completion.partial_programs
        == unbatched.stats.completion.partial_programs
    )
    assert batched.stats.deduction.smt_calls == unbatched.stats.deduction.smt_calls
    assert (
        batched.stats.deduction.prescreen_decided
        == unbatched.stats.deduction.prescreen_decided
    )


def test_batching_disabled_without_partial_evaluation():
    result = run(SynthesisConfig(timeout=30, partial_evaluation=False))
    assert result.solved
    assert result.stats.completion.sibling_batches == 0
    assert result.stats.completion.batched_fills == 0


def test_batching_counters_deterministic_across_runs():
    first = run()
    second = run()
    for field in ("sibling_batches", "batched_fills"):
        assert getattr(first.stats.completion, field) == getattr(
            second.stats.completion, field
        )
    assert first.stats.deduction.smt_calls == second.stats.deduction.smt_calls

