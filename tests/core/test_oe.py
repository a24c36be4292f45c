"""Tests for the observational-equivalence store (repro.core.oe).

The load-bearing invariants:

* **Soundness** -- two completion states that the store merges are
  observationally equal: every completed subtree of one evaluates to a table
  that is cell-for-cell equal to its counterpart in the other (the
  fingerprint invariant of DESIGN.md makes key equality imply table
  equality).
* **Positivity** -- merging happens only on *exact* fingerprint equality.
  Tables that are merely tolerantly equal (sub-tolerance float noise) have
  different fingerprints, different keys, and never merge, so verdicts stay
  exact.
* **Ablation neutrality** -- the synthesized programs are byte-identical
  with the store enabled and disabled (``--no-oe``); only the amount of
  duplicated completion work changes.
"""

import itertools
import random

import pytest

from repro.benchmarks import r_benchmark_suite, run_suite
from repro.baselines import spec2_config, spec2_no_oe_config
from repro.api import SynthesisRequest, create_session
from repro.core import Example, OEStore, SynthesisConfig, standard_library
from repro.core.completion import SketchCompleter
from repro.core.deduction import DeductionEngine
from repro.core.hypothesis import (
    initial_hypothesis,
    refine,
    sketches,
    table_holes,
)
from repro.dataframe import Table
from repro.dataframe.compare import STRICT_POLICY, tables_equivalent

LIBRARY = standard_library()
COMPONENTS = {component.name: component for component in LIBRARY}


def build_sketch(*names, inputs=1, which=0):
    next_id = itertools.count(1)
    hypothesis = initial_hypothesis()
    for name in names:
        hole = table_holes(hypothesis)[0]
        hypothesis = refine(hypothesis, hole, COMPONENTS[name], lambda: next(next_id))
    bound = list(sketches(hypothesis, inputs))
    return bound[which]


class TestOEStoreBasics:
    def test_first_admission_wins(self):
        store = OEStore()
        assert store.admit(("r", 1, ("t", b"abc")))
        assert not store.admit(("r", 1, ("t", b"abc")))
        assert len(store) == 1

    def test_unequal_digests_never_merge(self):
        store = OEStore()
        assert store.admit(("r", 1, ("t", b"abc")))
        assert store.admit(("r", 1, ("t", b"abd")))
        assert len(store) == 2

    def test_none_keys_are_always_admitted(self):
        store = OEStore()
        assert store.admit(None)
        assert store.admit(None)
        assert len(store) == 0

    def test_remaining_count_distinguishes_states(self):
        store = OEStore()
        assert store.admit(("r", 2, ("t", b"abc")))
        assert store.admit(("r", 1, ("t", b"abc")))
        assert len(store) == 2


class TestStateKeys:
    def test_equal_tables_share_a_key(self):
        left = Table(["a", "b"], [[1, "x"], [2, "y"]])
        right = Table(["a", "b"], [[1, "x"], [2, "y"]])
        sketch = build_sketch("filter")
        key_left = OEStore.state_key(sketch, {0: left}, remaining=1)
        key_right = OEStore.state_key(sketch, {0: right}, remaining=1)
        assert key_left == key_right

    def test_positivity_sub_tolerance_noise_does_not_merge(self):
        # values_equal treats these cells as equal (tolerant float compare),
        # but their canonical tokens differ, so the fingerprints -- and the
        # OE keys -- differ: the states are explored separately and verdicts
        # stay exact.
        left = Table(["a"], [[1.0]])
        right = Table(["a"], [[1.0 + 1e-7]])
        from repro.dataframe.cells import values_equal

        assert values_equal(left.rows[0][0], right.rows[0][0])
        assert left.fingerprint() != right.fingerprint()
        sketch = build_sketch("filter")
        assert (
            OEStore.state_key(sketch, {0: left}, remaining=1)
            != OEStore.state_key(sketch, {0: right}, remaining=1)
        )

    def test_missing_evaluation_yields_none(self):
        sketch = build_sketch("filter")
        # The bound table hole (node id of the hole) is absent from the map.
        assert OEStore.state_key(sketch, {}, remaining=1) is None

    def test_key_depends_on_unfilled_structure(self):
        table = Table(["a"], [[1]])
        filter_sketch = build_sketch("filter")
        select_sketch = build_sketch("select")
        evaluated = {0: table}
        assert (
            OEStore.state_key(filter_sketch, evaluated, remaining=1)
            == OEStore.state_key(select_sketch, evaluated, remaining=1)
        )
        # With the root *not* evaluated, the component name separates them.
        hole_id = table_holes(filter_sketch, unbound_only=False)[0].node_id
        partial = {hole_id: table}
        assert (
            OEStore.state_key(filter_sketch, partial, remaining=1)
            != OEStore.state_key(select_sketch, partial, remaining=1)
        )


class _RecordingCompleter(SketchCompleter):
    """Records, per OE key, the evaluated tables of every offered state."""

    def _admit(self, frame, remaining, admitted=None):
        if not hasattr(self, "observations"):
            self.observations = {}
        sketch = frame.sketch
        evaluated = self.engine.evaluate_if_possible(sketch)
        if evaluated is not None:
            key = OEStore.state_key(sketch, evaluated, remaining)
            if key is not None:
                tables = tuple(
                    evaluated[node_id] for node_id in sorted(evaluated)
                )
                self.observations.setdefault(key, []).append(tables)
        return super()._admit(frame, remaining, admitted=admitted)


class TestMergedStatesAreObservationallyEqual:
    def check_sketch(self, sketch, inputs, output):
        engine = DeductionEngine(inputs=inputs, output=output)
        completer = _RecordingCompleter(engine, oe_store=OEStore())
        for _program in completer.fill_sketch(sketch):
            pass
        merged_classes = 0
        for key, observations in completer.observations.items():
            for left, right in zip(observations, observations[1:]):
                merged_classes += 1
                assert len(left) == len(right), key
                for table_left, table_right in zip(left, right):
                    assert table_left.fingerprint() == table_right.fingerprint()
                    assert table_left.columns == table_right.columns
                    assert table_left.n_groups == table_right.n_groups
                    assert tables_equivalent(table_left, table_right, STRICT_POLICY)
        return merged_classes

    def test_property_random_tables_filter_chains(self):
        rng = random.Random(20260727)
        total_merged = 0
        for _trial in range(6):
            n_rows = rng.randint(3, 6)
            table = Table(
                ["g", "v", "w"],
                [
                    [rng.choice(["a", "b"]), rng.randint(0, 2), rng.randint(0, 1)]
                    for _ in range(n_rows)
                ],
            )
            output = Table(["g"], [["a"]])
            for shape in (("filter", "select"), ("select", "filter")):
                sketch = build_sketch(*shape)
                total_merged += self.check_sketch(sketch, [table], output)
        # The duplicate-rich value space must actually produce equal-key
        # states, otherwise this test is vacuous.
        assert total_merged > 0

    def test_property_on_gather_heavy_benchmark(self):
        benchmark = r_benchmark_suite().get("c3_exam_gather_unite_spread")
        inputs, output = list(benchmark.inputs), benchmark.output
        sketch = build_sketch("gather")
        merged = self.check_sketch(sketch, inputs, output)
        assert merged >= 0  # soundness assertions above are the substance


class TestBudgetRelease:
    def test_budget_aborted_runs_withdraw_their_admissions(self):
        # A run cut short by its per-sketch budget may have admitted states
        # whose subtrees were never explored; those keys must be withdrawn
        # so a later observationally equal state (here: the same sketch
        # retried with a fresh budget) is explored rather than merged --
        # otherwise merging could lose programs that --no-oe finds.
        from repro.core.completion import CompletionBudgetExceeded

        students = Table(["name", "age", "gpa"],
                         [["Alice", 8, 4.0], ["Bob", 18, 3.2], ["Tom", 12, 3.0]])
        target = Table(["name", "age"], [["Bob", 18], ["Tom", 12]])
        store = OEStore()

        engine = DeductionEngine(inputs=[students], output=target)
        starved = SketchCompleter(engine, budget=2, oe_store=store)
        with pytest.raises(CompletionBudgetExceeded):
            list(starved.fill_sketch(build_sketch("select", "filter")))
        assert len(store) == 0  # every admission of the aborted run withdrawn

        # With the released store, a retry over the same sketch behaves
        # exactly as it would against a brand-new store: the aborted run's
        # admissions suppress nothing (intra-run merges still happen).
        def retry(retry_store):
            engine = DeductionEngine(inputs=[students], output=target)
            completer = SketchCompleter(engine, oe_store=retry_store)
            programs = list(completer.fill_sketch(build_sketch("select", "filter")))
            return programs, completer.stats

        released_programs, released_stats = retry(store)
        fresh_programs, fresh_stats = retry(OEStore())
        assert released_programs
        assert [repr(p) for p in released_programs] == [repr(p) for p in fresh_programs]
        assert released_stats == fresh_stats

    def test_release_is_scoped_to_the_aborted_run(self):
        store = OEStore()
        assert store.admit(("r", 1, ("t", b"other-run")))
        store.release([("r", 1, ("t", b"not-present"))])  # harmless no-op
        assert len(store) == 1
        store.release([("r", 1, ("t", b"other-run"))])
        assert len(store) == 0


class TestAblationDifferential:
    NAMES = [
        "c1_prices_long_to_wide",
        "c2_orders_count_by_region",
        "c3_exam_gather_unite_spread",
        "c5_join_filter_large_orders",
    ]

    def fresh_suite(self):
        return r_benchmark_suite().subset(names=self.NAMES)

    def test_programs_are_byte_identical_with_and_without_oe(self):
        merged = run_suite(self.fresh_suite(), spec2_config, timeout=30, label="spec2")
        plain = run_suite(
            self.fresh_suite(), spec2_no_oe_config, timeout=30, label="spec2-no-oe"
        )
        programs = lambda run: [  # noqa: E731
            (o.benchmark, o.solved, o.program) for o in run.outcomes
        ]
        assert programs(merged) == programs(plain)
        assert sum(o.counters["oe_merged"] for o in merged.outcomes) > 0
        assert all(o.counters["oe_candidates"] == 0 for o in plain.outcomes)
        assert all(o.counters["oe_merged"] == 0 for o in plain.outcomes)
        # Merging skips duplicated completion work, never adds any.
        assert sum(o.counters["partial_programs"] for o in merged.outcomes) <= sum(
            o.counters["partial_programs"] for o in plain.outcomes
        )

    def test_oe_counters_surface_through_the_schema(self):
        benchmark = r_benchmark_suite().get("c3_exam_gather_unite_spread")
        example = Example.make(benchmark.inputs, benchmark.output)

        def solve(config):
            session = create_session(SynthesisRequest((example,), config=config))
            return session, session.solve()

        session, result = solve(SynthesisConfig(timeout=30))
        assert result.solved
        counters = session.counters()
        assert counters["oe_candidates"] > 0
        assert counters["oe_merged"] > 0
        assert counters["oe_merged"] <= counters["oe_candidates"]
        plain_session, plain = solve(SynthesisConfig(timeout=30, oe=False))
        assert plain_session.counters()["oe_candidates"] == 0
        assert plain.render() == result.render()
