"""Tests for the warm-start knowledge base (repro.engine.kb)."""

import os
import sqlite3
import subprocess
import sys
import threading
import time
from dataclasses import astuple, replace
from pathlib import Path

import pytest

from repro.api import CLOCK_COUNTERS, SynthesisRequest, create_session
from repro.baselines import spec2_config
from repro.benchmarks import r_benchmark_suite
from repro.benchmarks.runner import BenchmarkOutcome, SuiteRun
from repro.core import SpecLevel
from repro.core import deduction
from repro.core.component import ComponentLibrary
from repro.core.deduction import DeductionEngine
from repro.core.hypothesis import EvaluationFailure, initial_hypothesis, refine
from repro.core.library import standard_library
from repro.core.specs import spec_true
from repro.dataframe import Table
from repro.dataframe.profiling import ExecutionStats, install_execution_stats
from repro.engine import kb as kb_module
from repro.engine.kb import (
    KnowledgeBase,
    _serialize_result,
    baseline_digest,
    digest_tokens,
    example_digest,
)
from repro.smt.solver import CheckResult, Solver

#: Fast benchmarks (each solves in well under a second, so the cold and
#: warm phases both reach their deterministic end).
FAST_NAMES = [
    "c1_prices_long_to_wide",
    "c2_orders_count_by_region",
    "c5_join_filter_large_orders",
]

TIMEOUT = 30.0


def fast_suite():
    return r_benchmark_suite().subset(names=FAST_NAMES)


def run_with(kb, suite, library=None):
    """Run *suite* serially under spec2, each task in a session attached to *kb*."""
    config = spec2_config(TIMEOUT)
    run = SuiteRun(configuration="spec2")
    for benchmark in suite:
        request = SynthesisRequest.from_tables(
            benchmark.inputs, benchmark.output, config=config
        )
        session = create_session(request, library=library, kb=kb)
        result = session.solve()
        run.outcomes.append(
            BenchmarkOutcome(
                benchmark=benchmark.name,
                category=benchmark.category,
                configuration="spec2",
                solved=result.solved,
                elapsed=result.elapsed,
                program_size=result.size,
                program=result.render() if result.solved else None,
                counters=session.counters(),
            )
        )
    return run


class TestKnowledgeBaseStore:
    def test_put_get_roundtrip_and_miss(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        assert kb.get("exec", b"missing") is None
        kb.put("exec", b"k1", b"v1")
        assert kb.get("exec", b"k1") == b"v1"
        assert len(kb) == 1
        assert kb.stats.hits == 1 and kb.stats.misses == 1 and kb.stats.stores == 1
        kb.close()

    def test_scopes_do_not_collide(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        kb.put("exec", b"k", b"execution")
        kb.put("attr", b"k", b"attributes")
        assert kb.get("exec", b"k") == b"execution"
        assert kb.get("attr", b"k") == b"attributes"
        kb.close()

    def test_update_does_not_grow_the_count(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        for _ in range(5):
            kb.put("exec", b"k", b"v")
        assert len(kb) == 1
        kb.close()

    def test_entries_survive_reopen(self, tmp_path):
        path = str(tmp_path / "kb.sqlite")
        kb = KnowledgeBase(path)
        kb.put("exec", b"k1", b"v1")
        kb.close()
        reopened = KnowledgeBase(path)
        assert len(reopened) == 1
        assert reopened.get("exec", b"k1") == b"v1"
        reopened.close()

    def test_lru_eviction_respects_last_used(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"), max_entries=3)
        for key in (b"a", b"b", b"c"):
            kb.put("exec", key, b"v")
            time.sleep(0.002)
        # Touch "a" so "b" becomes the least recently used entry.
        assert kb.get("exec", b"a") == b"v"
        time.sleep(0.002)
        kb.put("exec", b"d", b"v")
        assert len(kb) == 3
        assert kb.stats.evictions == 1
        assert kb.get("exec", b"b") is None
        assert kb.get("exec", b"a") == b"v"
        assert kb.get("exec", b"d") == b"v"
        kb.close()

    def test_rejects_nonpositive_cap(self, tmp_path):
        with pytest.raises(ValueError):
            KnowledgeBase(str(tmp_path / "kb.sqlite"), max_entries=0)


class TestKBViewKeying:
    def test_execution_roundtrip_preserves_table(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        view = kb.view(standard_library().version_hash())
        table = Table(["region", "total"], [("west", 10), ("east", 7)],
                      group_cols=("region",))
        view.put_execution(("select", b"fp"), table)
        restored = view.get_execution(("select", b"fp"))
        assert restored.columns == table.columns
        assert restored.rows == table.rows
        assert restored.col_types == table.col_types
        assert restored.group_cols == table.group_cols
        kb.close()

    def test_execution_roundtrip_preserves_failure(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        view = kb.view(b"lib")
        view.put_execution(("bad", 1), EvaluationFailure("division by zero"))
        restored = view.get_execution(("bad", 1))
        assert isinstance(restored, EvaluationFailure)
        assert "division by zero" in str(restored)
        kb.close()

    def test_restore_does_not_perturb_execution_counters(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        view = kb.view(b"lib")
        view.put_execution(("k",), Table(["a"], [(1,), (2,)]))
        stats = ExecutionStats()
        previous = install_execution_stats(stats)
        try:
            restored = view.get_execution(("k",))
        finally:
            install_execution_stats(previous)
        assert restored.rows == ((1,), (2,))
        # A cold run counts the table inside component.execute; the restore
        # replaces that execution wholesale, so it must not count.
        assert stats.tables_built == 0
        assert stats.cells_interned == 0

    def test_library_hash_isolates_facts(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        old = kb.view(b"library-v1")
        new = kb.view(b"library-v2")
        old.put_execution(("k",), Table(["a"], [(1,)]))
        assert old.get_execution(("k",)) is not None
        assert new.get_execution(("k",)) is None
        kb.close()

    def test_version_salt_isolates_facts(self, tmp_path):
        path = str(tmp_path / "kb.sqlite")
        kb = KnowledgeBase(path)
        kb.view(b"lib").put_execution(("k",), Table(["a"], [(1,)]))
        kb.close()
        bumped = KnowledgeBase(path, version_salt=b"v2")
        assert bumped.view(b"lib").get_execution(("k",)) is None
        bumped.close()

    def test_corrupt_blob_behaves_like_a_miss(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        view = kb.view(b"lib")
        view.put_execution(("k",), Table(["a"], [(1,)]))
        kb.put("exec", view._digest("k"), b"not json")
        assert view.get_execution(("k",)) is None
        assert kb.stats.hits == 0 and kb.stats.misses == 1
        base = digest_tokens("baseline")
        kb.put("attr", view._digest(b"fp", SpecLevel.SPEC2.value, base), b"[1, 2]")
        assert view.get_attributes(b"fp", SpecLevel.SPEC2, base) is None
        assert kb.stats.hits == 0 and kb.stats.misses == 2
        kb.close()

    def test_corrupt_verdict_behaves_like_a_miss(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        view = kb.view(b"lib")
        example = example_digest([Table(["a"], [(1,)])], Table(["a"], [(1,)]))
        key = (SpecLevel.SPEC2, True, ((0, "c", "filter"), (1, "x", None)))
        view.put_verdict(example, key, (False, "smt"))
        assert view.get_verdict(example, key) == (False, "smt")
        digest = view._verdict_digest(example, key)
        for blob in (b"not json", b"[false]", b'[0, "smt"]', b'[true, "timeout"]'):
            kb.put("verdict", digest, blob)
            assert view.get_verdict(example, key) is None
        assert kb.stats.hits == 1 and kb.stats.misses == 4
        assert kb.stats.scope_hits == {"verdict": 1}
        kb.close()

    def test_verdict_key_covers_level_flag_and_example_order(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        view = kb.view(b"lib")
        a, b, out = Table(["x"], [(1,)]), Table(["y"], [("p",)]), Table(["x"], [(1,)])
        parts = ((0, "c", "inner_join"), (1, "x", 0), (2, "x", 1))
        view.put_verdict(example_digest([a, b], out), (SpecLevel.SPEC2, True, parts), (True, "smt"))
        assert view.get_verdict(example_digest([a, b], out), (SpecLevel.SPEC2, True, parts))
        for example, key in (
            (example_digest([b, a], out), (SpecLevel.SPEC2, True, parts)),
            (example_digest([a, b], out), (SpecLevel.SPEC1, True, parts)),
            (example_digest([a, b], out), (SpecLevel.SPEC2, False, parts)),
            (example_digest([a, b], out), (SpecLevel.SPEC2, True, parts[:1])),
        ):
            assert view.get_verdict(example, key) is None
        kb.close()

    def test_attribute_vector_roundtrip(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        view = kb.view(b"lib")
        base = digest_tokens("baseline")
        assert view.get_attributes(b"fp", SpecLevel.SPEC2, base) is None
        view.put_attributes(b"fp", SpecLevel.SPEC2, base, (3, 2, 0, 1, 4))
        assert view.get_attributes(b"fp", SpecLevel.SPEC2, base) == (3, 2, 0, 1, 4)
        # The spec level is part of the key (SPEC1 vectors are coarser).
        assert view.get_attributes(b"fp", SpecLevel.SPEC1, base) is None
        kb.close()

    def test_baseline_digest_is_order_independent(self):
        a = Table(["x"], [(1,)])
        b = Table(["y"], [("p",)])
        assert baseline_digest([a, b]) == baseline_digest([b, a])

    def test_task_key_depends_on_tables_and_level(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        view = kb.view(b"lib")
        inp, out = Table(["x"], [(1,)]), Table(["y"], [(2,)])
        key = view.task_key([inp], out, SpecLevel.SPEC2)
        assert key == view.task_key([inp], out, SpecLevel.SPEC2)
        assert key != view.task_key([inp], out, SpecLevel.SPEC1)
        assert key != view.task_key([out], inp, SpecLevel.SPEC2)
        kb.close()

    def test_lemma_entries_merge_across_puts(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        view = kb.view(b"lib")
        key = b"task"
        first = [[["spec", [0], "select"]]]
        second = [[["spec", [0], "select"]], [["bind", [1], 0]]]
        view.put_lemmas(key, first)
        view.put_lemmas(key, second)
        # The merge's read of the stored set is not a search probe.
        assert kb.stats.lookups == 0
        merged = view.get_lemmas(key)
        assert len(merged) == 2
        assert kb.stats.hits == 1 and kb.stats.misses == 0
        kb.close()


class TestTableBlobs:
    """Execution results round-trip through their column-wise JSON blobs."""

    @staticmethod
    def roundtrip(result):
        return kb_module._deserialize_result(_serialize_result(result))

    @pytest.mark.parametrize(
        "table",
        [
            Table(["region", "total"], [("west", 10), ("east", 7)], group_cols=("region",)),
            Table(["name", "score", "note"],
                  [("a", 1.5, None), ("b", None, "x y"), (None, -2.25, "")]),
            Table.empty(["a", "b"]),
            Table([], [(), ()]),
        ],
        ids=["grouped", "none-float-string", "empty", "no-columns"],
    )
    def test_a_table_round_trips(self, table):
        restored = self.roundtrip(table)
        assert (restored.columns, restored.col_types, restored.group_cols) == (
            table.columns, table.col_types, table.group_cols
        )
        assert restored.n_rows == table.n_rows
        assert restored.rows == table.rows
        assert restored.fingerprint() == table.fingerprint()

    def test_a_failure_round_trips(self):
        restored = self.roundtrip(EvaluationFailure("no such column: x"))
        assert isinstance(restored, EvaluationFailure)
        assert str(restored) == "no such column: x"

    def test_serialising_builds_no_row_tuples(self):
        table = Table.from_vectors(["a", "b"], [(1, 2), ("x", "y")])
        _serialize_result(table)
        assert table._rows is None


class CountingConnection:
    """A sqlite connection that records the statements run through it."""

    def __init__(self, conn):
        self._conn = conn
        self.statements = []

    def execute(self, sql, *args):
        self.statements.append(sql)
        return self._conn.execute(sql, *args)

    def executemany(self, sql, *args):
        self.statements.append(sql)
        return self._conn.executemany(sql, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def count(self, verb):
        return sum(1 for sql in self.statements if sql.lstrip().upper().startswith(verb))


def counted(kb):
    """Route *kb*'s SQL through a :class:`CountingConnection` and return it."""
    kb._conn = CountingConnection(kb._conn)
    return kb._conn


def last_used(path):
    """``key -> last_used`` of every row in the KB file at *path*."""
    with sqlite3.connect(path) as conn:
        return dict(conn.execute("SELECT key, last_used FROM facts"))


class TestKeyIndex:
    """A probe asks sqlite only for a slot that can be on disk."""

    def test_a_miss_for_a_slot_not_on_disk_runs_no_select(self, tmp_path):
        path = str(tmp_path / "kb.sqlite")
        writer = KnowledgeBase(path)
        writer.put("exec", b"on-disk", b"v")
        writer.close()
        kb = KnowledgeBase(path)
        sql = counted(kb)
        assert kb.get("exec", b"absent") is None
        assert kb.view(b"lib").get_execution(("absent",)) is None
        assert sql.count("SELECT") == 0
        assert kb.get("exec", b"on-disk") == b"v"
        assert sql.count("SELECT") == 1
        assert kb.stats.misses == 2 and kb.stats.hits == 1
        kb.close()

    def test_a_fact_on_disk_at_open_is_found_after_a_reopen(self, tmp_path):
        path = str(tmp_path / "kb.sqlite")
        kb = KnowledgeBase(path)
        kb.view(b"lib").put_execution(("k",), Table(["a"], [(1,), (2,)]))
        kb.put("attr", b"raw", b"[1, 2, 3, 4, 5]")
        kb.close()
        reopened = KnowledgeBase(path)
        assert reopened.view(b"lib").get_execution(("k",)).rows == ((1,), (2,))
        assert reopened.get("attr", b"raw") == b"[1, 2, 3, 4, 5]"
        assert reopened.stats.hits == 2 and reopened.stats.misses == 0
        reopened.close()

    def test_a_row_another_handle_evicts_reads_as_a_miss(self, tmp_path):
        path = str(tmp_path / "kb.sqlite")
        writer = KnowledgeBase(path, max_entries=2)
        for key in (b"k1", b"k2"):
            writer.put("exec", key, b"v")
            time.sleep(0.002)
        writer.flush()
        reader = KnowledgeBase(path)
        writer.put("exec", b"k3", b"v")
        assert len(writer) == 2 and writer.stats.evictions == 1
        writer.close()
        sql = counted(reader)
        assert reader.get("exec", b"k1") is None
        assert reader.get("exec", b"k1") is None
        # The first miss asked sqlite and dropped the slot from the index.
        assert sql.count("SELECT") == 1
        assert reader.get("exec", b"k2") == b"v"
        assert reader.stats.misses == 2 and reader.stats.hits == 1
        reader.close()


class TestDeferredStamps:
    """A hit writes nothing until there is something to write."""

    def test_a_read_only_pass_over_a_warm_kb_commits_nothing(self, tmp_path):
        path = str(tmp_path / "kb.sqlite")
        cold = KnowledgeBase(path)
        run_with(cold, fast_suite())
        cold.close()
        warm = KnowledgeBase(path)
        sql = counted(warm)
        run_with(warm, fast_suite())
        assert warm.stats.hits > 0 and warm.stats.stores == 0
        assert sql.count("BEGIN") == 0
        assert sql.count("INSERT") + sql.count("UPDATE") + sql.count("DELETE") == 0
        warm.flush()
        assert sql.count("BEGIN") == 0
        warm.close()
        # close() commits the stamps in one transaction.
        assert sql.count("BEGIN") == 1

    def test_hits_alone_never_fill_a_batch(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kb_module, "FLUSH_BATCH", 2)
        path = str(tmp_path / "kb.sqlite")
        writer = KnowledgeBase(path)
        for key in (b"a", b"b", b"c"):
            writer.put("exec", key, b"v")
        writer.close()
        kb = KnowledgeBase(path)
        sql = counted(kb)
        for _ in range(3):
            for key in (b"a", b"b", b"c"):
                assert kb.get("exec", key) == b"v"
        assert sql.count("BEGIN") == 0
        # One stamp per distinct fact, however often it is hit.
        assert len(kb._stamps) == 3
        kb.put("exec", b"d", b"v")
        assert sql.count("BEGIN") == 0
        kb.put("exec", b"e", b"v")
        assert sql.count("BEGIN") == 1 and kb._stamps == {}
        kb.close()

    def test_a_hit_stamp_reaches_disk_on_close_and_guides_eviction(self, tmp_path):
        path = str(tmp_path / "kb.sqlite")
        kb = KnowledgeBase(path, max_entries=3)
        for key in (b"a", b"b", b"c"):
            kb.put("exec", key, b"v")
            time.sleep(0.002)
        kb.close()
        before = last_used(path)
        reader = KnowledgeBase(path, max_entries=3)
        assert reader.get("exec", b"a") == b"v"
        assert last_used(path) == before
        reader.close()
        after = last_used(path)
        assert after[b"a"] > before[b"c"]
        # After a reopen the least recently used fact is "b", not "a".
        kb = KnowledgeBase(path, max_entries=3)
        kb.put("exec", b"d", b"v")
        assert len(kb) == 3 and kb.stats.evictions == 1
        assert kb.get("exec", b"b") is None
        assert kb.get("exec", b"a") == b"v"
        kb.close()


class TestEntries:
    """``entries()`` counts facts without writing to or scanning the file."""

    def test_entries_count_pending_and_flushed_facts_without_sql(self, tmp_path):
        path = str(tmp_path / "kb.sqlite")
        kb = KnowledgeBase(path, max_entries=3)
        sql = counted(kb)
        assert kb.entries() == 0
        kb.put("exec", b"a", b"v")
        kb.put("exec", b"a", b"w")
        kb.put("exec", b"b", b"v")
        assert kb.entries() == 2
        assert sql.statements == []
        kb.flush()
        kb.put("exec", b"a", b"x")  # pending, but already on disk
        assert kb.entries() == 2
        for key in (b"c", b"d"):
            time.sleep(0.002)
            kb.put("exec", key, b"v")
        kb.flush()
        assert kb.entries() == 3 == len(kb)
        kb.close()
        reopened = KnowledgeBase(path)
        assert reopened.entries() == 3
        reopened.close()


class TestInProcessTier:
    def test_repeat_lookup_returns_the_shared_object(self, tmp_path, monkeypatch):
        path = str(tmp_path / "kb.sqlite")
        writer = KnowledgeBase(path)
        writer.view(b"lib").put_execution(("k",), Table(["a"], [(1,), (2,)]))
        writer.close()
        kb = KnowledgeBase(path)
        view = kb.view(b"lib")
        first = view.get_execution(("k",))
        assert first.rows == ((1,), (2,))
        decoded = []
        monkeypatch.setattr(kb_module, "_deserialize_result", decoded.append)
        assert view.get_execution(("k",)) is first
        assert decoded == []
        assert kb.stats.hits == 2
        kb.close()

    def test_raw_put_replaces_the_decoded_value(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        view = kb.view(b"lib")
        view.put_execution(("k",), Table(["a"], [(1,)]))
        assert view.get_execution(("k",)).rows == ((1,),)
        kb.put("exec", view._digest("k"), _serialize_result(Table(["b"], [(2,)])))
        replaced = view.get_execution(("k",))
        assert replaced.columns == ("b",) and replaced.rows == ((2,),)
        kb.close()

    def test_disk_eviction_drops_the_tier_entry(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"), max_entries=2)
        view = kb.view(b"lib")
        for key in ("k1", "k2"):
            view.put_execution((key,), Table(["a"], [(key,)]))
            time.sleep(0.002)
        # A raw read refreshes k1's stamp without reordering the tier, so
        # the disk's least recently used row (k2) is one the tier still holds.
        assert kb.get("exec", view._digest("k1")) is not None
        time.sleep(0.002)
        assert len(kb) == 2
        view.put_execution(("k3",), Table(["a"], [("k3",)]))
        assert len(kb) == 2
        assert kb.stats.evictions == 1
        assert view.get_execution(("k2",)) is None
        assert view.get_execution(("k1",)).rows == (("k1",),)
        assert view.get_execution(("k3",)).rows == (("k3",),)
        kb.close()


class TestColdVsWarmDifferential:
    #: Per-outcome fields a warm start must reproduce exactly (the search
    #: trajectory).  ``tables_built`` and ``cells_interned`` are left out:
    #: the warm run skips the table constructions the KB answered.
    TRAJECTORY_FIELDS = ("benchmark", "solved", "program", "program_size")
    TRAJECTORY_COUNTERS = (
        "smt_calls",
        "prescreen_decided",
        "prescreen_fallback",
        "partial_programs",
        "oe_candidates",
        "oe_merged",
        "frontier_peak",
        "exec_cache_hits",
    )

    def test_warm_run_matches_cold_run(self, tmp_path):
        path = str(tmp_path / "kb.sqlite")
        phases = []
        for _phase in ("cold", "warm"):
            kb = KnowledgeBase(path)
            phases.append((run_with(kb, fast_suite()), kb.stats.hits))
            kb.close()
        (cold, cold_hits), (warm, warm_hits) = phases

        def programs(run):
            return [(o.benchmark, o.solved, o.program) for o in run.outcomes]

        # Only tasks that reached their deterministic end (a solution) in
        # both phases can promise identical counters; a timeout is a
        # wall-clock cut.
        solved_both = {o.benchmark for o in cold.outcomes if o.solved} & {
            o.benchmark for o in warm.outcomes if o.solved
        }

        def trajectory(run):
            return [
                tuple(getattr(outcome, field) for field in self.TRAJECTORY_FIELDS)
                + tuple(outcome.counters[name] for name in self.TRAJECTORY_COUNTERS)
                for outcome in run.outcomes
                if outcome.benchmark in solved_both
            ]

        assert programs(cold) == programs(warm)
        assert trajectory(cold) == trajectory(warm)
        assert len(solved_both) == len(FAST_NAMES)
        assert cold.solved == warm.solved
        assert warm_hits > 0
        assert cold_hits < warm_hits

    def test_version_bump_invalidates_but_stays_correct(self, tmp_path):
        path = str(tmp_path / "kb.sqlite")
        suite = fast_suite()
        cold_kb = KnowledgeBase(path)
        cold = run_with(cold_kb, suite)
        cold_entries = len(cold_kb)
        cold_kb.close()
        assert cold_entries > 0
        # A simulated library/version bump: same file, different salt.
        bumped_kb = KnowledgeBase(path, version_salt=b"library-bump")
        bumped = run_with(bumped_kb, suite)
        bumped_stats = bumped_kb.stats
        bumped_kb.close()
        # Every stale fact is ignored (missed), never replayed; the run is
        # a correct cold start that re-derives everything under new keys.
        assert bumped_stats.hits == 0
        assert bumped_stats.misses > 0
        assert [
            (o.benchmark, o.solved, o.program) for o in bumped.outcomes
        ] == [(o.benchmark, o.solved, o.program) for o in cold.outcomes]


def verdict_rows(path):
    """The ``verdict`` facts on disk in the KB file at *path*."""
    with sqlite3.connect(path) as conn:
        return conn.execute("SELECT COUNT(*) FROM facts WHERE scope = 'verdict'").fetchone()[0]


class TestWarmVerdicts:
    """Deduction verdicts are KB facts: a warm search repeats no deduction."""

    def test_warm_run_runs_no_prescreen_and_no_solver(self, tmp_path, monkeypatch):
        path = str(tmp_path / "kb.sqlite")
        cold_kb = KnowledgeBase(path)
        cold = run_with(cold_kb, fast_suite())
        cold_kb.close()
        assert verdict_rows(path) > 0

        calls = {"prescreen": 0, "check": 0}
        prescreen, check = deduction.prescreen_infeasible, Solver.check

        def counted_prescreen(*args, **kwargs):
            calls["prescreen"] += 1
            return prescreen(*args, **kwargs)

        def counted_check(self, *args, **kwargs):
            calls["check"] += 1
            return check(self, *args, **kwargs)

        monkeypatch.setattr(deduction, "prescreen_infeasible", counted_prescreen)
        monkeypatch.setattr(Solver, "check", counted_check)
        warm_kb = KnowledgeBase(path)
        warm = run_with(warm_kb, fast_suite())
        warm_kb.close()
        assert calls == {"prescreen": 0, "check": 0}
        assert warm_kb.stats.scope_hits["verdict"] > 0
        assert [(o.program, o.counters["smt_calls"], o.counters["prescreen_decided"])
                for o in warm.outcomes] == [
            (o.program, o.counters["smt_calls"], o.counters["prescreen_decided"])
            for o in cold.outcomes
        ]
        assert sum(o.counters["smt_calls"] for o in warm.outcomes) > 0

    def test_swapped_inputs_read_no_verdict(self, tmp_path):
        benchmark = fast_suite().get("c5_join_filter_large_orders")
        assert len(benchmark.inputs) == 2
        swapped = replace(benchmark, inputs=tuple(reversed(benchmark.inputs)))
        alone = run_with(None, [swapped]).outcomes[0]
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        run_with(kb, [benchmark])
        outcome = run_with(kb, [swapped]).outcomes[0]
        # A binding names an input by position: the verdicts of one input
        # order say nothing about the other, while executions still hit.
        assert "verdict" not in kb.stats.scope_hits
        assert kb.stats.scope_hits["exec"] > 0
        assert outcome.solved and outcome.program == alone.program
        kb.close()

    def test_a_deadline_cut_check_writes_no_fact(self, tmp_path, monkeypatch):
        path = str(tmp_path / "kb.sqlite")
        kb = KnowledgeBase(path)
        view = kb.view(standard_library().version_hash())
        inputs = [Table(["id", "age"], [(1, 8), (2, 18), (3, 12)])]
        output = Table(["id", "age"], [(2, 18), (3, 12)])
        filter_ = standard_library().by_name("filter")
        # ``filter`` alone passes the prescreen and is accepted by the solver.
        root = initial_hypothesis()
        hypothesis = refine(root, root, filter_, lambda: 1)

        class CutShort(Solver):
            def check(self, deadline=None):
                return CheckResult.UNKNOWN

            def reason_unknown(self):
                return "timeout"

        monkeypatch.setattr(deduction, "Solver", CutShort)
        engine = DeductionEngine(inputs=inputs, output=output, kb_view=view)
        assert engine.deduce(hypothesis) is True
        assert engine.stats.smt_calls == 1
        kb.flush()
        assert verdict_rows(path) == 0

        monkeypatch.setattr(deduction, "Solver", Solver)
        engine = DeductionEngine(inputs=inputs, output=output, kb_view=view)
        assert engine.deduce(hypothesis) is True
        kb.flush()
        assert verdict_rows(path) == 1
        kb.close()


class TestLibraryVersionHash:
    """The library hash covers what a fact means, not only signatures."""

    @staticmethod
    def with_filter_spec_true():
        library = standard_library()
        return ComponentLibrary(
            tuple(
                replace(component, spec=spec_true, transfer=None)
                if component.name == "filter" else component
                for component in library
            ),
            library.value_transformer_names,
        )

    def test_a_swapped_spec_changes_the_hash_and_reads_no_verdict(self, tmp_path):
        custom = self.with_filter_spec_true()
        assert custom.names() == standard_library().names()
        assert custom.version_hash() != standard_library().version_hash()
        suite = fast_suite().subset(names=["c5_join_filter_large_orders"])
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        run_with(kb, suite)
        assert kb.stats.hits == 0
        outcome = run_with(kb, suite, library=custom).outcomes[0]
        assert kb.stats.hits == 0
        assert outcome.solved
        kb.close()

    def test_the_hash_does_not_depend_on_the_hash_seed(self):
        script = (
            "from repro.core.library import standard_library;"
            "print(standard_library().version_hash().hex())"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        digests = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            )
            digests.add(result.stdout.strip())
        assert len(digests) == 1
        assert digests == {standard_library().version_hash().hex()}


class TestExplicitAttachment:
    """A session reads and writes only the knowledge base it was handed."""

    @staticmethod
    def request(benchmark):
        return SynthesisRequest.from_tables(
            benchmark.inputs, benchmark.output, config=spec2_config(TIMEOUT)
        )

    @staticmethod
    def deterministic(session):
        counters = session.counters()
        for name in CLOCK_COUNTERS:
            del counters[name]
        return counters

    def test_kernel_binds_the_kb_it_is_given(self, tmp_path):
        benchmark = fast_suite().get("c1_prices_long_to_wide")
        library = standard_library()
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        attached = create_session(self.request(benchmark), library=library, kb=kb)
        view = attached._kernel.engine.kb_view
        assert view.kb is kb
        # Bound to this library's version: it finds what that view stores.
        kb.view(library.version_hash()).put_execution(("k",), Table(["a"], [(1,)]))
        assert view.get_execution(("k",)).rows == ((1,),)
        plain = create_session(self.request(benchmark), library=library)
        assert plain._kernel.engine.kb_view is None
        kb.close()

    def test_kb_less_session_beside_an_attached_one(self, tmp_path):
        path = str(tmp_path / "kb.sqlite")
        benchmark = fast_suite().get("c5_join_filter_large_orders")
        populate = KnowledgeBase(path)
        create_session(self.request(benchmark), kb=populate).solve()
        populate.close()
        dedicated = create_session(self.request(benchmark))
        dedicated.solve()

        kb = KnowledgeBase(path)
        attached = create_session(self.request(benchmark), kb=kb)
        plain = create_session(self.request(benchmark))
        slices = 0
        while not (attached.finished and plain.finished):
            attached.advance(8)
            before = astuple(kb.stats)
            plain.advance(8)
            assert astuple(kb.stats) == before
            slices += 1
        assert slices > 1
        assert kb.stats.hits > 0
        assert plain.candidates == dedicated.candidates
        assert self.deterministic(plain) == self.deterministic(dedicated)
        assert attached.candidates == dedicated.candidates
        kb.close()


    def test_each_session_writes_only_its_own_kb(self, tmp_path):
        benchmark = fast_suite().get("c2_orders_count_by_region")
        paths = [str(tmp_path / "a.kb"), str(tmp_path / "b.kb")]
        kbs = [KnowledgeBase(path) for path in paths]
        sessions = [create_session(self.request(benchmark), kb=kb) for kb in kbs]
        while not all(session.finished for session in sessions):
            for session in sessions:
                session.advance(8)
        # A finished search flushes its own handle: a second handle on each
        # file sees its facts while the first is still open.
        readers = [KnowledgeBase(path) for path in paths]
        assert len(readers[0]) == len(readers[1]) > 0
        assert [kb.stats.hits for kb in kbs] == [0, 0]
        for kb in (*readers, *kbs):
            kb.close()


class TestConcurrentAccess:
    def test_two_threads_share_one_kb(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        library_hash = standard_library().version_hash()
        views = [kb.view(library_hash), kb.view(library_hash)]
        assert all(view.kb is kb for view in views)
        shared = Table(["s"], [(1,)])
        errors = []

        def worker(view, offset):
            try:
                for i in range(100):
                    key = ("component", offset * 1000 + i)
                    view.put_execution(key, Table(["a"], [(i,)]))
                    restored = view.get_execution(key)
                    assert restored.rows == ((i,),)
                    # A key both threads fight over: any successful read
                    # must return the one value both of them write.
                    view.put_execution(("shared",), shared)
                    racy = view.get_execution(("shared",))
                    assert racy is None or racy.rows == ((1,),)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(view, index))
            for index, view in enumerate(views)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(kb) == 201  # 100 per worker + the shared key
        kb.close()

    def test_len_counts_facts_not_yet_flushed(self, tmp_path):
        path = str(tmp_path / "kb.sqlite")
        kb = KnowledgeBase(path)
        other = KnowledgeBase(path)
        kb.view(b"lib").put_execution(("k",), Table(["a"], [(1,)]))
        assert len(other) == 0  # still pending in the first handle
        assert len(kb) == 1
        assert len(other) == 1
        other.close()
        kb.close()

    def test_write_behind_reaches_a_second_handle(self, tmp_path):
        # Two processes (or --jobs workers) on one file: the first handle is
        # never closed, yet its facts are on disk once its searches finish.
        path = str(tmp_path / "kb.sqlite")
        suite = fast_suite()
        first = KnowledgeBase(path)
        run_with(first, suite)
        second = KnowledgeBase(path)
        run_with(second, suite)
        assert second.stats.hits > 0
        second.close()
        first.close()
