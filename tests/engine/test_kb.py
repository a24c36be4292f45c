"""Tests for the warm-start knowledge base (repro.engine.kb)."""

import threading
import time

import pytest

from repro.baselines import spec2_config
from repro.benchmarks import r_benchmark_suite, run_suite
from repro.core import SpecLevel
from repro.core.hypothesis import EvaluationFailure
from repro.core.library import standard_library
from repro.core.lemmas import LemmaStore, decode_descriptor, encode_descriptor
from repro.dataframe import Table
from repro.dataframe.profiling import ExecutionStats, install_execution_stats
from repro.engine import TaskContext
from repro.engine import kb as kb_module
from repro.engine.kb import (
    KnowledgeBase,
    _serialize_result,
    baseline_digest,
    current_kb,
    digest_tokens,
    set_default_kb,
)

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


def run_with(kb, suite):
    """Run *suite* serially under spec2 with *kb* installed as the default."""
    set_default_kb(kb)
    try:
        return run_suite(suite, spec2_config, timeout=TIMEOUT, label="spec2")
    finally:
        set_default_kb(None)


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

    def test_install_and_default(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        assert current_kb() is None
        set_default_kb(kb)
        try:
            assert current_kb() is kb
            assert TaskContext().kb is kb
        finally:
            set_default_kb(None)
        assert current_kb() is None
        assert TaskContext().kb is None
        kb.close()


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
        "lemma_prunes",
        "lemmas_learned",
        "lemma_mining_solves",
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


class TestRunSuiteKBScope:
    """``run_suite(kb_path=...)`` installs its knowledge base for the call only."""

    @staticmethod
    def entries(path):
        kb = KnowledgeBase(path)
        try:
            return len(kb)
        finally:
            kb.close()

    def test_each_call_uses_its_own_kb_and_leaves_none_behind(self, tmp_path):
        suite = r_benchmark_suite().subset(names=FAST_NAMES[:1])
        first, second = str(tmp_path / "a.kb"), str(tmp_path / "b.kb")
        run_suite(suite, spec2_config, timeout=TIMEOUT, kb_path=first)
        assert current_kb() is None
        first_entries = self.entries(first)
        assert first_entries > 0  # closing the KB flushed its batched writes
        run_suite(suite, spec2_config, timeout=TIMEOUT, kb_path=second)
        assert current_kb() is None
        assert self.entries(second) > 0
        assert self.entries(first) == first_entries
        run_suite(suite, spec2_config, timeout=TIMEOUT)
        assert current_kb() is None
        assert self.entries(first) == first_entries

    def test_in_process_run_restores_the_default(self, tmp_path):
        suite = r_benchmark_suite().subset(names=FAST_NAMES[:1])
        default = KnowledgeBase(str(tmp_path / "default.kb"))
        set_default_kb(default)
        try:
            run_suite(
                suite, spec2_config, timeout=TIMEOUT, jobs=1,
                kb_path=str(tmp_path / "run.kb"),
            )
            assert current_kb() is default
        finally:
            set_default_kb(None)
        assert self.entries(str(tmp_path / "run.kb")) > 0
        assert len(default) == 0
        default.close()

    def test_pool_run_writes_the_file_and_leaves_the_default(self, tmp_path):
        # Each pool worker opens the file itself; the caller's process
        # default must come back untouched, and the programs must be the
        # serial ones.
        suite = fast_suite()
        serial = run_suite(suite, spec2_config, timeout=TIMEOUT)
        default = KnowledgeBase(str(tmp_path / "default.kb"))
        set_default_kb(default)
        try:
            pooled = run_suite(
                suite, spec2_config, timeout=TIMEOUT, jobs=2,
                kb_path=str(tmp_path / "pool.kb"),
            )
            assert current_kb() is default
        finally:
            set_default_kb(None)
        assert [o.program for o in pooled.outcomes] == [o.program for o in serial.outcomes]
        assert all(o.solved for o in pooled.outcomes)
        assert self.entries(str(tmp_path / "pool.kb")) > 0
        assert len(default) == 0
        default.close()


class TestConcurrentAccess:
    def test_two_task_contexts_share_one_kb(self, tmp_path):
        kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
        contexts = [TaskContext(kb=kb), TaskContext(kb=kb)]
        assert all(context.kb is kb for context in contexts)
        library_hash = standard_library().version_hash()
        shared = Table(["s"], [(1,)])
        errors = []

        def worker(context, offset):
            try:
                view = context.kb.view(library_hash)
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
            threading.Thread(target=worker, args=(context, index))
            for index, context in enumerate(contexts)
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


class TestLemmaAndOETransport:
    def test_descriptor_codec_roundtrip(self):
        descriptors = [
            ("eval", (0, 1), (3, 2, 0, 1, 4)),
            ("spec", (0,), "select"),
            ("bind", (1,), None),
            ("bind", (2,), 1),
        ]
        for descriptor in descriptors:
            assert decode_descriptor(encode_descriptor(descriptor)) == descriptor
        with pytest.raises(ValueError):
            decode_descriptor(["mystery", [0], 1])

    def test_lemma_store_export_import(self):
        store = LemmaStore()
        store.add([("spec", (0,), "select"), ("bind", (1,), 0)])
        store.add([("eval", (0,), (1, 2, 3, 4, 5))])
        entries = store.export_entries()
        assert entries == store.export_entries()  # deterministic
        restored = LemmaStore()
        assert restored.import_entries(entries) == 2
        assert set(restored.lemmas()) == set(store.lemmas())
        # Malformed entries degrade to a cold start, never an error.
        assert restored.import_entries([[["mystery", [0], 1]], "junk"]) == 0
