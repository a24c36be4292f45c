"""Tests for the conflict-driven lemma store and its deduction integration."""

import itertools

import pytest

from repro.core import standard_library
from repro.core.deduction import DeductionEngine
from repro.core.hypothesis import initial_hypothesis, refine, table_holes
from repro.core.lemmas import LemmaStore
from repro.dataframe import Table

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


class TestLemmaStore:
    def test_blocks_requires_subset(self):
        store = LemmaStore()
        store.add([("spec", (), "gather")])
        assert store.blocks(frozenset({("spec", (), "gather"), ("bind", (0,), None)}))
        assert not store.blocks(frozenset({("spec", (), "spread")}))

    def test_superset_lemma_is_subsumed(self):
        store = LemmaStore()
        assert store.add([("spec", (), "gather")])
        assert not store.add([("spec", (), "gather"), ("bind", (0,), None)])
        assert len(store) == 1
        assert store.stats.subsumed == 1

    def test_more_general_lemma_retires_specific_ones(self):
        store = LemmaStore()
        store.add([("spec", (), "gather"), ("bind", (0,), None)])
        store.add([("spec", (), "gather"), ("bind", (0,), 0)])
        assert len(store) == 2
        assert store.add([("spec", (), "gather")])
        assert len(store) == 1
        assert store.stats.retired == 2
        assert store.lemmas() == [frozenset({("spec", (), "gather")})]

    def test_maxsize_overflow_is_counted_not_fatal(self):
        store = LemmaStore(maxsize=1)
        assert store.add([("spec", (), "gather")])
        assert not store.add([("spec", (), "spread")])
        assert len(store) == 1
        assert store.stats.overflow == 1

    def test_empty_lemma_is_rejected(self):
        store = LemmaStore()
        with pytest.raises(ValueError):
            store.add([])

    def test_clear_drops_lemmas_but_keeps_counters(self):
        store = LemmaStore()
        store.add([("spec", (), "gather")])
        assert store.blocks(frozenset({("spec", (), "gather")}))
        store.clear()
        assert len(store) == 0
        assert not store.blocks(frozenset({("spec", (), "gather")}))
        assert store.stats.learned == 1


@pytest.mark.usefixtures("no_prescreen")
class TestEngineIntegration:
    # These tests pin the tier-2 (CDCL) machinery in isolation: the tier-1
    # interval prescreen would decide the simple UNSAT chains below before
    # any lemma could be mined, so it is patched out here.
    def test_rejection_mines_a_lemma_and_blocks_the_replay(self):
        engine = DeductionEngine(inputs=[T1], output=T1)
        hypothesis = build_chain("select")  # select must drop a column: UNSAT
        assert engine.deduce(hypothesis) is False
        assert engine.stats.lemmas_learned >= 1
        assert len(engine.lemma_store) >= 1
        assert engine.deduce(hypothesis) is False
        assert engine.stats.lemma_prunes == 1

    def test_learn_false_skips_mining_but_still_consults_the_store(self):
        engine = DeductionEngine(inputs=[T1], output=T1)
        assert engine.deduce(build_chain("select"), learn=False) is False
        assert engine.stats.lemmas_learned == 0
        # Mine via a learning call (the verdict cache is cleared first: a
        # cached rejection short-circuits before the mining step), then
        # verify a later learn=False call is answered by the store.
        engine._verdict_cache.clear()
        assert engine.deduce(build_chain("select")) is False
        assert engine.stats.lemmas_learned >= 1
        engine._verdict_cache.clear()
        assert engine.deduce(build_chain("select"), learn=False) is False
        assert engine.stats.lemma_prunes >= 1

    def test_lemma_generalizes_across_sibling_hypotheses(self):
        # mutate at the root must introduce values the (unchanged) output
        # table does not have, whatever its subtree computes: the mined core
        # is the root spec alone, so every deeper hypothesis keeping mutate
        # at the root is rejected without a new SMT call.
        engine = DeductionEngine(inputs=[T1], output=T1)
        assert engine.deduce(build_chain("mutate")) is False
        assert frozenset({("spec", (), "mutate")}) in engine.lemma_store.lemmas()
        calls = engine.stats.smt_calls
        assert engine.deduce(build_chain("mutate", "filter")) is False
        assert engine.deduce(build_chain("mutate", "select")) is False
        assert engine.stats.smt_calls == calls
        assert engine.stats.lemma_prunes == 2

    def test_lemma_prunes_agree_with_monolithic_verdicts(self, monkeypatch):
        # Soundness differential: every verdict of the CDCL engine (lemma
        # prunes included) must coincide with the plain Algorithm 2 verdict
        # of an engine that mines nothing (so its lemma store stays empty).
        names = ["select", "filter", "mutate", "gather", "spread", "group_by"]
        cdcl = DeductionEngine(inputs=[T1], output=T3)
        plain = DeductionEngine(inputs=[T1], output=T3)
        monkeypatch.setattr(plain, "_mine_lemma", lambda *args: None)
        hypotheses = [build_chain(name) for name in names]
        hypotheses += [
            build_chain(first, second)
            for first in names
            for second in ("select", "filter", "gather")
        ]
        for hypothesis in hypotheses:
            assert cdcl.deduce(hypothesis) is plain.deduce(hypothesis), (
                f"CDCL verdict diverged on {hypothesis!r}"
            )
        assert cdcl.stats.lemma_prunes > 0
        assert cdcl.stats.smt_calls < plain.stats.smt_calls

