"""Tests for hypotheses, refinement trees, sketches and partial evaluation."""

import copy
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import standard_library
from repro.core.arguments import Aggregation, ColumnList, Constant, Predicate
from repro.core.hypothesis import (
    Apply,
    EvaluationFailure,
    Hole,
    bind_table_hole,
    component_sequence,
    evaluate,
    fill_value_hole,
    hypothesis_size,
    initial_hypothesis,
    is_complete,
    is_sketch,
    iter_nodes,
    partial_evaluate,
    refine,
    render_program,
    sketches,
    table_holes,
    unfilled_value_holes,
)
from repro.core.types import Type
from repro.dataframe import Table

LIBRARY = standard_library()
COMPONENTS = {component.name: component for component in LIBRARY}
STUDENTS = Table(["name", "age"], [["Alice", 8], ["Bob", 18], ["Tom", 12]])


def make_counter():
    counter = itertools.count(1)
    return lambda: next(counter)


def build_chain(*names):
    """Refine the initial hypothesis into a chain of the given components."""
    next_id = make_counter()
    hypothesis = initial_hypothesis()
    for name in names:
        hole = table_holes(hypothesis)[0]
        hypothesis = refine(hypothesis, hole, COMPONENTS[name], next_id)
    return hypothesis


class TestRefinement:
    def test_initial_hypothesis(self):
        hypothesis = initial_hypothesis()
        assert isinstance(hypothesis, Hole)
        assert hypothesis.hole_type is Type.TABLE
        assert hypothesis_size(hypothesis) == 0
        assert not is_sketch(hypothesis)

    def test_single_refinement(self):
        hypothesis = build_chain("filter")
        assert isinstance(hypothesis, Apply)
        assert hypothesis.component.name == "filter"
        assert hypothesis_size(hypothesis) == 1
        assert len(table_holes(hypothesis)) == 1

    def test_chain_refinement(self):
        hypothesis = build_chain("select", "filter")
        assert component_sequence(hypothesis) == ("filter", "select")
        assert hypothesis_size(hypothesis) == 2

    def test_join_refinement_creates_two_table_holes(self):
        hypothesis = build_chain("inner_join")
        assert len(table_holes(hypothesis)) == 2

    def test_node_ids_are_unique(self):
        hypothesis = build_chain("select", "filter", "group_by")
        ids = [node.node_id for node in iter_nodes(hypothesis)]
        assert len(ids) == len(set(ids))

    def test_refinement_is_pure(self):
        hypothesis = initial_hypothesis()
        refined = refine(hypothesis, hypothesis, COMPONENTS["filter"], make_counter())
        assert isinstance(hypothesis, Hole)
        assert isinstance(refined, Apply)


class TestNodeContract:
    """Slotted nodes: structural equality, cached hash, hash never pickled."""

    def _filled_by_hand(self):
        table_hole = Hole(1, Type.TABLE, binding=0)
        value_hole = Hole(2, Type.PREDICATE, value=Predicate("age", ">", Constant(10)))
        return Apply(0, COMPONENTS["filter"], (table_hole,), (value_hole,))

    def test_rewritten_trees_equal_trees_built_by_hand(self):
        refined = build_chain("filter")
        assert refined == Apply(
            0, COMPONENTS["filter"], (Hole(1, Type.TABLE),), (Hole(2, Type.PREDICATE),)
        )
        bound = bind_table_hole(refined, table_holes(refined)[0], 0)
        program = fill_value_hole(
            bound, unfilled_value_holes(bound)[0], Predicate("age", ">", Constant(10))
        )
        by_hand = self._filled_by_hand()
        assert program == by_hand and by_hand == program
        assert hash(program) == hash(by_hand)
        assert {by_hand: "memo"}[program] == "memo"

    def test_fields_change_equality(self):
        hole = Hole(3, Type.TABLE)
        assert hole == Hole(3, Type.TABLE)
        assert hole != Hole(3, Type.TABLE, binding=0)
        assert hole != Hole(4, Type.TABLE)
        assert hole != Hole(3, Type.COLS)
        refined = build_chain("filter")
        assert refined != build_chain("select")

    def test_hole_never_equals_apply_with_the_same_id(self):
        hole = Hole(0, Type.TABLE)
        application = build_chain("filter")
        assert application.node_id == hole.node_id
        assert hole != application and application != hole
        assert len({hole, application}) == 2

    def test_pickle_and_deepcopy_drop_the_cached_hash(self):
        program = self._filled_by_hand()
        hash(program)
        assert program._hash is not None
        for clone in (pickle.loads(pickle.dumps(program)), copy.deepcopy(program)):
            assert clone._hash is None
            assert clone.table_children[0]._hash is None
            assert clone.value_children[0]._hash is None
            assert clone == program
            assert hash(clone) == hash(program)

    def test_pickled_tree_survives_a_new_hash_seed(self, tmp_path):
        """A tree hashed and pickled under one seed keys a memo under another."""
        build = (
            "from repro.core import standard_library\n"
            "from repro.core.arguments import Constant, Predicate\n"
            "from repro.core.hypothesis import Apply, Hole\n"
            "from repro.core.types import Type\n"
            "def build():\n"
            "    filter_ = {c.name: c for c in standard_library()}['filter']\n"
            "    predicate = Predicate('age', '>', Constant(10))\n"
            "    return Apply(0, filter_, (Hole(1, Type.TABLE, binding=0),),\n"
            "                 (Hole(2, Type.PREDICATE, value=predicate),))\n"
        )
        dump = build + (
            "import pickle, sys\n"
            "tree = build()\n"
            "memo = {tree: 'entry'}\n"
            "sys.stdout.buffer.write(pickle.dumps((tree, memo)))\n"
        )
        load = build + (
            "import pickle, sys\n"
            "tree, memo = pickle.load(open(sys.argv[1], 'rb'))\n"
            "fresh = build()\n"
            "assert tree == fresh, (tree, fresh)\n"
            "assert hash(tree) == hash(fresh)\n"
            "assert memo[fresh] == 'entry'\n"
            "assert {fresh: 1}[tree] == 1\n"
            "print('ok')\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")

        def run(seed, code, *args):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True)
            assert done.returncode == 0, done.stderr.decode()
            return done.stdout

        payload = tmp_path / "tree.pickle"
        payload.write_bytes(run(0, dump))
        assert run(26, load, str(payload)).strip() == b"ok"


class TestSketches:
    def test_binding_produces_sketch(self):
        hypothesis = build_chain("filter")
        hole = table_holes(hypothesis)[0]
        sketch = bind_table_hole(hypothesis, hole, 0)
        assert is_sketch(sketch)
        assert not is_complete(sketch)

    def test_sketch_enumeration_single_input(self):
        hypothesis = build_chain("filter")
        assert len(list(sketches(hypothesis, 1))) == 1

    def test_sketch_enumeration_join_two_inputs(self):
        hypothesis = build_chain("inner_join")
        candidates = list(sketches(hypothesis, 2))
        assert len(candidates) == 4
        assert all(is_sketch(candidate) for candidate in candidates)

    def test_complete_program(self):
        hypothesis = build_chain("filter")
        sketch = next(sketches(hypothesis, 1))
        hole = unfilled_value_holes(sketch)[0]
        program = fill_value_hole(sketch, hole, Predicate("age", ">", Constant(10)))
        assert is_complete(program)


class TestPartialEvaluation:
    def _program(self):
        hypothesis = build_chain("filter")
        sketch = next(sketches(hypothesis, 1))
        hole = unfilled_value_holes(sketch)[0]
        return fill_value_hole(sketch, hole, Predicate("age", ">", Constant(10)))

    def test_complete_program_evaluates(self):
        program = self._program()
        result = evaluate(program, [STUDENTS])
        assert result.n_rows == 2
        assert set(result.column_values("name")) == {"Bob", "Tom"}

    def test_partial_hypothesis_skips_unknown_nodes(self):
        hypothesis = build_chain("select", "filter")
        sketch = next(sketches(hypothesis, 1))
        # Only the filter (inner) node's predicate missing -> nothing evaluable
        # above the input leaf.
        results = partial_evaluate(sketch, [STUDENTS])
        tables = list(results.values())
        assert STUDENTS in tables
        assert len(tables) == 1

    def test_incomplete_program_cannot_fully_evaluate(self):
        hypothesis = build_chain("filter")
        sketch = next(sketches(hypothesis, 1))
        with pytest.raises(ValueError):
            evaluate(sketch, [STUDENTS])

    def test_evaluation_failure_raised(self):
        hypothesis = build_chain("filter")
        sketch = next(sketches(hypothesis, 1))
        hole = unfilled_value_holes(sketch)[0]
        # A predicate that keeps every row is rejected by the executor.
        program = fill_value_hole(sketch, hole, Predicate("age", ">", Constant(0)))
        with pytest.raises(EvaluationFailure):
            partial_evaluate(program, [STUDENTS])

    def test_memo_is_reused(self):
        program = self._program()
        memo = {}
        first = partial_evaluate(program, [STUDENTS], memo=memo)
        assert memo
        second = partial_evaluate(program, [STUDENTS], memo=memo)
        assert first[program.node_id] == second[program.node_id]


class TestRendering:
    def test_render_complete_program(self):
        hypothesis = build_chain("summarise", "group_by")
        sketch = next(sketches(hypothesis, 1))
        group_hole = [
            hole for hole in unfilled_value_holes(sketch)
            if hole.hole_type is Type.COLS
        ][0]
        sketch = fill_value_hole(sketch, group_hole, ColumnList(("name",)))
        agg_hole = unfilled_value_holes(sketch)[0]
        program = fill_value_hole(sketch, agg_hole, Aggregation("n"))
        text = render_program(program, ["students"])
        assert "group_by(students, name)" in text
        assert "summarise(df1" in text
        assert text.startswith("df1 =")

    def test_render_partial_program_shows_holes(self):
        hypothesis = build_chain("filter")
        sketch = next(sketches(hypothesis, 1))
        text = render_program(sketch, ["t"])
        assert "?" in text
