"""Tests for hypotheses, refinement trees, sketches and partial evaluation."""

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import standard_library
from repro.core.arguments import Aggregation, ColumnList, Constant, MutationExpr, Predicate
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
    replace_node,
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
        assert pickle_across_hash_seeds(tmp_path, build) == b"ok"

    def test_pickled_arguments_survive_a_new_hash_seed(self, tmp_path):
        """Argument values cache their hash too; it must not travel either."""
        build = (
            "from repro.core import standard_library\n"
            "from repro.core.arguments import (\n"
            "    Aggregation, ColumnList, Constant, MutationExpr, Predicate)\n"
            "from repro.core.hypothesis import Apply, Hole\n"
            "from repro.core.types import Type\n"
            "def build():\n"
            "    c = {c.name: c for c in standard_library()}\n"
            "    expression = MutationExpr('/', 'n', right_aggregate=Aggregation('sum', 'n'))\n"
            "    predicate = Predicate('name', '==', Constant('Bob'))\n"
            "    columns = ColumnList(('name', 'n'))\n"
            "    mutate = Apply(1, c['mutate'], (Hole(2, Type.TABLE, binding=0),),\n"
            "                   (Hole(3, Type.MUTATION, value=expression),))\n"
            "    filter_ = Apply(4, c['filter'], (mutate,),\n"
            "                    (Hole(5, Type.PREDICATE, value=predicate),))\n"
            "    return Apply(0, c['select'], (filter_,),\n"
            "                 (Hole(6, Type.COLS, value=columns),))\n"
        )
        assert pickle_across_hash_seeds(tmp_path, build) == b"ok"

    def test_argument_copies_drop_the_cached_hash(self):
        arguments = (
            ColumnList(("name", "age")),
            Predicate("age", ">", Constant(10)),
            MutationExpr("/", "n", right_aggregate=Aggregation("sum", "n")),
            Aggregation("mean", "age"),
        )
        for argument in arguments:
            hash(argument)
            assert argument._hash is not None
            for clone in (
                pickle.loads(pickle.dumps(argument)),
                copy.copy(argument),
                copy.deepcopy(argument),
            ):
                assert clone._hash is None
                assert clone == argument
                assert hash(clone) == hash(argument)
            # The cached hash is the field hash a frozen dataclass computes.
            fields = tuple(getattr(argument, name) for name in argument.__dataclass_fields__
                           if name != "_hash")
            assert hash(argument) == hash(fields)

    def test_replace_node_copies_only_the_edited_path(self):
        rng = random.Random(20261017)
        for _trial in range(60):
            tree = random_tree(rng)
            nodes = list(iter_nodes(tree))
            for target in nodes:
                for new_node in replacements(target, rng):
                    replaced = replace_node(tree, target.node_id, new_node)
                    assert replaced == full_rebuild(tree, target.node_id, new_node)
                    path = ancestors(tree, target.node_id)
                    after = {node.node_id: node for node in iter_nodes(replaced)}
                    for node in nodes:
                        if node.node_id not in after or node.node_id in path:
                            continue
                        # Off the path: the very same object survives.
                        assert after[node.node_id] is node
                    value_hole = isinstance(target, Hole) and target.hole_type is not Type.TABLE
                    if target is tree:
                        assert replaced is new_node
                    elif value_hole and isinstance(new_node, Apply):
                        # A value child is only ever replaced by a hole.
                        assert replaced is tree
                    else:
                        for node_id in path - {target.node_id}:
                            assert after[node_id] is not find(tree, node_id)


def pickle_across_hash_seeds(tmp_path, build):
    """Pickle ``build()`` and a memo keyed by it under seed 0, probe under 26."""
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
    return run(26, load, str(payload)).strip()


def full_rebuild(hypothesis, node_id, new_node):
    """The former ``replace_node``, which rebuilt every application."""
    if hypothesis.node_id == node_id:
        return new_node
    if isinstance(hypothesis, Hole):
        return hypothesis
    table_children = tuple(
        full_rebuild(child, node_id, new_node) for child in hypothesis.table_children
    )
    value_children = tuple(
        new_node if child.node_id == node_id and isinstance(new_node, Hole) else child
        for child in hypothesis.value_children
    )
    return Apply(hypothesis.node_id, hypothesis.component, table_children, value_children)


def random_tree(rng):
    """A random refinement tree, some table holes bound, some value holes filled."""
    next_id = make_counter()
    tree = initial_hypothesis()
    for _ in range(rng.randint(1, 4)):
        holes = table_holes(tree)
        if not holes:
            break
        tree = refine(tree, rng.choice(holes), rng.choice(list(LIBRARY)), next_id)
    for hole in table_holes(tree):
        if rng.random() < 0.7:
            tree = bind_table_hole(tree, hole, rng.randint(0, 1))
    for hole in unfilled_value_holes(tree):
        if rng.random() < 0.5:
            tree = fill_value_hole(tree, hole, ColumnList((f"c{hole.node_id}",)))
    return tree


def replacements(target, rng):
    """A filled or re-bound copy of *target*'s hole, and a fresh application."""
    if isinstance(target, Hole):
        if target.hole_type is Type.TABLE:
            yield Hole(target.node_id, Type.TABLE, binding=rng.randint(0, 1))
        else:
            yield Hole(target.node_id, target.hole_type, value=ColumnList(("x",)))
    yield Apply(target.node_id, COMPONENTS["inner_join"],
                (Hole(900, Type.TABLE), Hole(901, Type.TABLE)), ())


def ancestors(tree, node_id):
    """Ids of the node *node_id* and every node above it."""
    if tree.node_id == node_id:
        return {node_id}
    if isinstance(tree, Apply):
        for child in tree.table_children + tree.value_children:
            below = ancestors(child, node_id)
            if below:
                return below | {tree.node_id}
    return set()


def find(tree, node_id):
    return next(node for node in iter_nodes(tree) if node.node_id == node_id)


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
