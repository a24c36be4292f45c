"""Hypotheses as refinement trees (Section 4 of the paper).

A hypothesis is a partial program: a tree whose internal nodes are
applications of table transformers and whose leaves are holes.  A *table*
hole may carry a qualifier binding it to one of the example's input tables; a
*first-order* hole may carry a qualifier holding the concrete
:class:`~repro.core.arguments.ValueArgument` that fills it.

* A hypothesis with no table holes left unbound is a **sketch**
  (Definition 6).
* A hypothesis whose every hole carries a qualifier is a **complete program**
  (Definition 7).

Hypotheses are immutable; refinement and hole filling return new trees.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..components.errors import PRUNABLE_ERRORS
from ..dataframe.table import Table
from .arguments import ValueArgument
from .component import Component
from .types import Type


class Hole:
    """An unknown expression ``?i : tau``, optionally with a qualifier.

    Nodes are immutable by convention and compare structurally (same class,
    equal fields).  The hash is computed on first use and kept in ``_hash``;
    it never travels with the node (see ``__reduce__``), because it covers
    strings whose hash differs per process.
    """

    __slots__ = ("node_id", "hole_type", "binding", "value", "_hash")

    def __init__(
        self,
        node_id: int,
        hole_type: Type,
        binding: Optional[int] = None,
        value: Optional[ValueArgument] = None,
    ) -> None:
        self.node_id = node_id
        self.hole_type = hole_type
        #: For TABLE holes: the index of the input table this hole is bound to.
        self.binding = binding
        #: For first-order holes: the concrete argument value filling the hole.
        self.value = value
        self._hash: Optional[int] = None

    @property
    def is_bound(self) -> bool:
        """True when the hole carries a qualifier."""
        if self.hole_type is Type.TABLE:
            return self.binding is not None
        return self.value is not None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Hole:
            return NotImplemented
        return (self.node_id, self.hole_type, self.binding, self.value) == (
            other.node_id, other.hole_type, other.binding, other.value
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.node_id, self.hole_type.value, self.binding, self.value))
        return self._hash

    def __reduce__(self):
        return Hole, (self.node_id, self.hole_type, self.binding, self.value)

    def __repr__(self) -> str:
        if self.hole_type is Type.TABLE and self.binding is not None:
            return f"?{self.node_id}@x{self.binding + 1}"
        if self.value is not None:
            return f"?{self.node_id}@{self.value.render_r()}"
        return f"?{self.node_id}:{self.hole_type.value}"


class Apply:
    """An application node ``?X_i(H_1, ..., H_n)``.

    ``table_children`` are sub-hypotheses (holes or nested applications) for
    the component's table arguments; ``value_children`` are the first-order
    holes for its remaining parameters.  Equality is structural like
    :class:`Hole`'s; the cached hash covers the component's *name* only, so
    hashing never walks the component's fields.
    """

    __slots__ = ("node_id", "component", "table_children", "value_children", "_hash")

    def __init__(
        self,
        node_id: int,
        component: Component,
        table_children: Tuple["Hypothesis", ...],
        value_children: Tuple[Hole, ...],
    ) -> None:
        self.node_id = node_id
        self.component = component
        self.table_children = table_children
        self.value_children = value_children
        self._hash: Optional[int] = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Apply:
            return NotImplemented
        return (
            self.node_id, self.component, self.table_children, self.value_children
        ) == (other.node_id, other.component, other.table_children, other.value_children)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.node_id, self.component.name, self.table_children, self.value_children)
            )
        return self._hash

    def __reduce__(self):
        return Apply, (self.node_id, self.component, self.table_children, self.value_children)

    def __repr__(self) -> str:
        children = list(self.table_children) + list(self.value_children)
        rendered = ", ".join(repr(child) for child in children)
        return f"?{self.component.name}_{self.node_id}({rendered})"


Hypothesis = Union[Hole, Apply]


def initial_hypothesis() -> Hole:
    """The most general hypothesis ``?0 : tbl``."""
    return Hole(0, Type.TABLE)


# ----------------------------------------------------------------------
# Tree traversal helpers
# ----------------------------------------------------------------------
def iter_nodes(hypothesis: Hypothesis) -> Iterable[Hypothesis]:
    """Pre-order traversal of every node in the tree."""
    yield hypothesis
    if isinstance(hypothesis, Apply):
        for child in hypothesis.table_children:
            yield from iter_nodes(child)
        for child in hypothesis.value_children:
            yield child


def table_holes(hypothesis: Hypothesis, unbound_only: bool = True) -> List[Hole]:
    """All TABLE holes (optionally only the unbound ones)."""
    holes = []
    for node in iter_nodes(hypothesis):
        if isinstance(node, Hole) and node.hole_type is Type.TABLE:
            if not unbound_only or not node.is_bound:
                holes.append(node)
    return holes


def unfilled_value_holes(hypothesis: Hypothesis) -> List[Hole]:
    """All first-order holes that do not yet carry a value."""
    holes = []
    for node in iter_nodes(hypothesis):
        if isinstance(node, Hole) and node.hole_type is not Type.TABLE and not node.is_bound:
            holes.append(node)
    return holes


def is_sketch(hypothesis: Hypothesis) -> bool:
    """Definition 6: every table leaf is bound to an input variable."""
    return not table_holes(hypothesis, unbound_only=True)


def is_complete(hypothesis: Hypothesis) -> bool:
    """Definition 7: every hole carries a qualifier."""
    for node in iter_nodes(hypothesis):
        if isinstance(node, Hole) and not node.is_bound:
            return False
    return True


def hypothesis_size(hypothesis: Hypothesis) -> int:
    """The number of component applications in the hypothesis."""
    return sum(1 for node in iter_nodes(hypothesis) if isinstance(node, Apply))


def component_sequence(hypothesis: Hypothesis) -> Tuple[str, ...]:
    """Post-order sequence of component names (used by the n-gram cost model)."""
    sequence: List[str] = []
    _append_component_names(hypothesis, sequence)
    return tuple(sequence)


def _append_component_names(node: Hypothesis, sequence: List[str]) -> None:
    if isinstance(node, Apply):
        for child in node.table_children:
            _append_component_names(child, sequence)
        sequence.append(node.component.name)


# ----------------------------------------------------------------------
# Tree rewriting
# ----------------------------------------------------------------------
def replace_node(hypothesis: Hypothesis, node_id: int, new_node: Hypothesis) -> Hypothesis:
    """Return the tree with the node *node_id* replaced, copying only its path.

    Only the ancestors of the replaced node are rebuilt; every untouched
    subtree comes back as the same object, so its cached hash and its
    identity in the evaluation memo survive the edit.  (A value child is
    only replaced by a :class:`Hole`.)
    """
    if hypothesis.node_id == node_id:
        return new_node
    if hypothesis.__class__ is Hole:
        return hypothesis
    table_children = hypothesis.table_children
    for index, child in enumerate(hypothesis.table_children):
        if child.__class__ is Hole and child.node_id != node_id:
            continue
        replaced = replace_node(child, node_id, new_node)
        if replaced is not child:
            table_children = table_children[:index] + (replaced,) + table_children[index + 1:]
    value_children = hypothesis.value_children
    if new_node.__class__ is Hole:
        for index, child in enumerate(hypothesis.value_children):
            if child.node_id == node_id:
                value_children = value_children[:index] + (new_node,) + value_children[index + 1:]
    if table_children is hypothesis.table_children and value_children is hypothesis.value_children:
        return hypothesis
    return Apply(hypothesis.node_id, hypothesis.component, table_children, value_children)


def refine(
    hypothesis: Hypothesis,
    hole: Hole,
    component: Component,
    next_id: Callable[[], int],
) -> Hypothesis:
    """Definition 5: replace a table hole by an application of *component*.

    The component's table arguments become fresh table holes and its
    first-order parameters become fresh unfilled value holes.
    """
    table_children = tuple(Hole(next_id(), Type.TABLE) for _ in range(component.table_arity))
    value_children = tuple(
        Hole(next_id(), param.param_type) for param in component.value_params
    )
    application = Apply(hole.node_id, component, table_children, value_children)
    return replace_node(hypothesis, hole.node_id, application)


def bind_table_hole(hypothesis: Hypothesis, hole: Hole, input_index: int) -> Hypothesis:
    """Attach the qualifier ``(x_j, T_j)`` to a table hole."""
    bound = Hole(hole.node_id, hole.hole_type, input_index, hole.value)
    return replace_node(hypothesis, hole.node_id, bound)


def fill_value_hole(hypothesis: Hypothesis, hole: Hole, value: ValueArgument) -> Hypothesis:
    """Attach a concrete first-order argument to a value hole."""
    filled = Hole(hole.node_id, hole.hole_type, hole.binding, value)
    return replace_node(hypothesis, hole.node_id, filled)


def sketches(hypothesis: Hypothesis, num_inputs: int) -> Iterable[Hypothesis]:
    """Figure 11: all ways of binding the unbound table holes to input variables."""
    holes = table_holes(hypothesis, unbound_only=True)
    if not holes:
        yield hypothesis
        return
    for assignment in itertools.product(range(num_inputs), repeat=len(holes)):
        candidate = hypothesis
        for hole, input_index in zip(holes, assignment):
            candidate = bind_table_hole(candidate, hole, input_index)
        yield candidate


# ----------------------------------------------------------------------
# Partial evaluation (Figure 7)
# ----------------------------------------------------------------------
class EvaluationFailure(Exception):
    """A complete subterm of the hypothesis cannot be evaluated.

    Raised when a component application fails on its concrete arguments
    (e.g. ``spread`` over duplicate identifiers); the enclosing hypothesis can
    never satisfy the example and is pruned.
    """


def partial_evaluate(
    hypothesis: Hypothesis,
    inputs: Sequence[Table],
    memo: Optional[Dict[Hypothesis, object]] = None,
    exec_cache=None,
    known: Optional[Dict[int, Table]] = None,
) -> Dict[int, Table]:
    """Evaluate every *complete* subterm of the hypothesis.

    Returns a mapping from node id to the concrete table the subterm
    evaluates to.  Nodes whose subtree still contains unbound holes are
    simply absent from the mapping (they are "partial" in the sense of
    Figure 7).  Raises :class:`EvaluationFailure` if evaluation of a complete
    subterm fails.

    ``memo`` is an optional cross-call cache keyed by (structurally equal)
    subtrees; during sketch completion the same lower subtrees are evaluated
    for every candidate filling of the upper holes, so memoisation avoids the
    repeated work.  The cache must only be shared between calls that use the
    same ``inputs``.

    ``exec_cache`` is an optional
    :class:`~repro.engine.cache.ExecutionCache` keyed by the *fingerprints*
    of the argument tables rather than by sub-hypothesis structure, so two
    different sub-programs that happen to produce identical intermediate
    tables share the concrete work (and the result object) above them.

    ``known`` seeds the result with the map of an earlier version of the
    tree -- the sketch completer passes its parent frame's map.  It must
    only hold nodes the edits since then left untouched: filling a hole
    rebuilds only the hole's ancestors, which were incomplete and therefore
    absent.  The walk stops at every seeded node, so only the nodes an edit
    completed are evaluated, probing the memo and the execution cache
    exactly as a walk from scratch would.  The result may keep seeded
    entries below a node that a walk from scratch answers from the memo;
    read top-down, stopping at the first evaluated node, the two maps agree.
    """
    results: Dict[int, Table] = dict(known) if known else {}
    _evaluate_node(hypothesis, inputs, memo, exec_cache, results)
    return results


def _evaluate_node(
    node: Hypothesis,
    inputs: Sequence[Table],
    memo: Optional[Dict[Hypothesis, object]],
    exec_cache,
    results: Dict[int, Table],
) -> Optional[Table]:
    """Evaluate *node* into *results*; ``None`` when its subtree has holes.

    Failures are cached without a traceback and every raise -- first or
    cached -- is a fresh :class:`EvaluationFailure`: re-raising a stored
    exception would chain the raising frames onto it and keep them alive.
    """
    if node.node_id in results:
        return results[node.node_id]
    if isinstance(node, Hole):
        if node.hole_type is Type.TABLE and node.binding is not None:
            table = inputs[node.binding]
            results[node.node_id] = table
            return table
        return None
    if memo is not None:
        cached = memo.get(node)
        if cached is not None:
            if isinstance(cached, EvaluationFailure):
                raise EvaluationFailure(str(cached))
            results[node.node_id] = cached
            return cached
    child_tables = [
        _evaluate_node(child, inputs, memo, exec_cache, results)
        for child in node.table_children
    ]
    if any(table is None for table in child_tables):
        return None
    arguments = []
    for hole in node.value_children:
        if hole.value is None:
            return None
        arguments.append(hole.value)
    exec_key = None
    if exec_cache is not None:
        exec_key = (
            node.component.name,
            node.node_id,
            tuple(table.fingerprint() for table in child_tables),
            tuple(arguments),
        )
        cached = exec_cache.get(exec_key)
        if cached is not None:
            if memo is not None:
                memo[node] = cached
            if isinstance(cached, EvaluationFailure):
                raise EvaluationFailure(str(cached))
            results[node.node_id] = cached
            return cached
    try:
        table = node.component.execute(child_tables, arguments, f"_n{node.node_id}_")
    except PRUNABLE_ERRORS as error:
        message = str(error)
        failure = EvaluationFailure(message)
        if memo is not None:
            memo[node] = failure
        if exec_key is not None:
            exec_cache.put(exec_key, failure)
        raise EvaluationFailure(message) from error
    if memo is not None:
        memo[node] = table
    if exec_key is not None:
        exec_cache.put(exec_key, table)
    results[node.node_id] = table
    return table


def evaluate(
    hypothesis: Hypothesis,
    inputs: Sequence[Table],
    memo: Optional[Dict[Hypothesis, object]] = None,
    exec_cache=None,
    known: Optional[Dict[int, Table]] = None,
) -> Table:
    """Evaluate a complete hypothesis to its output table.

    ``known`` seeds the evaluation as in :func:`partial_evaluate`.  The root
    is evaluated exactly when the tree is complete, so no separate
    completeness walk runs: a tree with holes raises :class:`ValueError`
    once its complete subterms are evaluated.
    """
    results = partial_evaluate(hypothesis, inputs, memo=memo, exec_cache=exec_cache, known=known)
    table = results.get(hypothesis.node_id)
    if table is None:
        raise ValueError("cannot fully evaluate a hypothesis that still has holes")
    return table


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_program(hypothesis: Hypothesis, input_names: Optional[Sequence[str]] = None) -> str:
    """Render a (complete) hypothesis as a sequence of R assignments.

    The output mirrors the paper's presentation::

        df1 = gather(table1, key, value, X1, X2, X3)
        df2 = inner_join(df1, table2)
    """
    lines: List[str] = []
    _render_node(hypothesis, input_names, lines, itertools.count(1))
    return "\n".join(lines)


def _render_node(
    node: Hypothesis,
    input_names: Optional[Sequence[str]],
    lines: List[str],
    counter: Iterator[int],
) -> str:
    """Append the assignments computing *node* to *lines*; return its name."""
    if isinstance(node, Hole):
        if node.hole_type is Type.TABLE:
            if node.binding is None:
                return f"?{node.node_id}"
            if input_names is not None and node.binding < len(input_names):
                return input_names[node.binding]
            return f"table{node.binding + 1}"
        return node.value.render_r() if node.value is not None else f"?{node.node_id}"
    table_args = [
        _render_node(child, input_names, lines, counter) for child in node.table_children
    ]
    arguments = [child.value for child in node.value_children]
    if any(argument is None for argument in arguments):
        rendered_arguments = ", ".join(
            child.value.render_r() if child.value is not None else f"?{child.node_id}"
            for child in node.value_children
        )
        call = f"{node.component.name}({', '.join(table_args)}, {rendered_arguments})"
    else:
        call = node.component.render_r(table_args, arguments)
    result_name = f"df{next(counter)}"
    lines.append(f"{result_name} = {call}")
    return result_name
