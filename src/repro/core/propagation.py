"""Tier 1 of the two-tier deduction pipeline: compiled attribute prescreen.

Once partial evaluation has run, most deduction queries are conjunctions of
concrete integer inequalities: every evaluated node's ``row`` / ``col`` /
``group`` / ``newCols`` / ``newVals`` is a known integer, the example tables
pin the input and output attribute vectors, and only the un-evaluated spine
of the hypothesis carries genuinely unknown attributes.  Building ``Formula``
terms, Tseitin CNF and a SAT + simplex run for such a query wastes the bulk
of the deduction budget.

This module decides those queries with plain interval arithmetic instead.
Every hypothesis node gets an *attribute box* -- one ``[lo, hi]`` interval
per attribute -- and every component specification has a second, compiled
interpretation (see ``TRANSFERS`` in :mod:`repro.core.specs`): a transfer
function that tightens the boxes of a node and its table children exactly as
the first-order spec constrains their SMT variables.  A root-to-leaves sweep
(then leaves-to-root, then root-to-leaves again) propagates the ground facts
through the spine; if any box empties, the query is UNSAT and the SMT stack
is skipped entirely.

**The tier-1 invariant** (see DESIGN.md): the prescreen is *conservative*.
Every refinement below is implied by a constraint the SMT query asserts, so
an empty box proves the query UNSAT -- the prescreen may answer UNSAT, never
SAT.  Inconclusive sweeps fall through to the solver, which keeps verdicts
bit-identical with and without the prescreen by construction.  The property
tests in ``tests/core/test_propagation.py`` pin both directions: transfer
functions over-approximate their ``Formula`` twins, and prescreen-UNSAT
implies solver-UNSAT on random sketches.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .abstraction import SpecLevel

#: Attribute indices into a box (the order of the attribute vectors produced
#: by :meth:`repro.core.deduction.DeductionEngine.table_attributes`).
ROW, COL, GROUP, NEW_COLS, NEW_VALS = range(5)

#: An attribute box: one mutable ``[lo, hi]`` interval per attribute
#: (``hi`` may be ``math.inf`` for "unbounded").
Box = List[List[float]]

#: The compiled interpretation of one component spec: tightens the output
#: and input boxes in place, raising :class:`Infeasible` when a box empties.
TransferFunction = Callable[[Box, Sequence[Box], SpecLevel], None]


class Infeasible(Exception):
    """An attribute box became empty: the deduction query is UNSAT."""


def top_box() -> Box:
    """The unconstrained box (before normalisation)."""
    return [[0, inf], [0, inf], [0, inf], [0, inf], [0, inf]]


def point_box(attributes: Sequence[int]) -> Box:
    """The singleton box of a concrete attribute vector."""
    return [[value, value] for value in attributes]


def hull_box(attribute_vectors: Sequence[Sequence[int]]) -> Box:
    """The smallest box containing every given attribute vector.

    Used for unbound table holes: :math:`\\varphi_{in}` says the hole equals
    *one of* the input tables, and the hull is the box over-approximation of
    that disjunction.
    """
    return [
        [min(vector[i] for vector in attribute_vectors),
         max(vector[i] for vector in attribute_vectors)]
        for i in range(5)
    ]


def contains(box: Box, attributes: Sequence[int]) -> bool:
    """Whether a concrete attribute vector lies inside the box."""
    return all(lo <= value <= hi for (lo, hi), value in zip(box, attributes))


# ----------------------------------------------------------------------
# Interval refinement primitives (the compiled inequality vocabulary)
# ----------------------------------------------------------------------
def _lo(box: Box, i: int, bound: float) -> None:
    interval = box[i]
    if bound > interval[0]:
        interval[0] = bound
        if bound > interval[1]:
            raise Infeasible()


def _hi(box: Box, i: int, bound: float) -> None:
    interval = box[i]
    if bound < interval[1]:
        interval[1] = bound
        if bound < interval[0]:
            raise Infeasible()


def at_least(box: Box, i: int, value: float) -> None:
    """Enforce ``box[i] >= value``."""
    _lo(box, i, value)


def at_most(box: Box, i: int, value: float) -> None:
    """Enforce ``box[i] <= value``."""
    _hi(box, i, value)


def exact(box: Box, i: int, value: float) -> None:
    """Enforce ``box[i] == value``."""
    _lo(box, i, value)
    _hi(box, i, value)


def le(a: Box, i: int, b: Box, j: int, offset: float = 0) -> None:
    """Enforce ``a[i] <= b[j] + offset`` (tightens both boxes)."""
    _hi(a, i, b[j][1] + offset)
    _lo(b, j, a[i][0] - offset)


def ge(a: Box, i: int, b: Box, j: int, offset: float = 0) -> None:
    """Enforce ``a[i] >= b[j] + offset``."""
    _lo(a, i, b[j][0] + offset)
    _hi(b, j, a[i][1] - offset)


def lt(a: Box, i: int, b: Box, j: int, offset: float = 0) -> None:
    """Enforce ``a[i] < b[j] + offset`` (integer attributes: ``<= - 1``)."""
    le(a, i, b, j, offset - 1)


def gt(a: Box, i: int, b: Box, j: int, offset: float = 0) -> None:
    """Enforce ``a[i] > b[j] + offset``."""
    ge(a, i, b, j, offset + 1)


def eq(a: Box, i: int, b: Box, j: int, offset: float = 0) -> None:
    """Enforce ``a[i] == b[j] + offset``."""
    le(a, i, b, j, offset)
    ge(a, i, b, j, offset)


def le_sum(a: Box, i: int, b: Box, j: int, c: Box, k: int, offset: float = 0) -> None:
    """Enforce ``a[i] <= b[j] + c[k] + offset``."""
    _hi(a, i, b[j][1] + c[k][1] + offset)
    _lo(b, j, a[i][0] - c[k][1] - offset)
    _lo(c, k, a[i][0] - b[j][1] - offset)


def ge_min(a: Box, i: int, pairs: Sequence[Tuple[Box, int]]) -> None:
    """Enforce ``a[i] >= min(b[j] for (b, j) in pairs)``.

    Mirrors the ``Or(t1.row <= out.row, t2.row <= out.row)`` disjunction of
    the ``inner_join`` spec: the output's lower bound rises to the smallest
    input lower bound, and when all but one operand already exceeds the
    output's upper bound, the remaining operand must stay below it.
    """
    _lo(a, i, min(b[j][0] for b, j in pairs))
    feasible = [(b, j) for b, j in pairs if b[j][0] <= a[i][1]]
    if not feasible:
        raise Infeasible()
    if len(feasible) == 1:
        b, j = feasible[0]
        _hi(b, j, a[i][1])


def le_max(a: Box, i: int, pairs: Sequence[Tuple[Box, int]]) -> None:
    """Enforce ``a[i] <= max(b[j] for (b, j) in pairs)`` (dual of ge_min)."""
    _hi(a, i, max(b[j][1] for b, j in pairs))
    feasible = [(b, j) for b, j in pairs if b[j][1] >= a[i][0]]
    if not feasible:
        raise Infeasible()
    if len(feasible) == 1:
        b, j = feasible[0]
        _lo(b, j, a[i][0])


def normalize(box: Box, level: SpecLevel) -> None:
    """The per-node sanity constraints of :func:`repro.core.abstraction.nonnegativity`.

    The SMT query asserts these for every node variable, so applying them to
    every box preserves the tier-1 invariant.
    """
    _lo(box, ROW, 0)
    _lo(box, COL, 1)
    if level is SpecLevel.SPEC2:
        _lo(box, GROUP, 0)
        le(box, GROUP, box, ROW)
        _lo(box, NEW_COLS, 0)
        _lo(box, NEW_VALS, 0)
        le(box, NEW_COLS, box, COL)
        le(box, NEW_COLS, box, NEW_VALS)


# ----------------------------------------------------------------------
# The prescreen sweep
# ----------------------------------------------------------------------
#: Root-to-leaves, leaves-to-root, root-to-leaves.  Three alternating sweeps
#: push the ground facts (output attributes, evaluated subterms, input
#: bindings) through the un-evaluated spine in both directions; more rounds
#: would only matter for propagation chains longer than any hypothesis the
#: synthesizer builds (max_size bounds the spine), and a missed refinement
#: is conservative -- the query simply falls through to the solver.
SWEEP_ROUNDS = 3


def prescreen_infeasible(
    hypothesis,
    evaluated: Dict[int, object],
    attributes_of: Callable[[object], Tuple[int, ...]],
    input_attributes: Sequence[Tuple[int, ...]],
    output_attributes: Tuple[int, ...],
    level: SpecLevel,
) -> bool:
    """Decide the deduction query of *hypothesis* by interval propagation.

    Returns ``True`` when the query is certainly UNSAT (some attribute box
    emptied) and ``False`` when the sweep is inconclusive.  The walk mirrors
    :meth:`DeductionEngine.specification` / :meth:`~DeductionEngine.build_query`
    exactly: evaluated subterms become singleton boxes (their subtree
    contributes no further constraints), table holes become input boxes, and
    each un-evaluated application contributes its compiled transfer function.

    *hypothesis* nodes are duck-typed (``component`` attribute present for
    applications, ``binding`` for table holes) so this module stays
    import-cycle-free below :mod:`repro.core.hypothesis`.
    """
    boxes: Dict[int, Box] = {}
    #: (output box, input boxes, transfer) per un-evaluated application,
    #: collected parent-first so iterating forwards sweeps root-to-leaves.
    edges: List[Tuple[Box, List[Box], TransferFunction]] = []

    try:
        root_box = _build_boxes(
            hypothesis, evaluated, attributes_of, input_attributes, boxes, edges
        )
        # phi_out: the root equals the output table.  The output's group
        # attribute is symbolic (the example output carries no grouping
        # metadata), bounded exactly as ``abstract_attributes`` bounds it.
        rows = output_attributes[ROW]
        exact(root_box, ROW, rows)
        exact(root_box, COL, output_attributes[COL])
        if level is SpecLevel.SPEC2:
            at_least(root_box, GROUP, 1)
            at_most(root_box, GROUP, max(rows, 1))
            exact(root_box, NEW_COLS, output_attributes[NEW_COLS])
            exact(root_box, NEW_VALS, output_attributes[NEW_VALS])
        for box in boxes.values():
            normalize(box, level)
        for sweep in range(SWEEP_ROUNDS):
            ordered = edges if sweep % 2 == 0 else reversed(edges)
            for out_box, in_boxes, transfer in ordered:
                transfer(out_box, in_boxes, level)
                normalize(out_box, level)
                for in_box in in_boxes:
                    normalize(in_box, level)
    except Infeasible:
        return True
    return False


def _build_boxes(
    node,
    evaluated: Dict[int, object],
    attributes_of: Callable[[object], Tuple[int, ...]],
    input_attributes: Sequence[Tuple[int, ...]],
    boxes: Dict[int, Box],
    edges: List[Tuple[Box, List[Box], TransferFunction]],
) -> Box:
    """The box of *node*, registering its subtree's boxes and edges."""
    if node.node_id in evaluated:
        box = point_box(attributes_of(evaluated[node.node_id]))
    elif getattr(node, "component", None) is None:
        # A table hole: phi_in binds it to one input (or any of them).
        if node.binding is not None:
            box = point_box(input_attributes[node.binding])
        else:
            box = hull_box(input_attributes)
    else:
        box = top_box()
        boxes[node.node_id] = box
        child_boxes: List[Box] = []
        transfer = node.component.transfer
        if transfer is not None:
            edges.append((box, child_boxes, transfer))
        for child in node.table_children:
            child_boxes.append(
                _build_boxes(child, evaluated, attributes_of, input_attributes, boxes, edges)
            )
        return box
    boxes[node.node_id] = box
    return box


def ground_check(
    transfer: Optional[TransferFunction],
    output_attributes: Sequence[int],
    input_attribute_vectors: Sequence[Sequence[int]],
    level: SpecLevel,
) -> bool:
    """The ground evaluator: plug concrete attribute tuples into one spec.

    Singleton boxes make every transfer refinement an exact inequality test,
    so this decides whether the concrete attribute vectors satisfy the
    component's first-order specification (plus the per-node sanity
    constraints) without constructing a single ``Formula``.  Returns ``True``
    when the ground instance is consistent.
    """
    if transfer is None:
        return True
    out_box = point_box(output_attributes)
    in_boxes = [point_box(vector) for vector in input_attribute_vectors]
    try:
        normalize(out_box, level)
        for box in in_boxes:
            normalize(box, level)
        transfer(out_box, in_boxes, level)
    except Infeasible:
        return False
    return True
