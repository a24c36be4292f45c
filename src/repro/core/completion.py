"""Sketch completion (Section 7, Figure 14 of the paper).

Completion takes a sketch (a hypothesis whose table holes are all bound to
input variables) and enumerates complete programs.  The completion is
*bottom-up*: the table arguments of a component are completed (and therefore
concretely evaluated) before its first-order arguments are enumerated, so the
universe of column names and constants for each hole is the concrete table
produced by partial evaluation.  After every single hole is filled the
deduction engine re-checks the partially filled sketch, which is where most
of the pruning reported in the paper happens.

The original FILLSKETCH was a recursive generator; its enumeration state
lived in the Python call stack, which made it impossible to pause, resume,
or interleave fairly with other work.  It is now an explicit worklist
(:class:`CompletionRun`): each frame is one partial program plus its
position in the bottom-up completion order, :meth:`CompletionRun.step`
advances the search by exactly one frame (one candidate hole filling, one
deduction query), and the frame stack is popped LIFO so programs are still
produced in *exactly* the order the recursion produced them.  A step is
also the only point where a search stops: the kernel checks its deadline
before each one, never inside it, so a frame is always whole between steps.

Each frame carries the partial-evaluation map of its sketch, computed once
when first read and seeded from the parent frame's map: a hole fill
evaluates only the node it completed, and the deduction query, the OE
admission, the context table and the sibling batch share the one map (see
DESIGN.md, "Incremental completion").

Frames that reach a node boundary are offered to an optional
observational-equivalence store (:mod:`repro.core.oe`): two partial programs
whose completed subtrees evaluate to fingerprint-identical tables collapse
to the first-explored representative, skipping the duplicated completion
work behind the copy.  Merging never changes which program is found first
(see the OE module docstring for the argument).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from ..dataframe.table import Table
from .deduction import DeductionEngine
from .hypothesis import (
    Apply,
    Hole,
    Hypothesis,
    fill_value_hole,
    is_sketch,
    unfilled_value_holes,
)
from .inhabitation import enumerate_arguments
from .oe import OEStore
from .synthesizer import SynthesisStats


#: How many sibling fillings of one hole are pre-executed as a group.  Each
#: batch shares the per-table setup of its component (see
#: :meth:`~repro.core.deduction.DeductionEngine.batch_evaluate_fills`); the
#: results land in the execution cache, so at most ``SIBLING_BATCH - 1``
#: executions are wasted when the search stops mid-group.
SIBLING_BATCH = 8

#: Candidate hole fillings tried per sketch before it is abandoned: bounds
#: the damage of a single sketch with a huge first-order argument space.
COMPLETION_BUDGET = 6000


class CompletionBudgetExceeded(Exception):
    """Raised when one sketch has used up its completion budget.

    The budget bounds how many candidate hole fillings a single sketch may
    try, so that one unpromising sketch with a huge argument space cannot
    monopolise the search (the paper's implementation side-steps the same
    issue by running one search thread per program size).
    """


@dataclass
class _Frame:
    """One worklist entry: a partial program at a point in the completion.

    ``holes`` / ``arguments`` are set on argument-enumeration frames (the
    frame is iterating candidate fillings for ``holes[0]``); node-boundary
    frames (``holes is None``) advance to the next application node in the
    bottom-up order.
    """

    sketch: Hypothesis
    #: Index into the run's post-order node list (the next node to complete).
    position: int
    #: The partial-evaluation map of ``sketch`` once :attr:`exact`; until
    #: then the map of the nearest ancestor frame that computed one, which
    #: seeds the evaluation (see :meth:`SketchCompleter._evaluation`).
    #: ``None`` with no seed, or -- when exact -- when a complete subterm
    #: failed to evaluate.
    evaluated: Optional[Dict[int, Table]] = None
    #: True once :attr:`evaluated` is this frame's own map.
    exact: bool = False
    #: Remaining unbound first-order holes of the current node (argument
    #: frames only).
    holes: Optional[Sequence[Hole]] = None
    #: Lazy iterator over candidate arguments for ``holes[0]``.
    arguments: Optional[Iterator] = None
    #: The concrete table the holes are enumerated against.
    context_table: Optional[Table] = None
    #: True when filling ``holes[0]`` completes the whole program (the
    #: subsequent CHECK subsumes the deduction query).
    completes: bool = False
    #: Arguments pulled ahead of processing for batched sibling evaluation
    #: (drained before the iterator).
    pending: List = field(default_factory=list)


@dataclass
class SketchCompleter:
    """Implements the FILLSKETCH procedure for one synthesis problem."""

    engine: DeductionEngine
    #: Candidate hole fillings one sketch may try (see
    #: :class:`CompletionBudgetExceeded`).
    budget: int = COMPLETION_BUDGET
    #: The search's counter block (the kernel hands its own in).
    stats: SynthesisStats = field(default_factory=SynthesisStats)
    #: Optional observational-equivalence store shared across every sketch
    #: of one synthesis run (``None`` disables merging -- the ``--no-oe``
    #: ablation).
    oe_store: Optional[OEStore] = None

    def _charge_budget(self) -> None:
        self._spent += 1
        if self._spent > self.budget:
            raise CompletionBudgetExceeded()

    # ------------------------------------------------------------------
    def start(self, sketch: Hypothesis) -> "CompletionRun":
        """Begin the iterative completion of one sketch.

        Resets the per-sketch budget; the returned :class:`CompletionRun`
        is stepped by the search kernel (or drained by :meth:`fill_sketch`).
        """
        self._spent = 0
        return CompletionRun(self, sketch)

    def fill_sketch(self, sketch: Hypothesis) -> Iterator[Hypothesis]:
        """Enumerate complete programs refining *sketch* (rule 4 of Figure 14).

        A generator facade over :class:`CompletionRun` for callers that want
        the classic pull interface; the kernel steps the run directly.  When
        the per-sketch budget aborts the run, its OE admissions are released
        before the exception propagates (see :meth:`CompletionRun.release`).
        """
        run = self.start(sketch)
        try:
            while not run.exhausted:
                finished = run.step()
                if finished is not None:
                    yield finished.sketch
        finally:
            # Any early exit -- the budget, or the caller abandoning the
            # generator -- leaves admitted states under-explored;
            # normal exhaustion keeps them (cross-sketch dedup is the point).
            if not run.exhausted:
                run.release()

    # ------------------------------------------------------------------
    def _evaluation(self, frame: _Frame) -> Optional[Dict[int, Table]]:
        """The frame's partial-evaluation map, computed once from its seed.

        Returns ``None`` when a complete subterm fails to evaluate.  Only
        the nodes the frame's fills completed are evaluated; everything
        else comes from the seed its ancestors computed.
        """
        if not frame.exact:
            frame.evaluated = self.engine.evaluate_if_possible(
                frame.sketch, known=frame.evaluated
            )
            frame.exact = True
        return frame.evaluated

    def _admit(self, frame: _Frame, remaining: int, admitted=None) -> bool:
        """Offer a node-boundary state to the OE store.

        Returns ``False`` when an observationally equal state was explored
        earlier (the frame is dropped).  States whose partial evaluation
        fails are never merged -- merging requires an exact observation.
        Newly admitted keys are appended to *admitted* so the owning run can
        withdraw them if its exploration is cut short.
        """
        if self.oe_store is None:
            return True
        evaluated = self._evaluation(frame)
        if evaluated is None:
            return True
        key = OEStore.state_key(frame.sketch, evaluated, remaining)
        if key is None:
            return True
        self.stats.oe_candidates += 1
        if not self.oe_store.admit(key):
            self.stats.oe_merged += 1
            return False
        if admitted is not None:
            admitted.append(key)
        return True

    def _deduce_partial(self, frame: _Frame) -> bool:
        """Rule 3's deduction check for one partially filled sketch.

        The frame's map is computed only when the engine reads it, so
        without partial evaluation nothing runs here.
        """
        engine = self.engine
        evaluated = self._evaluation(frame) if engine.use_partial_evaluation else None
        if engine.deduce(frame.sketch, evaluated=evaluated):
            return True
        self.stats.pruned_partial += 1
        return False

    def _context_table(self, frame: _Frame, node: Apply) -> Optional[Table]:
        """The concrete table the node's first-order holes are enumerated against.

        For single-input components this is the (already completed and
        evaluated) table argument; components with several table arguments
        and first-order holes would use the concatenation of their columns
        (``T1 x ... x Tn`` in the paper) -- the built-in library has none.
        """
        evaluated = self._evaluation(frame)
        if evaluated is None:
            return None
        tables = []
        for child in node.table_children:
            table = evaluated.get(child.node_id)
            if table is None:
                return None
            tables.append(table)
        if len(tables) == 1:
            return tables[0]
        return _concatenate_schemas(tables)

    def _param_of(self, node: Apply, hole: Hole):
        for index, child in enumerate(node.value_children):
            if child.node_id == hole.node_id:
                return node.component.value_params[index]
        raise KeyError(f"hole {hole.node_id} is not a parameter of node {node.node_id}")


class CompletionRun:
    """The iterative FILLSKETCH worklist for one sketch.

    Frames are popped LIFO, so the exploration is depth-first in exactly the
    order of the recursion this replaced: candidate programs surface in the
    same sequence, and the first program that passes CHECK is byte-identical
    to the recursive implementation's.  Each :meth:`step` processes one
    frame -- at most one candidate hole filling and one deduction query --
    which is the bounded work unit the search kernel's anytime API is built
    on.
    """

    __slots__ = ("completer", "sketch", "_order", "_finishes", "_stack", "_admitted")

    def __init__(self, completer: SketchCompleter, sketch: Hypothesis) -> None:
        self.completer = completer
        self.sketch = sketch
        self._order = _node_order(sketch)
        #: Whether the programs the worklist finishes are complete: every
        #: first-order hole is filled by the last node, so only a table hole
        #: the sketch left unbound can remain.
        self._finishes = is_sketch(sketch)
        self._stack: List[_Frame] = []
        #: OE keys this run admitted, withdrawn if the run is cut short.
        self._admitted: List = []
        frame = _Frame(sketch, 0)
        if completer._admit(frame, remaining=len(self._order), admitted=self._admitted):
            self._stack.append(frame)

    @property
    def exhausted(self) -> bool:
        """True when every frame has been processed."""
        return not self._stack

    def __len__(self) -> int:
        """Number of pending frames (partial programs in flight)."""
        return len(self._stack)

    # ------------------------------------------------------------------
    def step(self) -> Optional[_Frame]:
        """Process one worklist frame; return it if it finished a program.

        A finished frame's ``sketch`` is a complete program and its
        ``evaluated`` the partial-evaluation map the run carried to it: the
        seed for evaluating the program at CHECK.

        Raises :class:`CompletionBudgetExceeded` when this sketch has used
        up its completion budget.
        """
        if not self._stack:
            return None
        frame = self._stack.pop()
        if frame.holes is not None:
            self._advance_arguments(frame)
            return None
        return self._advance_node(frame)

    # ------------------------------------------------------------------
    def _advance_node(self, frame: _Frame) -> Optional[_Frame]:
        completer = self.completer
        if frame.position == len(self._order):
            if not self._finishes:
                return None
            # The program itself is evaluated at CHECK, not here: a step
            # budget may end the search between the two.
            return frame
        node = _find_node(frame.sketch, self._order[frame.position])
        holes = [hole for hole in node.value_children if not hole.is_bound]
        if not holes:
            # Components without first-order parameters (e.g. inner_join)
            # still become evaluable once their table children are complete,
            # so rule 3's deduction check applies here too: the node's
            # concrete abstraction may already contradict the example.
            completer._charge_budget()
            completer.stats.partial_programs += 1
            if completer._deduce_partial(frame):
                frame.position += 1
                self._push_boundary(frame)
            return None
        context_table = completer._context_table(frame, node)
        if context_table is None:
            # The table children failed to evaluate; no completion can succeed.
            return None
        self._push_arguments(frame, holes, context_table)
        return None

    def _advance_arguments(self, frame: _Frame) -> None:
        completer = self.completer
        if frame.pending:
            argument = frame.pending.pop(0)
        elif len(frame.holes) == 1 and SIBLING_BATCH > 1:
            # Last hole of the node: sibling fillings differ only in this
            # argument, so pull a group ahead and pre-execute it as a
            # batch (results land in the execution cache).
            self._prefetch_siblings(frame)
            if not frame.pending:
                return None
            argument = frame.pending.pop(0)
        else:
            argument = next(frame.arguments, None)
            if argument is None:
                return None
        # Re-push the frame first so the candidate's subtree (pushed below,
        # popped first) is fully explored before the next argument -- the
        # LIFO discipline that reproduces the recursion's DFS order.
        self._stack.append(frame)
        completer._charge_budget()
        hole, rest = frame.holes[0], frame.holes[1:]
        # The candidate inherits this frame's map as the seed of its own.
        candidate = _Frame(
            fill_value_hole(frame.sketch, hole, argument), frame.position, frame.evaluated
        )
        completer.stats.partial_programs += 1
        # When this fill produces a fully complete program, the synthesizer
        # is about to evaluate and CHECK it anyway, which subsumes (and is
        # cheaper than) another deduction query; only partially-filled
        # sketches are worth a deduction call.
        if not frame.completes and not completer._deduce_partial(candidate):
            return None
        if rest:
            self._push_arguments(candidate, rest, frame.context_table)
        else:
            candidate.position += 1
            self._push_boundary(candidate)
        return None

    # ------------------------------------------------------------------
    def release(self) -> None:
        """Withdraw this run's OE admissions (exploration was cut short).

        Called when the per-sketch budget aborts the run: states this run
        admitted may have unexplored completion work behind them, so leaving
        them in the store would wrongly suppress a later observationally
        equal state whose budget could finish the job (the merge soundness
        argument assumes the representative was fully explored).
        """
        if self.completer.oe_store is not None and self._admitted:
            self.completer.oe_store.release(self._admitted)
        self._admitted = []

    # ------------------------------------------------------------------
    def _push_boundary(self, frame: _Frame) -> None:
        """Advance to the next node, deduplicating through the OE store.

        Complete programs (no nodes remaining) are *not* offered to the
        store: merging them would only dedup CHECK calls, and CHECK's shape
        precheck is cheaper than fingerprinting a candidate output table.
        The merge win lives in the partial states, where a duplicate still
        has whole argument spaces ahead of it.
        """
        remaining = len(self._order) - frame.position
        if remaining == 0 or self.completer._admit(
            frame, remaining=remaining, admitted=self._admitted
        ):
            self._stack.append(frame)

    def _prefetch_siblings(self, frame: _Frame) -> None:
        """Pull up to :data:`SIBLING_BATCH` candidates and pre-execute them.

        The pulled candidates are parked in ``frame.pending``; the group is
        handed to the deduction engine, which executes the fills through the
        component's batched executor and primes the execution cache.
        """
        completer = self.completer
        frame.pending = batch = list(itertools.islice(frame.arguments, SIBLING_BATCH))
        if len(batch) < 2:
            return
        # The frame's map, even when only a seed, holds the node's table
        # children: they were complete before its first hole was filled.
        node = _find_node(frame.sketch, self._order[frame.position])
        executed = completer.engine.batch_evaluate_fills(
            node, frame.holes[0], batch, frame.evaluated
        )
        if executed:
            completer.stats.sibling_batches += 1
            completer.stats.batched_fills += executed

    def _push_arguments(
        self, frame: _Frame, holes: Sequence[Hole], context_table: Table
    ) -> None:
        """Turn *frame* into the argument frame enumerating ``holes[0]``."""
        frame.holes = holes
        frame.context_table = context_table
        frame.completes = len(holes) == 1 and len(unfilled_value_holes(frame.sketch)) == 1
        node = _find_node(frame.sketch, self._order[frame.position])
        param = self.completer._param_of(node, holes[0])
        frame.arguments = iter(enumerate_arguments(node.component, param, context_table))
        self._stack.append(frame)


def _node_order(sketch: Hypothesis) -> List[int]:
    """Post-order list of application node ids (bottom-up completion order)."""
    order: List[int] = []
    _append_post_order(sketch, order)
    return order


def _append_post_order(node: Hypothesis, order: List[int]) -> None:
    if isinstance(node, Apply):
        for child in node.table_children:
            _append_post_order(child, order)
        order.append(node.node_id)


def _find_node(sketch: Hypothesis, node_id: int) -> Apply:
    for node in _iter_applications(sketch):
        if node.node_id == node_id:
            return node
    raise KeyError(f"node {node_id} not found in sketch")


def _iter_applications(node: Hypothesis) -> Iterator[Apply]:
    if isinstance(node, Apply):
        yield node
        for child in node.table_children:
            yield from _iter_applications(child)


def _concatenate_schemas(tables: Sequence[Table]) -> Table:
    """The schema product ``T1 x ... x Tn`` used by rule 3 of Figure 14.

    Only the header and a small sample of values matter for inhabitation, so
    the tables are concatenated column-wise, padding shorter tables with
    missing values and renaming duplicate columns.
    """
    columns: List[str] = []
    column_values: List[List] = []
    height = max(table.n_rows for table in tables)
    for table_index, table in enumerate(tables):
        for name in table.columns:
            unique_name = name if name not in columns else f"{name}.{table_index}"
            values = list(table.column_values(name))
            values += [None] * (height - len(values))
            columns.append(unique_name)
            column_values.append(values)
    rows = list(zip(*column_values)) if column_values else []
    return Table(columns, rows)
