"""The explicit search frontier and the anytime search kernel.

Algorithm 1 of the paper interleaves hypothesis ranking, sketch completion
and checking in one recursive loop.  Written as a recursion, the enumeration
state would be implicit in the Python call stack -- it could not be paused,
resumed, interleaved fairly across tasks, or deduplicated across sketches.
This module makes that state explicit:

* :class:`Frontier` -- the priority frontier of pending search states.  It
  has two lanes: a cost-ordered heap of **hypothesis** states (the worklist
  of Algorithm 1) and a LIFO lane of **continuation** states (the sketches,
  completion runs and refinement fan-out of the hypothesis currently being
  expanded).  Continuations always pop before the next hypothesis, and the
  LIFO discipline walks them depth-first, so the frontier pops in *exactly*
  the order the recursion explored -- which is what keeps the first
  synthesized program byte-identical to the recursive implementation.
* :class:`Refinement` and :class:`RefinementTemplate` -- lazy refinement.
  Most refinements are never expanded, so the heap holds a recipe (parent,
  hole, component, first reserved node id) instead of the refined tree.
  The fan-out derives each child's signature, size, component sequence and
  priority from one walk of the parent and reserves exactly the node ids an
  eager :func:`~repro.core.hypothesis.refine` would draw; the frontier
  builds the tree only when it pops the entry.
* :class:`SearchKernel` -- the anytime search engine: ``step()`` processes
  one frontier state (at most one deduction query or one candidate hole
  filling), ``run(deadline)`` steps until a deadline, a solution quota, or
  exhaustion.  Kernels are cheap to hold between slices: a service can run
  many of them round-robin (see :class:`repro.service.sessions.SessionStore`).
  :class:`repro.api.SynthesisSession` is the one owner that builds, drives
  and finishes a kernel, and it keeps one kernel for its whole life.

Quota contract
--------------

A kernel stops when it holds ``k`` solutions, but it drops no search state
to get there: the completion run that surfaced the last solution is
re-pushed like any other unfinished run.  Raising ``k`` on a stopped kernel
therefore continues exactly the search an uninterrupted kernel with the
larger quota would have run -- same programs, same order, same counters.

The search is deterministic: a function of the example, the library and the
configuration.  So nothing here serialises a kernel; a lost session is
re-created from its request and searched again.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from ..components.errors import PRUNABLE_ERRORS
from ..dataframe.compare import tables_match_for_synthesis
from ..dataframe.profiling import execution_stats
from .completion import (
    CompletionBudgetExceeded,
    CompletionRun,
    CompletionTimeout,
    SketchCompleter,
)
from .component import Component
from .cost import CostModel, UniformCostModel
from .deduction import DeductionEngine
from .hypothesis import (
    EvaluationFailure,
    Hole,
    Hypothesis,
    component_sequence,
    evaluate,
    hypothesis_size,
    initial_hypothesis,
    sketches,
    refine,
)
from .oe import OEStore
from .synthesizer import SynthesisStats
from .types import Type

# ----------------------------------------------------------------------
# Search states
# ----------------------------------------------------------------------
@dataclass
class HypothesisState:
    """A pending hypothesis in the cost-ordered lane."""

    hypothesis: Hypothesis
    tiebreak: int


@dataclass
class SketchState:
    """A sketch awaiting its deduction check and completion."""

    sketch: Hypothesis


@dataclass
class CompletionState:
    """An in-progress iterative completion of one sketch."""

    run: CompletionRun


@dataclass
class RefineState:
    """The refinement fan-out of one expanded hypothesis (runs last).

    A deadline can interrupt the fan-out between two (hole, component)
    pairs; the state then records where it stopped, so re-running it
    continues there instead of reserving the earlier pairs' node ids again.
    """

    hypothesis: Hypothesis
    #: The next (hole index, component index) pair to refine.
    position: Tuple[int, int] = (0, 0)
    #: First node id reserved for the pair at ``position``; ``None`` until
    #: a deadline interrupts the fan-out, which starts at the node counter.
    next_id: Optional[int] = None


class Refinement(NamedTuple):
    """A heap entry's recipe for ``refine(parent, hole, component)``.

    The child's node ids are ``first_id``, ``first_id + 1``, ...: the block
    the fan-out reserved for this pair, drawn in ``refine``'s order.
    """

    parent: Hypothesis
    hole: Hole
    component: Component
    first_id: int

    def build(self) -> Hypothesis:
        """The refined tree, identical to the one an eager fan-out built."""
        return refine(
            self.parent, self.hole, self.component, itertools.count(self.first_id).__next__
        )


class Frontier:
    """The explicit frontier of pending search states.

    Two lanes: a cost-ordered heap of hypotheses (ordered by the cost
    model's priority, ties broken by insertion order, exactly like the
    worklist of Algorithm 1) and a LIFO continuation lane holding the
    sketch / completion / refinement states of the hypothesis currently
    being expanded.  ``pop()`` drains the continuation lane first, so one
    hypothesis is fully expanded before the next is ranked -- the recursion
    order, made explicit.  A heap entry holds either a built tree or a
    :class:`Refinement` recipe; ``pop()`` hands out a built tree either way.
    """

    def __init__(self, cost_model: CostModel) -> None:
        self._cost_model = cost_model
        self._heap: List[Tuple[Tuple[float, int], int, Union[Hypothesis, Refinement]]] = []
        self._continuations: list = []
        #: Peak number of simultaneously pending states (both lanes).
        self.peak = 0

    def __len__(self) -> int:
        return len(self._heap) + len(self._continuations)

    def __bool__(self) -> bool:
        return bool(self._heap) or bool(self._continuations)

    def _note_size(self) -> None:
        size = len(self)
        if size > self.peak:
            self.peak = size

    # ------------------------------------------------------------------
    def priority(self, hypothesis: Hypothesis) -> Tuple[float, int]:
        """The cost model's priority key for *hypothesis*."""
        return self._cost_model.priority(
            hypothesis_size(hypothesis), component_sequence(hypothesis)
        )

    def push_hypothesis(self, hypothesis: Hypothesis, tiebreak: int) -> None:
        """Enqueue a built hypothesis under the cost model's priority."""
        heapq.heappush(self._heap, (self.priority(hypothesis), tiebreak, hypothesis))
        self._note_size()

    def push_refinement(
        self, priority: Tuple[float, int], tiebreak: int, refinement: Refinement
    ) -> None:
        """Enqueue a refinement recipe under its precomputed priority."""
        heapq.heappush(self._heap, (priority, tiebreak, refinement))
        self._note_size()

    def push_continuation(self, state) -> None:
        """Push a sketch/completion/refinement state onto the LIFO lane."""
        self._continuations.append(state)
        self._note_size()

    def pop(self):
        """Pop the next state: continuations first (LIFO), then best hypothesis."""
        if self._continuations:
            return self._continuations.pop()
        _, tiebreak, entry = heapq.heappop(self._heap)
        return HypothesisState(_built(entry), tiebreak)

    # ------------------------------------------------------------------
    def heap_entries(self) -> List[Tuple[int, Hypothesis]]:
        """The pending hypothesis lane as ``(tiebreak, hypothesis)`` pairs.

        Entries come back in canonical ``(priority, tiebreak)`` order -- the
        exact order ``pop()`` would drain them -- not raw heap-array order,
        so the listing of a frontier is a pure function of its *contents*.
        """
        ordered = sorted(self._heap, key=lambda entry: (entry[0], entry[1]))
        return [(tiebreak, _built(entry)) for _, tiebreak, entry in ordered]

    def continuation_states(self) -> list:
        """The pending continuation-lane states (in push order, read-only)."""
        return list(self._continuations)


def _built(entry: Union[Hypothesis, Refinement]) -> Hypothesis:
    return entry.build() if type(entry) is Refinement else entry


# ----------------------------------------------------------------------
# The search kernel
# ----------------------------------------------------------------------
class SearchKernel:
    """Anytime search engine for one synthesis problem.

    The kernel owns the deduction engine, the sketch completer, the
    observational-equivalence store and the frontier; ``step()`` advances
    the search by one state, ``run()`` drives it to a deadline, a solution
    quota (``k``) or exhaustion.  Found programs accumulate in
    :attr:`solutions` in discovery order (the first entry is byte-identical
    to what the recursive Algorithm 1 returned).  Raising ``k`` on a kernel
    that met its quota continues the same search (see the module docstring).
    """

    def __init__(self, example, config, library, k: int = 1, kb=None) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.example = example
        self.config = config
        self.library = library
        self.stats = stats = SynthesisStats()
        self.k = k
        # Warm-start tier: bind the knowledge base *kb* (if any) to this
        # library's version hash, so facts persisted under a different
        # component set are never found (invalidation by keying).
        kb_view = kb.view(library.version_hash()) if kb is not None else None
        self.engine = DeductionEngine(
            inputs=example.inputs,
            output=example.output,
            level=config.spec_level,
            use_partial_evaluation=config.partial_evaluation,
            enabled=config.deduction,
            kb_view=kb_view,
            stats=stats.deduction,
        )
        self.oe_store = OEStore() if config.oe else None
        self.completer = SketchCompleter(
            self.engine,
            deadline=None,
            stats=stats.completion,
            oe_store=self.oe_store,
        )
        #: The hypothesis ranking: a pure function of ``config``.
        model_class = CostModel if config.ngram_ranking else UniformCostModel
        self.cost_model = model_class()
        self.frontier = Frontier(self.cost_model)
        #: ``(size, component sequence) -> priority``: refinements of
        #: different parents often share both, and the cost model is pure.
        self._priorities: Dict[Tuple[int, Tuple[str, ...]], Tuple[float, int]] = {}
        self.solutions: List[Hypothesis] = []
        self._deadline: Optional[float] = None
        self._visited: set = set()
        #: The next tie-break and node id to hand out.
        self._tiebreak = 0
        self._node_counter = 1
        #: Active time spent inside ``run()``/``step()`` (the per-task clock
        #: when many kernels share one process).
        self.active_seconds = 0.0
        #: Frontier states processed so far (one per ``step()`` call).
        self.steps_taken = 0
        initial = initial_hypothesis()
        self._visited.add(hypothesis_signature(initial))
        self.frontier.push_hypothesis(initial, self._tiebreak)
        self._tiebreak += 1
        self.stats.hypotheses_enqueued += 1
        # The baseline for slicing the process-wide execution counters: taken
        # *after* the engine construction above, so the example-table
        # fingerprinting the constructor performs -- whose hit/miss split
        # depends on whether the (process-cached) example tables were
        # fingerprinted by an earlier run -- stays outside this run's
        # counting window.  That exclusion is what keeps the per-run
        # execution counters byte-identical across schedulers and repeat
        # runs.
        self._execution = execution_stats()
        self._execution_baseline = self._execution.counters()

    # ------------------------------------------------------------------
    def execution_window(self) -> Dict[str, int]:
        """The execution counters this kernel's window has counted so far."""
        baseline = self._execution_baseline
        return {
            name: value - baseline[name]
            for name, value in self._execution.counters().items()
        }

    @property
    def solved(self) -> bool:
        """True once at least one program passed CHECK."""
        return bool(self.solutions)

    @property
    def done(self) -> bool:
        """True when the solution quota is met or the frontier is exhausted."""
        return len(self.solutions) >= self.k or not self.frontier

    @property
    def exhausted(self) -> bool:
        """True when no pending search state remains."""
        return not self.frontier

    def set_deadline(self, deadline: Optional[float]) -> None:
        """Set the wall-clock deadline consulted by ``run``/``step``."""
        self._deadline = deadline
        self.completer.deadline = deadline
        self.engine.deadline = deadline

    def _expired(self) -> bool:
        return self._deadline is not None and time.monotonic() > self._deadline

    # ------------------------------------------------------------------
    def run(
        self,
        deadline: Optional[float] = None,
        max_steps: Optional[int] = None,
    ) -> bool:
        """Step until the deadline, the step budget, the quota, or exhaustion.

        Returns ``True`` while pending work remains (call again to continue
        -- the anytime contract), ``False`` when the search is finished.
        The *deadline* parameter always (re)sets the kernel's deadline;
        passing ``None`` clears any deadline a previous call installed, so a
        bare ``run()`` after a deadline-bounded one drains the search rather
        than spinning on the stale deadline.
        """
        self.set_deadline(deadline)
        started = perf_counter()
        steps = 0
        try:
            while self.frontier and len(self.solutions) < self.k:
                if self._expired():
                    break
                if max_steps is not None and steps >= max_steps:
                    break
                try:
                    self.step()
                except CompletionTimeout:
                    break
                steps += 1
        finally:
            self.active_seconds += perf_counter() - started
        return bool(self.frontier) and len(self.solutions) < self.k

    def step(self) -> None:
        """Process one frontier state (the bounded anytime work unit)."""
        if not self.frontier:
            return
        self.steps_taken += 1
        state = self.frontier.pop()
        if isinstance(state, HypothesisState):
            self._expand_hypothesis(state)
        elif isinstance(state, SketchState):
            self._expand_sketch(state)
        elif isinstance(state, CompletionState):
            self._advance_completion(state)
        else:
            try:
                self._refine(state)
            except CompletionTimeout:
                # Deadline mid-fan-out: re-push so a resumed run finishes
                # the remaining refinements from where the state stopped.
                self.frontier.push_continuation(state)
                raise

    # ------------------------------------------------------------------
    def _expand_hypothesis(self, state: HypothesisState) -> None:
        """Lines 9-18 of Algorithm 1, decomposed into continuation states."""
        hypothesis = state.hypothesis
        self.stats.hypotheses_expanded += 1
        feasible = self.engine.deduce(hypothesis)
        # The refinement fan-out runs after completion (it is pushed first,
        # popped last), exactly as in the recursive loop.
        self.frontier.push_continuation(RefineState(hypothesis))
        if not feasible or isinstance(hypothesis, Hole):
            # The bare hypothesis ?0 can only be "the identity program",
            # which is never the answer to a non-trivial task; skip it.
            return
        for sketch in reversed(list(sketches(hypothesis, len(self.example.inputs)))):
            self.frontier.push_continuation(SketchState(sketch))

    def _expand_sketch(self, state: SketchState) -> None:
        """Line 11-12: the sketch-level deduction check."""
        self.stats.sketches_generated += 1
        if not self.engine.deduce(state.sketch):
            self.stats.sketches_rejected += 1
            return
        self.frontier.push_continuation(
            CompletionState(self.completer.start(state.sketch))
        )

    def _advance_completion(self, state: CompletionState) -> None:
        """Advance one completion run by one frame; CHECK surfaced programs."""
        try:
            finished = state.run.step()
        except CompletionBudgetExceeded:
            # This sketch used up its budget; withdraw its OE admissions
            # (their subtrees may be unexplored, so a later equal state must
            # be allowed to run) and move on to the next state.
            state.run.release()
            return
        except CompletionTimeout:
            # The deadline fired before the step did any work (the run
            # restored its in-flight frame); re-push so a later run() with
            # a fresh deadline resumes this completion exactly here.
            self.frontier.push_continuation(state)
            raise
        if finished is not None:
            candidate = finished.sketch
            self.stats.programs_checked += 1
            if self._check(candidate, finished.evaluated):
                self.solutions.append(candidate)
        # Re-push even the run that just met the quota: raising ``k`` later
        # must continue this sketch, not skip the rest of it.
        if not state.run.exhausted:
            self.frontier.push_continuation(state)

    def _refine(self, state: RefineState) -> None:
        """Lines 15-18 of Algorithm 1: replace one table hole per component.

        Every (hole, component) pair reserves the ``component.arity`` node
        ids ``refine`` would draw for it, duplicates included.  A child that
        is not a duplicate is ranked from the parent's template and enqueued
        as a :class:`Refinement` recipe, built only if the frontier pops it.

        The deadline is re-checked between pairs so a fan-out over a large
        library cannot overshoot the budget; expiry raises with the resume
        point recorded on *state*, so re-running the state enqueues exactly
        the pairs it missed.
        """
        hypothesis = state.hypothesis
        template = RefinementTemplate(hypothesis)
        if template.size >= self.config.max_size:
            return
        size = template.size + 1
        visited = self._visited
        priorities = self._priorities
        node_id = self._node_counter if state.next_id is None else state.next_id
        first_hole, skip = state.position
        for hole_index in range(first_hole, len(template.holes)):
            hole = template.holes[hole_index]
            components = itertools.islice(self.library, skip, None)
            for component_index, component in enumerate(components, skip):
                if self._expired():
                    state.position = (hole_index, component_index)
                    state.next_id = self._node_counter = node_id
                    raise CompletionTimeout()
                first_id = node_id
                node_id += component.arity
                signature = template.signature(hole_index, call_signature(component))
                if signature in visited:
                    continue
                visited.add(signature)
                key = (size, template.sequence(hole_index, component.name))
                priority = priorities.get(key)
                if priority is None:
                    priority = priorities[key] = self.cost_model.priority(*key)
                self.frontier.push_refinement(
                    priority, self._tiebreak, Refinement(hypothesis, hole, component, first_id)
                )
                self._tiebreak += 1
                self.stats.hypotheses_enqueued += 1
            skip = 0
        self._node_counter = node_id

    def _check(self, candidate: Hypothesis, known: Optional[Dict[int, object]]) -> bool:
        """CHECK(p, E): run the program and compare against the expected output.

        *candidate* is a complete program from a completion run, and *known*
        the partial-evaluation map the run carried to it: evaluation starts
        from that map and goes through the engine's evaluation memo and
        fingerprint-keyed execution cache, so the sub-programs the completer
        already executed are never re-run here.
        """
        try:
            actual = evaluate(
                candidate, self.example.inputs,
                memo=self.engine.evaluation_memo,
                exec_cache=self.engine.execution_cache,
                known=known,
            )
        except (EvaluationFailure, *PRUNABLE_ERRORS):
            return False
        return tables_match_for_synthesis(actual, self.example.output)


def hypothesis_signature(hypothesis: Hypothesis) -> str:
    """A canonical string describing the tree shape (for duplicate detection)."""
    if isinstance(hypothesis, Hole):
        if hypothesis.hole_type is Type.TABLE:
            return f"x{hypothesis.binding}" if hypothesis.binding is not None else "?"
        return "v"
    children = ",".join(hypothesis_signature(child) for child in hypothesis.table_children)
    return f"{hypothesis.component.name}({children})"


def call_signature(component: Component) -> str:
    """The signature of *component* applied to fresh table holes."""
    return f"{component.name}({','.join('?' * component.table_arity)})"


class RefinementTemplate:
    """A worklist hypothesis's signature and component sequence, split at its holes.

    One walk of the parent yields what every refinement of it needs: its
    unbound table holes (in :func:`~repro.core.hypothesis.table_holes`
    order), the signature text around each hole, and the index at which a
    component filling each hole enters the post-order component sequence.
    :meth:`signature` and :meth:`sequence` then give a child's
    :func:`hypothesis_signature` and
    :func:`~repro.core.hypothesis.component_sequence` without building it.
    """

    __slots__ = ("holes", "size", "_sequence", "_cuts", "_left", "_right")

    def __init__(self, hypothesis: Hypothesis) -> None:
        tokens: List[Optional[str]] = []
        holes: List[Hole] = []
        cuts: List[int] = []
        sequence: List[str] = []
        _template_walk(hypothesis, tokens, holes, cuts, sequence)
        self.holes = holes
        #: Component applications in the parent (its ``hypothesis_size``).
        self.size = len(sequence)
        self._sequence = tuple(sequence)
        self._cuts = cuts
        pieces = [""]
        for token in tokens:
            if token is None:
                pieces.append("")
            else:
                pieces[-1] += token
        self._left = ["?".join(pieces[: index + 1]) for index in range(len(holes))]
        self._right = ["?".join(pieces[index + 1:]) for index in range(len(holes))]

    def signature(self, hole_index: int, call: str) -> str:
        """The signature of the child whose hole *hole_index* becomes *call*."""
        return self._left[hole_index] + call + self._right[hole_index]

    def sequence(self, hole_index: int, name: str) -> Tuple[str, ...]:
        """The component sequence of the child whose hole *hole_index* applies *name*."""
        cut = self._cuts[hole_index]
        return self._sequence[:cut] + (name,) + self._sequence[cut:]


def _template_walk(
    node: Hypothesis,
    tokens: List[Optional[str]],
    holes: List[Hole],
    cuts: List[int],
    sequence: List[str],
) -> None:
    """Append *node*'s signature tokens (``None`` marks an unbound table hole)."""
    if isinstance(node, Hole):
        if node.hole_type is Type.TABLE and node.binding is None:
            tokens.append(None)
            holes.append(node)
            cuts.append(len(sequence))
        else:
            tokens.append(hypothesis_signature(node))
        return
    tokens.append(node.component.name + "(")
    for index, child in enumerate(node.table_children):
        if index:
            tokens.append(",")
        _template_walk(child, tokens, holes, cuts, sequence)
    tokens.append(")")
    sequence.append(node.component.name)
