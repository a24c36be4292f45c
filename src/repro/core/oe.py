"""Observational-equivalence store for partial programs.

During sketch completion the same *observable* state is reached over and
over: two partially filled sketches whose completed subtrees evaluate to
identical intermediate tables behave identically from that point on -- the
remaining holes are enumerated against the same concrete tables, the
remaining deduction queries see the same attribute vectors, and any two
corresponding completions produce equal outputs.  Exploring both is pure
duplicate work.

:class:`OEStore` collapses such states.  A state is keyed by its
**observation signature**: the canonical structure of the un-completed part
of the sketch (component names, parameter shapes, bindings) with every
completed subtree replaced by the content-derived *fingerprint* of the table
it evaluates to.  PR 3's fingerprint invariant (equal fingerprint ⟹ equal
table, DESIGN.md) is what makes the merge sound.

The store is **positive-only** by construction: two states merge exactly
when their signatures -- and therefore their table fingerprints -- are
equal.  No tolerant comparison is ever consulted, so a merge can never
conflate tables that are merely "close" (sub-tolerance float noise produces
*different* fingerprints and therefore different keys).  Unequal digests
never merge; the search explores both states and verdicts stay exact.

The representative of an equivalence class is the state that was admitted
first.  The completion frontier explores states in the same cost order as
the recursion it replaced, so the first-admitted state is the one the
baseline search would have explored (and yielded solutions from) first --
dropping the later duplicates can therefore never change the first solution,
only skip the duplicated completion work behind it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from ..dataframe.table import Table
from .hypothesis import Hole, Hypothesis
from .types import Type


#: An observation signature: a nested tuple of structure markers and table
#: fingerprints (bytes).  Hashable, comparable only by exact equality.
ObservationKey = Tuple


class OEStore:
    """Fingerprint-keyed store of observed completion states.

    One store serves one synthesis run (one example): fingerprints are
    content-derived and stable across sketches and hypotheses, so the store
    deduplicates completion states *across* sketch boundaries, not just
    within one sketch.  The store holds no counters of its own -- the
    admitting :class:`~repro.core.completion.SketchCompleter` accounts for
    candidates and merges in the search's ``SynthesisStats`` (one source of
    truth).
    """

    __slots__ = ("_representatives",)

    def __init__(self) -> None:
        #: Keys whose representative (the first-admitted state) is being --
        #: or has been -- explored.
        self._representatives: Set[ObservationKey] = set()

    def __len__(self) -> int:
        return len(self._representatives)

    # ------------------------------------------------------------------
    def admit(self, key: Optional[ObservationKey]) -> bool:
        """Admit a state, or merge it into an existing representative.

        Returns ``True`` when the state is new (the caller should explore
        it) and ``False`` when an observationally equal state was admitted
        earlier (the caller should drop it).  ``key=None`` (a state whose
        signature could not be computed, e.g. because partial evaluation
        failed) is always admitted: merging is an optimisation and must
        never fire without an exact signature.

        The representative is always the first-admitted state, which the
        cost-ordered frontier guarantees is the state the un-merged search
        would have explored first.
        """
        if key is None:
            return True
        if key in self._representatives:
            return False
        self._representatives.add(key)
        return True

    def release(self, keys: Iterable[ObservationKey]) -> None:
        """Withdraw representatives whose exploration was cut short.

        The merge argument ("the representative was explored first, so a
        duplicate has nothing new to offer") assumes the representative's
        subtree was *fully* explored.  A completion run aborted by its
        per-sketch budget breaks that assumption, so the run withdraws every
        key it admitted: a later observationally equal state is then
        explored afresh under its own budget, exactly as the un-merged
        search would have explored it.  Releasing a fully-explored key is
        harmless (the duplicate work is merely repeated, never skipped).
        """
        for key in keys:
            self._representatives.discard(key)

    # ------------------------------------------------------------------
    @staticmethod
    def state_key(
        sketch: Hypothesis, evaluated: Dict[int, Table], remaining: int = 0
    ) -> Optional[ObservationKey]:
        """The observation signature of one completion state.

        *evaluated* is the partial-evaluation map of the sketch (node id ->
        concrete table for every complete subterm).  Completed subtrees
        contribute only their table fingerprint -- their internal structure
        is observationally irrelevant -- while the un-completed remainder
        contributes exact structure: component names, bindings, and the
        fill state of every first-order hole.  *remaining* is the number of
        application nodes the completion worklist has not yet processed; it
        distinguishes states that share a tree signature but differ in how
        many no-parameter nodes still await their deduction check.

        Returns ``None`` when the sketch contains a bound part that is
        missing from *evaluated* (evaluation failed); such states are never
        merged.
        """
        signature = _state_signature(sketch, evaluated)
        if signature is None:
            return None
        return ("r", remaining, signature)


def _state_signature(node: Hypothesis, evaluated: Dict[int, Table]):
    """The signature of one subtree for :meth:`OEStore.state_key`."""
    table = evaluated.get(node.node_id)
    if table is not None:
        return ("t", table.fingerprint())
    if isinstance(node, Hole):
        if node.hole_type is Type.TABLE:
            if node.binding is not None:
                # A bound input that failed to appear in the
                # evaluation map: no exact observation exists.
                return None
            return ("x",)
        return ("?", node.hole_type.value)
    parts = [_state_signature(child, evaluated) for child in node.table_children]
    if any(part is None for part in parts):
        return None
    values = tuple(
        ("v", hole.value) if hole.is_bound else ("?", hole.hole_type.value)
        for hole in node.value_children
    )
    return ("c", node.component.name, tuple(parts), values)
