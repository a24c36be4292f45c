"""A JSON description of a search kernel's position, built from outside it.

The payload describes the search at hypothesis granularity: the remaining
solution quota and the found programs' text, the tie-break and node-id
counters, the duplicate-detection signatures, the pending hypothesis lane
(as component-name trees) and the hypothesis whose expansion is in flight.
Continuation states hold live argument iterators and are not described.
The golden test (``test_snapshot_golden.py``) and the lazy-against-eager
test (``test_lazy_refinement.py``) pin the search order through it.

Usage::

    snapshot = watch(kernel)   # before the kernel takes its first step
    kernel.run(max_steps=40)
    payload = snapshot()
"""

from repro.core.frontier import HypothesisState
from repro.core.hypothesis import Hole, render_program

#: The payload's format version.
VERSION = 1


def encode_hypothesis(hypothesis) -> dict:
    """A JSON-able description of a worklist hypothesis.

    Worklist hypotheses are pure refinement trees -- their first-order holes
    are unfilled and their table holes unbound -- which keeps the payload
    plain data (component *names*, not component objects).
    """
    if isinstance(hypothesis, Hole):
        return {
            "kind": "hole",
            "id": hypothesis.node_id,
            "type": hypothesis.hole_type.value,
            "binding": hypothesis.binding,
        }
    values = []
    for hole in hypothesis.value_children:
        if hole.value is not None:
            raise ValueError(
                "only worklist hypotheses (unfilled first-order holes) are serialisable"
            )
        values.append({"kind": "hole", "id": hole.node_id, "type": hole.hole_type.value})
    return {
        "kind": "apply",
        "id": hypothesis.node_id,
        "component": hypothesis.component.name,
        "children": [encode_hypothesis(child) for child in hypothesis.table_children],
        "values": values,
    }


def _entry(hypothesis, tiebreak: int) -> dict:
    return {"tiebreak": tiebreak, "hypothesis": encode_hypothesis(hypothesis)}


def watch(kernel):
    """Note each hypothesis *kernel* pops; return a ``snapshot()`` callable.

    The hypothesis popped last is in flight while the continuation lane is
    non-empty: its refinement fan-out sits at the bottom of the lane and
    runs last, so the lane empties exactly when its expansion ends.
    """
    popped = []
    pop = kernel.frontier.pop

    def recording_pop():
        state = pop()
        if isinstance(state, HypothesisState):
            popped[:] = [state]
        return state

    kernel.frontier.pop = recording_pop

    def snapshot() -> dict:
        frontier = kernel.frontier
        in_flight = popped[0] if popped and frontier.continuation_states() else None
        return {
            "version": VERSION,
            "k": max(0, kernel.k - len(kernel.solutions)),
            "found": [render_program(program) for program in kernel.solutions],
            "tiebreak": kernel._tiebreak,
            "node_counter": kernel._node_counter,
            "visited": sorted(kernel._visited),
            "pending": [
                _entry(hypothesis, tiebreak)
                for tiebreak, hypothesis in frontier.heap_entries()
            ],
            "in_flight": (
                None if in_flight is None else _entry(in_flight.hypothesis, in_flight.tiebreak)
            ),
        }

    return snapshot
