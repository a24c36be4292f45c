"""Lazy refinement: the kernel enqueues recipes and builds trees on pop.

``SearchKernel._refine`` derives each child's signature, size, component
sequence and priority from one walk of the parent (a
:class:`~repro.core.frontier.RefinementTemplate`) and enqueues a
:class:`~repro.core.frontier.Refinement` recipe; the tree is built with
``refine()`` only when the frontier pops (or lists) it.  These tests
hold the template-derived values to the eagerly built trees, hold a lazy
search to a reimplementation of the eager fan-out, node ids included, and
hold a search that a deadline stops right after a fan-out to an
uninterrupted one.
"""

import itertools
import time

import pytest
from snapshots import watch

from repro.benchmarks import r_benchmark_suite
from repro.core import Example, SynthesisConfig, standard_library
from repro.core.frontier import (
    HypothesisState,
    Refinement,
    RefinementTemplate,
    SearchKernel,
    call_signature,
    hypothesis_signature,
)
from repro.core.hypothesis import (
    Apply,
    component_sequence,
    hypothesis_size,
    iter_nodes,
    refine,
    table_holes,
)
from repro.smt.solver import clear_formula_cache

#: R-suite tasks whose searches supply the parents under test: one and two
#: input tables, shallow and deep solutions.
TASKS = (
    "c2_orders_count_by_region",
    "c3_exam_gather_unite_spread",
    "c4_summary_then_spread",
    "c5_join_filter_large_orders",
)


def make_kernel(name, kernel_class=SearchKernel):
    benchmark = r_benchmark_suite().get(name)
    clear_formula_cache()
    example = Example.make(benchmark.inputs, benchmark.output)
    return kernel_class(example, SynthesisConfig(timeout=30), standard_library())


def popped_parents(name, limit=60):
    """The first *limit* hypotheses a real search pops, in pop order."""
    kernel = make_kernel(name)
    parents = []
    pop = kernel.frontier.pop

    def recording_pop():
        state = pop()
        if isinstance(state, HypothesisState):
            parents.append(state.hypothesis)
        return state

    kernel.frontier.pop = recording_pop
    while len(parents) < limit and kernel.run(max_steps=50):
        pass
    return parents, kernel


class EagerKernel(SearchKernel):
    """The fan-out as it was: build every child, then sign and rank it."""

    def _refine(self, state):
        hypothesis = state.hypothesis
        if hypothesis_size(hypothesis) >= self.config.max_size:
            return
        for hole in table_holes(hypothesis, unbound_only=True):
            for component in self.library:
                child = refine(hypothesis, hole, component, self._take_id)
                signature = hypothesis_signature(child)
                if signature in self._visited:
                    continue
                self._visited.add(signature)
                self.frontier.push_hypothesis(child, self._tiebreak)
                self._tiebreak += 1
                self.stats.hypotheses_enqueued += 1

    def _take_id(self):
        node_id = self._node_counter
        self._node_counter += 1
        return node_id


@pytest.mark.parametrize("name", TASKS)
def test_template_values_match_the_eager_tree(name):
    parents, kernel = popped_parents(name)
    assert len(parents) > 10
    cost_model = kernel.cost_model
    checked = 0
    for parent in parents:
        template = RefinementTemplate(parent)
        assert template.holes == table_holes(parent, unbound_only=True)
        assert template.size == hypothesis_size(parent)
        first_id = 1 + max(node.node_id for node in iter_nodes(parent))
        for hole_index, hole in enumerate(template.holes):
            for component in kernel.library:
                ids = itertools.count(first_id)
                eager = refine(parent, hole, component, ids.__next__)
                size = template.size + 1
                sequence = template.sequence(hole_index, component.name)
                signature = template.signature(hole_index, call_signature(component))
                assert signature == hypothesis_signature(eager)
                assert size == hypothesis_size(eager)
                assert sequence == component_sequence(eager)
                assert cost_model.priority(size, sequence) == cost_model.priority(
                    hypothesis_size(eager), component_sequence(eager)
                )
                # The recipe reserves exactly the ids refine() consumed.
                reserved = component.arity
                assert next(ids) == first_id + reserved
                built = Refinement(parent, hole, component, first_id).build()
                assert built == eager
                application = next(
                    node for node in iter_nodes(built)
                    if isinstance(node, Apply) and node.node_id == hole.node_id
                )
                children = application.table_children + application.value_children
                assert [child.node_id for child in children] == list(
                    range(first_id, first_id + reserved)
                )
                checked += 1
    assert checked > 100


@pytest.mark.parametrize("name", TASKS)
def test_lazy_search_matches_the_eager_fan_out(name):
    lazy = make_kernel(name)
    eager = make_kernel(name, EagerKernel)
    lazy_snapshot, eager_snapshot = watch(lazy), watch(eager)
    for _ in range(40):
        lazy.run(max_steps=25)
        eager.run(max_steps=25)
        assert lazy._node_counter == eager._node_counter
        assert lazy._tiebreak == eager._tiebreak
        assert lazy._visited == eager._visited
        assert lazy.stats.hypotheses_enqueued == eager.stats.hypotheses_enqueued
        assert lazy.frontier.heap_entries() == eager.frontier.heap_entries()
        assert lazy.frontier.peak == eager.frontier.peak
        if lazy.done:
            break
    assert lazy_snapshot() == eager_snapshot()
    assert [repr(program) for program in lazy.solutions] == [
        repr(program) for program in eager.solutions
    ]


def expire_after_fan_out(kernel, nth, holes=1):
    """Expire the kernel's deadline once, right after its *nth* fan-out.

    Only fan-outs whose parent has at least *holes* unbound table holes
    count.  The deadline is a real one, set in the past, so ``run()``
    stops at the next step boundary exactly as a passed deadline does.
    """
    countdown = {"left": nth, "fired": False}
    refine_state = kernel._refine

    def counting_refine(state):
        refine_state(state)
        if countdown["fired"] or len(table_holes(state.hypothesis)) < holes:
            return
        countdown["left"] -= 1
        if countdown["left"] == 0:
            countdown["fired"] = True
            kernel.set_deadline(time.monotonic() - 1.0)

    kernel._refine = counting_refine
    return countdown


@pytest.mark.parametrize("holes, nth", [(1, 1), (1, 3), (1, 10), (2, 1), (2, 4)])
def test_a_deadline_after_a_fan_out_keeps_node_ids(holes, nth):
    name = "c4_summary_then_spread"
    reference = make_kernel(name)
    assert reference.run() is False
    assert reference.solved

    kernel = make_kernel(name)
    countdown = expire_after_fan_out(kernel, nth, holes)
    assert kernel.run() is True  # stopped by the expired deadline
    assert countdown["fired"]
    assert not kernel.solved
    stopped = (kernel.steps_taken, kernel._node_counter, kernel.stats.hypotheses_enqueued)
    # A run() whose deadline has passed takes no step.
    assert kernel.run(deadline=time.monotonic() - 1.0) is True
    assert (kernel.steps_taken, kernel._node_counter, kernel.stats.hypotheses_enqueued) == stopped
    assert kernel.run() is False
    assert repr(kernel.solutions[0]) == repr(reference.solutions[0])
    assert kernel.steps_taken == reference.steps_taken
    assert kernel._node_counter == reference._node_counter
    assert kernel.stats.hypotheses_enqueued == reference.stats.hypotheses_enqueued
