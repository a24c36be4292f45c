"""The synthesis hot path must not create reference cycles.

Every object the search allocates should be freed by reference counting.
Cyclic garbage -- a self-recursive nested closure (function -> cell ->
function), or a stored exception whose traceback reaches the frame that
stores it -- survives until the cyclic collector runs, and its collections
then take a large share of search wall time.  See DESIGN.md, "No reference
cycles on the search path".
"""

import ast
import collections
import gc
import weakref
from pathlib import Path

import pytest

from repro.api import SynthesisRequest, create_session
from repro.benchmarks import r_benchmark_suite
from repro.core import deduction, standard_library
from repro.core.arguments import ColumnRef, Constant, Predicate
from repro.core.hypothesis import (
    EvaluationFailure,
    fill_value_hole,
    initial_hypothesis,
    partial_evaluate,
    refine,
    render_program,
    sketches,
    unfilled_value_holes,
)
from repro.dataframe import Table
from repro.engine import kb as kb_module
from repro.engine.cache import ExecutionCache
from repro.engine.kb import KnowledgeBase

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
COMPONENTS = {component.name: component for component in standard_library()}

#: (task, config knobs, prescreen): a c3 and a c5 batch task, a hard task cut
#: to a step budget, and a run with the prescreen patched out, which reaches
#: lemma mining and the clausal SMT fast path.
RUNS = (
    ("c3_exam_gather_unite_spread", {}, True),
    ("c5_join_filter_large_orders", {}, True),
    ("c4_spread_counts_by_weekday", {"max_steps": 300}, True),
    ("c5_join_filter_large_orders", {}, False),
)


def _describe(garbage) -> str:
    """The most common garbage kinds, naming functions and frames."""
    kinds = collections.Counter()
    for obj in garbage:
        if type(obj).__name__ == "function":
            kinds[f"function {obj.__qualname__}"] += 1
        elif type(obj).__name__ == "frame":
            code = obj.f_code
            kinds[f"frame {getattr(code, 'co_qualname', code.co_name)}"] += 1
        else:
            kinds[type(obj).__name__] += 1
    return "\n".join(f"{count:8d}  {kind}" for kind, count in kinds.most_common(25))


def test_search_creates_no_cyclic_garbage(monkeypatch):
    suite = r_benchmark_suite()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for name, knobs, prescreen in RUNS:
            benchmark = suite.get(name)
            request = SynthesisRequest.from_tables(
                benchmark.inputs, benchmark.output, top_k=1, timeout=60, **knobs
            )
            with monkeypatch.context() as patch:
                if not prescreen:
                    patch.setattr(deduction, "prescreen_infeasible", lambda *args: False)
                session = create_session(request)
                result = session.solve()
            assert result.solved or session.steps == knobs.get("max_steps")
            if result.program is not None:
                render_program(result.program)
        found = gc.collect()
        report = _describe(gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        gc.enable()
    assert found == 0, f"the search left {found} objects in reference cycles:\n{report}"


def test_shared_kb_tier_creates_no_cyclic_garbage(tmp_path, monkeypatch):
    benchmark = r_benchmark_suite().get("c3_exam_gather_unite_spread")
    request = SynthesisRequest.from_tables(
        benchmark.inputs, benchmark.output, top_k=1, timeout=60
    )
    kb = KnowledgeBase(str(tmp_path / "kb.sqlite"))
    decoded = []
    deserialize = kb_module._deserialize_result
    monkeypatch.setattr(
        kb_module, "_deserialize_result", lambda blob: decoded.append(blob) or deserialize(blob)
    )
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        first = create_session(request, kb=kb).solve()
        hits_before = kb.stats.hits
        second = create_session(request, kb=kb).solve()
        found = gc.collect()
        report = _describe(gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        gc.enable()
    # The second session is answered from the in-process tier: hits, but
    # no row was decoded.
    assert first.solved and second.solved
    assert kb.stats.hits > hits_before and decoded == []
    assert found == 0, f"the KB-attached search left {found} objects in cycles:\n{report}"
    failures = [value for value in kb._tier.values() if isinstance(value, EvaluationFailure)]
    assert failures
    assert all(failure.__traceback__ is None for failure in failures)
    kb.close()


def test_release_frees_the_kernel_by_reference_counting():
    # With the collector off, only reference counting can free the kernel:
    # were it kept alive by cycles, releasing settled sessions would hand
    # the same objects to the full collections the release is meant to
    # shrink.
    benchmark = r_benchmark_suite().get("c3_exam_gather_unite_spread")
    request = SynthesisRequest.from_tables(
        benchmark.inputs, benchmark.output, top_k=1, timeout=60
    )
    gc.collect()
    gc.disable()
    try:
        session = create_session(request)
        session.solve()
        kernel = weakref.ref(session._kernel)
        engine = weakref.ref(session._kernel.engine)
        session.release()
        alive = [name for name, ref in (("SearchKernel", kernel), ("DeductionEngine", engine))
                 if ref() is not None]
    finally:
        gc.enable()
    assert session.released and session.candidates
    assert not alive, f"released but still alive without the collector: {alive}"


def _self_recursive_closures(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(
                isinstance(node, ast.Name) and node.id == inner.name
                for node in ast.walk(inner)
            ):
                yield f"{path.relative_to(SRC)}:{inner.lineno} {outer.name}.{inner.name}"


def test_no_self_recursive_nested_closures_on_the_search_path():
    paths = [
        *sorted((SRC / "core").glob("*.py")),
        *sorted((SRC / "smt").glob("*.py")),
        SRC / "dataframe" / "compare.py",
    ]
    offenders = [site for path in paths for site in _self_recursive_closures(path)]
    assert not offenders, "hoist these to module-level helpers:\n" + "\n".join(offenders)


# ----------------------------------------------------------------------
# Stored failures carry no traceback
# ----------------------------------------------------------------------
DUPLICATE_KEYS = Table(["id", "key", "value"], [[1, "a", 10], [1, "a", 11], [2, "b", 5]])
STUDENTS = Table(["name", "age"], [["Alice", 8], ["Bob", 18], ["Tom", 12]])
SPREAD_ERROR = "spread: duplicate identifiers for rows"


class RecordingCache(ExecutionCache):
    """An execution cache that remembers every value stored in it."""

    def __init__(self) -> None:
        super().__init__()
        self.stored = []

    def put(self, key, result) -> None:
        self.stored.append(result)
        super().put(key, result)


def _failing_spread():
    counter = iter(range(1, 100))
    hypothesis = refine(
        initial_hypothesis(), initial_hypothesis(), COMPONENTS["spread"], lambda: next(counter)
    )
    program = next(sketches(hypothesis, 1))
    for column in ("key", "value"):
        program = fill_value_hole(program, unfilled_value_holes(program)[0], ColumnRef(column))
    return program


def test_cached_failures_are_raised_fresh_and_stored_without_traceback():
    program = _failing_spread()
    memo = {}
    cache = RecordingCache()
    raised = []
    # First execution, then a memo hit, then an execution-cache hit.
    for call_memo in (memo, memo, {}):
        with pytest.raises(EvaluationFailure) as info:
            partial_evaluate(program, [DUPLICATE_KEYS], memo=call_memo, exec_cache=cache)
        raised.append(info.value)
    assert [str(failure) for failure in raised] == [SPREAD_ERROR] * 3
    assert len({id(failure) for failure in raised}) == 3
    stored = list(memo.values()) + cache.stored
    assert len(cache.stored) == 1
    assert all(isinstance(failure, EvaluationFailure) for failure in stored)
    assert all(failure.__traceback__ is None for failure in stored)


def test_execute_batch_returns_errors_without_traceback():
    spread_results = COMPONENTS["spread"].execute_batch(
        [DUPLICATE_KEYS],
        [[ColumnRef("key"), ColumnRef("value")], [ColumnRef("key"), ColumnRef("key")]],
        "_n1_",
    )
    filter_results = COMPONENTS["filter"].execute_batch(
        [STUDENTS],
        [[Predicate("age", ">", Constant(0))], [Predicate("age", ">", Constant(10))]],
        "_n1_",
    )
    errors = [result for result in spread_results + filter_results if isinstance(result, Exception)]
    assert [str(error) for error in errors] == [
        SPREAD_ERROR,
        "spread: key and value must be different columns",
        "filter: predicate keeps every row",
    ]
    assert all(error.__traceback__ is None for error in errors)
    assert isinstance(filter_results[1], Table)
