"""Tests for the tier-1 attribute prescreen (``repro.core.propagation``).

The load-bearing property is the **two-tier deduction invariant** (see
DESIGN.md): tier 1 may only answer UNSAT, never SAT.  Two randomized suites
pin it from both ends:

* every component's interval transfer function over-approximates its SMT
  ``Formula`` twin -- any attribute assignment the formula admits survives
  the transfer (on singleton boxes *and* on widened boxes containing it);
* on random sketches, a prescreen-UNSAT verdict implies the full SMT query
  of Algorithm 2 is UNSAT.

Failures print the offending seed / instance so a broken transfer edit is
diagnosable from the CI log.
"""

import itertools
import random

import pytest

from repro.core import SpecLevel, deduction, standard_library
from repro.core.abstraction import (
    ExampleBaseline,
    TableVars,
    abstract_attributes,
    nonnegativity,
    table_attribute_vector,
)
from repro.core.deduction import DeductionEngine
from repro.core.hypothesis import initial_hypothesis, refine, sketches, table_holes
from repro.core.propagation import (
    COL,
    ROW,
    Infeasible,
    contains,
    eq,
    ge_min,
    ground_check,
    hull_box,
    le,
    le_max,
    le_sum,
    normalize,
    point_box,
    prescreen_infeasible,
    top_box,
)
from repro.core.specs import SPECIFICATIONS, TRANSFERS
from repro.dataframe import Table
from repro.smt import CheckResult, Solver

LIBRARY = standard_library()
COMPONENTS = {component.name: component for component in LIBRARY}
LEVELS = [SpecLevel.SPEC1, SpecLevel.SPEC2]

T1 = Table(["id", "name", "age", "gpa"],
           [[1, "Alice", 8, 4.0], [2, "Bob", 18, 3.2], [3, "Tom", 12, 3.0]])
T2 = Table(["id", "name", "age"],
           [[2, "Bob", 18], [3, "Tom", 12]])


def _arity(name):
    return 2 if name == "inner_join" else 1


def _formula_admits(name, out_attrs, in_attrs, level):
    """Whether the SMT interpretation admits the ground attribute vectors.

    Mirrors the shape of a real deduction query around one node: the spec
    formula, the abstraction of every attribute vector, and the sanity
    constraints asserted for every node variable.
    """
    out_vars = TableVars("o")
    in_vars = [TableVars(f"i{k}") for k in range(len(in_attrs))]
    solver = Solver()
    solver.add(SPECIFICATIONS[name](out_vars, in_vars, level))
    solver.add(abstract_attributes(tuple(out_attrs), out_vars, level))
    for attrs, variables in zip(in_attrs, in_vars):
        solver.add(abstract_attributes(tuple(attrs), variables, level))
    solver.add(nonnegativity([out_vars] + in_vars, level))
    return solver.check() is CheckResult.SAT


def _random_attrs(rng):
    # row, col, group, newCols, newVals -- small values exercise every
    # boundary constant in the specs (col >= 3, newCols >= 2, ...).
    return (rng.randint(0, 6), rng.randint(1, 6), rng.randint(0, 6),
            rng.randint(0, 6), rng.randint(0, 8))


_ATTR_FIELDS = ("row", "col", "group", "newCols", "newVals")


def _admitted_output(name, in_attrs, level):
    """A solver-produced output vector the formula admits for *in_attrs*.

    Sampling the output attributes independently almost never satisfies the
    equality-rich specs (``arrange`` fixes all five attributes), so admitted
    instances come from the SMT model itself: fix the inputs, solve, read the
    output variables back.  Returns ``None`` when no output exists.
    """
    out_vars = TableVars("o")
    in_vars = [TableVars(f"i{k}") for k in range(len(in_attrs))]
    solver = Solver()
    solver.add(SPECIFICATIONS[name](out_vars, in_vars, level))
    for attrs, variables in zip(in_attrs, in_vars):
        solver.add(abstract_attributes(tuple(attrs), variables, level))
    solver.add(nonnegativity([out_vars] + in_vars, level))
    if solver.check() is not CheckResult.SAT:
        return None
    model = solver.model() or {}
    return tuple(model.get(f"o.{field}", 0) for field in _ATTR_FIELDS)


class TestIntervalPrimitives:
    def test_le_tightens_both_sides(self):
        a, b = top_box(), top_box()
        b[ROW][1] = 5
        a[ROW][0] = 2
        le(a, ROW, b, ROW)          # a.row <= b.row
        assert a[ROW][1] == 5
        assert b[ROW][0] == 2

    def test_le_with_offset_raises_on_empty(self):
        a, b = point_box((4, 1, 0, 0, 0)), point_box((3, 1, 0, 0, 0))
        with pytest.raises(Infeasible):
            le(a, ROW, b, ROW)      # 4 <= 3 is false

    def test_eq_collapses_to_the_intersection(self):
        a, b = top_box(), top_box()
        a[COL] = [2, 5]
        b[COL] = [4, 9]
        eq(a, COL, b, COL)
        assert a[COL] == [4, 5] and b[COL] == [4, 5]

    def test_le_sum_refines_all_three_operands(self):
        a, b, c = top_box(), top_box(), top_box()
        a[ROW][0] = 10
        b[ROW][1] = 3
        c[ROW][1] = 4
        with pytest.raises(Infeasible):
            le_sum(a, ROW, b, ROW, c, ROW)      # 10 <= 3 + 4 is false

    def test_ge_min_forces_the_only_feasible_operand(self):
        out, t1, t2 = top_box(), top_box(), top_box()
        out[ROW] = [0, 5]
        t1[ROW] = [7, 9]            # always above out: t2 must provide the min
        t2[ROW] = [0, 20]
        ge_min(out, ROW, [(t1, ROW), (t2, ROW)])
        assert t2[ROW][1] == 5

    def test_le_max_forces_the_only_feasible_operand(self):
        out, t1, t2 = top_box(), top_box(), top_box()
        out[ROW] = [10, 20]
        t1[ROW] = [0, 4]            # always below out: t2 must provide the max
        t2[ROW] = [0, 50]
        le_max(out, ROW, [(t1, ROW), (t2, ROW)])
        assert t2[ROW][0] == 10

    def test_normalize_applies_the_sanity_constraints(self):
        box = top_box()
        box[ROW] = [0, 3]
        normalize(box, SpecLevel.SPEC2)
        assert box[COL][0] == 1
        assert box[2][1] == 3       # group <= row

    def test_hull_box_contains_every_vector(self):
        vectors = [(1, 2, 1, 0, 0), (5, 4, 2, 1, 3)]
        box = hull_box(vectors)
        assert all(contains(box, vector) for vector in vectors)
        assert not contains(box, (6, 2, 1, 0, 0))


class TestRegistryPairing:
    def test_every_spec_has_a_transfer_twin(self):
        # The two-tier invariant starts here: a spec added to one registry
        # without the other is a missing (or dangling) interpretation.
        assert set(TRANSFERS) == set(SPECIFICATIONS)

    def test_library_components_carry_their_transfer(self):
        for component in LIBRARY:
            assert component.transfer is TRANSFERS[component.name]

    def test_custom_spec_without_transfer_stays_unconstrained(self):
        # A component overriding ``spec`` must not inherit a registry
        # transfer that could be *stronger* than its custom formula.
        from dataclasses import replace

        from repro.core.specs import spec_true

        custom = replace(COMPONENTS["filter"], spec=spec_true, transfer=None)
        assert custom.transfer is None
        assert ground_check(custom.transfer, (9, 9, 9, 9, 9), [(0, 1, 0, 0, 0)],
                            SpecLevel.SPEC2)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", sorted(SPECIFICATIONS))
def test_ground_transfer_overapproximates_the_formula(name, level):
    """Solver-SAT ground instances must pass the compiled ground evaluator."""
    rng = random.Random(f"{name}/{level}")
    transfer = TRANSFERS[name]
    admitted = rejected = 0
    for trial in range(80):
        in_attrs = [_random_attrs(rng) for _ in range(_arity(name))]
        # A solver-produced admitted instance for these inputs (if any).
        model_out = _admitted_output(name, in_attrs, level)
        if model_out is not None:
            admitted += 1
            assert ground_check(transfer, model_out, in_attrs, level), (
                f"transfer_{name} rejects a formula-admitted instance "
                f"(level={level}, out={model_out}, ins={in_attrs}, trial={trial})"
            )
        # An independently sampled output, tested in whichever direction the
        # solver decides (also counts the transfer's rejection coverage).
        out_attrs = _random_attrs(rng)
        sat = _formula_admits(name, out_attrs, in_attrs, level)
        ground = ground_check(transfer, out_attrs, in_attrs, level)
        if sat:
            admitted += 1
            assert ground, (
                f"transfer_{name} rejects a formula-admitted instance "
                f"(level={level}, out={out_attrs}, ins={in_attrs}, trial={trial})"
            )
        elif not ground:
            rejected += 1
    # Non-vacuity: the sampler hit satisfiable instances, and the compiled
    # interpretation rejected at least some unsatisfiable ones.
    assert admitted > 0, f"sampler never satisfied {name} at {level}"
    assert rejected > 0, f"transfer_{name} never rejected anything at {level}"


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", sorted(SPECIFICATIONS))
def test_box_transfer_keeps_admitted_points_inside(name, level):
    """Widened boxes stay non-empty and still contain the admitted point."""
    rng = random.Random(f"box/{name}/{level}")
    transfer = TRANSFERS[name]
    checked = 0
    for _ in range(60):
        in_attrs = [_random_attrs(rng) for _ in range(_arity(name))]
        out_attrs = _admitted_output(name, in_attrs, level)
        if out_attrs is None:
            continue
        checked += 1

        def widen(attrs):
            return [
                [value - rng.randint(0, 3), value + rng.randint(0, 3)]
                for value in attrs
            ]

        out_box = widen(out_attrs)
        in_boxes = [widen(attrs) for attrs in in_attrs]
        try:
            normalize(out_box, level)
            for box in in_boxes:
                normalize(box, level)
            transfer(out_box, in_boxes, level)
        except Infeasible:
            pytest.fail(
                f"transfer_{name} emptied a box containing an admitted point "
                f"(level={level}, out={out_attrs}, ins={in_attrs})"
            )
        assert contains(out_box, out_attrs)
        for box, attrs in zip(in_boxes, in_attrs):
            assert contains(box, attrs)
        if checked >= 60:
            break
    assert checked > 0


def _random_hypotheses(rng, names, max_size=3, count=250):
    """Random refinement chains/trees over the component library."""
    for _ in range(count):
        next_id = itertools.count(1)
        hypothesis = initial_hypothesis()
        for _ in range(rng.randint(1, max_size)):
            holes = table_holes(hypothesis)
            if not holes:
                break
            hole = rng.choice(holes)
            component = COMPONENTS[rng.choice(names)]
            hypothesis = refine(
                hypothesis, hole, component, lambda: next(next_id)
            )
        yield hypothesis


@pytest.mark.parametrize("level", LEVELS)
def test_prescreen_unsat_implies_solver_unsat_on_random_sketches(level):
    """Tier 1 may only answer UNSAT: every decided query re-checks UNSAT on tier 2."""
    rng = random.Random(f"sketch/{level}")
    engine = DeductionEngine(inputs=[T1, T2], output=T2, level=level)
    names = sorted(COMPONENTS)
    decided = 0
    for hypothesis in _random_hypotheses(rng, names):
        for sketch in sketches(hypothesis, 2):
            if rng.random() < 0.5:
                continue  # subsample the binding assignments
            evaluated = engine.evaluate_if_possible(sketch)
            if evaluated is None:
                continue
            if prescreen_infeasible(
                sketch, evaluated, engine.table_attributes,
                engine._input_attributes, engine._output_attributes, level,
            ):
                decided += 1
                solver = Solver()
                solver.add(engine.build_query(sketch, evaluated))
                assert solver.check() is CheckResult.UNSAT, (
                    f"prescreen declared UNSAT but the solver disagrees "
                    f"(level={level}, sketch={sketch!r})"
                )
    assert decided > 50, f"prescreen decided almost nothing ({decided})"


def test_engine_verdicts_identical_with_and_without_prescreen(monkeypatch):
    """The tiered ``deduce`` is an optimisation, not a semantics change."""
    rng = random.Random("differential")
    tiered = DeductionEngine(inputs=[T1], output=T2)
    plain = DeductionEngine(inputs=[T1], output=T2)
    names = sorted(COMPONENTS)
    candidates = [
        sketch
        for hypothesis in _random_hypotheses(rng, names, count=120)
        for sketch in sketches(hypothesis, 1)
    ]
    with monkeypatch.context() as patch:
        patch.setattr(deduction, "prescreen_infeasible", lambda *args: False)
        verdicts = [plain.deduce(sketch) for sketch in candidates]
    for sketch, verdict in zip(candidates, verdicts):
        assert tiered.deduce(sketch) is verdict, (
            f"prescreen changed a verdict on {sketch!r}"
        )
    assert len(candidates) > 100
    assert tiered.stats.prescreen_decided > 0
    assert plain.stats.prescreen_decided == 0
    assert plain.stats.prescreen_fallback == plain.stats.smt_calls
    assert tiered.stats.smt_calls < plain.stats.smt_calls


class TestEngineCounters:
    def test_prescreen_decides_without_formula_or_solver(self):
        # mutate must add a column; the output table has as many columns as
        # the input, so the ground sweep empties the root box immediately.
        next_id = itertools.count(1)
        hypothesis = refine(
            initial_hypothesis(), initial_hypothesis(), COMPONENTS["mutate"],
            lambda: next(next_id),
        )
        engine = DeductionEngine(inputs=[T1], output=T1)
        assert engine.deduce(hypothesis) is False
        assert engine.stats.prescreen_decided == 1
        assert engine.stats.smt_calls == 0

    def test_prescreen_verdict_is_memoised(self):
        next_id = itertools.count(1)
        hypothesis = refine(
            initial_hypothesis(), initial_hypothesis(), COMPONENTS["mutate"],
            lambda: next(next_id),
        )
        engine = DeductionEngine(inputs=[T1], output=T1)
        assert engine.deduce(hypothesis) is False
        assert engine.deduce(hypothesis) is False
        # The replay is answered by the verdict memo: no tier runs again.
        stats = engine.stats
        assert (stats.prescreen_decided, stats.prescreen_fallback, stats.smt_calls) == (1, 0, 0)


def test_table_attribute_vector_matches_engine_memo():
    engine = DeductionEngine(inputs=[T1], output=T2)
    baseline = ExampleBaseline.from_tables([T1])
    assert engine.table_attributes(T1) == table_attribute_vector(
        T1, SpecLevel.SPEC2, baseline
    )
    spec1 = DeductionEngine(inputs=[T1], output=T2, level=SpecLevel.SPEC1)
    assert spec1.table_attributes(T1) == (T1.n_rows, T1.n_cols, 0, 0, 0)
