"""Randomized property tests of the SAT engine and the SMT facade.

Every test draws a small instance from a *seeded* generator and checks the
solver against an independent oracle:

* :meth:`SatSolver.solve` against exhaustive assignment of the (at most
  seven) propositional variables, also after clauses are added between
  calls, as the lazy DPLL(T) loop does;
* :meth:`Solver.check` against the formula's own semantics: a SAT verdict's
  model satisfies the formula, and an UNSAT verdict leaves no satisfying
  integer point in the box ``[-8, 8]^4``.  UNKNOWN is allowed;
* :meth:`Solver.check` against itself: adding a conjunct never turns UNSAT
  into SAT, every member of a deletion-minimal conflict is necessary, and a
  verdict recalled from the formula cache (or reached after formulas were
  added between checks) equals a new solver's under an empty cache;
* hand-written fixtures with known verdicts, one per solving strategy.

The formula generator keeps coefficients and constants small, so a
satisfiable formula usually has a witness inside the box, and the three
strategies of ``Solver.check`` (plain conjunction, clausal case split, lazy
DPLL(T)) are all drawn.
"""

import itertools
import random
from functools import reduce

import pytest

from repro.smt import And, Atom, BoolVal, CheckResult, Int, Not, Or, Solver
from repro.smt import solver as solver_module
from repro.smt.sat import SatSolver
from repro.smt.terms import FALSE, TRUE

VARIABLES = ["p", "q", "r", "s"]

# ----------------------------------------------------------------------
# SAT: random CNFs against exhaustive assignment
# ----------------------------------------------------------------------


def random_clause(rng, num_vars):
    return [
        rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(rng.randint(1, 3))
    ]


def random_instance(rng):
    """A random CNF: 3-7 variables, 2-14 clauses of width 1-3."""
    num_vars = rng.randint(3, 7)
    return num_vars, [random_clause(rng, num_vars) for _ in range(rng.randint(2, 14))]


def satisfies(assignment, clauses):
    return all(
        any(assignment[abs(literal)] == (literal > 0) for literal in clause)
        for clause in clauses
    )


def exhaustively_satisfiable(num_vars, clauses):
    return any(
        satisfies(dict(enumerate(bits, start=1)), clauses)
        for bits in itertools.product([False, True], repeat=num_vars)
    )


def assert_sat_verdict(result, num_vars, clauses):
    assert (result is not None) == exhaustively_satisfiable(num_vars, clauses)
    if result is not None:
        assert set(result) == set(range(1, num_vars + 1))
        assert satisfies(result, clauses)


class TestSatSolverAgainstExhaustiveSearch:
    @pytest.mark.parametrize("seed", range(120))
    def test_verdict_and_model_match_exhaustive_search(self, seed):
        num_vars, clauses = random_instance(random.Random(seed))
        assert_sat_verdict(SatSolver(num_vars, clauses).solve(), num_vars, clauses)

    @pytest.mark.parametrize("seed", range(40))
    def test_clauses_added_between_calls(self, seed):
        # The clause database (learned clauses included) persists across
        # solve() calls; every verdict must still be the exhaustive one.
        rng = random.Random(seed)
        num_vars, clauses = random_instance(rng)
        solver = SatSolver(num_vars, clauses)
        assert_sat_verdict(solver.solve(), num_vars, clauses)
        for _ in range(3):
            clause = random_clause(rng, num_vars)
            solver.add_clause(clause)
            clauses = clauses + [clause]
            assert_sat_verdict(solver.solve(), num_vars, clauses)


# ----------------------------------------------------------------------
# SMT: random formulas against their semantics on a box
# ----------------------------------------------------------------------

LOW, HIGH = -8, 8
SIDE = HIGH - LOW + 1
POINTS = SIDE ** len(VARIABLES)
#: The box as a bitset: bit ``i`` is the point whose coordinates are the
#: base-``SIDE`` digits of ``i`` (the last variable varies fastest).
BOX = (1 << POINTS) - 1


def _value_masks():
    """``masks[name][value]``: the points of the box where *name* is *value*."""
    masks = {}
    for axis, name in enumerate(reversed(VARIABLES)):
        stride = SIDE ** axis
        period = stride * SIDE
        # One set bit every ``period`` bits across the whole box.
        every_period = BOX // ((1 << period) - 1)
        masks[name] = {
            value: (((1 << stride) - 1) << ((value - LOW) * stride)) * every_period
            for value in range(LOW, HIGH + 1)
        }
    return masks


VALUE_MASKS = _value_masks()
_atom_masks = {}


def atom_mask(atom):
    """The points of the box where *atom* holds."""
    mask = _atom_masks.get(atom)
    if mask is None:
        names = atom.variables()
        mask = 0
        for values in itertools.product(range(LOW, HIGH + 1), repeat=len(names)):
            if atom.holds(dict(zip(names, values))):
                mask |= reduce(
                    lambda acc, pair: acc & VALUE_MASKS[pair[0]][pair[1]],
                    zip(names, values),
                    BOX,
                )
        _atom_masks[atom] = mask
    return mask


def box_mask(formula):
    """The points of the box where *formula* holds."""
    if isinstance(formula, Atom):
        return atom_mask(formula)
    if isinstance(formula, BoolVal):
        return BOX if formula.value else 0
    if isinstance(formula, Not):
        return BOX & ~box_mask(formula.operand)
    if isinstance(formula, And):
        return reduce(lambda acc, operand: acc & box_mask(operand), formula.operands, BOX)
    if isinstance(formula, Or):
        return reduce(lambda acc, operand: acc | box_mask(operand), formula.operands, 0)
    raise TypeError(f"unexpected formula {formula!r}")


def holds(formula, model):
    """*formula* under *model*; variables the model leaves out are 0."""
    if isinstance(formula, Atom):
        return formula.holds({name: model.get(name, 0) for name in formula.variables()})
    if isinstance(formula, BoolVal):
        return formula.value
    if isinstance(formula, Not):
        return not holds(formula.operand, model)
    if isinstance(formula, And):
        return all(holds(operand, model) for operand in formula.operands)
    return any(holds(operand, model) for operand in formula.operands)


def random_atom(rng, names=VARIABLES, spread=4):
    """A small linear constraint over one or two variables."""
    name = rng.choice(names)
    left = Int(name)
    if len(names) > 1 and rng.random() < 0.4:
        left = left - Int(rng.choice([other for other in names if other != name]))
    constant = rng.randint(-spread, spread)
    kind = rng.random()
    if kind < 0.4:
        return left <= constant
    if kind < 0.8:
        return left >= constant
    return left.equals(constant)


def random_formula(rng, depth=2):
    """A random boolean combination (includes shapes only the lazy path takes)."""
    if depth == 0 or rng.random() < 0.4:
        return random_atom(rng)
    kind = rng.random()
    if kind < 0.1:
        return rng.choice([TRUE, FALSE]) if rng.random() < 0.3 else random_atom(rng)
    if kind < 0.4:
        return Not(random_formula(rng, depth - 1))
    operands = [random_formula(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    return And(*operands) if kind < 0.7 else Or(*operands)


@pytest.fixture(autouse=True)
def fresh_formula_cache():
    # Each verdict is solved here, not recalled from an earlier test.
    previous = solver_module.install_formula_cache(solver_module.new_formula_cache())
    yield
    solver_module.install_formula_cache(previous)


def assert_check_is_sound(formulas):
    solver = Solver()
    solver.add(*formulas)
    result = solver.check()
    formula = And(*formulas) if formulas else TRUE
    if result is CheckResult.SAT:
        model = solver.model()
        assert model is not None
        assert holds(formula, model), (formula, model)
    elif result is CheckResult.UNSAT:
        assert box_mask(formula) == 0, formula
    return result


class TestSolverCheckAgainstTheBox:
    @pytest.mark.parametrize("seed", range(80))
    def test_boolean_combinations(self, seed):
        rng = random.Random(seed)
        formulas = [random_formula(rng) for _ in range(rng.randint(1, 4))]
        assert_check_is_sound(formulas)

    @pytest.mark.parametrize("seed", range(30))
    def test_conjunctions_of_atoms(self, seed):
        # Two variables and tight constants: many of these are UNSAT.
        rng = random.Random(seed)
        atoms = [random_atom(rng, ["p", "q"], 3) for _ in range(rng.randint(3, 6))]
        assert_check_is_sound(atoms)

    def test_the_generators_reach_both_verdicts(self):
        verdicts = set()
        for seed in range(80):
            rng = random.Random(seed)
            formulas = [random_formula(rng) for _ in range(rng.randint(1, 4))]
            solver = Solver()
            solver.add(*formulas)
            verdicts.add(solver.check())
        assert {CheckResult.SAT, CheckResult.UNSAT} <= verdicts


def fresh_verdict(formulas):
    """The verdict of a new solver under an empty formula cache."""
    previous = solver_module.install_formula_cache(solver_module.new_formula_cache())
    try:
        solver = Solver()
        solver.add(*formulas)
        return solver.check()
    finally:
        solver_module.install_formula_cache(previous)


class TestConjunctionMonotonicity:
    @pytest.mark.parametrize("seed", range(30))
    def test_prefix_verdicts_are_monotone_and_a_minimal_conflict_is_necessary(
        self, seed
    ):
        # Adding a conjunct never turns UNSAT into SAT.  When the whole set
        # is UNSAT, a deletion-minimal subset (found with check() alone) is
        # UNSAT on the box, and dropping any one of its members is SAT.
        rng = random.Random(seed)
        atoms = [random_atom(rng, ["p", "q"], 3) for _ in range(rng.randint(3, 6))]
        verdicts = [assert_check_is_sound(atoms[: end + 1]) for end in range(len(atoms))]
        first_unsat = next(
            (i for i, verdict in enumerate(verdicts) if verdict is CheckResult.UNSAT),
            len(verdicts),
        )
        assert all(v is CheckResult.SAT for v in verdicts[:first_unsat]), verdicts
        assert all(v is CheckResult.UNSAT for v in verdicts[first_unsat:]), verdicts
        if first_unsat == len(verdicts):
            return
        conflict = list(atoms)
        for atom in atoms:
            rest = [other for other in conflict if other is not atom]
            if fresh_verdict(rest) is CheckResult.UNSAT:
                conflict = rest
        assert box_mask(And(*conflict)) == 0
        for dropped in conflict:
            rest = [other for other in conflict if other is not dropped]
            assert assert_check_is_sound(rest) is CheckResult.SAT, (conflict, dropped)


class TestRepeatedChecks:
    @pytest.mark.parametrize("seed", range(40))
    def test_checks_between_adds_match_a_fresh_solver(self, seed):
        # One solver gets formulas added between checks; every verdict is
        # sound, equals a new solver's under an empty cache, and is recalled
        # unchanged (model included) from the formula cache.
        rng = random.Random(seed)
        solver = Solver()
        active = []
        for _ in range(rng.randint(2, 5)):
            formula = random_formula(rng)
            solver.add(formula)
            active.append(formula)
            result = solver.check()
            assert result is fresh_verdict(active), active
            assert result is assert_check_is_sound(active)
            model = solver.model()
            if model is not None:
                model["p"] = 99  # a caller's edit must not reach the cache
            assert solver.check() is result
            if result is CheckResult.SAT:
                assert holds(And(*active), solver.model())
        assert solver.assertions() == tuple(active)
        solver.reset()
        assert solver.assertions() == ()
        assert solver.check() is CheckResult.SAT


x, y, z = Int("x"), Int("y"), Int("z")


def assert_verdict(formulas, expected):
    solver = Solver()
    solver.add(*formulas)
    assert solver.check() is expected, formulas
    if expected is CheckResult.SAT:
        assert holds(And(*formulas) if formulas else TRUE, solver.model())


class TestCuratedVerdicts:
    def test_two_member_conflict_ignores_the_bystander(self):
        lo, hi, bystander = x >= 5, x <= 3, y >= 0
        assert_verdict([lo, hi, bystander], CheckResult.UNSAT)
        assert_verdict([lo, bystander], CheckResult.SAT)
        assert_verdict([hi, bystander], CheckResult.SAT)

    def test_transitive_cycle_needs_every_member(self):
        cycle = [x < y, y < z, z < x]
        assert_verdict(cycle, CheckResult.UNSAT)
        for dropped in cycle:
            assert_verdict([f for f in cycle if f is not dropped], CheckResult.SAT)

    def test_clash_with_an_earlier_assertion(self):
        assert_verdict([x.equals(1), x.equals(2), y.equals(3)], CheckResult.UNSAT)
        assert_verdict([x.equals(1), y.equals(3)], CheckResult.SAT)

    def test_unsat_assertions_stay_unsat_with_a_free_conjunct(self):
        assert_verdict([x.equals(1), x.equals(2)], CheckResult.UNSAT)
        assert_verdict([x.equals(1), x.equals(2), y.equals(5)], CheckResult.UNSAT)

    def test_false_conjunct_decides(self):
        assert_verdict([FALSE, x >= 0], CheckResult.UNSAT)
        assert_verdict([TRUE, x >= 0], CheckResult.SAT)

    def test_boolean_structure_through_the_lazy_path(self):
        # Not(And(...)) has irreducible boolean structure, so the lazy
        # DPLL(T) loop decides these, not the clausal case split.
        in_range = And(x >= 1, x <= 2)
        outside = Not(And(x >= 1, x <= 2))
        bystander = Not(And(y >= 4, y <= 3))
        assert_verdict([in_range, outside, bystander], CheckResult.UNSAT)
        assert_verdict([in_range, bystander], CheckResult.SAT)
        assert_verdict([outside, bystander], CheckResult.SAT)

    def test_disjunctive_conflict(self):
        cases, floor, bystander = Or(x.equals(1), x.equals(5)), x >= 6, y <= 9
        assert_verdict([cases, floor, bystander], CheckResult.UNSAT)
        assert_verdict([cases, bystander], CheckResult.SAT)
        assert_verdict([floor, bystander], CheckResult.SAT)

    def test_disequality_excludes_the_only_point(self):
        assert_verdict([x >= 3, x <= 3, Not(x.equals(3))], CheckResult.UNSAT)
        assert_verdict([x >= 3, x <= 4, Not(x.equals(3))], CheckResult.SAT)

    def test_empty_solver_is_sat(self):
        assert_verdict([], CheckResult.SAT)
