"""Decision procedure for conjunctions of linear integer constraints.

This is the theory solver behind :mod:`repro.smt.solver`.  Given a
conjunction of atoms (``expr <= 0`` / ``expr == 0`` over integer variables)
it decides satisfiability and produces an integer model.

The procedure is layered the way the deduction formulas of the paper are
shaped:

1. **Equality / constant propagation** -- most conjuncts are of the form
   ``x == k`` or ``x == y (+ k)`` (table abstractions and the input-binding
   constraints), so a substitution pass eliminates the bulk of the variables.
   All arithmetic in this phase is plain integer arithmetic.
2. **Interval propagation** -- single- and multi-variable inequalities tighten
   per-variable integer bounds; an empty interval or an inequality whose
   minimum exceeds zero is a conflict.
3. **Rational relaxation** -- small systems that survive propagation are
   handed to the exact simplex solver (:mod:`repro.smt.simplex`) and, if the
   witness is fractional, to a depth-bounded branch-and-bound search.
4. **Conservative SAT** -- larger residual systems, or branch-and-bound
   hitting its depth limit, are reported as satisfiable.  This keeps the
   synthesizer's pruning *sound*: a hypothesis is only discarded on a
   definite UNSAT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from .simplex import LinearConstraint, solve_rational
from .terms import Atom, Number

#: Maximum depth of the branch-and-bound search before giving up (and
#: conservatively reporting SAT).
MAX_BRANCH_DEPTH = 40

#: Maximum number of interval-propagation sweeps over multi-variable rows.
MAX_INTERVAL_ROUNDS = 25

#: Largest residual system (number of variables) handed to the exact simplex
#: solver.  Larger systems that survive interval propagation are reported as
#: satisfiable (a sound over-approximation for the deduction engine, which
#: prunes only on UNSAT).
SIMPLEX_VARIABLE_LIMIT = 10


@dataclass
class TheoryResult:
    """Outcome of a theory check."""

    satisfiable: bool
    model: Optional[Dict[str, int]] = None
    #: True when the result is a conservative "assume SAT" answer (produced by
    #: hitting a size or depth limit of the exact backend).
    approximate: bool = False


#: A row is ``(coeffs, const, is_equality)`` representing ``sum + const (<=|==) 0``
#: with integer coefficients.
Row = Tuple[Dict[str, int], int, bool]


@dataclass
class _Problem:
    """Mutable state of the propagation phase."""

    rows: List[Row] = field(default_factory=list)
    #: Substitution: variable -> (integer coeffs over other variables, const).
    substitution: Dict[str, Tuple[Dict[str, int], int]] = field(default_factory=dict)
    lower: Dict[str, int] = field(default_factory=dict)
    upper: Dict[str, int] = field(default_factory=dict)


@lru_cache(maxsize=65536)
def _integer_row_cached(atom: Atom) -> Tuple[Tuple[Tuple[str, int], ...], int, bool]:
    """Scale an atom to integer coefficients (immutable, memoised form).

    Terms store integral coefficients as ``int``, so the scale is 1 unless
    the atom has a genuinely fractional coefficient or constant.  Atoms are
    immutable, hash in O(1) (the hash is cached on the term) and are heavily
    shared across queries.
    """
    expr = atom.expr
    scale = math.lcm(
        expr.const.denominator, *(coeff.denominator for coeff in expr.coeffs.values())
    )
    coeffs = tuple(
        (name, int(coeff * scale)) for name, coeff in expr.coeffs.items()
    )
    return coeffs, int(expr.const * scale), atom.op == "=="


def _integer_row(atom: Atom) -> Row:
    """Scale an atom to integer coefficients."""
    coeffs, const, is_equality = _integer_row_cached(atom)
    # A fresh dict per use: rows flow through substitution/propagation, and
    # the cache must never hand out aliased mutable state.
    return dict(coeffs), const, is_equality


def _apply_substitution(
    coeffs: Dict[str, int],
    const: int,
    substitution: Dict[str, Tuple[Dict[str, int], int]],
) -> Tuple[Dict[str, int], int]:
    result: Dict[str, int] = {}
    for name, coeff in coeffs.items():
        replacement = substitution.get(name)
        if replacement is None:
            result[name] = result.get(name, 0) + coeff
        else:
            sub_coeffs, sub_const = replacement
            for sub_name, sub_coeff in sub_coeffs.items():
                result[sub_name] = result.get(sub_name, 0) + coeff * sub_coeff
            const += coeff * sub_const
    return {name: coeff for name, coeff in result.items() if coeff != 0}, const


def check_conjunction(atoms: Iterable[Atom]) -> TheoryResult:
    """Decide satisfiability of a conjunction of atoms over the integers."""
    problem = _Problem()
    for atom in atoms:
        problem.rows.append(_integer_row(atom))

    if _propagate(problem):
        return TheoryResult(satisfiable=False)
    return _solve_residual(problem)


# ----------------------------------------------------------------------
# Propagation
# ----------------------------------------------------------------------
def _propagate(problem: _Problem) -> bool:
    """Run equality/constant/bound propagation.  Returns True on conflict."""
    changed = True
    while changed:
        changed = False
        remaining: List[Row] = []
        for coeffs, const, is_equality in problem.rows:
            coeffs, const = _apply_substitution(coeffs, const, problem.substitution)
            if not coeffs:
                if is_equality and const != 0:
                    return True
                if not is_equality and const > 0:
                    return True
                continue
            if is_equality:
                pivot = next((name for name, coeff in coeffs.items() if abs(coeff) == 1), None)
                if pivot is not None:
                    pivot_coeff = coeffs[pivot]
                    sub_coeffs = {
                        name: -coeff * pivot_coeff
                        for name, coeff in coeffs.items()
                        if name != pivot
                    }
                    sub_const = -const * pivot_coeff
                    problem.substitution[pivot] = (sub_coeffs, sub_const)
                    _close_substitution(problem.substitution, pivot)
                    remaining.extend(_reinjected_bounds(problem, pivot))
                    changed = True
                    continue
                if len(coeffs) == 1:
                    ((name, coeff),) = coeffs.items()
                    if const % coeff != 0:
                        return True
                    problem.substitution[name] = ({}, -const // coeff)
                    _close_substitution(problem.substitution, name)
                    remaining.extend(_reinjected_bounds(problem, name))
                    changed = True
                    continue
            if not is_equality and len(coeffs) == 1:
                ((name, coeff),) = coeffs.items()
                # coeff * x + const <= 0
                if coeff > 0:
                    bound = -const // coeff  # floor(-const / coeff)
                    if name not in problem.upper or bound < problem.upper[name]:
                        problem.upper[name] = bound
                        changed = True
                else:
                    # x >= const / (-coeff); use exact ceiling division
                    bound = _ceil_div(const, -coeff)
                    if name not in problem.lower or bound > problem.lower[name]:
                        problem.lower[name] = bound
                        changed = True
                continue
            remaining.append((coeffs, const, is_equality))
        problem.rows = remaining

    if _propagate_intervals(problem):
        return True

    for name in set(problem.lower) & set(problem.upper):
        if problem.lower[name] > problem.upper[name]:
            return True
    return False


def _reinjected_bounds(problem: _Problem, name: str) -> List[Row]:
    """Turn the recorded bounds of a newly-substituted variable back into rows.

    When ``name`` becomes defined by a substitution, any interval bounds
    derived for it earlier would otherwise be lost (the bound dictionaries are
    only compared variable-by-variable); re-expressing them as rows lets the
    next propagation sweep apply the substitution to them.
    """
    rows: List[Row] = []
    if name in problem.upper:
        rows.append(({name: 1}, -int(problem.upper.pop(name)), False))
    if name in problem.lower:
        rows.append(({name: -1}, int(problem.lower.pop(name)), False))
    return rows


def _ceil_div(numerator: int, denominator: int) -> int:
    """Exact ceiling of ``numerator / denominator`` for a positive denominator."""
    return -((-numerator) // denominator)


def _floor_div(numerator: int, denominator: int) -> int:
    """Exact floor of ``numerator / denominator`` for a positive denominator."""
    return numerator // denominator


def _close_substitution(
    substitution: Dict[str, Tuple[Dict[str, int], int]], new_var: str
) -> None:
    """Substitute *new_var* away inside every existing substitution entry."""
    for name, (coeffs, const) in list(substitution.items()):
        if name == new_var or new_var not in coeffs:
            continue
        substitution[name] = _apply_substitution(
            coeffs, const, {new_var: substitution[new_var]}
        )


# ----------------------------------------------------------------------
# Interval propagation
# ----------------------------------------------------------------------
def _term_minimum(name: str, coeff: int, problem: _Problem) -> Optional[int]:
    """Minimum of ``coeff * name`` under the current bounds (None if unbounded)."""
    bound = problem.lower.get(name) if coeff > 0 else problem.upper.get(name)
    return None if bound is None else coeff * bound


def _propagate_intervals(problem: _Problem) -> bool:
    """Interval propagation over multi-variable rows.  Returns True on conflict."""
    for _ in range(MAX_INTERVAL_ROUNDS):
        changed = False
        for coeffs, const, is_equality in problem.rows:
            directions = [(coeffs, const)]
            if is_equality:
                directions.append(({name: -c for name, c in coeffs.items()}, -const))
            for row_coeffs, row_const in directions:
                minima = {
                    name: _term_minimum(name, coeff, problem)
                    for name, coeff in row_coeffs.items()
                }
                if all(value is not None for value in minima.values()):
                    if sum(minima.values()) + row_const > 0:
                        return True
                for target, target_coeff in row_coeffs.items():
                    others_min = 0
                    unbounded = False
                    for name, value in minima.items():
                        if name == target:
                            continue
                        if value is None:
                            unbounded = True
                            break
                        others_min += value
                    if unbounded:
                        continue
                    rest = others_min + row_const
                    # target_coeff * x <= -rest
                    if target_coeff > 0:
                        bound = _floor_div(-rest, target_coeff)
                        if target not in problem.upper or bound < problem.upper[target]:
                            problem.upper[target] = bound
                            changed = True
                    else:
                        bound = _ceil_div(rest, -target_coeff)
                        if target not in problem.lower or bound > problem.lower[target]:
                            problem.lower[target] = bound
                            changed = True
        for name in set(problem.lower) & set(problem.upper):
            if problem.lower[name] > problem.upper[name]:
                return True
        if not changed:
            break
    return False


# ----------------------------------------------------------------------
# Residual solving (simplex + branch and bound)
# ----------------------------------------------------------------------
def _row_entailed(problem: _Problem, coeffs: Dict[str, int], const: int, is_equality: bool) -> bool:
    """True when the row already holds for every assignment within the bounds."""
    if is_equality:
        return False
    maximum = const
    for name, coeff in coeffs.items():
        bound = problem.upper.get(name) if coeff > 0 else problem.lower.get(name)
        if bound is None:
            return False
        maximum += coeff * bound
    return maximum <= 0


def _residual_constraints(problem: _Problem, rows: List[Row]) -> List[LinearConstraint]:
    constraints: List[LinearConstraint] = []
    names = {name for coeffs, _, _ in rows for name in coeffs}
    for coeffs, const, is_equality in rows:
        constraints.append(
            LinearConstraint(
                coeffs=tuple(sorted(coeffs.items())),
                rel="==" if is_equality else "<=",
                rhs=-const,
            )
        )
    for name in names:
        if name in problem.lower:
            constraints.append(LinearConstraint(((name, -1),), "<=", -problem.lower[name]))
        if name in problem.upper:
            constraints.append(LinearConstraint(((name, 1),), "<=", problem.upper[name]))
    return constraints


def _solve_residual(problem: _Problem) -> TheoryResult:
    live_rows = [
        row for row in problem.rows if not _row_entailed(problem, *row)
    ]
    if not live_rows:
        return TheoryResult(satisfiable=True, model=_complete_model(problem, {}))

    residual_variables = {name for coeffs, _, _ in live_rows for name in coeffs}
    if len(residual_variables) > SIMPLEX_VARIABLE_LIMIT:
        # Interval propagation found no conflict but the system is too large
        # for the exact backend: conservatively report SAT.
        return TheoryResult(
            satisfiable=True, model=_complete_model(problem, {}), approximate=True
        )

    constraints = _residual_constraints(problem, live_rows)
    result = _branch_and_bound(constraints, MAX_BRANCH_DEPTH)
    if result is None:
        return TheoryResult(satisfiable=False)
    assignment, approximate = result
    model = _complete_model(problem, {name: value for name, value in assignment.items()})
    return TheoryResult(satisfiable=True, model=model, approximate=approximate)


def _branch_and_bound(
    constraints: List[LinearConstraint], depth: int
) -> Optional[Tuple[Dict[str, Fraction], bool]]:
    """Find an integer solution to *constraints*.

    Returns ``(assignment, approximate)`` or ``None`` when infeasible.  The
    ``approximate`` flag is set when the depth limit was reached and the
    (possibly fractional) rational witness was accepted.
    """
    assignment = solve_rational(constraints)
    if assignment is None:
        return None
    fractional = [name for name, value in assignment.items() if value.denominator != 1]
    if not fractional:
        return assignment, False
    if depth <= 0:
        return assignment, True
    name = fractional[0]
    value = assignment[name]
    floor_value = math.floor(value)
    ceil_value = math.ceil(value)
    below = constraints + [LinearConstraint(((name, 1),), "<=", floor_value)]
    result = _branch_and_bound(below, depth - 1)
    if result is not None:
        return result
    above = constraints + [LinearConstraint(((name, -1),), "<=", -ceil_value)]
    return _branch_and_bound(above, depth - 1)


def _complete_model(problem: _Problem, assignment: Dict[str, Fraction]) -> Dict[str, int]:
    """Extend a residual assignment to every variable, honouring bounds."""
    model: Dict[str, Number] = dict(assignment)

    for name in set(problem.lower) | set(problem.upper):
        if name in model:
            continue
        if name in problem.lower:
            model[name] = problem.lower[name]
        else:
            model[name] = problem.upper[name]

    for name in list(problem.substitution):
        _substituted_value(name, frozenset(), problem.substitution, model)

    # Fractional values only arise from an approximate (depth-limited)
    # witness; they round down.
    return {name: math.floor(value) for name, value in model.items()}


def _substituted_value(
    name: str, in_progress: frozenset, substitution, model: Dict[str, Number]
) -> Number:
    """The value of *name* in *model*, resolving eliminated variables on demand."""
    if name in model:
        return model[name]
    if name in substitution and name not in in_progress:
        coeffs, const = substitution[name]
        total = const
        for other, coeff in coeffs.items():
            total += coeff * _substituted_value(
                other, in_progress | {name}, substitution, model
            )
        model[name] = total
        return total
    model[name] = 0
    return 0
