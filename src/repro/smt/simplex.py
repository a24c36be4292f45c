"""Rational feasibility via the two-phase simplex method.

This is the arithmetic core of the LIA theory solver: given a conjunction of
linear equalities and non-strict inequalities over rational-valued variables,
decide feasibility and produce a witness.  The method is textbook phase-1
simplex with Bland's anti-cycling rule, run on exact integer arithmetic:

* every tableau row -- the objective row included -- is a list of integer
  numerators over one positive row denominator, with the right-hand side as
  the last column, and is gcd-reduced after each update;
* a pivot adds a multiple of the pivot row only in the columns where the pivot
  row is nonzero;
* the ratio test compares ``rhs_i / a_i`` by cross-multiplication (the row
  denominators cancel), so no division happens in the loop.

Every cell denotes the same rational the classic ``Fraction`` tableau would
hold, so the pivot sequence and the witness are identical to it; ``Fraction``
only appears at the edges, in the input constraints and the returned
assignment.  The residual systems the deduction engine produces are small (a
handful of variables after constant and equality propagation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .terms import Number


@dataclass(frozen=True)
class LinearConstraint:
    """``sum(coeffs[i] * vars[i]) <rel> rhs`` with ``rel`` one of ``"<="``, ``"=="``."""

    coeffs: Tuple[Tuple[str, Number], ...]
    rel: str
    rhs: Number

    def __post_init__(self):
        if self.rel not in ("<=", "=="):
            raise ValueError(f"unsupported relation {self.rel!r}")


def _reduce(row: List[int], denominator: int) -> Tuple[List[int], int]:
    """Divide *row* and its positive *denominator* by their common gcd."""
    divisor = math.gcd(denominator, *row)
    if divisor == 1:
        return row, denominator
    return [value // divisor for value in row], denominator // divisor


def _build_tableau(
    constraints: Sequence[LinearConstraint], variables: Sequence[str]
) -> Tuple[List[List[int]], List[int], int]:
    """The phase-1 tableau rows ``A x + I a = b`` with ``b >= 0``.

    Free variables are split into a positive and a negative part, each
    ``<=`` row gets a slack column and every row an artificial column.
    Returns the numerator rows (right-hand side last), their denominators and
    the number of structural columns (before the artificial block).
    """
    var_index = {name: index for index, name in enumerate(variables)}
    n_free_cols = 2 * len(variables)
    n_slack = sum(1 for constraint in constraints if constraint.rel == "<=")
    n_rows = len(constraints)
    n_struct_cols = n_free_cols + n_slack
    n_cols = n_struct_cols + n_rows

    rows: List[List[int]] = []
    denominators: List[int] = []
    slack_cursor = 0
    for row_index, constraint in enumerate(constraints):
        scale = math.lcm(
            constraint.rhs.denominator,
            *(coeff.denominator for _, coeff in constraint.coeffs),
        )
        row = [0] * (n_cols + 1)
        for name, coeff in constraint.coeffs:
            column = 2 * var_index[name]
            value = int(coeff * scale)
            row[column] += value
            row[column + 1] -= value
        if constraint.rel == "<=":
            row[n_free_cols + slack_cursor] = scale
            slack_cursor += 1
        rhs = int(constraint.rhs * scale)
        if rhs < 0:
            row = [-value for value in row]
            rhs = -rhs
        row[n_struct_cols + row_index] = scale
        row[n_cols] = rhs
        row, scale = _reduce(row, scale)
        rows.append(row)
        denominators.append(scale)
    return rows, denominators, n_struct_cols


def solve_rational(
    constraints: Sequence[LinearConstraint],
) -> Optional[Dict[str, Fraction]]:
    """Return a rational assignment satisfying *constraints*, or ``None``.

    All variables are unrestricted in sign.
    """
    variables = sorted({name for constraint in constraints for name, _ in constraint.coeffs})
    if not constraints:
        return {}
    if not variables:
        # Ground system: every constraint must hold with an empty assignment.
        for constraint in constraints:
            if constraint.rel == "<=" and not 0 <= constraint.rhs:
                return None
            if constraint.rel == "==" and constraint.rhs != 0:
                return None
        return {}

    rows, denominators, n_struct_cols = _build_tableau(constraints, variables)
    n_rows = len(rows)
    n_cols = n_struct_cols + n_rows
    basis = [n_struct_cols + row_index for row_index in range(n_rows)]

    # Objective row: minimise sum of artificials == maximise -(sum of artificials).
    # Reduced costs start as the negated sum of the constraint rows on the
    # structural columns (standard phase-1 initialisation); its last cell is
    # the objective value, -(sum of right-hand sides).
    common = math.lcm(*denominators)
    objective = [0] * (n_cols + 1)
    for row, denominator in zip(rows, denominators):
        multiplier = common // denominator
        for column in range(n_struct_cols):
            if row[column]:
                objective[column] -= multiplier * row[column]
        objective[n_cols] -= multiplier * row[n_cols]
    objective, common = _reduce(objective, common)
    rows.append(objective)
    denominators.append(common)

    def pivot(pivot_row: int, pivot_col: int) -> None:
        # The pivot row divided by its pivot cell: the same numerators over
        # the (positive) pivot numerator, since the row denominator cancels.
        prow, pden = _reduce(rows[pivot_row], rows[pivot_row][pivot_col])
        rows[pivot_row], denominators[pivot_row] = prow, pden
        support = [column for column, value in enumerate(prow) if value]
        for row_index in range(n_rows + 1):
            if row_index == pivot_row:
                continue
            row = rows[row_index]
            factor = row[pivot_col]
            if factor == 0:
                continue
            # row/d - (factor/d) * prow/pden
            #   == (row * (pden/g) - (factor/g) * prow) / (d * pden/g)
            divisor = math.gcd(factor, pden)
            scale = pden // divisor
            factor //= divisor
            if scale != 1:
                row = [value * scale for value in row]
            for column in support:
                row[column] -= factor * prow[column]
            rows[row_index], denominators[row_index] = _reduce(
                row, denominators[row_index] * scale
            )
        basis[pivot_row] = pivot_col

    objective_index = n_rows
    max_iterations = 200 * (n_rows + n_cols)
    for _ in range(max_iterations):
        # Bland's rule: entering column is the smallest index with a negative
        # reduced cost.
        objective = rows[objective_index]
        entering = None
        for column in range(n_cols):
            if objective[column] < 0:
                entering = column
                break
        if entering is None:
            break
        # Leaving row: minimum ratio rhs / coeff, ties broken by smallest
        # basis index.  Both cells share the row denominator, so the ratio is
        # a ratio of numerators, compared by cross-multiplication.
        leaving = None
        best_rhs = best_coeff = 0
        for row_index in range(n_rows):
            row = rows[row_index]
            coeff = row[entering]
            if coeff <= 0:
                continue
            if leaving is not None:
                lhs, rhs = row[n_cols] * best_coeff, best_rhs * coeff
                if lhs > rhs or (lhs == rhs and basis[row_index] > basis[leaving]):
                    continue
            best_rhs, best_coeff, leaving = row[n_cols], coeff, row_index
        if leaving is None:
            # Unbounded phase-1 objective cannot happen (it is bounded below by 0),
            # but guard against it anyway.
            return None
        pivot(leaving, entering)
    else:  # pragma: no cover - defensive: iteration limit reached
        return None

    if rows[objective_index][n_cols] < 0:
        # The artificials could not be driven to zero: infeasible.
        return None

    # Read the solution off the basis.
    solution_columns: Dict[int, Fraction] = {}
    for row_index, column in enumerate(basis):
        if column < 2 * len(variables):
            solution_columns[column] = Fraction(rows[row_index][n_cols], denominators[row_index])

    zero = Fraction(0)
    assignment: Dict[str, Fraction] = {}
    for index, name in enumerate(variables):
        assignment[name] = solution_columns.get(2 * index, zero) - solution_columns.get(
            2 * index + 1, zero
        )
    return assignment
