"""Tests for the rational simplex feasibility solver."""

import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from repro.smt.simplex import LinearConstraint, solve_rational


def le(coeffs, rhs):
    return LinearConstraint(tuple((n, Fraction(c)) for n, c in coeffs), "<=", Fraction(rhs))


def eq(coeffs, rhs):
    return LinearConstraint(tuple((n, Fraction(c)) for n, c in coeffs), "==", Fraction(rhs))


def check(constraints, assignment):
    for constraint in constraints:
        value = sum(coeff * assignment[name] for name, coeff in constraint.coeffs)
        if constraint.rel == "<=":
            assert value <= constraint.rhs
        else:
            assert value == constraint.rhs


class TestFeasibleSystems:
    def test_empty_system(self):
        assert solve_rational([]) == {}

    def test_single_bound(self):
        constraints = [le([("x", 1)], 5)]
        solution = solve_rational(constraints)
        check(constraints, solution)

    def test_two_variable_system(self):
        constraints = [le([("x", 1), ("y", 1)], 10), le([("x", -1)], -3), le([("y", -1)], -4)]
        solution = solve_rational(constraints)
        check(constraints, solution)

    def test_equalities(self):
        constraints = [eq([("x", 1), ("y", 1)], 7), eq([("x", 1), ("y", -1)], 1)]
        solution = solve_rational(constraints)
        assert solution["x"] == 4
        assert solution["y"] == 3

    def test_negative_rhs(self):
        constraints = [le([("x", 1)], -5)]
        solution = solve_rational(constraints)
        assert solution["x"] <= -5

    def test_free_variables_can_be_negative(self):
        constraints = [eq([("x", 1)], -3)]
        assert solve_rational(constraints)["x"] == -3

    def test_fractional_solution(self):
        constraints = [eq([("x", 2)], 1)]
        assert solve_rational(constraints)["x"] == Fraction(1, 2)

    def test_ground_consistent(self):
        assert solve_rational([le([], 0)]) == {}


class TestInfeasibleSystems:
    def test_contradictory_bounds(self):
        assert solve_rational([le([("x", 1)], 1), le([("x", -1)], -2)]) is None

    def test_contradictory_equalities(self):
        assert solve_rational([eq([("x", 1)], 1), eq([("x", 1)], 2)]) is None

    def test_ground_contradiction(self):
        assert solve_rational([eq([], 1)]) is None

    def test_three_way_conflict(self):
        constraints = [
            le([("x", 1), ("y", -1)], -1),   # x <= y - 1
            le([("y", 1), ("z", -1)], -1),   # y <= z - 1
            le([("z", 1), ("x", -1)], -1),   # z <= x - 1 (cycle -> infeasible)
        ]
        assert solve_rational(constraints) is None


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-20, 20)),
            min_size=1,
            max_size=8,
        )
    )
    def test_solutions_satisfy_constraints(self, raw):
        constraints = [le([("x", a), ("y", b)], c) for a, b, c in raw if (a, b) != (0, 0)]
        if not constraints:
            return
        solution = solve_rational(constraints)
        if solution is not None:
            full = {"x": solution.get("x", Fraction(0)), "y": solution.get("y", Fraction(0))}
            for constraint in constraints:
                value = sum(coeff * full[name] for name, coeff in constraint.coeffs)
                assert value <= constraint.rhs

    @given(st.integers(-30, 30), st.integers(1, 10))
    def test_point_systems_are_feasible(self, value, scale):
        constraints = [eq([("x", scale)], scale * value)]
        solution = solve_rational(constraints)
        assert solution is not None
        assert solution["x"] == value


# ----------------------------------------------------------------------
# Differential oracle: the classic dense ``Fraction`` tableau
# ----------------------------------------------------------------------
def dense_fraction_simplex(constraints):
    """Phase-1 simplex on a dense tableau of ``Fraction`` cells.

    The reference implementation ``solve_rational`` must agree with cell for
    cell: same Bland entering rule, same minimum-ratio leaving rule with the
    smallest-basis-index tie-break, hence the same pivots and witness.
    """
    variables = sorted({name for constraint in constraints for name, _ in constraint.coeffs})
    if not constraints:
        return {}
    if not variables:
        for constraint in constraints:
            if constraint.rel == "<=" and not Fraction(0) <= constraint.rhs:
                return None
            if constraint.rel == "==" and constraint.rhs != 0:
                return None
        return {}

    var_index = {name: index for index, name in enumerate(variables)}
    n_free_cols = 2 * len(variables)
    n_slack = sum(1 for constraint in constraints if constraint.rel == "<=")
    n_rows = len(constraints)
    n_struct_cols = n_free_cols + n_slack
    matrix, rhs = [], []
    slack_cursor = 0
    for constraint in constraints:
        row = [Fraction(0)] * n_struct_cols
        for name, coeff in constraint.coeffs:
            column = var_index[name]
            row[2 * column] += coeff
            row[2 * column + 1] -= coeff
        b = Fraction(constraint.rhs)
        if constraint.rel == "<=":
            row[n_free_cols + slack_cursor] = Fraction(1)
            slack_cursor += 1
        if b < 0:
            row = [-value for value in row]
            b = -b
        matrix.append(row)
        rhs.append(b)

    n_cols = n_struct_cols + n_rows
    tableau = [row + [Fraction(0)] * n_rows for row in matrix]
    for row_index in range(n_rows):
        tableau[row_index][n_struct_cols + row_index] = Fraction(1)
    basis = [n_struct_cols + row_index for row_index in range(n_rows)]
    objective = [Fraction(0)] * n_cols
    objective_value = Fraction(0)
    for row_index in range(n_rows):
        for column in range(n_struct_cols):
            objective[column] -= tableau[row_index][column]
        objective_value -= rhs[row_index]

    def pivot(pivot_row, pivot_col):
        nonlocal objective_value
        pivot_value = tableau[pivot_row][pivot_col]
        tableau[pivot_row] = [value / pivot_value for value in tableau[pivot_row]]
        rhs[pivot_row] /= pivot_value
        for row_index in range(n_rows):
            if row_index == pivot_row:
                continue
            factor = tableau[row_index][pivot_col]
            if factor == 0:
                continue
            tableau[row_index] = [
                value - factor * pivot_cell
                for value, pivot_cell in zip(tableau[row_index], tableau[pivot_row])
            ]
            rhs[row_index] -= factor * rhs[pivot_row]
        factor = objective[pivot_col]
        if factor != 0:
            for column in range(n_cols):
                objective[column] -= factor * tableau[pivot_row][column]
            objective_value -= factor * rhs[pivot_row]
        basis[pivot_row] = pivot_col

    for _ in range(200 * (n_rows + n_cols)):
        entering = next((c for c in range(n_cols) if objective[c] < 0), None)
        if entering is None:
            break
        leaving = None
        best_ratio = None
        for row_index in range(n_rows):
            coeff = tableau[row_index][entering]
            if coeff > 0:
                ratio = rhs[row_index] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[row_index] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = row_index
        if leaving is None:
            return None
        pivot(leaving, entering)
    else:
        return None

    if objective_value < 0:
        return None
    solution_columns = [Fraction(0)] * n_cols
    for row_index, column in enumerate(basis):
        solution_columns[column] = rhs[row_index]
    return {
        name: solution_columns[2 * index] - solution_columns[2 * index + 1]
        for index, name in enumerate(variables)
    }


def random_system(rng):
    """A random mixed ``<=``/``==`` system over 1-6 variables."""
    names = [f"v{index}" for index in range(rng.randint(1, 6))]

    def number(low, high):
        value = Fraction(rng.randint(low, high))
        if rng.random() < 0.3:
            value /= rng.choice([2, 3, 4, 5, 6, 7])
        return value

    constraints = []
    for _ in range(rng.randint(1, 7)):
        chosen = rng.sample(names, rng.randint(1, len(names)))
        coeffs = tuple((name, number(-6, 6)) for name in chosen)
        rel = "==" if rng.random() < 0.3 else "<="
        constraints.append(LinearConstraint(coeffs, rel, number(-12, 12)))
    return constraints


class TestDifferential:
    SEED = 20170618
    SYSTEMS = 2500

    def test_matches_dense_fraction_tableau(self):
        rng = random.Random(self.SEED)
        outcomes = {"sat": 0, "unsat": 0}
        for index in range(self.SYSTEMS):
            constraints = random_system(rng)
            expected = dense_fraction_simplex(constraints)
            actual = solve_rational(constraints)
            assert actual == expected, (self.SEED, index, constraints)
            if actual is not None:
                assert all(isinstance(value, Fraction) for value in actual.values())
                check(constraints, actual)
            outcomes["sat" if actual is not None else "unsat"] += 1
        # The generator must exercise both answers, not just one.
        assert min(outcomes.values()) > self.SYSTEMS // 10, outcomes

    def test_integer_inputs_match_fraction_inputs(self):
        rng = random.Random(self.SEED + 1)
        for _ in range(300):
            constraints = [
                LinearConstraint(
                    tuple((name, Fraction(rng.randint(-5, 5))) for name in ("x", "y")),
                    rng.choice(["<=", "=="]),
                    Fraction(rng.randint(-10, 10)),
                )
                for _ in range(rng.randint(1, 5))
            ]
            as_ints = [
                LinearConstraint(
                    tuple((name, int(coeff)) for name, coeff in constraint.coeffs),
                    constraint.rel,
                    int(constraint.rhs),
                )
                for constraint in constraints
            ]
            assert solve_rational(as_ints) == solve_rational(constraints)
