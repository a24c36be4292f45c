"""A small SMT solver for quantifier-free Linear Integer Arithmetic.

The paper's deduction engine uses Z3 with the theory of Linear Integer
Arithmetic.  This package is the offline stand-in: a formula AST
(:mod:`repro.smt.terms`), a Tseitin CNF encoder, a conflict-driven SAT
solver, an LIA decision procedure built on exact simplex with branch and
bound, and a lazy DPLL(T) facade (:class:`repro.smt.Solver`).
"""

from .cnf import CNF, tseitin
from .lia import TheoryResult, check_conjunction
from .sat import SatSolver
from .simplex import LinearConstraint, solve_rational
from .solver import CheckResult, Solver, is_satisfiable
from .terms import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolVal,
    Formula,
    Int,
    LinExpr,
    Not,
    Or,
    conjoin,
    disjoin,
    formula_variables,
)

__all__ = [
    "And",
    "Atom",
    "BoolVal",
    "CheckResult",
    "CNF",
    "FALSE",
    "Formula",
    "Int",
    "LinearConstraint",
    "LinExpr",
    "Not",
    "Or",
    "SatSolver",
    "Solver",
    "TheoryResult",
    "TRUE",
    "check_conjunction",
    "conjoin",
    "disjoin",
    "formula_variables",
    "is_satisfiable",
    "solve_rational",
    "tseitin",
]
