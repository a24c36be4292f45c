"""Tseitin conversion of formulas to CNF.

The SAT engine (:mod:`repro.smt.sat`) works on clauses over propositional
variables numbered from 1; theory atoms are mapped to propositional variables
and the mapping is returned so the DPLL(T) driver can translate boolean
assignments back into conjunctions of theory literals.

A :class:`CNF` instance keeps a structural memo from subformulas to their
defining literals, so a subformula that occurs twice (atoms, conjunctions,
disjunctions) is encoded once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .terms import And, Atom, BoolVal, Formula, Not, Or


@dataclass
class CNF:
    """A CNF instance plus the mapping from atoms to propositional variables."""

    clauses: List[List[int]] = field(default_factory=list)
    num_vars: int = 0
    atom_of_var: Dict[int, Atom] = field(default_factory=dict)
    var_of_atom: Dict[Atom, int] = field(default_factory=dict)
    #: True when the input formula was trivially false (e.g. contained FALSE
    #: as a top-level conjunct); the clause set then contains the empty clause.
    trivially_false: bool = False
    #: Structural memo: subformula -> defining literal.  Encoding the same
    #: (structurally equal) subformula twice returns the same literal without
    #: adding new variables or clauses.
    literal_of: Dict[Formula, int] = field(default_factory=dict)

    def new_var(self) -> int:
        """Allocate a fresh propositional variable."""
        self.num_vars += 1
        return self.num_vars

    def var_for_atom(self, atom: Atom) -> int:
        """The propositional variable standing for *atom* (allocated on demand)."""
        if atom not in self.var_of_atom:
            var = self.new_var()
            self.var_of_atom[atom] = var
            self.atom_of_var[var] = atom
        return self.var_of_atom[atom]

    def add_clause(self, literals: List[int]) -> None:
        """Add a clause (a list of non-zero literals)."""
        self.clauses.append(list(literals))

    # ------------------------------------------------------------------
    def encode(self, formula: Formula) -> int:
        """Encode *formula*, returning a literal equivalent to it.

        The encoding is definitional in both directions (each ``And``/``Or``
        node gets a variable constrained to be *equivalent* to the operand
        combination), so a model of the clause set assigns the returned
        literal exactly the truth value of the formula.  Nothing is asserted
        here: :func:`tseitin` makes the root literal a unit clause.
        """
        cached = self.literal_of.get(formula)
        if cached is not None:
            return cached
        if isinstance(formula, BoolVal):
            var = self.new_var()
            self.add_clause([var] if formula.value else [-var])
            literal = var
        elif isinstance(formula, Atom):
            literal = self.var_for_atom(formula)
        elif isinstance(formula, Not):
            literal = -self.encode(formula.operand)
        elif isinstance(formula, And):
            literals = [self.encode(operand) for operand in formula.operands]
            out = self.new_var()
            for operand_literal in literals:
                self.add_clause([-out, operand_literal])
            self.add_clause([out] + [-operand_literal for operand_literal in literals])
            literal = out
        elif isinstance(formula, Or):
            literals = [self.encode(operand) for operand in formula.operands]
            out = self.new_var()
            for operand_literal in literals:
                self.add_clause([-operand_literal, out])
            self.add_clause([-out] + literals)
            literal = out
        else:
            raise TypeError(f"cannot encode {formula!r}")
        self.literal_of[formula] = literal
        return literal


def tseitin(formula: Formula) -> CNF:
    """Encode *formula* into CNF using the Tseitin transformation.

    Every subformula gets a definitional variable; the root variable is
    asserted as a unit clause.
    """
    cnf = CNF()
    root = cnf.encode(formula)
    cnf.add_clause([root])
    return cnf
