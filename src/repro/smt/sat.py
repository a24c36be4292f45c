"""A small conflict-driven SAT solver.

The propositional engine behind the lazy DPLL(T) loop: DPLL search with unit
propagation, first-UIP clause learning and non-chronological backjumping.
The instances produced by the deduction engine are tiny (the boolean
structure of a hypothesis specification is a handful of disjunctions), so the
solver favours clarity over the constant-factor tricks of industrial solvers:
propagation scans clause counters rather than maintaining watched literals.

The clause database (and the clauses learned during earlier calls) persists
across :meth:`solve` calls, so the lazy loop adds each theory-blocking clause
and asks again.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


class SatSolver:
    """CDCL-style SAT solver over clauses of non-zero integer literals."""

    def __init__(self, num_vars: int, clauses: Sequence[Sequence[int]]) -> None:
        self.num_vars = num_vars
        self.clauses: List[List[int]] = []
        #: assignment[var] is True/False/None
        self.assignment: List[Optional[bool]] = [None] * (num_vars + 1)
        #: decision level at which each variable was assigned
        self.level: List[int] = [0] * (num_vars + 1)
        #: index into self.clauses of the clause that implied the assignment
        #: (None for decisions)
        self.reason: List[Optional[int]] = [None] * (num_vars + 1)
        self.trail: List[int] = []
        self.decision_level = 0
        self._empty_clause = False
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    # Clause management
    # ------------------------------------------------------------------
    def add_clause(self, clause: Sequence[int]) -> None:
        """Add a clause.  May be called between :meth:`solve` invocations."""
        literals = sorted(set(clause), key=abs)
        if not literals:
            self._empty_clause = True
            return
        for literal in literals:
            if abs(literal) > self.num_vars:
                self._grow(abs(literal))
        self.clauses.append(list(literals))

    def _grow(self, new_num_vars: int) -> None:
        extra = new_num_vars - self.num_vars
        self.assignment.extend([None] * extra)
        self.level.extend([0] * extra)
        self.reason.extend([None] * extra)
        self.num_vars = new_num_vars

    # ------------------------------------------------------------------
    # Assignment helpers
    # ------------------------------------------------------------------
    def _value(self, literal: int) -> Optional[bool]:
        value = self.assignment[abs(literal)]
        if value is None:
            return None
        return value if literal > 0 else not value

    def _assign(self, literal: int, reason: Optional[int]) -> None:
        variable = abs(literal)
        self.assignment[variable] = literal > 0
        self.level[variable] = self.decision_level
        self.reason[variable] = reason
        self.trail.append(literal)

    def _unassign_to(self, trail_length: int) -> None:
        while len(self.trail) > trail_length:
            literal = self.trail.pop()
            self.assignment[abs(literal)] = None

    # ------------------------------------------------------------------
    # Unit propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> Optional[int]:
        """Propagate units; return the index of a conflicting clause or ``None``."""
        changed = True
        while changed:
            changed = False
            for index, clause in enumerate(self.clauses):
                unassigned: Optional[int] = None
                satisfied = False
                unassigned_count = 0
                for literal in clause:
                    value = self._value(literal)
                    if value is True:
                        satisfied = True
                        break
                    if value is None:
                        unassigned_count += 1
                        unassigned = literal
                if satisfied:
                    continue
                if unassigned_count == 0:
                    return index
                if unassigned_count == 1:
                    self._assign(unassigned, index)
                    changed = True
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict_index: int) -> (List[int], int):
        if self.decision_level == 0:
            return [], -1

        learned: Dict[int, bool] = {}
        seen = set()
        counter = 0
        clause = list(self.clauses[conflict_index])
        trail_index = len(self.trail) - 1
        uip_literal: Optional[int] = None

        while True:
            for literal in clause:
                variable = abs(literal)
                if variable in seen or self.level[variable] == 0:
                    continue
                seen.add(variable)
                if self.level[variable] == self.decision_level:
                    counter += 1
                else:
                    learned[literal] = True

            # Find the next trail literal (at the current level) to resolve on.
            while True:
                literal = self.trail[trail_index]
                trail_index -= 1
                if abs(literal) in seen:
                    break
            counter -= 1
            if counter == 0:
                uip_literal = literal
                break
            reason_index = self.reason[abs(literal)]
            clause = [l for l in self.clauses[reason_index] if l != literal]

        learned_clause = [-uip_literal] + list(learned.keys())
        if len(learned_clause) == 1:
            backjump_level = 0
        else:
            backjump_level = max(self.level[abs(literal)] for literal in learned)
        return learned_clause, backjump_level

    def _backjump(self, level: int) -> None:
        cutoff = 0
        for index, literal in enumerate(self.trail):
            if self.level[abs(literal)] > level:
                cutoff = index
                break
        else:
            cutoff = len(self.trail)
        self._unassign_to(cutoff)
        self.decision_level = level

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _pick_branch_literal(self) -> Optional[int]:
        for variable in range(1, self.num_vars + 1):
            if self.assignment[variable] is None:
                return variable
        return None

    def solve(self) -> Optional[Dict[int, bool]]:
        """Return a satisfying assignment ``{var: bool}`` or ``None`` if UNSAT."""
        if self._empty_clause:
            return None
        # Reset any state left over from a previous call.
        self._unassign_to(0)
        self.decision_level = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                if self.decision_level == 0:
                    return None
                learned_clause, backjump_level = self._analyze(conflict)
                if backjump_level < 0:
                    return None
                self.add_clause(learned_clause)
                self._backjump(backjump_level)
                continue
            literal = self._pick_branch_literal()
            if literal is None:
                return {
                    variable: bool(self.assignment[variable])
                    for variable in range(1, self.num_vars + 1)
                }
            self.decision_level += 1
            self._assign(literal, None)
