"""The public SMT solver facade (lazy DPLL(T) over LIA).

:class:`Solver` mimics the small slice of the z3 API the paper's deduction
engine needs: assert formulas, ask for satisfiability and read back a model.

Two solving strategies are used for :meth:`Solver.check`:

* If the asserted formula is a pure conjunction of atoms (the common case for
  hypothesis specifications over a single input table), the LIA theory solver
  is called directly.
* Otherwise the boolean structure is Tseitin-encoded, the SAT engine
  enumerates boolean models, and each model's theory literals are checked by
  the LIA solver; theory conflicts are returned to the SAT engine as blocking
  clauses (lazy SMT).
"""

from __future__ import annotations

import enum
import time
from typing import Dict, Iterable, List, Optional, Tuple

from ..engine.cache import CacheStats, LRUCache
from .cnf import CNF, tseitin
from .lia import TheoryResult, check_conjunction
from .sat import SatSolver
from .terms import And, Atom, BoolVal, Formula, Or, conjoin

#: Upper bound on theory-refinement rounds of the lazy loop; reaching it
#: answers UNKNOWN, which a deduction engine that prunes only on UNSAT
#: treats as SAT.
MAX_THEORY_ROUNDS = 200

#: Default bound of the process-wide formula -> verdict cache.
FORMULA_CACHE_SIZE = 16384

#: Process-wide memo of ``check`` verdicts.  Formulas are immutable and
#: hashable, and satisfiability is a pure function of the formula, so results
#: can be shared across Solver instances (and across synthesis runs -- the
#: deduction engine asks near-identical queries for structurally similar
#: hypotheses on every benchmark).  Each entry is a ``(result, model)`` pair.
_formula_cache: "LRUCache[Formula, Tuple[CheckResult, Optional[Dict[str, int]]]]" = None  # set below


def formula_cache_stats() -> CacheStats:
    """Hit/miss counters of the process-wide formula cache."""
    return _formula_cache.stats


def clear_formula_cache() -> None:
    """Drop all cached verdicts and reset the counters (mainly for tests)."""
    _formula_cache.clear()
    _formula_cache.stats.clear()


def configure_formula_cache(maxsize: Optional[int]) -> None:
    """Resize the formula cache (``0`` disables it, ``None`` unbounds it)."""
    global _formula_cache
    _formula_cache = LRUCache(maxsize=maxsize)


def new_formula_cache() -> "LRUCache":
    """A fresh formula cache sized like the currently installed one.

    Mirroring the installed cache's bound (rather than the default) keeps
    eviction behaviour -- and therefore the per-run cache counters --
    identical between per-task isolated caches and a process-wide cache a
    caller resized via :func:`configure_formula_cache`.
    """
    return LRUCache(maxsize=_formula_cache.maxsize)


def formula_cache_lookup(
    formula: Formula,
) -> Optional[Tuple["CheckResult", Optional[Dict[str, int]]]]:
    """Probe the process-wide verdict cache, counting a hit or a miss.

    :meth:`Solver.check` probes through this function (looked up on the
    module at call time), so wrapping it observes every cache probe.
    """
    return _formula_cache.get(formula)


def formula_cache_store(
    formula: Formula, result: "CheckResult", model: Optional[Dict[str, int]] = None
) -> None:
    """Record a decided verdict (and its model) in the process-wide cache."""
    _formula_cache.put(formula, (result, dict(model) if model is not None else None))


def install_formula_cache(cache: "LRUCache") -> "LRUCache":
    """Swap the process-wide formula cache, returning the previous one.

    Used by :class:`repro.engine.context.TaskContext` to give each session
    its own cache: a kernel's steps then see exactly the cache state a
    dedicated process would have seen, which keeps the per-run cache
    counters independent of what else ran in the process.
    """
    global _formula_cache
    previous = _formula_cache
    _formula_cache = cache
    return previous


configure_formula_cache(FORMULA_CACHE_SIZE)


class CheckResult(enum.Enum):
    """Result of :meth:`Solver.check`."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class Solver:
    """An SMT solver for quantifier-free LIA."""

    def __init__(self) -> None:
        self._assertions: List[Formula] = []
        self._model: Optional[Dict[str, int]] = None
        self._reason_unknown: Optional[str] = None

    def add(self, *formulas: Formula) -> None:
        """Assert one or more formulas."""
        self._assertions.extend(formulas)

    def assertions(self) -> Tuple[Formula, ...]:
        """The formulas asserted so far, in order."""
        return tuple(self._assertions)

    def reset(self) -> None:
        """Remove all assertions."""
        self._assertions = []
        self._model = None
        self._reason_unknown = None

    def model(self) -> Optional[Dict[str, int]]:
        """The model found by the last successful check."""
        return self._model

    def reason_unknown(self) -> Optional[str]:
        """Why the last check answered UNKNOWN (``None`` if it did not).

        ``"timeout"``: the caller's deadline passed between two theory
        rounds; such a verdict is never cached.  ``"max theory rounds"``:
        the lazy loop spent :data:`MAX_THEORY_ROUNDS`.
        """
        return self._reason_unknown

    # ------------------------------------------------------------------
    def check(self, deadline: Optional[float] = None) -> CheckResult:
        """Decide satisfiability of the conjunction of all assertions.

        Verdicts are memoised in the process-wide formula cache: two solver
        instances asserting the same (structurally equal) formula share one
        underlying satisfiability check.  *deadline* (a ``time.monotonic()``
        value) bounds the lazy loop: once it has passed, the check answers
        UNKNOWN with :meth:`reason_unknown` ``"timeout"`` and caches nothing.
        """
        self._model = None
        self._reason_unknown = None
        formula = conjoin(self.assertions())
        if isinstance(formula, BoolVal):
            return CheckResult.SAT if formula.value else CheckResult.UNSAT

        cached = formula_cache_lookup(formula)
        if cached is not None:
            result, model = cached
            self._model = dict(model) if model is not None else None
            return result
        result = self._check_uncached(formula, deadline)
        if self._reason_unknown != "timeout":
            formula_cache_store(formula, result, self._model)
        return result

    def _check_uncached(
        self, formula: Formula, deadline: Optional[float]
    ) -> CheckResult:
        flat = _as_conjunction_of_atoms(formula)
        if flat is not None:
            result = check_conjunction(flat)
            return self._finish(result)

        clausal = _as_clausal_conjunction(formula)
        if clausal is not None:
            atoms, clauses = clausal
            result = _check_clausal(atoms, clauses)
            if result is None:
                return CheckResult.UNSAT
            return self._finish(result)
        return self._solve_lazy(formula, deadline)

    # Name stub: nothing calls it.  It stays only because perfbench/tracer.py
    # wraps it by name (``patch(solver.Solver, "check_assumptions",
    # "smt.check")``) until the benchmark change of ROADMAP item 1a drops
    # that line.
    def check_assumptions(self, *args, **kwargs) -> CheckResult:
        raise NotImplementedError("solving under assumptions was removed")

    # ------------------------------------------------------------------
    def _finish(self, result: TheoryResult) -> CheckResult:
        if not result.satisfiable:
            return CheckResult.UNSAT
        self._model = result.model
        return CheckResult.SAT

    def _unknown(self, reason: str) -> CheckResult:
        self._reason_unknown = reason
        return CheckResult.UNKNOWN

    def _solve_lazy(self, formula: Formula, deadline: Optional[float]) -> CheckResult:
        cnf = tseitin(formula)
        sat = SatSolver(cnf.num_vars, cnf.clauses)
        theory_vars = sorted(cnf.atom_of_var)
        for _ in range(MAX_THEORY_ROUNDS):
            assignment = sat.solve()
            if assignment is None:
                return CheckResult.UNSAT
            atoms, disequalities, blocking = _theory_literals(
                cnf, assignment, theory_vars
            )
            result = _case_split(atoms, disequalities)
            if result.satisfiable:
                return self._finish(result)
            # Theory conflict: block this boolean assignment (restricted to the
            # theory variables) and ask the SAT engine for another one.
            if not blocking:
                return CheckResult.UNSAT
            sat.add_clause(blocking)
            if _expired(deadline):
                return self._unknown("timeout")
        return self._unknown("max theory rounds")


def _expired(deadline: Optional[float]) -> bool:
    return deadline is not None and time.monotonic() > deadline


def _theory_literals(cnf: CNF, assignment: Dict[int, bool], theory_vars):
    """Split a boolean model into theory atoms, disequalities and a blocker.

    Positive atoms are collected directly; a false ``<=`` atom contributes
    its (single) negation; a false equality is a disequality handled by case
    splitting.  The blocking clause covers exactly the theory variables that
    were read, so adding it excludes only this theory-refuted assignment.
    """
    atoms: List[Atom] = []
    disequalities: List[Atom] = []
    blocking: List[int] = []
    for variable in theory_vars:
        value = assignment.get(variable)
        if value is None:
            continue
        atom = cnf.atom_of_var[variable]
        blocking.append(-variable if value else variable)
        if value:
            atoms.append(atom)
        elif atom.op == "<=":
            atoms.extend(atom.negated_atoms())
        else:
            disequalities.append(atom)
    return atoms, disequalities, blocking


def _case_split(atoms: List[Atom], disequalities: List[Atom]) -> TheoryResult:
    if not disequalities:
        return check_conjunction(atoms)
    head, *rest = disequalities
    for branch in head.negated_atoms():
        result = _case_split(atoms + [branch], rest)
        if result.satisfiable:
            return result
    return TheoryResult(satisfiable=False)


#: Maximum number of atomic disjunctions handled by the case-split fast path.
MAX_CASE_SPLIT_CLAUSES = 8


def _as_clausal_conjunction(formula: Formula):
    """Recognise ``And(Atom | Or(Atom...), ...)`` formulas.

    The deduction queries of the synthesizer have exactly this shape: a large
    conjunction of atoms plus a handful of small disjunctions (the
    ``Min``/``Max`` bounds of ``inner_join`` and the input-binding constraint
    :math:`\\varphi_{in}` when there are several input tables).  For those, a
    direct case split over the disjunctions is far cheaper than the full
    Tseitin/SAT pipeline.  Returns ``(atoms, clauses)`` or ``None``.
    """
    atoms: List[Atom] = []
    clauses: List[List[List[Atom]]] = []
    if _collect_clausal(formula, atoms, clauses) and len(clauses) <= MAX_CASE_SPLIT_CLAUSES:
        return atoms, clauses
    return None


def _collect_clausal(
    node: Formula, atoms: List[Atom], clauses: List[List[List[Atom]]]
) -> bool:
    """Add *node*'s atoms and clauses; ``False`` if it is not clausal."""
    if isinstance(node, Atom):
        atoms.append(node)
        return True
    if isinstance(node, BoolVal):
        return node.value
    if isinstance(node, And):
        return all(_collect_clausal(operand, atoms, clauses) for operand in node.operands)
    if isinstance(node, Or):
        branches = _clause_branches(node)
        if branches is None:
            return False
        clauses.append(branches)
        return True
    return False


def _clause_branches(node: Or) -> Optional[List[List[Atom]]]:
    """Each branch of a disjunction as a conjunction of atoms."""
    branches: List[List[Atom]] = []
    for operand in node.operands:
        if isinstance(operand, Atom):
            branches.append([operand])
        elif isinstance(operand, And):
            flat = _as_conjunction_of_atoms(operand)
            if flat is None:
                return None
            branches.append(flat)
        elif isinstance(operand, BoolVal):
            if operand.value:
                branches.append([])
        else:
            return None
    return branches


def _check_clausal(atoms: List[Atom], clauses) -> Optional[TheoryResult]:
    """Case split over the clauses; return a SAT result or ``None`` for UNSAT."""
    if not clauses:
        result = check_conjunction(atoms)
        return result if result.satisfiable else None
    head, *rest = clauses
    for branch in head:
        result = _check_clausal(atoms + branch, rest)
        if result is not None:
            return result
    return None


def _as_conjunction_of_atoms(formula: Formula) -> Optional[List[Atom]]:
    """Flatten *formula* into a list of atoms, or ``None`` if it has boolean structure."""
    atoms: List[Atom] = []
    if _collect_atoms(formula, atoms):
        return atoms
    return None


def _collect_atoms(node: Formula, atoms: List[Atom]) -> bool:
    """Add *node*'s atoms; ``False`` if it has boolean structure."""
    if isinstance(node, Atom):
        atoms.append(node)
        return True
    if isinstance(node, BoolVal):
        return node.value
    if isinstance(node, And):
        return all(_collect_atoms(operand, atoms) for operand in node.operands)
    return False


def is_satisfiable(formulas: Iterable[Formula]) -> bool:
    """Convenience wrapper: SAT/UNKNOWN count as satisfiable (sound pruning)."""
    solver = Solver()
    solver.add(*formulas)
    return solver.check() is not CheckResult.UNSAT
