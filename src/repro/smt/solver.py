"""The public SMT solver facade (lazy DPLL(T) over LIA).

:class:`Solver` mimics the small slice of the z3 API the paper's deduction
engine needs: assert formulas (with push/pop scopes), ask for satisfiability,
read back a model, solve under named assumptions, and extract an unsat core.

Two solving strategies are used for plain :meth:`Solver.check`:

* If the asserted formula is a pure conjunction of atoms (the common case for
  hypothesis specifications over a single input table), the LIA theory solver
  is called directly.
* Otherwise the boolean structure is Tseitin-encoded, the SAT engine
  enumerates boolean models, and each model's theory literals are checked by
  the LIA solver; theory conflicts are returned to the SAT engine as blocking
  clauses (lazy SMT).

:meth:`Solver.check_assumptions` additionally maintains a *persistent
incremental session*: one CNF database shared across calls (Tseitin variables
are reused through the structural memo of :class:`repro.smt.cnf.CNF`), one
SAT engine that keeps its learned clauses, and per-call assumption literals.
On UNSAT, :meth:`Solver.unsat_core` names the assumptions the refutation
used, and :meth:`Solver.minimize_core` shrinks that set by deletion.  The
deduction engine mines these cores into blocking lemmas.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..engine.cache import CacheStats, LRUCache
from .cnf import CNF, tseitin
from .lia import TheoryResult, check_conjunction
from .sat import SatSolver
from .terms import And, Atom, BoolVal, Formula, Or, conjoin, formula_atoms

#: Upper bound on theory-refinement rounds of the lazy loop; reaching it
#: answers UNKNOWN, which a deduction engine that prunes only on UNSAT
#: treats as SAT.
MAX_THEORY_ROUNDS = 200

#: Default bound of the process-wide formula -> verdict cache.
FORMULA_CACHE_SIZE = 16384

#: Clause-count bound of one incremental session.  A session that outgrows it
#: is rebuilt from the active assertions on the next ``check_assumptions``
#: call -- the propositional engine scans the whole clause database during
#: propagation, so an ever-growing database would make every later query pay
#: for every formula ever assumed.  The bound is a clause count (not a time
#: budget) so session recycling is deterministic.
SESSION_CLAUSE_LIMIT = 4096

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


@dataclass
class IncrementalStats:
    """Counters describing one solver's incremental-session activity."""

    #: ``check_assumptions`` calls answered by the session.
    checks: int = 0
    #: SAT-engine invocations (one per theory-refinement round).
    sat_solves: int = 0
    #: Top-level formulas encoded into the persistent CNF for the first time.
    formulas_encoded: int = 0
    #: Top-level formulas whose encoding was reused from an earlier call.
    formulas_reused: int = 0
    #: Theory conflicts turned into persistent blocking clauses.
    theory_conflicts: int = 0
    #: Case-split decisions made by the structured fast path (including the
    #: deletion probes of its built-in core minimization).
    theory_core_checks: int = 0
    #: Times the session hit :data:`SESSION_CLAUSE_LIMIT` and was rebuilt.
    recycles: int = 0


class _Session:
    """Persistent incremental state behind :meth:`Solver.check_assumptions`."""

    __slots__ = ("cnf", "sat", "_fed", "_roots", "_atom_vars", "_flat")

    def __init__(self) -> None:
        self.cnf = CNF()
        self.sat = SatSolver(0, [])
        #: Watermark into ``cnf.clauses`` of what the SAT engine has seen.
        self._fed = 0
        #: Top-level formula -> root literal (the assumption literal).
        self._roots: Dict[Formula, int] = {}
        #: Top-level formula -> propositional variables of its theory atoms.
        self._atom_vars: Dict[Formula, Tuple[int, ...]] = {}
        #: Top-level formula -> (atoms, clauses) clausal flattening, or None
        #: when the formula has irreducible boolean structure.
        self._flat: Dict[Formula, Optional[tuple]] = {}

    def flatten(self, formula: Formula):
        """Cached clausal flattening; returns ``(parts_or_None, was_cached)``.

        No counters are touched here: the caller attributes encode/reuse to
        whichever strategy actually serves the query (the lazy path counts
        through :meth:`literal_for` instead).
        """
        if formula in self._flat:
            return self._flat[formula], True
        result = _as_clausal_conjunction(formula)
        self._flat[formula] = result
        return result, False

    def literal_for(self, formula: Formula, stats: IncrementalStats) -> int:
        """The (cached) root literal standing for *formula*."""
        literal = self._roots.get(formula)
        if literal is not None:
            stats.formulas_reused += 1
            return literal
        literal = self.cnf.encode(formula)
        self._roots[formula] = literal
        stats.formulas_encoded += 1
        return literal

    def atom_vars_for(self, formula: Formula) -> Tuple[int, ...]:
        """Propositional variables of the theory atoms of *formula*.

        Must be called after :meth:`literal_for` so the atoms are encoded.
        """
        cached = self._atom_vars.get(formula)
        if cached is None:
            cached = tuple(
                self.cnf.var_of_atom[atom] for atom in formula_atoms(formula)
            )
            self._atom_vars[formula] = cached
        return cached

    def feed_clauses(self) -> None:
        """Hand any newly encoded clauses to the persistent SAT engine."""
        for clause in self.cnf.clauses[self._fed:]:
            self.sat.add_clause(clause)
        self._fed = len(self.cnf.clauses)


#: Assumptions accepted by ``check_assumptions``: a name->formula mapping or
#: an iterable of (name, formula) pairs.  Names must be hashable.
NamedAssumptions = Union[Mapping[object, Formula], Iterable[Tuple[object, Formula]]]

#: Sentinel: the fast path's case split would exceed its clause budget.
_TOO_MANY_CLAUSES = object()


class Solver:
    """An incremental SMT solver for quantifier-free LIA."""

    def __init__(self) -> None:
        self._scopes: List[List[Formula]] = [[]]
        self._model: Optional[Dict[str, int]] = None
        self._session: Optional[_Session] = None
        self._core: Tuple[object, ...] = ()
        self._core_minimal = False
        self._last_assumptions: Dict[object, Formula] = {}
        self._reason_unknown: Optional[str] = None
        self.incremental_stats = IncrementalStats()

    def add(self, *formulas: Formula) -> None:
        """Assert one or more formulas in the current scope."""
        self._scopes[-1].extend(formulas)

    def assertions(self) -> Tuple[Formula, ...]:
        """The formulas asserted so far (all scopes, outermost first)."""
        return tuple(formula for scope in self._scopes for formula in scope)

    # ------------------------------------------------------------------
    # Scopes
    # ------------------------------------------------------------------
    def push(self) -> None:
        """Open a new assertion scope."""
        self._scopes.append([])

    def pop(self) -> None:
        """Discard the most recent scope and every assertion made in it.

        The incremental session keeps the popped formulas' clauses in its
        database (guarded by their root literals, which are simply no longer
        assumed), so re-asserting the same formulas later costs nothing.
        """
        if len(self._scopes) == 1:
            raise IndexError("cannot pop the outermost assertion scope")
        self._scopes.pop()
        self._model = None

    def num_scopes(self) -> int:
        """How many scopes are currently open (0 = only the outermost)."""
        return len(self._scopes) - 1

    def reset(self) -> None:
        """Remove all assertions, scopes, and the incremental session."""
        self._scopes = [[]]
        self._model = None
        self._session = None
        self._core = ()
        self._core_minimal = False
        self._last_assumptions = {}
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

    # ------------------------------------------------------------------
    # Solving under assumptions (the incremental session)
    # ------------------------------------------------------------------
    def check_assumptions(
        self,
        assumptions: NamedAssumptions = (),
        known_unsat: bool = False,
        deadline: Optional[float] = None,
    ) -> CheckResult:
        """Decide the active assertions conjoined with named *assumptions*.

        The assertions of every open scope stay asserted; each assumption is
        attached only for this call.  The session (clausal flattenings, the
        clause database with its learned clauses and theory lemmas, atom
        variables) persists across calls, so consecutive queries that share
        structure pay only for their differences.

        Two strategies are used, mirroring :meth:`check`:

        * When every active formula flattens to atoms plus a few small
          disjunctions (the shape of every deduction query), a direct case
          split decides the conjunction, and on UNSAT the core is computed by
          deletion over the named groups -- yielding an already-minimal core.
        * Otherwise the formulas are Tseitin-encoded into the persistent
          database, their root literals become SAT-engine assumptions, and on
          UNSAT the engine's final conflict set names the core.

        On UNSAT, :meth:`unsat_core` returns the names involved.

        ``known_unsat=True`` is an optimization hint from a caller that has
        already established unsatisfiability of exactly this conjunction by
        other means (the deduction engine replays queries its monolithic
        check just refuted): the fast path skips the confirming solve and
        goes straight to core extraction.  A wrong hint yields a wrong UNSAT
        verdict -- the hint shifts the proof obligation to the caller.

        *deadline* bounds the lazy path exactly as in :meth:`check`.
        """
        named: Dict[object, Formula] = dict(assumptions)
        self._model = None
        self._reason_unknown = None
        self._core = ()
        self._core_minimal = False
        self._last_assumptions = named
        stats = self.incremental_stats
        stats.checks += 1

        session = self._session
        # The recycle bound must see every clause the SAT engine scans during
        # propagation: the encoded CNF *plus* what was added directly to the
        # engine (learned clauses, theory blocking clauses) -- on lazy-path
        # workloads the latter dominate while the CNF barely grows.
        if session is not None and (
            len(session.cnf.clauses) > SESSION_CLAUSE_LIMIT
            or len(session.sat.clauses) > SESSION_CLAUSE_LIMIT
        ):
            session = None
            stats.recycles += 1
        if session is None:
            session = self._session = _Session()

        base = self.assertions()
        clausal = self._check_assumptions_clausal(
            session, base, named, stats, known_unsat
        )
        if clausal is not None:
            return clausal
        return self._check_assumptions_lazy(session, base, named, stats, deadline)

    def _check_assumptions_clausal(
        self,
        session: _Session,
        base: Tuple[Formula, ...],
        named: Dict[object, Formula],
        stats: IncrementalStats,
        known_unsat: bool = False,
    ) -> Optional[CheckResult]:
        """The structured fast path; ``None`` when the shape does not fit."""
        flattened = [
            (formula, *session.flatten(formula))
            for formula in (*base, *named.values())
        ]
        if any(part is None for _, part, _ in flattened):
            return None
        for _, _, was_cached in flattened:
            if was_cached:
                stats.formulas_reused += 1
            else:
                stats.formulas_encoded += 1
        parts_of = {formula: part for formula, part, _ in flattened}
        base_parts = [parts_of[formula] for formula in base]
        named_parts = {name: parts_of[formula] for name, formula in named.items()}

        def decide(active_names, exact: bool) -> Optional[TheoryResult]:
            atoms: List[Atom] = []
            clauses: List[list] = []
            for part in base_parts:
                atoms.extend(part[0])
                clauses.extend(part[1])
            for name in active_names:
                part = named_parts[name]
                atoms.extend(part[0])
                clauses.extend(part[1])
            if len(clauses) > MAX_CASE_SPLIT_CLAUSES:
                return _TOO_MANY_CLAUSES
            return _check_clausal(atoms, clauses, exact)

        if not known_unsat:
            result = decide(named, exact=True)
            if result is _TOO_MANY_CLAUSES:
                return None
            stats.theory_core_checks += 1
            if result is not None:
                self._model = result.model
                return CheckResult.SAT
        # With known_unsat the confirming solve is skipped: the caller has
        # proven this exact conjunction unsatisfiable already.  Deletion
        # probes that overflow the clause budget keep their member (the loop
        # below treats anything but a definite UNSAT as "necessary"), so the
        # worst case is an unminimized -- but still sound -- core.

        # Deletion-based core over the named groups: drop one at a time and
        # keep the drops that preserve unsatisfiability.  The survivors form
        # a core where every member is individually necessary (up to the
        # probes' propagation-only theory mode: dropping a group leaves an
        # underconstrained system, and running exact simplex on every probe
        # would cost more than the lemma can ever save -- a conservative SAT
        # answer just keeps one more member in the core).
        core = list(named)
        for name in list(core):
            trial = [n for n in core if n != name]
            verdict = decide(trial, exact=False)
            stats.theory_core_checks += 1
            if verdict is None:
                core = trial
        self._core = tuple(core)
        self._core_minimal = True
        return CheckResult.UNSAT

    def _check_assumptions_lazy(
        self,
        session: _Session,
        base: Tuple[Formula, ...],
        named: Dict[object, Formula],
        stats: IncrementalStats,
        deadline: Optional[float],
    ) -> CheckResult:
        """The general path: persistent SAT engine + assumption literals."""
        literal_names: Dict[int, List[object]] = {}
        assumption_literals: List[int] = []
        for formula in base:
            assumption_literals.append(session.literal_for(formula, stats))
        for name, formula in named.items():
            literal = session.literal_for(formula, stats)
            assumption_literals.append(literal)
            literal_names.setdefault(literal, []).append(name)
        # Dedupe while preserving order; a repeated literal would only open
        # empty decision levels in the SAT engine.
        assumption_literals = list(dict.fromkeys(assumption_literals))

        # Theory reasoning is restricted to the atoms of the *active*
        # formulas: the database also holds atoms of formulas from earlier
        # calls, whose boolean values are unconstrained don't-cares here.
        relevant_vars: set = set()
        for formula in base:
            relevant_vars.update(session.atom_vars_for(formula))
        for formula in named.values():
            relevant_vars.update(session.atom_vars_for(formula))
        ordered_vars = sorted(relevant_vars)

        session.feed_clauses()
        for _ in range(MAX_THEORY_ROUNDS):
            stats.sat_solves += 1
            assignment = session.sat.solve(assumption_literals)
            if assignment is None:
                conflict = set(session.sat.core)
                self._core = tuple(
                    name
                    for literal, names in literal_names.items()
                    if literal in conflict
                    for name in names
                )
                return CheckResult.UNSAT
            atoms, disequalities, blocking = _theory_literals(
                session.cnf, assignment, ordered_vars
            )
            result = _case_split(atoms, disequalities)
            if result.satisfiable:
                self._model = result.model
                return CheckResult.SAT
            stats.theory_conflicts += 1
            if not blocking:
                # No relevant atom was assigned yet the theory refused the
                # (empty) conjunction -- cannot happen, but fail safe.
                self._core = tuple(
                    name for names in literal_names.values() for name in names
                )
                return CheckResult.UNSAT
            # Theory conflict: the blocking clause is theory-valid, so it can
            # stay in the persistent database and help every later query.
            session.sat.add_clause(blocking)
            if _expired(deadline):
                return self._unknown("timeout")
        return self._unknown("max theory rounds")

    def unsat_core(self) -> Tuple[object, ...]:
        """Assumption names in the final conflict of the last UNSAT check.

        Only names passed to :meth:`check_assumptions` appear; base
        assertions participate in the refutation but are never reported
        (they are unconditionally present anyway).
        """
        return self._core

    def minimize_core(self, deadline: Optional[float] = None) -> Tuple[object, ...]:
        """Deletion-minimize the unsat core of the last UNSAT check.

        Re-solves with one core member dropped at a time; a member whose
        removal keeps the query UNSAT is discarded (together with anything
        else the shrunken refutation no longer needs).  On return,
        :meth:`unsat_core` yields a core where dropping any single member
        makes the query satisfiable (modulo the theory solver's conservative
        SAT answers).  The last-check model/core state is left describing the
        minimized core.  A probe cut by *deadline* ends the minimization,
        leaving :meth:`reason_unknown` at ``"timeout"``.
        """
        if self._core_minimal:
            # The fast path's deletion loop already minimized the core.
            return self._core
        named = dict(self._last_assumptions)
        core = [name for name in named if name in set(self._core)]
        cut = False
        for name in list(core):
            if name not in core:
                continue  # already dropped by an earlier, smaller refutation
            trial = {n: named[n] for n in core if n != name}
            verdict = self.check_assumptions(trial, deadline=deadline)
            if verdict is CheckResult.UNSAT:
                survivors = set(self._core)
                core = [n for n in core if n != name and n in survivors]
            elif self._reason_unknown == "timeout":
                cut = True
                break
        self._core = tuple(core)
        self._core_minimal = not cut
        self._last_assumptions = named
        # A SAT deletion probe may have left its model behind; the overall
        # query is UNSAT, so the last-check state must not offer one.
        self._model = None
        self._reason_unknown = "timeout" if cut else None
        return self._core

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


def _check_clausal(atoms: List[Atom], clauses, exact: bool = True) -> Optional[TheoryResult]:
    """Case split over the clauses; return a SAT result or ``None`` for UNSAT."""
    if not clauses:
        result = check_conjunction(atoms, exact)
        return result if result.satisfiable else None
    head, *rest = clauses
    for branch in head:
        result = _check_clausal(atoms + branch, rest, exact)
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
