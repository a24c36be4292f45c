"""SMT-based deduction (Section 6, Algorithm 2 of the paper).

Given a hypothesis and the input-output example, the deduction engine builds
a Presburger-arithmetic formula combining

* the specification :math:`\\Phi(H)` of the hypothesis (Figure 12), obtained
  by conjoining the first-order specs of its components, with complete
  subterms replaced by the abstraction of their partially-evaluated value;
* :math:`\\varphi_{in}`: every unbound table hole must correspond to one of
  the input tables;
* :math:`\\varphi_{out}`: the root must correspond to the output table;
* the abstraction :math:`\\alpha` of every example table,

and checks satisfiability.  UNSAT means the hypothesis can never be completed
into a program consistent with the example and is pruned.

On top of Algorithm 2, the engine *learns from failures* (conflict-driven
lemma learning): every rejected hypothesis is replayed against a persistent
incremental solver session -- the example formula and :math:`\\varphi_{out}`
are asserted once per synthesis run, the per-hypothesis constraints are
pushed as named, retractable assumptions -- and the resulting unsat core is
mined into a blocking lemma over the offending component subsequence (see
:mod:`repro.core.lemmas`).  Later hypotheses exhibiting the same structure
are rejected by a subset test without ever touching the solver.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dataframe.profiling import execution_stats
from ..dataframe.table import Table
from ..engine.cache import CacheStats, ExecutionCache, LRUCache
from ..smt.solver import (
    CheckResult,
    IncrementalStats,
    Solver,
    formula_cache_lookup,
    formula_cache_store,
)
from ..smt.terms import BoolVal, Formula, conjoin, disjoin
from .abstraction import (
    AbstractionCache,
    ExampleBaseline,
    SpecLevel,
    TableVars,
    nonnegativity,
    table_attribute_vector,
)
from .hypothesis import (
    Apply,
    EvaluationFailure,
    Hole,
    Hypothesis,
    iter_nodes,
    partial_evaluate,
)
from .lemmas import LemmaStore
from .propagation import prescreen_infeasible
from .types import Type


#: Default bound of the per-engine verdict memo.
VERDICT_CACHE_SIZE = 32768

#: Bound on live residual-SMT sessions per engine (LRU-evicted).  Sessions
#: are keyed by sketch path, and one sketch's per-hole fills arrive as a
#: burst of queries with the same key, so a small working set suffices; each
#: session additionally self-recycles at ``SESSION_CLAUSE_LIMIT`` clauses.
RESIDUAL_SESSION_LIMIT = 128

#: Default bound on incremental-session solves spent mining lemmas per run.
#: Mining is an investment (each mined core costs a replay solve plus a few
#: minimization solves); the budget keeps a pathological run from spending
#: its whole time budget on cores, and -- being a count, not a clock -- keeps
#: parallel and serial runs bit-identical.
LEMMA_MINING_BUDGET = 800

#: Cores at most this large are deletion-minimized before becoming lemmas.
#: Smaller cores make strictly more general lemmas (fewer descriptors to
#: match), which is where most of the sibling pruning comes from.
MINIMIZE_CORE_LIMIT = 12

#: Assumption name for the per-hypothesis sanity constraints.  Excluded from
#: lemma keys: every deduction query asserts nonnegativity for all of its
#: nodes, so a matching hypothesis entails the member automatically.
_NONNEG = ("nonneg",)


@dataclass
class DeductionStats:
    """Counters describing the work done by the deduction engine."""

    smt_calls: int = 0
    smt_time: float = 0.0
    hypotheses_checked: int = 0
    hypotheses_rejected: int = 0
    evaluation_failures: int = 0
    #: Deduction queries decided UNSAT by the tier-1 interval prescreen
    #: (no ``Formula`` was built, no solver ran).
    prescreen_decided: int = 0
    #: Queries the prescreen swept inconclusively before falling through to
    #: the SMT tier.
    prescreen_fallback: int = 0
    #: Hypotheses rejected by the lemma store without an SMT query.
    lemma_prunes: int = 0
    #: Blocking lemmas mined from unsat cores and stored.
    lemmas_learned: int = 0
    #: Unsat cores extracted from the incremental session.
    cores_extracted: int = 0
    #: Sum of (minimized) core sizes, for the mean-core-size report.
    core_size_total: int = 0
    #: Incremental-session solves spent mining and minimizing cores.
    lemma_mining_solves: int = 0
    #: Residual-SMT sessions created (one per distinct sketch path, LRU-bounded).
    smt_sessions: int = 0
    #: Residual queries served by an already-open session -- the encodings,
    #: clausal flattenings and learned clauses of earlier sibling queries
    #: were reused instead of re-built.
    smt_session_reuse: int = 0
    #: Activity of the persistent incremental solver session (clause reuse,
    #: recycles, theory conflicts).
    incremental: IncrementalStats = field(default_factory=IncrementalStats)
    #: Verdict-memo accounting: a hit means an entire SMT query was skipped.
    #: (The counters are written directly by the verdict LRU cache.)
    verdict_cache: CacheStats = field(default_factory=CacheStats)
    #: Hit/miss counters of the abstraction-formula memo.
    abstraction_cache: CacheStats = field(default_factory=CacheStats)

    @property
    def cache_hits(self) -> int:
        """Deduction queries answered from the verdict memo."""
        return self.verdict_cache.hits

    @property
    def cache_misses(self) -> int:
        """Deduction queries that had to build and discharge an SMT query."""
        return self.verdict_cache.misses

    @property
    def cache_lookups(self) -> int:
        """Total number of verdict-cache probes."""
        return self.verdict_cache.lookups

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of deduction queries answered from the verdict memo."""
        return self.verdict_cache.hit_rate

    @property
    def prescreen_queries(self) -> int:
        """Queries that reached the tier-1 prescreen (decided + fallback)."""
        return self.prescreen_decided + self.prescreen_fallback

    @property
    def prescreen_hit_rate(self) -> float:
        """Fraction of prescreened queries decided without the solver."""
        if self.prescreen_queries == 0:
            return 0.0
        return self.prescreen_decided / self.prescreen_queries

    @property
    def mean_core_size(self) -> float:
        """Average size of the mined unsat cores (0.0 when none were mined)."""
        if self.cores_extracted == 0:
            return 0.0
        return self.core_size_total / self.cores_extracted

    def merge(self, other: "DeductionStats") -> None:
        """Accumulate another stats object into this one."""
        self.smt_calls += other.smt_calls
        self.smt_time += other.smt_time
        self.hypotheses_checked += other.hypotheses_checked
        self.hypotheses_rejected += other.hypotheses_rejected
        self.evaluation_failures += other.evaluation_failures
        self.prescreen_decided += other.prescreen_decided
        self.prescreen_fallback += other.prescreen_fallback
        self.lemma_prunes += other.lemma_prunes
        self.lemmas_learned += other.lemmas_learned
        self.cores_extracted += other.cores_extracted
        self.core_size_total += other.core_size_total
        self.lemma_mining_solves += other.lemma_mining_solves
        self.smt_sessions += other.smt_sessions
        self.smt_session_reuse += other.smt_session_reuse
        self.incremental.merge(other.incremental)
        self.verdict_cache.merge(other.verdict_cache)
        self.abstraction_cache.merge(other.abstraction_cache)


@dataclass
class DeductionEngine:
    """Builds and discharges the deduction queries for one synthesis problem."""

    inputs: Sequence[Table]
    output: Table
    level: SpecLevel = SpecLevel.SPEC2
    use_partial_evaluation: bool = True
    enabled: bool = True
    #: Conflict-driven lemma learning: mine unsat cores into blocking lemmas
    #: and consult the lemma store before building SMT queries.
    cdcl: bool = True
    #: Tier-1 interval prescreen: sweep each query with compiled attribute
    #: propagation (:mod:`repro.core.propagation`) and answer UNSAT without
    #: building a formula when some attribute box empties.  Conservative by
    #: construction -- disabling it (the ``--no-prescreen`` ablation) changes
    #: how much solver work runs, never a verdict.
    prescreen: bool = True
    #: The lemma store (created fresh per engine when not provided; lemmas
    #: rest on the example formula and must never outlive the example).
    lemma_store: Optional[LemmaStore] = None
    #: Bound on incremental-session solves spent mining cores this run.
    mining_budget: int = LEMMA_MINING_BUDGET
    #: Warm-start tier (:class:`repro.engine.kb.KBView`): a disk-backed,
    #: library-version-keyed store of executions, attribute vectors and
    #: mined lemmas shared across runs.  ``None`` keeps every tier local.
    kb_view: Optional[object] = None
    stats: DeductionStats = field(default_factory=DeductionStats)

    def __post_init__(self):
        self.baseline = ExampleBaseline.from_tables(self.inputs)
        self._input_vars = [TableVars(f"x{i + 1}") for i in range(len(self.inputs))]
        self._output_vars = TableVars("y")
        #: Cross-candidate cache of subtree evaluations (see partial_evaluate).
        self.evaluation_memo: Dict = {}
        #: Fingerprint-keyed memo of concrete component executions: two
        #: hypotheses whose sub-programs produce identical intermediate
        #: tables share the execution above them.  Hit/miss accounting goes
        #: to the process-wide execution counters (sliced per run).
        self.execution_cache = ExecutionCache(
            stats=execution_stats().exec_cache, kb=self.kb_view
        )
        #: Cache of table attribute vectors used by the abstraction function,
        #: keyed by table fingerprint so structurally identical tables
        #: produced by different hypotheses share one entry.
        self._attribute_cache: Dict[bytes, tuple] = {}
        #: Identity of this example's baseline in the warm-start tier
        #: (attribute vectors depend on it through newCols/newVals).
        self._baseline_digest = None
        self._kb_task_key = None
        if self.kb_view is not None:
            from ..engine.kb import baseline_digest

            self._baseline_digest = baseline_digest(self.inputs)
            self._kb_task_key = self.kb_view.task_key(
                self.inputs, self.output, self.level
            )
        #: LRU-bounded memo of abstraction formulas (hits/misses are surfaced
        #: through ``stats.abstraction_cache``).
        self._abstraction = AbstractionCache(stats=self.stats.abstraction_cache)
        #: Caches of formula fragments (specs, bindings) -- the same fragments
        #: are re-assembled for thousands of deduction queries.
        self._spec_cache: Dict[tuple, Formula] = {}
        self._binding_cache: Dict[tuple, Formula] = {}
        self._nonneg_cache: Dict[tuple, Formula] = {}
        #: LRU-bounded memo of deduction verdicts, keyed by the hypothesis
        #: signature plus the spec level and partial-evaluation flag.  The SMT
        #: query depends only on the hypothesis *structure* (components,
        #: bindings, which holes are filled) and on the attribute vectors of
        #: the evaluated subterms -- not on the literal hole values -- so
        #: candidates whose completions produce tables with identical
        #: abstractions share a single query.
        self._verdict_cache: "LRUCache[tuple, bool]" = LRUCache(
            maxsize=VERDICT_CACHE_SIZE, stats=self.stats.verdict_cache
        )
        if self.cdcl and self.lemma_store is None:
            self.lemma_store = LemmaStore()
        # Lemma warm start is an opt-in tier: lemmas rest on one example's
        # formula, so imports are restricted to the byte-identical task key
        # (same input/output fingerprints, same spec level) -- under which
        # they are sound but shift work between the store and the solver.
        if (
            self.cdcl
            and self.lemma_store is not None
            and self.kb_view is not None
            and self.kb_view.reuse_lemmas
        ):
            self.lemma_store.import_entries(
                self.kb_view.get_lemmas(self._kb_task_key)
            )
        #: Ground attribute vectors of the example tables, precomputed for
        #: the tier-1 prescreen (the output's ``group`` stays symbolic there,
        #: exactly as in the example formula).
        self._input_attributes = [self.table_attributes(t) for t in self.inputs]
        self._output_attributes = self.table_attributes(self.output)
        #: Persistent incremental solver session used to replay rejected
        #: hypotheses under named assumptions (created lazily; the example
        #: formula and phi_out are asserted exactly once per run).
        self._incremental: Optional[Solver] = None
        #: Residual-SMT sessions, keyed by sketch path (the structural shape
        #: of a query: components, bindings, which subterms are evaluated --
        #: everything except the evaluated tables' attribute values).  The
        #: sketch completer's sibling fills produce bursts of queries with
        #: the same key, which then differ only in their named assumptions.
        self._residual_sessions: "OrderedDict[tuple, Solver]" = OrderedDict()
        self._example_formula = self._build_example_formula()

    # ------------------------------------------------------------------
    def _build_example_formula(self) -> Formula:
        constraints = []
        for table, variables in zip(self.inputs, self._input_vars):
            constraints.append(self._abstract(table, variables))
        constraints.append(
            self._abstract(self.output, self._output_vars, symbolic_group=True)
        )
        return conjoin(constraints)

    # ------------------------------------------------------------------
    def node_vars(self, node_id: int) -> TableVars:
        """The symbolic attribute vector of hypothesis node *node_id*."""
        return TableVars(f"n{node_id}")

    def table_attributes(self, table: Table) -> tuple:
        """The (row, col, group, newCols, newVals) attribute vector of a table.

        Under Spec 1 the last three attributes never reach a formula, so the
        whole-table scans they require are skipped (zeroing them also keeps
        the abstraction/verdict cache keys from splitting on unused fields).
        """
        fingerprint = table.fingerprint()
        attributes = self._attribute_cache.get(fingerprint)
        if attributes is None:
            if self.kb_view is not None:
                attributes = self.kb_view.get_attributes(
                    fingerprint, self.level, self._baseline_digest
                )
            if attributes is None:
                attributes = table_attribute_vector(table, self.level, self.baseline)
                if self.kb_view is not None:
                    self.kb_view.put_attributes(
                        fingerprint, self.level, self._baseline_digest, attributes
                    )
            self._attribute_cache[fingerprint] = attributes
        return attributes

    def _abstract(self, table: Table, variables: TableVars, symbolic_group: bool = False):
        """Cached version of :func:`abstract_table` (attribute vectors are memoised)."""
        attributes = self.table_attributes(table)
        return self._abstraction.abstract(attributes, variables, self.level, symbolic_group)

    def _component_spec(self, node: Apply) -> Formula:
        """Cached first-order specification of one application node."""
        key = (node.component.name, node.node_id, tuple(child.node_id for child in node.table_children))
        cached = self._spec_cache.get(key)
        if cached is None:
            inputs = [self.node_vars(child.node_id) for child in node.table_children]
            cached = node.component.specification(self.node_vars(node.node_id), inputs, self.level)
            self._spec_cache[key] = cached
        return cached

    def _binding(self, node_id: int, input_index: Optional[int]) -> Formula:
        """Cached phi_in constraint for one table hole."""
        key = (node_id, input_index)
        cached = self._binding_cache.get(key)
        if cached is None:
            variables = self.node_vars(node_id)
            if input_index is not None:
                cached = variables.equal_to(self._input_vars[input_index], self.level)
            else:
                cached = disjoin(
                    variables.equal_to(input_vars, self.level)
                    for input_vars in self._input_vars
                )
            self._binding_cache[key] = cached
        return cached

    def _nonnegativity(self, node_ids: tuple) -> Formula:
        """Cached sanity constraints for a set of hypothesis nodes."""
        cached = self._nonneg_cache.get(node_ids)
        if cached is None:
            variables = [self.node_vars(node_id) for node_id in node_ids]
            cached = nonnegativity(
                variables + self._input_vars + [self._output_vars], self.level
            )
            self._nonneg_cache[node_ids] = cached
        return cached

    def specification(
        self, hypothesis: Hypothesis, evaluated: Dict[int, Table]
    ) -> Formula:
        """The formula :math:`\\Phi(H)` of Figure 12."""
        constraints = []

        def walk(node: Hypothesis) -> None:
            variables = self.node_vars(node.node_id)
            if node.node_id in evaluated:
                # Complete subterm: use the abstraction of its concrete value.
                constraints.append(self._abstract(evaluated[node.node_id], variables))
                return
            if isinstance(node, Hole):
                # Unknown leaf: no information (the spec is "true").
                return
            constraints.append(self._component_spec(node))
            for child in node.table_children:
                walk(child)

        walk(hypothesis)
        return conjoin(constraints)

    def _query_node_ids(self, hypothesis: Hypothesis) -> tuple:
        """The node ids whose attribute vectors appear in the query."""
        return tuple(
            sorted(
                node.node_id
                for node in iter_nodes(hypothesis)
                if not isinstance(node, Hole) or node.hole_type is Type.TABLE
            )
        )

    def build_query(
        self, hypothesis: Hypothesis, evaluated: Dict[int, Table]
    ) -> Formula:
        """The full satisfiability query :math:`\\psi` of Algorithm 2."""
        constraints = [
            self.specification(hypothesis, evaluated),
            self._example_formula,
            self._nonnegativity(self._query_node_ids(hypothesis)),
        ]

        # phi_in: every table hole corresponds to one of the input variables.
        for node in iter_nodes(hypothesis):
            if isinstance(node, Hole) and node.hole_type is Type.TABLE:
                constraints.append(self._binding(node.node_id, node.binding))

        # phi_out: the root corresponds to the output table.
        constraints.append(
            self.node_vars(hypothesis.node_id).equal_to(self._output_vars, self.level)
        )
        return conjoin(constraints)

    # ------------------------------------------------------------------
    def deduce(self, hypothesis: Hypothesis, learn: bool = True) -> bool:
        """Algorithm 2, staged: return ``False`` when the hypothesis can be rejected.

        The query passes through progressively more expensive tiers, each of
        which may reject (never accept) before the next one runs:

        1. partial evaluation (a complete subterm that fails to execute);
        2. the conflict-driven lemma store (with CDCL enabled, consulted
           first so path-keyed lemmas keep absorbing whole families);
        3. the verdict memo;
        4. the tier-1 interval prescreen -- compiled attribute propagation
           that decides ground-heavy queries without constructing a
           ``Formula`` (see :mod:`repro.core.propagation`);
        5. the incremental SMT stack (tier 2), the only tier that can also
           *accept*.

        When *learn* is set, every tier-2 rejection is mined for a new lemma.
        Callers issuing bulk near-duplicate queries (the sketch completer's
        per-hole fills) pass ``learn=False``: they still benefit from the
        store, but only hypothesis- and sketch-level conflicts are worth the
        mining replay.  Prescreen-decided rejections are never mined: the
        replay solve they would need costs exactly the solver work the
        prescreen exists to skip.
        """
        self.stats.hypotheses_checked += 1
        evaluated: Dict[int, Table] = {}
        if self.use_partial_evaluation:
            try:
                evaluated = partial_evaluate(
                    hypothesis, self.inputs,
                    memo=self.evaluation_memo, exec_cache=self.execution_cache,
                )
            except EvaluationFailure:
                self.stats.evaluation_failures += 1
                self.stats.hypotheses_rejected += 1
                return False
        if not self.enabled:
            return True

        # Lemma pruning: mined conflicts are keyed by root-relative structure,
        # so they only apply to hypotheses rooted at node 0 (all of the
        # synthesizer's are; the guard keeps ad-hoc engine uses sound).
        use_cdcl = (
            self.cdcl and self.lemma_store is not None and hypothesis.node_id == 0
        )
        # The descriptor walk is only worth paying once there is a lemma that
        # could match (the store starts empty on every run).
        if use_cdcl and len(self.lemma_store):
            descriptors, _ = self._lemma_parts(hypothesis, evaluated)
            if self.lemma_store.blocks(descriptors):
                self.stats.lemma_prunes += 1
                self.stats.hypotheses_rejected += 1
                return False

        cache_key = self._verdict_key(hypothesis, evaluated)
        cached = self._verdict_cache.get(cache_key)
        if cached is not None:
            if not cached:
                self.stats.hypotheses_rejected += 1
            return cached

        if self.prescreen:
            if prescreen_infeasible(
                hypothesis, evaluated, self.table_attributes,
                self._input_attributes, self._output_attributes, self.level,
            ):
                self.stats.prescreen_decided += 1
                self.stats.hypotheses_rejected += 1
                self._verdict_cache.put(cache_key, False)
                return False
            self.stats.prescreen_fallback += 1

        query = self.build_query(hypothesis, evaluated)
        started = time.perf_counter()
        result = self._check_residual(hypothesis, evaluated, query)
        self.stats.smt_calls += 1
        self.stats.smt_time += time.perf_counter() - started
        feasible = result is not CheckResult.UNSAT
        self._verdict_cache.put(cache_key, feasible)
        if not feasible:
            self.stats.hypotheses_rejected += 1
            if use_cdcl and learn:
                self._mine_lemma(hypothesis, evaluated)
        return feasible

    # ------------------------------------------------------------------
    # Residual solving (tier 2): formula cache, then per-path sessions
    # ------------------------------------------------------------------
    def _check_residual(
        self, hypothesis: Hypothesis, evaluated: Dict[int, Table], query: Formula
    ) -> CheckResult:
        """Decide one residual query (everything the cheaper tiers passed on).

        The process-wide formula cache is probed first -- with exactly the
        accounting :meth:`Solver.check` would produce, so warm-cache replays
        stay byte-identical to the monolithic path this replaced.  Misses go
        to the persistent session keyed by the query's sketch path: the base
        of the query (example formula, phi_out, bindings, component specs)
        is asserted once per session, and only the evaluated subterms'
        abstractions -- the part that varies between sibling queries -- are
        passed as per-call assumptions.  The decided verdict is written back
        to the formula cache, so later structurally identical queries (and
        later runs) hit tier 0.
        """
        if isinstance(query, BoolVal):
            return CheckResult.SAT if query.value else CheckResult.UNSAT
        cached = formula_cache_lookup(query)
        if cached is not None:
            return cached[0]
        session, named = self._residual_session(hypothesis, evaluated)
        result = session.check_assumptions(named)
        formula_cache_store(query, result, session.model())
        return result

    def _residual_session(
        self, hypothesis: Hypothesis, evaluated: Dict[int, Table]
    ) -> Tuple[Solver, Dict[tuple, Formula]]:
        """The (possibly reused) session and assumptions for one query.

        The walk mirrors :meth:`specification` and :meth:`build_query`
        fragment for fragment, splitting them by what varies under a fixed
        sketch path: abstractions of top-most evaluated *application* nodes
        vary with the candidate's concrete tables (named assumptions);
        everything else -- phi_in bindings, unevaluated components' specs,
        the abstractions of evaluated *bound holes* (input tables, fixed per
        binding), the example formula, nonnegativity and phi_out -- is
        invariant and forms the session base.
        """
        key_parts: List[tuple] = []
        named: Dict[tuple, Formula] = {}
        base: List[Formula] = []

        def walk(node: Hypothesis, under_eval: bool) -> None:
            if isinstance(node, Hole):
                if node.hole_type is Type.TABLE:
                    key_parts.append(("x", node.node_id, node.binding))
                    base.append(self._binding(node.node_id, node.binding))
                    if node.node_id in evaluated and not under_eval:
                        base.append(
                            self._abstract(
                                evaluated[node.node_id], self.node_vars(node.node_id)
                            )
                        )
                return
            if node.node_id in evaluated and not under_eval:
                key_parts.append(("t", node.node_id))
                named[("eval", node.node_id)] = self._abstract(
                    evaluated[node.node_id], self.node_vars(node.node_id)
                )
                # The subtree below an evaluated subterm contributes no specs
                # or abstractions, but phi_in still binds its table holes.
                for child in node.table_children:
                    walk(child, True)
                return
            key_parts.append(("c", node.node_id, node.component.name))
            if not under_eval:
                base.append(self._component_spec(node))
            for child in node.table_children:
                walk(child, under_eval)

        walk(hypothesis, False)
        key = tuple(key_parts)
        session = self._residual_sessions.get(key)
        if session is None:
            session = Solver()
            # All sessions account into the engine's incremental counters.
            session.incremental_stats = self.stats.incremental
            session.add(self._example_formula)
            session.add(self._nonnegativity(self._query_node_ids(hypothesis)))
            session.add(
                self.node_vars(hypothesis.node_id).equal_to(
                    self._output_vars, self.level
                )
            )
            session.add(*base)
            self._residual_sessions[key] = session
            self.stats.smt_sessions += 1
            if len(self._residual_sessions) > RESIDUAL_SESSION_LIMIT:
                self._residual_sessions.popitem(last=False)
        else:
            self._residual_sessions.move_to_end(key)
            self.stats.smt_session_reuse += 1
        return session, named

    # ------------------------------------------------------------------
    # Conflict-driven lemma learning
    # ------------------------------------------------------------------
    def _lemma_parts(
        self,
        hypothesis: Hypothesis,
        evaluated: Dict[int, Table],
        with_formulas: bool = False,
    ):
        """The hypothesis as lemma descriptors (see :mod:`repro.core.lemmas`).

        Returns ``(descriptors, named)``: the descriptor set used for lemma
        matching, and -- when *with_formulas* is set -- the mapping from each
        descriptor to the query fragment it stands for (the named assumptions
        of the mining replay).  The walk mirrors :meth:`specification` and
        :meth:`build_query` exactly: one descriptor per asserted fragment.

        Bound table holes additionally contribute the weakened descriptor
        ``("bind", path, None)`` to the *matching* set (never to the named
        assumptions): a specific binding entails the any-input disjunction,
        so lemmas mined from unbound holes soundly block bound ones.
        """
        descriptors = set()
        named: Dict[tuple, Formula] = {}

        def walk(node: Hypothesis, path: Tuple[int, ...], under_eval: bool) -> None:
            if isinstance(node, Hole):
                if node.hole_type is Type.TABLE:
                    descriptor = ("bind", path, node.binding)
                    descriptors.add(descriptor)
                    if with_formulas:
                        named[descriptor] = self._binding(node.node_id, node.binding)
                    if node.binding is not None:
                        descriptors.add(("bind", path, None))
                    if node.node_id in evaluated and not under_eval:
                        attributes = self.table_attributes(evaluated[node.node_id])
                        descriptor = ("eval", path, attributes)
                        descriptors.add(descriptor)
                        if with_formulas:
                            named[descriptor] = self._abstract(
                                evaluated[node.node_id], self.node_vars(node.node_id)
                            )
                return
            if node.node_id in evaluated and not under_eval:
                attributes = self.table_attributes(evaluated[node.node_id])
                descriptor = ("eval", path, attributes)
                descriptors.add(descriptor)
                if with_formulas:
                    named[descriptor] = self._abstract(
                        evaluated[node.node_id], self.node_vars(node.node_id)
                    )
                # The subtree below an evaluated subterm contributes no specs
                # or abstractions, but phi_in still binds its table holes.
                for index, child in enumerate(node.table_children):
                    walk(child, path + (index,), True)
                return
            if not under_eval:
                descriptor = ("spec", path, node.component.name)
                descriptors.add(descriptor)
                if with_formulas:
                    named[descriptor] = self._component_spec(node)
            for index, child in enumerate(node.table_children):
                walk(child, path + (index,), under_eval)

        walk(hypothesis, (), False)
        return frozenset(descriptors), named

    def _incremental_session(self) -> Solver:
        """The per-run solver session (example formula asserted once)."""
        if self._incremental is None:
            session = Solver()
            session.incremental_stats = self.stats.incremental
            session.add(self._example_formula)
            session.add(self.node_vars(0).equal_to(self._output_vars, self.level))
            self._incremental = session
        return self._incremental

    def _mine_lemma(self, hypothesis: Hypothesis, evaluated: Dict[int, Table]) -> None:
        """Replay a rejected hypothesis under assumptions and learn its core."""
        store = self.lemma_store
        if store.maxsize is not None and len(store) >= store.maxsize:
            return
        if self.stats.lemma_mining_solves >= self.mining_budget:
            return
        _, named = self._lemma_parts(hypothesis, evaluated, with_formulas=True)
        named[_NONNEG] = self._nonnegativity(self._query_node_ids(hypothesis))
        session = self._incremental_session()
        solves_before = session.incremental_stats.checks
        # ``known_unsat``: the monolithic check just refuted exactly this
        # conjunction (base + named re-partition the query of Algorithm 2),
        # so the replay skips the confirming solve.  Boolean-structured
        # queries still fall to the lazy path, which can disagree with the
        # monolithic fast paths near the theory solver's conservative
        # limits; a lemma is only mined from a definite UNSAT.
        result = session.check_assumptions(named, known_unsat=True)
        if result is CheckResult.UNSAT:
            core = session.unsat_core()
            if 0 < len(core) <= MINIMIZE_CORE_LIMIT:
                core = session.minimize_core()
            lemma = [descriptor for descriptor in core if descriptor != _NONNEG]
            if lemma:
                self.stats.cores_extracted += 1
                self.stats.core_size_total += len(lemma)
                if store.add(lemma):
                    self.stats.lemmas_learned += 1
        self.stats.lemma_mining_solves += (
            session.incremental_stats.checks - solves_before
        )

    def _verdict_key(self, hypothesis: Hypothesis, evaluated: Dict[int, Table]) -> tuple:
        """A cache key capturing everything the deduction query depends on.

        The key pairs the structural hypothesis signature with the spec level
        and the partial-evaluation flag, so one memo could in principle be
        shared by engines running under different configurations.
        """
        parts = []

        def walk(node: Hypothesis) -> None:
            if node.node_id in evaluated:
                parts.append((node.node_id, "t", self.table_attributes(evaluated[node.node_id])))
                return
            if isinstance(node, Hole):
                if node.hole_type is Type.TABLE:
                    parts.append((node.node_id, "x", node.binding))
                return
            parts.append((node.node_id, "c", node.component.name))
            for child in node.table_children:
                walk(child)

        walk(hypothesis)
        return (self.level, self.use_partial_evaluation, tuple(parts))

    # ------------------------------------------------------------------
    def export_kb_facts(self) -> None:
        """Flush the run's mined lemmas to the KB.

        Called once when a search finalizes.  Executions and attribute
        vectors stream out as they are computed; lemmas are a task-scoped
        blob, exported at the end so one merged write covers the run.
        """
        if self.kb_view is None:
            return
        if self.cdcl and self.lemma_store is not None and len(self.lemma_store):
            self.kb_view.put_lemmas(
                self._kb_task_key, self.lemma_store.export_entries()
            )

    # ------------------------------------------------------------------
    def batch_evaluate_fills(
        self,
        sketch: Hypothesis,
        node: Apply,
        hole: Hole,
        arguments: Sequence,
    ) -> int:
        """Pre-execute sibling fillings of *hole* on *node*, sharing setup.

        The sketch completer enumerates many candidate arguments for the last
        unfilled hole of one node; each filling, once deduced or CHECKed,
        executes ``component(child_tables, ...)`` with the *same* child tables
        and a different argument.  This primes the
        :class:`~repro.engine.cache.ExecutionCache` for the whole sibling
        group in one :meth:`~repro.core.component.Component.execute_batch`
        call, so the per-table setup (backend array views, row dictionaries)
        is paid once and the later ``partial_evaluate`` calls hit the cache.

        Returns the number of fills actually executed (0 when the node is not
        batchable -- unevaluated child tables, other holes still unfilled, or
        everything already cached).  Skipping the batch is always safe: the
        unbatched path computes exactly the same results one by one.
        """
        if not self.use_partial_evaluation or len(arguments) < 2:
            return 0
        evaluated = self.evaluate_if_possible(sketch)
        if evaluated is None:
            return 0
        child_tables = []
        for child in node.table_children:
            table = evaluated.get(child.node_id)
            if table is None:
                return 0
            child_tables.append(table)
        positions = []
        for index, child in enumerate(node.value_children):
            if child.node_id == hole.node_id:
                positions.append(index)
            elif child.value is None:
                return 0
        if len(positions) != 1:
            return 0
        position = positions[0]
        fingerprints = tuple(table.fingerprint() for table in child_tables)
        fixed = [child.value for child in node.value_children]
        pending_keys = []
        pending_arguments = []
        for argument in arguments:
            filled = tuple(
                argument if index == position else value
                for index, value in enumerate(fixed)
            )
            key = (node.component.name, node.node_id, fingerprints, filled)
            if self.execution_cache.get(key) is None:
                pending_keys.append(key)
                pending_arguments.append(filled)
        if not pending_keys:
            return 0
        started = time.perf_counter()
        results = node.component.execute_batch(
            child_tables, pending_arguments, f"_n{node.node_id}_"
        )
        execution_stats().charge_execution(
            node.component.name, time.perf_counter() - started
        )
        for key, result in zip(pending_keys, results):
            if isinstance(result, Exception):
                result = EvaluationFailure(str(result))
            self.execution_cache.put(key, result)
        return len(pending_keys)

    # ------------------------------------------------------------------
    def evaluate_if_possible(self, hypothesis: Hypothesis) -> Optional[Dict[int, Table]]:
        """Partially evaluate, returning ``None`` when a complete subterm fails."""
        try:
            return partial_evaluate(
                hypothesis, self.inputs,
                memo=self.evaluation_memo, exec_cache=self.execution_cache,
            )
        except EvaluationFailure:
            return None
