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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..dataframe.profiling import execution_stats
from ..dataframe.table import Table
from ..engine.cache import CacheStats, ExecutionCache, LRUCache
from ..smt.solver import CheckResult, Solver
from ..smt.terms import Formula, conjoin, disjoin
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
    #: library-version-keyed store of executions and attribute vectors
    #: shared across runs.  ``None`` keeps every tier local.
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
        if self.kb_view is not None:
            from ..engine.kb import baseline_digest

            self._baseline_digest = baseline_digest(self.inputs)
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
        #: Ground attribute vectors of the example tables, precomputed for
        #: the tier-1 prescreen (the output's ``group`` stays symbolic there,
        #: exactly as in the example formula).
        self._input_attributes = [self.table_attributes(t) for t in self.inputs]
        self._output_attributes = self.table_attributes(self.output)
        #: Persistent incremental solver session used to replay rejected
        #: hypotheses under named assumptions (created lazily; the example
        #: formula and phi_out are asserted exactly once per run).
        self._incremental: Optional[Solver] = None
        #: Wall-clock deadline (``time.monotonic()``) of the current search
        #: slice, set by the search kernel.  A solver call it cuts short
        #: answers UNKNOWN, which is accepted but never memoised.
        self.deadline: Optional[float] = None
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
        constraints: List[Formula] = []
        self._collect_specification(hypothesis, evaluated, constraints)
        return conjoin(constraints)

    def _collect_specification(
        self, node: Hypothesis, evaluated: Dict[int, Table], constraints: List[Formula]
    ) -> None:
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
            self._collect_specification(child, evaluated, constraints)

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
    def deduce(
        self,
        hypothesis: Hypothesis,
        learn: bool = True,
        evaluated: Optional[Dict[int, Table]] = None,
    ) -> bool:
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
        5. one SMT check (tier 2), the only tier that can also *accept*.

        When *learn* is set, every tier-2 rejection is mined for a new lemma.
        Callers issuing bulk near-duplicate queries (the sketch completer's
        per-hole fills) pass ``learn=False``: they still benefit from the
        store, but only hypothesis- and sketch-level conflicts are worth the
        mining replay.  Prescreen-decided rejections are never mined: the
        replay solve they would need costs exactly the solver work the
        prescreen exists to skip.

        *evaluated* is the hypothesis's partial-evaluation map when the
        caller already holds it (the sketch completer's frames carry
        theirs); by default it is computed here.  A caller whose evaluation
        failed passes nothing: the failure is cached in the evaluation memo,
        so re-raising it here executes nothing.
        """
        self.stats.hypotheses_checked += 1
        if not self.use_partial_evaluation:
            evaluated = {}
        elif evaluated is None:
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

        # Residual solving (tier 2): one SMT check.  ``Solver.check`` probes
        # the process-wide formula cache first and stores what it decides.
        solver = Solver()
        solver.add(self.build_query(hypothesis, evaluated))
        result = solver.check(deadline=self.deadline)
        self.stats.smt_calls += 1
        if solver.reason_unknown() == "timeout":
            # Cut short by the task deadline: accepting is sound, and since
            # the verdict is memoised nowhere a resumed run asks again.
            return True
        feasible = result is not CheckResult.UNSAT
        self._verdict_cache.put(cache_key, feasible)
        if not feasible:
            self.stats.hypotheses_rejected += 1
            if use_cdcl and learn:
                self._mine_lemma(hypothesis, evaluated)
        return feasible

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
        descriptors: Set[tuple] = set()
        named: Dict[tuple, Formula] = {}
        self._collect_lemma_parts(
            hypothesis, (), False, evaluated, with_formulas, descriptors, named
        )
        return frozenset(descriptors), named

    def _collect_lemma_parts(
        self,
        node: Hypothesis,
        path: Tuple[int, ...],
        under_eval: bool,
        evaluated: Dict[int, Table],
        with_formulas: bool,
        descriptors: Set[tuple],
        named: Dict[tuple, Formula],
    ) -> None:
        """One node of the :meth:`_lemma_parts` walk."""
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
                self._collect_lemma_parts(
                    child, path + (index,), True, evaluated, with_formulas, descriptors, named
                )
            return
        if not under_eval:
            descriptor = ("spec", path, node.component.name)
            descriptors.add(descriptor)
            if with_formulas:
                named[descriptor] = self._component_spec(node)
        for index, child in enumerate(node.table_children):
            self._collect_lemma_parts(
                child, path + (index,), under_eval, evaluated, with_formulas, descriptors, named
            )

    def _incremental_session(self) -> Solver:
        """The per-run solver session (example formula asserted once)."""
        if self._incremental is None:
            session = Solver()
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
        result = session.check_assumptions(
            named, known_unsat=True, deadline=self.deadline
        )
        if result is CheckResult.UNSAT:
            core = session.unsat_core()
            if 0 < len(core) <= MINIMIZE_CORE_LIMIT:
                core = session.minimize_core(deadline=self.deadline)
            lemma = [descriptor for descriptor in core if descriptor != _NONNEG]
            # A core whose minimization the deadline cut short depends on
            # timing; nothing is learned from it.
            if lemma and session.reason_unknown() != "timeout":
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
        parts: List[tuple] = []
        self._collect_verdict_parts(hypothesis, evaluated, parts)
        return (self.level, self.use_partial_evaluation, tuple(parts))

    def _collect_verdict_parts(
        self, node: Hypothesis, evaluated: Dict[int, Table], parts: List[tuple]
    ) -> None:
        if node.node_id in evaluated:
            parts.append((node.node_id, "t", self.table_attributes(evaluated[node.node_id])))
            return
        if isinstance(node, Hole):
            if node.hole_type is Type.TABLE:
                parts.append((node.node_id, "x", node.binding))
            return
        parts.append((node.node_id, "c", node.component.name))
        for child in node.table_children:
            self._collect_verdict_parts(child, evaluated, parts)

    # ------------------------------------------------------------------
    def batch_evaluate_fills(
        self,
        node: Apply,
        hole: Hole,
        arguments: Sequence,
        evaluated: Optional[Dict[int, Table]],
    ) -> int:
        """Pre-execute sibling fillings of *hole* on *node*, sharing setup.

        The sketch completer enumerates many candidate arguments for the last
        unfilled hole of one node; each filling, once deduced or CHECKed,
        executes ``component(child_tables, ...)`` with the *same* child tables
        and a different argument.  This primes the
        :class:`~repro.engine.cache.ExecutionCache` for the whole sibling
        group in one :meth:`~repro.core.component.Component.execute_batch`
        call, so the per-table setup (the per-row dictionaries of a filter)
        is paid once and the later ``partial_evaluate`` calls hit the cache.

        *evaluated* is a partial-evaluation map of the sketch that holds the
        node's table children (the completer passes its frame's map).
        Returns the number of fills actually executed (0 when the node is not
        batchable -- unevaluated child tables, other holes still unfilled, or
        everything already cached).  Skipping the batch is always safe: the
        unbatched path computes exactly the same results one by one.
        """
        if not self.use_partial_evaluation or len(arguments) < 2 or evaluated is None:
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
        results = node.component.execute_batch(
            child_tables, pending_arguments, f"_n{node.node_id}_"
        )
        for key, result in zip(pending_keys, results):
            if isinstance(result, Exception):
                result = EvaluationFailure(str(result))
            self.execution_cache.put(key, result)
        return len(pending_keys)

    # ------------------------------------------------------------------
    def evaluate_if_possible(
        self, hypothesis: Hypothesis, known: Optional[Dict[int, Table]] = None
    ) -> Optional[Dict[int, Table]]:
        """Partially evaluate, returning ``None`` when a complete subterm fails.

        *known* seeds the evaluation (see :func:`partial_evaluate`).
        """
        try:
            return partial_evaluate(
                hypothesis, self.inputs,
                memo=self.evaluation_memo, exec_cache=self.execution_cache,
                known=known,
            )
        except EvaluationFailure:
            return None
