"""The top-level synthesis algorithm (Section 5, Algorithm 1 of the paper).

:class:`Morpheus` is now a thin configuration shell around the
:class:`~repro.core.frontier.SearchKernel`: the kernel holds an explicit
priority frontier of hypothesis / sketch / partial-program states, exposes an
anytime ``step()`` / ``run(deadline)`` API with serialisable resume state,
and deduplicates partial programs through the observational-equivalence
store (:mod:`repro.core.oe`).  The frontier pops in exactly the cost order
the original recursive loop explored, so the first synthesized program is
unchanged -- but the search can now be paused, resumed, interleaved fairly
across tasks (see :class:`repro.engine.parallel.KernelInterleaver`), and
continued past the first solution: ``synthesize(k=...)`` enumerates the top
``k`` distinct programs -- alternative generalisations of the same example,
in discovery (cost) order.

Ablations used by the evaluation harness are exposed through
:class:`SynthesisConfig`: deduction on/off, Spec 1 vs Spec 2, partial
evaluation on/off, n-gram vs uniform hypothesis ranking, and
observational-equivalence merging on/off (``--no-oe``).
"""

from __future__ import annotations

import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..dataframe.backend import install_backend
from ..dataframe.profiling import ExecutionStats, execution_stats
from ..dataframe.table import Table
from ..engine.cache import CacheStats
from ..smt.solver import formula_cache_stats
from .abstraction import SpecLevel
from .completion import CompletionStats
from .component import ComponentLibrary
from .cost import CostModel, UniformCostModel
from .deduction import DeductionStats
from .frontier import SearchKernel
from .hypothesis import Hypothesis, hypothesis_size, render_program
from .library import standard_library


@dataclass(frozen=True)
class Example:
    """An input-output example (Definition 3 of the paper)."""

    inputs: Tuple[Table, ...]
    output: Table

    @staticmethod
    def make(inputs: Sequence[Table], output: Table) -> "Example":
        """Convenience constructor accepting any sequence of input tables."""
        return Example(tuple(inputs), output)


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs of the synthesis algorithm (defaults reproduce full Morpheus)."""

    #: Use SMT-based deduction to reject hypotheses / partial programs.
    deduction: bool = True
    #: Which component specification to use for deduction.
    spec_level: SpecLevel = SpecLevel.SPEC2
    #: Use partial evaluation inside deduction.
    partial_evaluation: bool = True
    #: Conflict-driven lemma learning: mine deduction unsat cores into
    #: blocking lemmas that reject families of sibling hypotheses without
    #: touching the solver.  Disable (the ``--no-cdcl`` ablation) to measure
    #: plain Algorithm 2.
    cdcl: bool = True
    #: Tier-1 interval prescreen: decide ground-heavy deduction queries with
    #: compiled attribute propagation before any formula is built.  Disable
    #: (the ``--no-prescreen`` ablation) to send every query straight to the
    #: SMT stack; verdicts (and synthesized programs) are identical either
    #: way, only the work split changes.
    prescreen: bool = True
    #: Observational-equivalence merging: collapse partial programs whose
    #: completed subtrees evaluate to fingerprint-identical tables onto the
    #: first-explored representative.  Disable (the ``--no-oe`` ablation) to
    #: explore every duplicate.  The synthesized program (the *first*
    #: solution) is identical either way, only the amount of duplicated
    #: completion work changes; with ``top_k > 1`` the merged duplicates are
    #: exactly the observationally-coincident alternatives, so later
    #: solutions may be fewer than an exhaustive ``--no-oe`` enumeration.
    oe: bool = True
    #: Use the statistical (bigram) cost model; otherwise order by size only.
    ngram_ranking: bool = True
    #: Largest number of component applications to consider.
    max_size: int = 6
    #: Wall-clock budget in seconds (None = unlimited).
    timeout: Optional[float] = 60.0
    #: Deterministic step budget (frontier states processed, None =
    #: unlimited).  Unlike ``timeout`` this is a *count*, so runs bounded by
    #: it stop at the same search position on any host and under any
    #: scheduler -- tests and CI use it where wall-clock budgets would flip
    #: solve/timeout on slow or single-core machines.
    max_steps: Optional[int] = None
    #: Weight of program size in the hypothesis score (see CostModel).  Large
    #: values approximate a strictly smallest-first search.
    size_weight: float = 1.0
    #: Maximum number of candidate hole fillings tried per sketch (None =
    #: unlimited).  Bounds the damage of a single sketch with a huge
    #: first-order argument space.
    completion_budget: Optional[int] = 6000
    #: How many distinct solutions ``synthesize`` collects before stopping
    #: (the frontier no longer unwinds after the first, so enumeration simply
    #: continues).  Solutions are distinct *programs* -- alternative
    #: generalisations that may coincide on the example's own output; the
    #: first solution is identical for every ``top_k``.  With ``oe`` enabled
    #: some coincident alternatives are merged away -- combine ``top_k > 1``
    #: with ``oe=False`` for exhaustive enumeration.
    top_k: int = 1
    #: Columnar execution backend for the table verbs ("python" or "numpy",
    #: see :mod:`repro.dataframe.backend`).  Backends are observationally
    #: identical -- same cells, fingerprints and error messages -- so this
    #: knob changes wall-clock time only, never the synthesized program.
    backend: str = "python"

    def describe(self) -> str:
        """Short human-readable description used by the benchmark reports."""
        if not self.deduction:
            name = "no-deduction"
        else:
            name = "spec1" if self.spec_level is SpecLevel.SPEC1 else "spec2"
            if not self.partial_evaluation:
                name += "-no-pe"
            if not self.cdcl:
                name += "-no-cdcl"
            if not self.prescreen:
                name += "-no-prescreen"
            if not self.oe:
                name += "-no-oe"
        if self.backend != "python":
            name += f"-{self.backend}"
        return name


@dataclass
class SynthesisStats:
    """Aggregated search statistics for one synthesis run."""

    hypotheses_expanded: int = 0
    hypotheses_enqueued: int = 0
    sketches_generated: int = 0
    sketches_rejected: int = 0
    programs_checked: int = 0
    #: Peak number of simultaneously pending frontier states.
    frontier_peak: int = 0
    deduction: DeductionStats = field(default_factory=DeductionStats)
    completion: CompletionStats = field(default_factory=CompletionStats)
    #: This run's slice of the process-wide SMT formula-cache activity.
    solver_cache: CacheStats = field(default_factory=CacheStats)
    #: This run's slice of the concrete-execution counters (tables built,
    #: cells interned, fingerprint/exec-cache hits, comparison fast paths).
    execution: ExecutionStats = field(default_factory=ExecutionStats)

    @property
    def prune_rate(self) -> float:
        """Fraction of partially-filled sketches pruned before completion."""
        if self.completion.partial_programs == 0:
            return 0.0
        return self.completion.pruned_partial / self.completion.partial_programs

    @property
    def deduction_cache_hit_rate(self) -> float:
        """Fraction of deduction queries answered by the verdict memo."""
        return self.deduction.cache_hit_rate

    @property
    def solver_cache_hit_rate(self) -> float:
        """Fraction of SMT checks answered by the formula cache during this run."""
        return self.solver_cache.hit_rate

    @property
    def lemma_prunes(self) -> int:
        """Hypotheses rejected by the lemma store without an SMT query."""
        return self.deduction.lemma_prunes

    @property
    def lemmas_learned(self) -> int:
        """Blocking lemmas mined from deduction unsat cores this run."""
        return self.deduction.lemmas_learned

    @property
    def smt_calls(self) -> int:
        """Deduction SMT ``check()`` calls issued this run."""
        return self.deduction.smt_calls

    @property
    def prescreen_decided(self) -> int:
        """Deduction queries decided by the tier-1 interval prescreen."""
        return self.deduction.prescreen_decided

    @property
    def prescreen_fallback(self) -> int:
        """Deduction queries the prescreen handed to the SMT tier."""
        return self.deduction.prescreen_fallback

    @property
    def prescreen_hit_rate(self) -> float:
        """Fraction of prescreened queries decided without the solver."""
        return self.deduction.prescreen_hit_rate

    @property
    def oe_candidates(self) -> int:
        """Completion states offered to the observational-equivalence store."""
        return self.completion.oe_candidates

    @property
    def oe_merged(self) -> int:
        """Completion states merged into an earlier OE representative."""
        return self.completion.oe_merged

    @property
    def tables_built(self) -> int:
        """Tables constructed while executing candidate programs this run."""
        return self.execution.tables_built

    @property
    def cells_interned(self) -> int:
        """Cell values deduplicated against the intern pool this run."""
        return self.execution.cells_interned

    @property
    def compare_fastpath_hits(self) -> int:
        """Output comparisons decided by the digest fast path this run."""
        return self.execution.compare_fastpath_hits

    @property
    def exec_cache_hit_rate(self) -> float:
        """Fraction of component executions answered from the execution memo."""
        return self.execution.exec_cache.hit_rate


@dataclass
class SynthesisResult:
    """Outcome of a synthesis run."""

    solved: bool
    program: Optional[Hypothesis]
    elapsed: float
    stats: SynthesisStats
    config: SynthesisConfig
    #: Every solution found, in discovery order (``program`` is the first).
    #: Holds more than one entry only when ``top_k > 1`` was requested.
    programs: List[Hypothesis] = field(default_factory=list)

    def render(self, input_names: Optional[Sequence[str]] = None) -> str:
        """The synthesized program as R-style source text."""
        if self.program is None:
            return "<no program found>"
        return render_program(self.program, input_names)

    def render_all(self, input_names: Optional[Sequence[str]] = None) -> List[str]:
        """Every found program as R-style source text, in discovery order."""
        return [render_program(program, input_names) for program in self.programs]

    @property
    def size(self) -> Optional[int]:
        """Number of components in the synthesized program."""
        return hypothesis_size(self.program) if self.program is not None else None


#: Root directory of the installed ``repro`` package, for frame filtering.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _caller_stacklevel(default: int = 2) -> int:
    """The ``warnings.warn`` stacklevel of the first frame outside ``repro``.

    ``stacklevel=2`` is only right when user code calls ``Morpheus(...)``
    directly; through an internal wrapper (or a subclass ``super().__init__``
    defined inside the package) it would attribute the warning to library
    code.  Walking the stack until the first non-package frame pins the
    warning to the user's own line in every case.
    """
    level = default
    try:
        frame = sys._getframe(default)
    except ValueError:
        return default
    while frame is not None:
        filename = os.path.abspath(frame.f_code.co_filename)
        if not filename.startswith(_PACKAGE_DIR + os.sep):
            return level
        frame = frame.f_back
        level += 1
    return default


class Morpheus:
    """Example-driven synthesizer for table transformation programs.

    .. deprecated::
        Direct ``Morpheus(...)`` construction is deprecated in favour of the
        typed facade: :func:`repro.api.create_session` (interactive sessions)
        or :func:`repro.api.solve` (one-shot).  The class itself remains the
        internal engine behind the facade; ``_sanctioned=True`` marks those
        internal construction sites and suppresses the warning.
    """

    def __init__(
        self,
        library: Optional[ComponentLibrary] = None,
        config: Optional[SynthesisConfig] = None,
        *,
        _sanctioned: bool = False,
    ) -> None:
        if not _sanctioned:
            warnings.warn(
                "Direct Morpheus(...) construction is deprecated; use "
                "repro.api.create_session() (interactive) or repro.api.solve() "
                "(one-shot) instead -- see README 'Migrating to repro.api'.",
                DeprecationWarning,
                stacklevel=_caller_stacklevel(),
            )
        self.library = library if library is not None else standard_library()
        self.config = config if config is not None else SynthesisConfig()
        if self.config.ngram_ranking:
            self.cost_model: CostModel = CostModel(size_weight=self.config.size_weight)
        else:
            self.cost_model = UniformCostModel(size_weight=self.config.size_weight)

    # ------------------------------------------------------------------
    def kernel(self, example: Example, k: Optional[int] = None) -> SearchKernel:
        """Build the anytime search kernel for *example*.

        Direct kernel access is the service-grade API: callers may ``step()``
        it, ``run()`` it against successive deadlines, interleave many
        kernels in one process, or snapshot/restore the search position.
        ``Morpheus.synthesize`` is a convenience wrapper that drives the
        kernel to completion under the configured timeout.
        """
        return SearchKernel(
            example,
            self.config,
            self.library,
            self.cost_model,
            SynthesisStats(),
            k=k if k is not None else self.config.top_k,
        )

    def synthesize(self, example: Example, k: Optional[int] = None) -> SynthesisResult:
        """Algorithm 1: search for (up to *k*) programs consistent with *example*."""
        started = time.monotonic()
        deadline = (
            started + self.config.timeout if self.config.timeout is not None else None
        )
        # The session API installs the configured backend through its
        # TaskContext; this convenience driver installs it around the run so
        # ``config.backend`` is honored on the direct path too.
        previous = install_backend(self.config.backend)
        try:
            kernel = self.kernel(example, k=k)
            kernel.run(deadline=deadline, max_steps=self.config.max_steps)
            return self.finalize(kernel, elapsed=time.monotonic() - started)
        finally:
            install_backend(previous)

    def finalize(self, kernel: SearchKernel, elapsed: Optional[float] = None) -> SynthesisResult:
        """Package a (driven) kernel's state into a :class:`SynthesisResult`.

        The kernel's construction-time baselines attribute a slice of the
        process-wide solver-cache and execution counters to this run, so the
        counters are identical whether the kernel ran standalone or inside
        an isolated :class:`~repro.engine.context.TaskContext`.
        """
        stats = kernel.stats
        stats.frontier_peak = kernel.frontier.peak
        stats.solver_cache = (
            formula_cache_stats().snapshot().since(kernel.solver_cache_baseline)
        )
        stats.execution = (
            execution_stats().snapshot().since(kernel.execution_baseline)
        )
        # Warm-start tier: flush the run's mined lemmas to the attached
        # knowledge base, if any.
        kernel.export_kb_facts()
        program = kernel.solutions[0] if kernel.solutions else None
        return SynthesisResult(
            solved=program is not None,
            program=program,
            elapsed=elapsed if elapsed is not None else kernel.active_seconds,
            stats=stats,
            config=self.config,
            programs=list(kernel.solutions),
        )


def synthesize(
    inputs: Sequence[Table],
    output: Table,
    library: Optional[ComponentLibrary] = None,
    config: Optional[SynthesisConfig] = None,
    k: Optional[int] = None,
) -> SynthesisResult:
    """One-call convenience API: synthesize a program from input/output tables."""
    return Morpheus(library, config, _sanctioned=True).synthesize(
        Example.make(inputs, output), k=k
    )
