"""The data types of one synthesis task (Section 5 of the paper).

:class:`Example` is an input-output example, :class:`SynthesisConfig` the
knobs of Algorithm 1, :class:`SynthesisStats` the search's counter block and
:class:`SynthesisResult` what a finished search found.  The search itself is the anytime
:class:`~repro.core.frontier.SearchKernel`; :class:`repro.api.SynthesisSession`
is the one owner that builds, drives and finishes it.

Ablations used by the evaluation harness are exposed through
:class:`SynthesisConfig`: deduction on/off, Spec 1 vs Spec 2, partial
evaluation on/off, n-gram vs uniform hypothesis ranking, and
observational-equivalence merging on/off (``--no-oe``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..dataframe.table import Table
from .abstraction import SpecLevel
from .hypothesis import Hypothesis, hypothesis_size, render_program


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

    #: Use deduction to reject hypotheses / partial programs: the tier-1
    #: interval prescreen, then one SMT check (see
    #: :meth:`~repro.core.deduction.DeductionEngine.deduce`).
    deduction: bool = True
    #: Which component specification to use for deduction.
    spec_level: SpecLevel = SpecLevel.SPEC2
    #: Use partial evaluation inside deduction.
    partial_evaluation: bool = True
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
    #: How many distinct solutions a search collects before stopping
    #: (the frontier no longer unwinds after the first, so enumeration simply
    #: continues).  Solutions are distinct *programs* -- alternative
    #: generalisations that may coincide on the example's own output; the
    #: first solution is identical for every ``top_k``.  With ``oe`` enabled
    #: some coincident alternatives are merged away -- combine ``top_k > 1``
    #: with ``oe=False`` for exhaustive enumeration.
    top_k: int = 1

    def describe(self) -> str:
        """Short human-readable description used by the benchmark reports."""
        if not self.deduction:
            name = "no-deduction"
        else:
            name = "spec1" if self.spec_level is SpecLevel.SPEC1 else "spec2"
            if not self.partial_evaluation:
                name += "-no-pe"
            if not self.oe:
                name += "-no-oe"
        return name


@dataclass
class SynthesisStats:
    """The search's counter block, shared by the kernel, engine and completer.

    Each field is a key of :meth:`repro.api.SynthesisSession.counters`, in
    the schema's order: adding a counter is one field here plus its
    increment where the work happens.
    """

    hypotheses_expanded: int = 0
    hypotheses_enqueued: int = 0
    sketches_generated: int = 0
    sketches_rejected: int = 0
    programs_checked: int = 0
    partial_programs: int = 0
    pruned_partial: int = 0
    #: Node-boundary states offered to the observational-equivalence store.
    oe_candidates: int = 0
    #: Of those, states merged into an earlier representative (the duplicate
    #: completion work behind them was skipped).
    oe_merged: int = 0
    #: Sibling-fill groups pre-executed through ``batch_evaluate_fills``.
    sibling_batches: int = 0
    #: Individual hole fillings executed inside those groups.
    batched_fills: int = 0
    smt_calls: int = 0
    #: Deduction queries decided UNSAT by the tier-1 interval prescreen
    #: (no ``Formula`` was built, no solver ran).
    prescreen_decided: int = 0
    #: Queries the prescreen swept inconclusively before falling through to
    #: the SMT tier.
    prescreen_fallback: int = 0


@dataclass
class SynthesisResult:
    """Outcome of a synthesis run."""

    solved: bool
    program: Optional[Hypothesis]
    elapsed: float
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
