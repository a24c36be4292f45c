"""The sanctioned public facade of the synthesizer.

Every consumer-facing path -- the HTTP service (:mod:`repro.service`), the
benchmark runner (:mod:`repro.benchmarks.runner`) and the example scripts --
goes through this module instead of constructing :class:`repro.core.Morpheus`
directly.  The facade owns three things:

* **Typed request/response dataclasses** with ``to_json()``/``from_json()``
  (:class:`SynthesisRequest`, :class:`SynthesisResult`,
  :class:`CandidateProgram`, :class:`SessionState`), so table-JSON
  (de)serialisation lives in exactly one place.
* **Interactive sessions** (:class:`SynthesisSession` via
  :func:`create_session`): an anytime search that can be advanced in bounded
  slices, streamed for candidates, *suspended and resumed* when the caller
  adds a distinguishing example -- the frontier position, the
  observational-equivalence store and every search counter carry over
  instead of restarting.
* **One-shot solving** (:func:`solve`), the request-in/result-out wrapper
  both the CLI-free quickstart path and the service's synchronous mode use.

Multi-example semantics
-----------------------

The search kernel enumerates against the *primary* (first) example: its
deduction engine prunes with respect to that example alone, which is sound
because any program consistent with every example is in particular
consistent with the first.  Later examples act as **validators**: every
program the kernel surfaces is executed against them, candidates that fail
are reported (``validated=False``) but do not consume the solution quota,
and the search simply continues.  Adding an example therefore never restarts
the search -- it revalidates the existing candidates and resumes the
suspended frontier via :meth:`~repro.core.frontier.SearchKernel.suspend` /
:meth:`~repro.core.frontier.SearchKernel.restore`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .components.errors import PRUNABLE_ERRORS
from .core.abstraction import SpecLevel
from .core.frontier import SearchKernel
from .core.hypothesis import (
    EvaluationFailure,
    Hypothesis,
    evaluate,
    hypothesis_size,
    render_program,
)
from .core.library import sql_library, standard_library
from .core.synthesizer import (
    Example,
    Morpheus,
    SynthesisConfig,
    SynthesisStats,
)
from .core.synthesizer import SynthesisResult as CoreSynthesisResult
from .dataframe.backend import BackendUnavailableError, resolve_backend
from .dataframe.cells import CellType
from .dataframe.compare import tables_match_for_synthesis
from .dataframe.table import Table
from .engine.context import TaskContext

#: Session lifecycle states (see DESIGN.md, "Synthesis as a service").
STATUS_CREATED = "created"
STATUS_SEARCHING = "searching"
STATUS_DONE = "done"
STATUS_EXHAUSTED = "exhausted"
STATUS_TIMEOUT = "timeout"

#: States in which a session has no more search work to do.
FINISHED_STATUSES = (STATUS_DONE, STATUS_EXHAUSTED, STATUS_TIMEOUT)

#: Component libraries a request may name.
LIBRARIES = {
    "standard": standard_library,
    "sql": sql_library,
}

#: Kernel steps per scheduling slice when a session is advanced without an
#: explicit ``max_steps`` (matches the engine's interleaving default).
DEFAULT_SLICE_STEPS = 64


class RequestError(ValueError):
    """A request payload could not be interpreted (the service maps it to 400)."""


# ----------------------------------------------------------------------
# Table / example / config (de)serialisation -- the one place it lives
# ----------------------------------------------------------------------
def table_to_json(table: Table) -> dict:
    """A JSON-able description of *table* (columns, rows, explicit types)."""
    return {
        "columns": list(table.columns),
        "col_types": [col_type.value for col_type in table.col_types],
        "rows": [list(row) for row in table.rows],
    }


def table_from_json(payload: dict) -> Table:
    """Rebuild a :class:`Table` from :func:`table_to_json` output.

    ``col_types`` is optional (types are inferred when absent, as in a
    hand-written request); malformed payloads raise :class:`RequestError`.
    """
    if not isinstance(payload, dict):
        raise RequestError(f"table payload must be an object, got {type(payload).__name__}")
    try:
        columns = payload["columns"]
        rows = payload["rows"]
    except KeyError as error:
        raise RequestError(f"table payload is missing {error.args[0]!r}") from error
    col_types = payload.get("col_types")
    if col_types is not None:
        try:
            col_types = [CellType(value) for value in col_types]
        except ValueError as error:
            raise RequestError(f"unknown column type: {error}") from error
    try:
        return Table(columns, rows, col_types=col_types)
    except Exception as error:
        raise RequestError(f"invalid table payload: {error}") from error


def config_to_json(config: SynthesisConfig) -> dict:
    """The configuration's knobs as a JSON-able dict (enums by value)."""
    payload = {f.name: getattr(config, f.name) for f in fields(config)}
    payload["spec_level"] = config.spec_level.value
    return payload


def config_from_json(payload: dict) -> SynthesisConfig:
    """Rebuild a :class:`SynthesisConfig`; unknown knobs raise :class:`RequestError`."""
    known = {f.name for f in fields(SynthesisConfig)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise RequestError(f"unknown config knobs: {unknown}")
    knobs = dict(payload)
    if "spec_level" in knobs:
        try:
            knobs["spec_level"] = SpecLevel(knobs["spec_level"])
        except ValueError as error:
            raise RequestError(f"unknown spec_level: {error}") from error
    try:
        return SynthesisConfig(**knobs)
    except TypeError as error:
        raise RequestError(f"invalid config payload: {error}") from error


@dataclass(frozen=True)
class ExamplePayload:
    """One input-output example as submitted by a client."""

    inputs: Tuple[Table, ...]
    output: Table

    @staticmethod
    def make(inputs: Sequence[Table], output: Table) -> "ExamplePayload":
        return ExamplePayload(tuple(inputs), output)

    def to_example(self) -> Example:
        return Example(self.inputs, self.output)

    def to_json(self) -> dict:
        return {
            "inputs": [table_to_json(table) for table in self.inputs],
            "output": table_to_json(self.output),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ExamplePayload":
        if not isinstance(payload, dict):
            raise RequestError("example payload must be an object")
        inputs = payload.get("inputs")
        if not isinstance(inputs, list) or not inputs:
            raise RequestError("example payload needs a non-empty 'inputs' list")
        if "output" not in payload:
            raise RequestError("example payload is missing 'output'")
        return cls(
            tuple(table_from_json(table) for table in inputs),
            table_from_json(payload["output"]),
        )


@dataclass(frozen=True)
class SynthesisRequest:
    """A typed synthesis request (what ``POST /v1/sessions`` accepts)."""

    examples: Tuple[ExamplePayload, ...]
    config: SynthesisConfig = field(default_factory=SynthesisConfig)
    library: str = "standard"

    @staticmethod
    def from_tables(
        inputs: Sequence[Table],
        output: Table,
        config: Optional[SynthesisConfig] = None,
        library: str = "standard",
        **knobs,
    ) -> "SynthesisRequest":
        """Convenience constructor for the common one-example case.

        Extra keyword arguments are :class:`SynthesisConfig` knobs applied on
        top of *config* (or the defaults), e.g. ``timeout=30, top_k=2``.
        """
        config = config if config is not None else SynthesisConfig()
        if knobs:
            config = replace(config, **knobs)
        return SynthesisRequest(
            (ExamplePayload.make(inputs, output),), config=config, library=library
        )

    def component_library(self):
        try:
            return LIBRARIES[self.library]()
        except KeyError:
            raise RequestError(
                f"unknown library {self.library!r} (expected one of {sorted(LIBRARIES)})"
            ) from None

    def to_json(self) -> dict:
        return {
            "examples": [example.to_json() for example in self.examples],
            "config": config_to_json(self.config),
            "library": self.library,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SynthesisRequest":
        if not isinstance(payload, dict):
            raise RequestError("request payload must be an object")
        examples = payload.get("examples")
        if not isinstance(examples, list) or not examples:
            raise RequestError("request needs a non-empty 'examples' list")
        config = payload.get("config")
        library = payload.get("library", "standard")
        if library not in LIBRARIES:
            raise RequestError(
                f"unknown library {library!r} (expected one of {sorted(LIBRARIES)})"
            )
        return cls(
            tuple(ExamplePayload.from_json(example) for example in examples),
            config=config_from_json(config) if config is not None else SynthesisConfig(),
            library=library,
        )


@dataclass(frozen=True)
class CandidateProgram:
    """One synthesized program, in discovery (cost) order."""

    #: Rendered R-style source text.
    program: str
    #: Number of component applications.
    size: int
    #: 1-based discovery rank.
    rank: int
    #: True when the program is consistent with *every* example known at the
    #: time of reporting (adding an example revalidates earlier candidates).
    validated: bool = True

    def to_json(self) -> dict:
        return {
            "program": self.program,
            "size": self.size,
            "rank": self.rank,
            "validated": self.validated,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CandidateProgram":
        return cls(
            program=payload["program"],
            size=payload["size"],
            rank=payload["rank"],
            validated=payload.get("validated", True),
        )


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of a facade-level synthesis run (JSON-able).

    The stats-rich internal result (:class:`repro.core.SynthesisResult`)
    remains available through :meth:`SynthesisSession.solve` for harnesses
    that diff raw counters; this is the wire-format summary.
    """

    solved: bool
    status: str
    candidates: Tuple[CandidateProgram, ...]
    elapsed: float
    counters: Dict[str, float]

    @property
    def program(self) -> Optional[str]:
        """The first validated program's source text (None when unsolved)."""
        for candidate in self.candidates:
            if candidate.validated:
                return candidate.program
        return None

    def to_json(self) -> dict:
        return {
            "solved": self.solved,
            "status": self.status,
            "candidates": [candidate.to_json() for candidate in self.candidates],
            "elapsed": self.elapsed,
            "counters": dict(self.counters),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SynthesisResult":
        return cls(
            solved=payload["solved"],
            status=payload["status"],
            candidates=tuple(
                CandidateProgram.from_json(candidate)
                for candidate in payload.get("candidates", ())
            ),
            elapsed=payload.get("elapsed", 0.0),
            counters=dict(payload.get("counters", {})),
        )


@dataclass(frozen=True)
class SessionState:
    """A point-in-time description of a session (what ``GET`` endpoints return)."""

    status: str
    examples: int
    target: int
    candidates: Tuple[CandidateProgram, ...]
    counters: Dict[str, float]

    @property
    def solved(self) -> bool:
        return any(candidate.validated for candidate in self.candidates)

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "examples": self.examples,
            "target": self.target,
            "candidates": [candidate.to_json() for candidate in self.candidates],
            "counters": dict(self.counters),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SessionState":
        return cls(
            status=payload["status"],
            examples=payload["examples"],
            target=payload["target"],
            candidates=tuple(
                CandidateProgram.from_json(candidate)
                for candidate in payload.get("candidates", ())
            ),
            counters=dict(payload.get("counters", {})),
        )


# ----------------------------------------------------------------------
# Interactive sessions
# ----------------------------------------------------------------------
class SynthesisSession:
    """An anytime, resumable synthesis search for one request.

    The session owns a :class:`~repro.engine.context.TaskContext` (private
    intern pool, execution counters and formula cache -- the same isolation
    the interleaved benchmark scheduler uses) and a
    :class:`~repro.core.frontier.SearchKernel` that is constructed, stepped,
    suspended and restored strictly inside that context.  It is
    single-threaded by design: the service serialises all stepping onto one
    scheduler thread, and :meth:`advance` doubles as a
    :meth:`repro.engine.parallel.KernelInterleaver.add_driver` driver.

    Lifecycle: ``created`` -> ``searching`` -> ``done`` (quota of validated
    programs met) | ``exhausted`` (frontier drained) | ``timeout`` (active
    budget spent).  :meth:`add_example` moves any of the finished states back
    to ``searching`` when the surviving candidates no longer meet the quota.
    """

    def __init__(self, request: SynthesisRequest, library=None, kb=None) -> None:
        if not request.examples:
            raise RequestError("a session needs at least one example")
        self.request = request
        try:
            backend = resolve_backend(request.config.backend)
        except (ValueError, BackendUnavailableError) as error:
            raise RequestError(str(error)) from error
        # *kb* attaches a warm-start knowledge base (repro.engine.kb) to the
        # session's context; None inherits the process default, if any.
        self.context = TaskContext(kb=kb, backend=backend)
        self.status = STATUS_CREATED
        self._examples: List[Example] = [
            payload.to_example() for payload in request.examples
        ]
        self._target = max(1, request.config.top_k)
        self._stats = SynthesisStats()
        self._candidates: List[CandidateProgram] = []
        self._programs: List[Hypothesis] = []
        self._drained = 0
        self._steps_before = 0
        self._active_before = 0.0
        self._frontier_peak = 0
        self._resumes = 0
        with self.context.active():
            self._morpheus = Morpheus(
                library=library if library is not None else request.component_library(),
                config=request.config,
                _sanctioned=True,
            )
            started = time.perf_counter()
            self._kernel = SearchKernel(
                self._examples[0],
                self._morpheus.config,
                self._morpheus.library,
                self._morpheus.cost_model,
                self._stats,
                k=self._target,
            )
            self._kernel.active_seconds += time.perf_counter() - started

    # ------------------------------------------------------------------
    @property
    def examples(self) -> Tuple[Example, ...]:
        return tuple(self._examples)

    @property
    def candidates(self) -> Tuple[CandidateProgram, ...]:
        return tuple(self._candidates)

    @property
    def target(self) -> int:
        """The requested number of validated programs (``config.top_k``)."""
        return self._target

    @property
    def validated_count(self) -> int:
        return sum(1 for candidate in self._candidates if candidate.validated)

    @property
    def finished(self) -> bool:
        return self.status in FINISHED_STATUSES

    @property
    def active_seconds(self) -> float:
        """Seconds of kernel work charged to this session (across resumes)."""
        return self._active_before + self._kernel.active_seconds

    @property
    def steps(self) -> int:
        """Kernel steps taken by this session (across resumes)."""
        return self._steps_before + self._kernel.steps_taken

    @property
    def resumes(self) -> int:
        """How many times the frontier was suspended and restored."""
        return self._resumes

    # ------------------------------------------------------------------
    def advance(self, max_steps: int = DEFAULT_SLICE_STEPS) -> bool:
        """Run one bounded scheduling slice; True when the session finished.

        The per-session budget (``config.timeout``) is charged against
        *active* time -- the seconds this session's own steps consumed --
        exactly like interleaved benchmark tasks, so many sessions sharing
        one scheduler neither starve nor subsidise one another.
        """
        if self.finished:
            return True
        with self.context.active():
            budget = self.request.config.timeout
            remaining = None if budget is None else budget - self.active_seconds
            step_budget = self.request.config.max_steps
            if step_budget is not None:
                max_steps = min(max_steps, step_budget - self.steps)
            if (remaining is None or remaining > 0) and max_steps > 0:
                deadline = None if remaining is None else time.monotonic() + remaining
                self._kernel.run(deadline=deadline, max_steps=max_steps)
            self._drain()
            self._update_status()
        return self.finished

    def _update_status(self) -> None:
        budget = self.request.config.timeout
        step_budget = self.request.config.max_steps
        if self.validated_count >= self._target:
            self.status = STATUS_DONE
        elif self._kernel.exhausted:
            self.status = STATUS_EXHAUSTED
        elif budget is not None and self.active_seconds >= budget:
            self.status = STATUS_TIMEOUT
        elif step_budget is not None and self.steps >= step_budget:
            # A spent step budget is a deterministic timeout: the search
            # stopped at a host-independent position rather than a clock.
            self.status = STATUS_TIMEOUT
        else:
            self.status = STATUS_SEARCHING

    def _drain(self) -> None:
        """Pull newly found kernel solutions; validate against later examples."""
        kernel = self._kernel
        while self._drained < len(kernel.solutions):
            program = kernel.solutions[self._drained]
            self._drained += 1
            validated = all(
                self._passes(program, example) for example in self._examples[1:]
            )
            self._programs.append(program)
            self._candidates.append(
                CandidateProgram(
                    program=render_program(program),
                    size=hypothesis_size(program),
                    rank=len(self._candidates) + 1,
                    validated=validated,
                )
            )
            if not validated:
                # The candidate overfits the primary example; it must not
                # consume the quota of validated programs -- widen the
                # kernel's own quota so the enumeration keeps going.
                kernel.k += 1

    def _passes(self, program: Hypothesis, example: Example) -> bool:
        """CHECK(p, E) against a validation example.

        The fingerprint-keyed execution cache is shared (it keys on input
        table content, so entries for different examples never collide); the
        node-keyed evaluation memo is *not* -- it is only sound for the
        primary example's inputs.
        """
        try:
            actual = evaluate(
                program, example.inputs,
                exec_cache=self._kernel.engine.execution_cache,
            )
        except (EvaluationFailure, *PRUNABLE_ERRORS):
            return False
        return tables_match_for_synthesis(actual, example.output)

    # ------------------------------------------------------------------
    def add_example(self, example: Union[ExamplePayload, Example, tuple]) -> SessionState:
        """Add a distinguishing example and *resume* the suspended search.

        The kernel is suspended (frontier snapshot at hypothesis granularity,
        in-flight OE admissions withdrawn), existing candidates are
        revalidated against the new example, and a successor kernel is
        restored onto the same frontier position, observational-equivalence
        store and counter block.  Nothing is re-enumerated: states the
        suspended search already merged stay merged, the counters continue
        monotonically, and the solution quota is recomputed from the
        candidates that still validate.
        """
        coerced = self._coerce(example)
        with self.context.active():
            kernel = self._kernel
            payload = kernel.suspend()
            self._steps_before += kernel.steps_taken
            self._active_before += kernel.active_seconds
            self._frontier_peak = max(self._frontier_peak, kernel.frontier.peak)
            self._examples.append(coerced)
            self._candidates = [
                replace(
                    candidate,
                    validated=candidate.validated and self._passes(program, coerced),
                )
                for candidate, program in zip(self._candidates, self._programs)
            ]
            needed = self._target - self.validated_count
            payload["k"] = max(0, needed)
            self._kernel = SearchKernel.restore(
                payload,
                self._examples[0],
                self._morpheus.config,
                self._morpheus.library,
                self._morpheus.cost_model,
                self._stats,
                oe_store=kernel.oe_store,
            )
            # The successor kernel's solution list starts empty; the session
            # keeps the already-drained candidates itself.
            self._drained = 0
            self._resumes += 1
            self._update_status()
        return self.state()

    def snapshot_payload(self) -> dict:
        """The kernel's JSON-able resume state (see ``SearchKernel.snapshot``).

        Read-only -- the session keeps running.  Must not be called while
        another thread is stepping the session (the service's work lock
        serialises the two).
        """
        with self.context.active():
            return self._kernel.snapshot()

    @staticmethod
    def _coerce(example) -> Example:
        if isinstance(example, Example):
            return example
        if isinstance(example, ExamplePayload):
            return example.to_example()
        inputs, output = example
        return Example.make(inputs, output)

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        """The session's cumulative (resume-surviving) search counters."""
        stats = self._stats
        execution = self.context.execution
        kernel = self._kernel
        return {
            "steps": self.steps,
            "resumes": self._resumes,
            "active_seconds": round(self.active_seconds, 6),
            "frontier_peak": max(self._frontier_peak, kernel.frontier.peak),
            "hypotheses_expanded": stats.hypotheses_expanded,
            "hypotheses_enqueued": stats.hypotheses_enqueued,
            "sketches_generated": stats.sketches_generated,
            "sketches_rejected": stats.sketches_rejected,
            "programs_checked": stats.programs_checked,
            "partial_programs": stats.completion.partial_programs,
            "pruned_partial": stats.completion.pruned_partial,
            "oe_candidates": stats.completion.oe_candidates,
            "oe_merged": stats.completion.oe_merged,
            "sibling_batches": stats.completion.sibling_batches,
            "batched_fills": stats.completion.batched_fills,
            "smt_calls": stats.deduction.smt_calls,
            "smt_sessions": stats.deduction.smt_sessions,
            "smt_session_reuse": stats.deduction.smt_session_reuse,
            "prescreen_decided": stats.deduction.prescreen_decided,
            "prescreen_fallback": stats.deduction.prescreen_fallback,
            "lemma_prunes": stats.deduction.lemma_prunes,
            "lemmas_learned": stats.deduction.lemmas_learned,
            "tables_built": execution.tables_built,
            "cells_interned": execution.cells_interned,
            "fingerprint_hits": execution.fingerprint_hits,
            "exec_cache_hits": execution.exec_cache.hits,
            "compare_fastpath_hits": execution.compare_fastpath_hits,
        }

    def state(self) -> SessionState:
        return SessionState(
            status=self.status,
            examples=len(self._examples),
            target=self._target,
            candidates=self.candidates,
            counters=self.counters(),
        )

    def result(self) -> SynthesisResult:
        return SynthesisResult(
            solved=self.validated_count > 0,
            status=self.status,
            candidates=self.candidates,
            elapsed=self.active_seconds,
            counters=self.counters(),
        )

    # ------------------------------------------------------------------
    def solve(self) -> CoreSynthesisResult:
        """Drive the session to completion; return the stats-rich core result.

        Single-example sessions reproduce ``Morpheus.synthesize`` exactly
        (same wall-clock deadline handling, same counter windows -- the
        benchmark harness diffs these byte-for-byte across schedulers);
        multi-example sessions keep searching until a candidate passes every
        example or the budget expires.
        """
        started = time.monotonic()
        timeout = self.request.config.timeout
        deadline = started + timeout if timeout is not None else None
        step_budget = self.request.config.max_steps
        with self.context.active():
            while True:
                remaining_steps = (
                    None if step_budget is None else step_budget - self.steps
                )
                if remaining_steps is not None and remaining_steps <= 0:
                    break
                self._kernel.run(deadline=deadline, max_steps=remaining_steps)
                self._drain()
                if self.validated_count >= self._target or self._kernel.exhausted:
                    break
                if deadline is not None and time.monotonic() > deadline:
                    break
                if step_budget is not None and self.steps >= step_budget:
                    break
            self._update_status()
            if self.status == STATUS_SEARCHING:
                # The only way out of the loop while still searching is the
                # wall-clock deadline (active time may lag wall time).
                self.status = STATUS_TIMEOUT
            result = self._morpheus.finalize(
                self._kernel, elapsed=time.monotonic() - started
            )
        if len(self._examples) > 1:
            # The core result reports programs consistent with *every*
            # example, not just the primary one the kernel enumerates on.
            validated = [
                program
                for candidate, program in zip(self._candidates, self._programs)
                if candidate.validated
            ]
            result.programs = validated
            result.program = validated[0] if validated else None
            result.solved = bool(validated)
        return result


def create_session(
    request: SynthesisRequest, library=None, kb=None
) -> SynthesisSession:
    """Create an interactive synthesis session (the sanctioned entry point).

    *library* optionally overrides the component library object (the request
    names one of :data:`LIBRARIES` otherwise).  *kb* attaches a warm-start
    :class:`~repro.engine.kb.KnowledgeBase` (None inherits the process
    default installed via :func:`repro.engine.kb.set_default_kb`).
    """
    return SynthesisSession(request, library=library, kb=kb)


def solve(request: SynthesisRequest, library=None, kb=None) -> SynthesisResult:
    """One-shot facade: drive *request* to completion, return the JSON-able result."""
    session = create_session(request, library=library, kb=kb)
    core = session.solve()
    result = session.result()
    # ``solve`` ran under a wall clock, which is the elapsed callers expect.
    return replace(result, elapsed=core.elapsed)
