"""The sanctioned public facade of the synthesizer.

Every consumer-facing path -- the HTTP service (:mod:`repro.service`), the
benchmark runner (:mod:`repro.benchmarks.runner`) and the example scripts --
goes through this module.  :class:`SynthesisSession` is the only code that
builds, drives and finishes a :class:`~repro.core.frontier.SearchKernel`.
The facade owns three things:

* **Typed request/response dataclasses** with ``to_json()``/``from_json()``
  (:class:`SynthesisRequest`, :class:`SynthesisResult`,
  :class:`CandidateProgram`, :class:`SessionState`), so table, example and
  config (de)serialisation lives in exactly one place.
* **Interactive sessions** (:class:`SynthesisSession` via
  :func:`create_session`): an anytime search that can be advanced in bounded
  slices, streamed for candidates, and continued when the caller adds a
  distinguishing example -- one kernel serves the session for its whole
  life, so nothing restarts and every counter keeps counting.
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
and the search simply continues.  Adding an example therefore never touches
the kernel's search: it revalidates the existing candidates and raises the
kernel's quota by the validated programs still missing.  A kernel that met
its quota keeps every pending state, so the raised quota continues exactly
the search an uninterrupted kernel would have run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, get_args, get_type_hints

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
    SynthesisConfig,
)
from .core.synthesizer import SynthesisResult as CoreSynthesisResult
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

#: Schema keys measured by a clock rather than counted: they differ run to
#: run, so deterministic views (``--json`` rows, determinism gates) drop them.
CLOCK_COUNTERS = ("active_seconds",)

#: Kernel steps per scheduling slice: the default ``max_steps`` of
#: :meth:`SynthesisSession.advance`, and the slice the service's scheduler
#: grants each session per round-robin pass.
DEFAULT_SLICE_STEPS = 64


def sum_counters(
    dicts: Iterable[Dict[str, float]], totals: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """Add counter dicts (:meth:`SynthesisSession.counters`) key by key.

    Every view that totals the schema -- ``--stats``, ``--json``,
    ``pruning``, ``/metrics`` -- goes through here.  *totals*, when given,
    is updated in place and returned.
    """
    totals = {} if totals is None else totals
    for counters in dicts:
        for name, value in counters.items():
            totals[name] = totals.get(name, 0) + value
    return totals


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


def example_to_json(example: Example) -> dict:
    """A JSON-able description of *example* (its input tables and output)."""
    return {
        "inputs": [table_to_json(table) for table in example.inputs],
        "output": table_to_json(example.output),
    }


def example_from_json(payload: dict) -> Example:
    """Rebuild an :class:`Example` from :func:`example_to_json` output."""
    if not isinstance(payload, dict):
        raise RequestError("example payload must be an object")
    inputs = payload.get("inputs")
    if not isinstance(inputs, list) or not inputs:
        raise RequestError("example payload needs a non-empty 'inputs' list")
    if "output" not in payload:
        raise RequestError("example payload is missing 'output'")
    return Example(
        tuple(table_from_json(table) for table in inputs),
        table_from_json(payload["output"]),
    )


def check_input_counts(examples: Sequence[Example]) -> None:
    """Reject examples whose number of input tables differs from the first's.

    A program reads a fixed number of tables, so an example with more or
    fewer inputs than the primary one could never validate it.
    """
    expected = len(examples[0].inputs)
    for index, example in enumerate(examples[1:], 1):
        if len(example.inputs) != expected:
            raise RequestError(
                f"example {index} has {len(example.inputs)} input tables, "
                f"the primary example has {expected}"
            )


def config_to_json(config: SynthesisConfig) -> dict:
    """The configuration's knobs as a JSON-able dict (enums by value)."""
    payload = {f.name: getattr(config, f.name) for f in fields(config)}
    payload["spec_level"] = config.spec_level.value
    return payload


#: Each knob's declared type (``Optional[...]`` knobs also accept null).
_KNOB_TYPES = get_type_hints(SynthesisConfig)


def _check_knob(name: str, value) -> None:
    """Reject a knob value of the wrong type, non-finite, or negative."""
    expected = _KNOB_TYPES[name]
    if value is None and type(None) in get_args(expected):
        return
    kind = get_args(expected)[0] if get_args(expected) else expected
    if kind is bool:
        if not isinstance(value, bool):
            raise RequestError(f"config knob {name!r} must be true or false, got {value!r}")
        return
    if kind in (int, float):
        allowed = int if kind is int else (int, float)
        if isinstance(value, bool) or not isinstance(value, allowed):
            noun = "an integer" if kind is int else "a number"
            raise RequestError(f"config knob {name!r} must be {noun}, got {value!r}")
        if not math.isfinite(value) or value < 0:
            raise RequestError(
                f"config knob {name!r} must be finite and non-negative, got {value!r}"
            )


def config_from_json(payload: dict) -> SynthesisConfig:
    """Rebuild a :class:`SynthesisConfig`; bad knobs raise :class:`RequestError`.

    Unknown knobs, values of the wrong type (``"7"`` for a count, ``"no"``
    for a switch), non-finite numbers (``json`` parses ``NaN``) and negative
    numbers are all rejected here, before a session is created, and so is a
    ``top_k`` below 1 (a session collects at least one program).
    """
    if not isinstance(payload, dict):
        raise RequestError("config payload must be an object")
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
    for name, value in knobs.items():
        _check_knob(name, value)
    if knobs.get("top_k", 1) < 1:
        raise RequestError(f"config knob 'top_k' must be at least 1, got {knobs['top_k']!r}")
    return SynthesisConfig(**knobs)


@dataclass(frozen=True)
class SynthesisRequest:
    """A typed synthesis request (what ``POST /v1/sessions`` accepts)."""

    examples: Tuple[Example, ...]
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
            (Example.make(inputs, output),), config=config, library=library
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
            "examples": [example_to_json(example) for example in self.examples],
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
        examples = tuple(example_from_json(example) for example in examples)
        check_input_counts(examples)
        return cls(
            examples,
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
    intern pool, execution counters and formula cache) and a
    :class:`~repro.core.frontier.SearchKernel` that is constructed and
    stepped strictly inside that context, and kept for the session's whole
    life.  It is single-threaded by design: the service serialises all
    stepping onto one scheduler thread, which grants each session one
    :meth:`advance` slice per round-robin pass.

    Lifecycle: ``created`` -> ``searching`` -> ``done`` (quota of validated
    programs met) | ``exhausted`` (frontier drained) | ``timeout`` (active
    budget spent).  :meth:`add_example` moves any of the finished states back
    to ``searching`` when the surviving candidates no longer meet the quota.
    """

    def __init__(self, request: SynthesisRequest, library=None, kb=None) -> None:
        if not request.examples:
            raise RequestError("a session needs at least one example")
        check_input_counts(request.examples)
        self.request = request
        #: The warm-start knowledge base (repro.engine.kb) the kernel reads
        #: and writes; None runs the search without one.
        self.kb = kb
        self.context = TaskContext()
        self.status = STATUS_CREATED
        self._examples: List[Example] = list(request.examples)
        self._target = request.config.top_k
        self._candidates: List[CandidateProgram] = []
        self._programs: List[Hypothesis] = []
        self._drained = 0
        self._resumes = 0
        with self.context.active():
            self._library = library if library is not None else request.component_library()
            started = time.perf_counter()
            self._kernel = SearchKernel(
                self._examples[0], request.config, self._library, k=self._target, kb=kb
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
        """Seconds of kernel work charged to this session."""
        return self._kernel.active_seconds

    @property
    def steps(self) -> int:
        """Kernel steps taken by this session."""
        return self._kernel.steps_taken

    @property
    def resumes(self) -> int:
        """How many examples were added after the session was created."""
        return self._resumes

    # ------------------------------------------------------------------
    def advance(self, max_steps: Optional[int] = DEFAULT_SLICE_STEPS) -> bool:
        """Run one bounded scheduling slice; True when the session finished.

        The per-session budget (``config.timeout``) is charged against
        *active* time -- the seconds this session's own steps consumed --
        so many sessions sharing one scheduler neither starve nor subsidise
        one another.  ``max_steps=None`` lifts the slice limit: the session
        runs until it finishes (what :meth:`solve` does).
        """
        if self.finished:
            return True
        budget = self.request.config.timeout
        step_budget = self.request.config.max_steps
        with self.context.active():
            while True:
                remaining = None if budget is None else budget - self.active_seconds
                steps = max_steps
                if step_budget is not None:
                    left = step_budget - self.steps
                    steps = left if steps is None else min(steps, left)
                if (remaining is None or remaining > 0) and (steps is None or steps > 0):
                    deadline = None if remaining is None else time.monotonic() + remaining
                    self._kernel.run(deadline=deadline, max_steps=steps)
                self._drain()
                self._update_status()
                # Without a slice limit, keep going: the kernel stops early
                # when a candidate fails a later example (the drain widened
                # its quota) or when its deadline fires a hair before the
                # active clock reaches the budget.
                if max_steps is not None or self.finished:
                    break
        if self.finished and self.kb is not None:
            # The search's facts reach disk when it finishes (write-behind).
            self.kb.flush()
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
    def add_example(self, example: Example) -> SessionState:
        """Add a distinguishing example and continue the same search.

        Existing candidates are revalidated against the new example, and the
        kernel's quota is raised by the validated programs still missing.
        The kernel itself is untouched: its frontier, its
        observational-equivalence store and its counters carry on.  An
        example with the wrong number of input tables raises
        :class:`RequestError` and leaves the session unchanged.
        """
        check_input_counts((self._examples[0], example))
        with self.context.active():
            self._examples.append(example)
            self._candidates = [
                replace(
                    candidate,
                    validated=candidate.validated and self._passes(program, example),
                )
                for candidate, program in zip(self._candidates, self._programs)
            ]
            kernel = self._kernel
            kernel.k = len(kernel.solutions) + max(0, self._target - self.validated_count)
            self._resumes += 1
            self._update_status()
        return self.state()

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        """The session's counters: the one schema every counter view reads.

        One flat dict, counted over one window: from the end of the search
        kernel's construction (example tables are fingerprinted and cached
        per process, so counting their set-up would depend on what ran
        before) to now.  The hot paths only increment plain attributes; the
        names live here.
        """
        kernel = self._kernel
        stats = kernel.stats
        return {
            "steps": self.steps,
            "resumes": self._resumes,
            "active_seconds": round(self.active_seconds, 6),
            "frontier_peak": kernel.frontier.peak,
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
            "prescreen_decided": stats.deduction.prescreen_decided,
            "prescreen_fallback": stats.deduction.prescreen_fallback,
            "lemma_prunes": stats.deduction.lemma_prunes,
            "lemmas_learned": stats.deduction.lemmas_learned,
            "lemma_mining_solves": stats.deduction.lemma_mining_solves,
            # The execution counters, named by ExecutionStats.counters().
            **kernel.execution_window(),
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
        """Drive the session until it finishes; return the stats-rich core result.

        This is :meth:`advance` without a slice limit, so the budgets are the
        same ones: a session already advanced part of the way only gets what
        is left of its active-time and step budgets, and a finished session
        just reports its result.  ``elapsed`` is the wall time of this call.
        The result lists the programs consistent with *every* example, in
        discovery order.
        """
        started = time.monotonic()
        self.advance(max_steps=None)
        programs = [
            program
            for candidate, program in zip(self._candidates, self._programs)
            if candidate.validated
        ]
        return CoreSynthesisResult(
            solved=bool(programs),
            program=programs[0] if programs else None,
            elapsed=time.monotonic() - started,
            stats=self._kernel.stats,
            config=self.request.config,
            programs=programs,
        )


def create_session(
    request: SynthesisRequest, library=None, kb=None
) -> SynthesisSession:
    """Create an interactive synthesis session (the sanctioned entry point).

    *library* optionally overrides the component library object (the request
    names one of :data:`LIBRARIES` otherwise).  *kb* attaches a warm-start
    :class:`~repro.engine.kb.KnowledgeBase`: the search reuses the facts it
    holds and writes its own back when it finishes.  ``kb=None`` (the
    default) searches without one.
    """
    return SynthesisSession(request, library=library, kb=kb)


def solve(request: SynthesisRequest, library=None, kb=None) -> SynthesisResult:
    """One-shot facade: drive *request* to completion, return the JSON-able result."""
    session = create_session(request, library=library, kb=kb)
    core = session.solve()
    result = session.result()
    # ``solve`` ran under a wall clock, which is the elapsed callers expect.
    return replace(result, elapsed=core.elapsed)
