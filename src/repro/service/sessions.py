"""The session store behind the synthesis service.

One :class:`SessionStore` owns every live session and a single background
scheduler thread.  The threading contract is strict and worth stating once:

* A :class:`~repro.engine.context.TaskContext` isolates a session's search
  state by *swapping process-wide globals* while active, so any
  context-active work -- constructing a kernel, stepping it, revalidating
  candidates against a new example -- must be serialised across the whole
  process.  The store does this with one lock (``_work_lock``): the
  scheduler thread holds it for the duration of each kernel slice, and
  HTTP worker threads hold it for the (short) context-active parts of
  session creation, ``add_example`` and request deserialisation (building
  a request's tables mutates the installed counters and intern pool, so it
  runs through :meth:`SessionStore.deserialize` under the lock in a
  scratch context).
* Fairness across sessions comes from a round-robin rotation: every live
  session is enrolled in one deque, and each scheduler pass grants every
  enrolled session one slice of :data:`~repro.api.DEFAULT_SLICE_STEPS`
  kernel steps (:meth:`ServiceSession.advance`), dropping the ones that
  finish.
* Everything else (the registry dict, the rate limiter, per-session
  condition variables for streaming readers) uses ordinary fine-grained
  locks and never blocks on kernel work.
* A slice that raises fails only its own session: the scheduler hands the
  exception to :meth:`ServiceSession.fail`, which marks the session
  ``failed`` (the error is reported in its state) and wakes its readers,
  while the other sessions keep their slices.  ``GET /healthz`` reports the
  scheduler thread itself (:attr:`SessionStore.healthy`).
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import uuid
from collections import defaultdict, deque
from dataclasses import replace
from typing import Deque, Dict, List, Optional

from ..api import DEFAULT_SLICE_STEPS, SynthesisRequest, SynthesisSession, sum_counters
from ..engine.context import TaskContext

_log = logging.getLogger(__name__)

#: Sessions idle longer than this many seconds are expired by the sweeper.
DEFAULT_TTL = 600.0

#: Token-bucket defaults: sustained mutating requests per second, and the
#: burst the bucket absorbs before returning 429s.
DEFAULT_RATE = 10.0
DEFAULT_BURST = 20


class UnknownSession(KeyError):
    """No live session has the requested id (maps to HTTP 404)."""


class RateLimited(RuntimeError):
    """The token bucket is empty (maps to HTTP 429)."""


class TokenBucket:
    """Classic token bucket: *rate* tokens/second, holding at most *burst*.

    ``allow()`` is thread-safe and never blocks -- a drained bucket simply
    answers ``False`` until refill catches up.
    """

    def __init__(self, rate: float = DEFAULT_RATE, burst: int = DEFAULT_BURST) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._updated = time.monotonic()
        self._lock = threading.Lock()
        self.denied = 0

    def allow(self) -> bool:
        with self._lock:
            now = time.monotonic()
            self._tokens = min(self.burst, self._tokens + (now - self._updated) * self.rate)
            self._updated = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            self.denied += 1
            return False


class ServiceSession:
    """A stored session: the facade session plus service-level bookkeeping.

    :meth:`advance` is the slice the store's scheduler grants it per
    round-robin pass.
    """

    def __init__(
        self, store: "SessionStore", session: SynthesisSession, session_id: Optional[str] = None
    ) -> None:
        self.id = session_id or uuid.uuid4().hex[:16]
        self.store = store
        self.session = session
        self.created_at = time.monotonic()
        self.last_access = self.created_at
        self.expired = False
        #: ``"ExceptionType: message"`` once a slice of this session raised.
        self.error: Optional[str] = None
        #: Guarded by ``changed``; notified after every slice and resume so
        #: streaming readers wake as soon as new candidates can exist.
        self.changed = threading.Condition()
        self._enrolled = False

    # -- scheduler protocol -------------------------------------------
    def advance(self, max_steps: int) -> bool:
        """One scheduler slice; ``True`` drops the session from the rotation.

        Called only by the scheduler thread, which holds the store's work
        lock around the context-active kernel stepping.  Leaving the
        rotation and :meth:`SessionStore._enroll` are serialised on the
        registry lock: a concurrent ``add_example`` either resumes the
        session before the finished-check here (the task stays enrolled and
        keeps its rotation slot) or after ``_enrolled`` drops (and then
        enrolls a fresh task) -- never in between, which would strand a live
        session outside the rotation.
        """
        if self.expired:
            with self.store._registry_lock:
                self._enrolled = False
            return True
        with self.store._work_lock:
            self.session.advance(max_steps=max_steps)
        with self.changed:
            self.changed.notify_all()
        if self.session.finished:
            with self.store._registry_lock:
                if self.session.finished:
                    self._enrolled = False
                    return True
        return False

    def fail(self, error: Exception) -> None:
        """Take the session out of service after one of its slices raised."""
        _log.error("session %s failed", self.id, exc_info=error)
        with self.store._registry_lock:
            self.error = f"{type(error).__name__}: {error}"
            self._enrolled = False
        with self.changed:
            self.changed.notify_all()

    # -- service-level views ------------------------------------------
    def touch(self) -> None:
        self.last_access = time.monotonic()

    @property
    def status(self) -> str:
        if self.expired:
            return "expired"
        if self.error is not None:
            return "failed"
        return self.session.status

    @property
    def settled(self) -> bool:
        """True once the session will make no further search progress."""
        return self.expired or self.error is not None or self.session.finished

    def state_json(self) -> dict:
        payload = self.session.state().to_json()
        payload["id"] = self.id
        payload["status"] = self.status
        if self.error is not None:
            payload["error"] = self.error
        return payload

    def wait_for(self, predicate, timeout: Optional[float]) -> bool:
        """Block until *predicate()* holds, the session settles, or *timeout*."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.changed:
            while True:
                if predicate() or self.settled:
                    return predicate()
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return predicate()
                self.changed.wait(0.1 if remaining is None else min(0.1, remaining))


class SessionStore:
    """Registry + scheduler: the whole service state apart from HTTP plumbing.

    *persist_dir* (optional) enables restart recovery.  Each session's file
    ``<persist_dir>/<id>.json`` holds ``{id, request}``: the request with
    every example so far.  It is written atomically when the session is
    created and when it gains an example, the only two events that change
    it.  The search is a deterministic function of the request, so a new
    store re-creates every persisted session under its old id and enrolls
    it in the rotation (:meth:`_replay`); a finished session searches again.
    When the TTL sweeper expires a session its file is *deleted*: the
    session is unreachable from every endpoint, so keeping the file would
    leak one orphan per expired session forever.

    *kb_path* (optional) opens a shared warm-start knowledge base
    (:mod:`repro.engine.kb`): new sessions reuse executions and attribute
    vectors persisted by earlier runs of the same tasks.
    """

    def __init__(
        self,
        ttl: Optional[float] = DEFAULT_TTL,
        rate: float = DEFAULT_RATE,
        burst: int = DEFAULT_BURST,
        persist_dir: Optional[str] = None,
        kb_path: Optional[str] = None,
    ) -> None:
        self.ttl = ttl
        self.bucket = TokenBucket(rate=rate, burst=burst)
        self.persist_dir = persist_dir
        #: Warm-start knowledge base shared by every session: a new session
        #: for a previously seen task reuses the corpus of persisted
        #: executions and attribute vectors (the kernel stepping is
        #: serialised on the work lock, and the KB itself is thread-safe, so
        #: one handle serves all sessions).
        self.kb = None
        if kb_path is not None:
            from ..engine.kb import KnowledgeBase

            self.kb = KnowledgeBase(kb_path)
        self._sessions: Dict[str, ServiceSession] = {}
        self._registry_lock = threading.Lock()
        #: Serialises all TaskContext-active work (see the module docstring).
        self._work_lock = threading.Lock()
        #: Sessions awaiting their next slice, in round-robin order.  Guarded
        #: by the registry lock, which also guards ``_enrolled``.
        self._rotation: Deque[ServiceSession] = deque()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self.sessions_created = 0
        self.sessions_expired = 0
        #: Counters of the sessions the TTL sweep removed, so the
        #: ``*_total`` metrics never go backwards.  Guarded by the registry
        #: lock.
        self._expired_counters: Dict[str, float] = {}
        if persist_dir is not None:
            self._replay()
        self._scheduler = threading.Thread(
            target=self._schedule, name="synthesis-scheduler", daemon=True
        )
        self._scheduler.start()

    # -- public operations (HTTP worker threads) ----------------------
    def deserialize(self, parse, payload):
        """Run *parse(payload)* (a ``from_json`` constructor) table-safely.

        Constructing a :class:`~repro.dataframe.table.Table` mutates the
        *installed* execution counters and intern pool -- the process-wide
        state the scheduler swaps per session -- so request parsing counts
        as context-active work.  It holds the work lock (no session context
        can be installed concurrently) and runs inside a throwaway
        :class:`TaskContext` so not even the process defaults are touched;
        the parsed tables stay valid after the scratch context is dropped.
        """
        with self._work_lock:
            with TaskContext().active():
                return parse(payload)

    def create(self, request: SynthesisRequest) -> ServiceSession:
        """Create, register and enroll a session (raises :class:`RateLimited`)."""
        if not self.bucket.allow():
            raise RateLimited("session quota exceeded, retry later")
        session = self._register(request)
        # Written before the id is handed out, so no added example can race
        # ahead of the file that should hold it.
        self._persist(session)
        return session

    def get(self, session_id: str) -> ServiceSession:
        with self._registry_lock:
            try:
                session = self._sessions[session_id]
            except KeyError:
                raise UnknownSession(session_id) from None
        session.touch()
        return session

    def add_example(self, session_id: str, example) -> ServiceSession:
        """Add an example (revalidate, raise the quota); re-enroll if work remains."""
        if not self.bucket.allow():
            raise RateLimited("request quota exceeded, retry later")
        session = self.get(session_id)
        with self._work_lock:
            session.session.add_example(example)
            # Under the work lock: of two concurrent additions, the file
            # written last holds both examples.
            self._persist(session)
        with session.changed:
            session.changed.notify_all()
        self._enroll(session)
        return session

    def close(self) -> None:
        """Stop the scheduler and close the KB (persisted files stay current)."""
        self._stop.set()
        self._wake.set()
        self._scheduler.join(timeout=5)
        if self.kb is not None:
            self.kb.close()

    @property
    def healthy(self) -> bool:
        """True while the scheduler thread is alive to advance sessions."""
        return self._scheduler.is_alive()

    # -- metrics -------------------------------------------------------
    def metrics(self) -> dict:
        with self._registry_lock:
            sessions = list(self._sessions.values())
            totals = defaultdict(int, self._expired_counters)
        live = [s for s in sessions if not s.expired]
        sum_counters((session.session.counters() for session in live), totals)
        prescreen = totals["prescreen_decided"]
        oe_candidates = totals["oe_candidates"]
        metrics = {
            "sessions_active": sum(1 for s in live if not s.settled),
            "sessions_live": len(live),
            "sessions_created_total": self.sessions_created,
            "sessions_expired_total": self.sessions_expired,
            "rate_limited_total": self.bucket.denied,
            "kernel_steps_total": totals["steps"],
            "resumes_total": int(totals["resumes"]),
            "smt_calls_total": int(totals["smt_calls"]),
            "prescreen_decided_total": int(prescreen),
            "prescreen_hit_rate": (
                prescreen / (prescreen + totals["prescreen_fallback"]) if prescreen else 0.0
            ),
            "oe_merged_total": int(totals["oe_merged"]),
            "oe_merge_rate": totals["oe_merged"] / oe_candidates if oe_candidates else 0.0,
            "exec_cache_hits_total": int(totals["exec_cache_hits"]),
        }
        if self.kb is not None:
            stats = self.kb.stats
            metrics.update(
                {
                    "kb_hits_total": stats.hits,
                    "kb_misses_total": stats.misses,
                    "kb_stores_total": stats.stores,
                    "kb_hit_rate": round(stats.hit_rate, 6),
                    "kb_entries": len(self.kb),
                }
            )
        return metrics

    # -- scheduler internals ------------------------------------------
    def _enroll(self, session: ServiceSession) -> None:
        # The registry lock pairs with ServiceSession.advance: enrollment
        # state only changes under it, so a session resumed by add_example
        # is either still in the rotation (flag up) or re-enrolled here --
        # it can never fall through the gap and hang until TTL expiry.
        with self._registry_lock:
            if session.settled or session._enrolled:
                return
            session._enrolled = True
            self._rotation.append(session)
        self._wake.set()

    def _schedule(self) -> None:
        while not self._stop.is_set():
            unfinished = self._rotate()
            self._sweep()
            if not unfinished:
                self._wake.wait(timeout=0.05)
                self._wake.clear()

    def _rotate(self) -> int:
        """One round-robin pass; returns how many sessions remain enrolled.

        Every session enrolled at the start of the pass gets one slice;
        sessions enrolled during the pass wait for the next one.  A finished
        session leaves the rotation and is not referenced again, so expired
        sessions are not pinned in memory.  Only the scheduler thread calls
        this.
        """
        with self._registry_lock:
            slices = len(self._rotation)
        for _ in range(slices):
            with self._registry_lock:
                if not self._rotation:
                    break
                session = self._rotation.popleft()
            try:
                finished = session.advance(DEFAULT_SLICE_STEPS)
            except Exception as error:
                session.fail(error)
                finished = True
            if not finished:
                with self._registry_lock:
                    self._rotation.append(session)
        with self._registry_lock:
            return len(self._rotation)

    def _sweep(self) -> None:
        if self.ttl is None:
            return
        now = time.monotonic()
        with self._registry_lock:
            stale = [
                session
                for session in self._sessions.values()
                if not session.expired and now - session.last_access > self.ttl
            ]
            for session in stale:
                session.expired = True
                self.sessions_expired += 1
                del self._sessions[session.id]
            sum_counters(
                (session.session.counters() for session in stale), self._expired_counters
            )
        for session in stale:
            # An expired session is gone from every lookup path, so its
            # persistence file would be unreachable garbage: remove it
            # (previously the sweep left one orphaned file per expired
            # session in persist_dir forever).
            self._remove_persisted(session.id)
            with session.changed:
                session.changed.notify_all()

    # -- persistence ---------------------------------------------------
    def _register(
        self, request: SynthesisRequest, session_id: Optional[str] = None
    ) -> ServiceSession:
        """Build a session for *request*, add it to the registry and rotation."""
        with self._work_lock:
            session = ServiceSession(
                self, SynthesisSession(request, kb=self.kb), session_id=session_id
            )
        with self._registry_lock:
            self._sessions[session.id] = session
            self.sessions_created += 1
        self._enroll(session)
        return session

    def _replay(self) -> None:
        """Re-create every session persisted under ``persist_dir``.

        A file that cannot be read, parsed or replayed, or whose id does not
        match its name, is skipped with a warning; so is a stray ``*.tmp``
        left by a write that was cut short.  None of them stops the store
        starting.
        """
        try:
            names = sorted(os.listdir(self.persist_dir))
        except FileNotFoundError:
            return
        except OSError as error:
            _log.warning("cannot list persist dir %s: %s", self.persist_dir, error)
            return
        for name in names:
            path = os.path.join(self.persist_dir, name)
            session_id, suffix = os.path.splitext(name)
            if suffix != ".json":
                _log.warning("skipping %s: not a persisted session file", path)
                continue
            try:
                with open(path) as handle:
                    payload = json.load(handle)
                if payload["id"] != session_id:
                    raise ValueError(f"file holds id {payload['id']!r}")
                request = self.deserialize(SynthesisRequest.from_json, payload["request"])
                self._register(request, session_id=session_id)
            except (OSError, ValueError, KeyError, TypeError) as error:
                _log.warning("skipping persisted session %s: %s", path, error)
            except Exception:
                # One file that cannot be replayed must not keep the others down.
                _log.exception("skipping persisted session %s", path)

    def _persist(self, session: ServiceSession) -> None:
        """Write the session's file: its id and its request with every example."""
        if self.persist_dir is None:
            return
        request = replace(session.session.request, examples=session.session.examples)
        path = os.path.join(self.persist_dir, f"{session.id}.json")
        tmp = f"{path}.tmp"
        try:
            os.makedirs(self.persist_dir, exist_ok=True)
            with open(tmp, "w") as handle:
                json.dump({"id": session.id, "request": request.to_json()}, handle)
            os.replace(tmp, path)
        except OSError as error:
            # The live session is authoritative and must not die with the
            # disk; it just will not survive a restart.
            _log.warning("cannot persist session %s: %s", session.id, error)

    def _remove_persisted(self, session_id: str) -> None:
        """Delete a session's persistence file (and any stale temp file)."""
        if self.persist_dir is None:
            return
        path = os.path.join(self.persist_dir, f"{session_id}.json")
        for stale in (path, f"{path}.tmp"):
            try:
                os.remove(stale)
            except FileNotFoundError:
                pass
            except OSError as error:
                _log.warning("cannot remove %s: %s", stale, error)

    def list_sessions(self) -> List[dict]:
        with self._registry_lock:
            sessions = list(self._sessions.values())
        return [
            {
                "id": session.id,
                "status": session.status,
                "examples": len(session.session.examples),
                "candidates": len(session.session.candidates),
            }
            for session in sessions
        ]
