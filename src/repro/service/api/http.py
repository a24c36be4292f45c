"""The synthesis service's HTTP layer.

Built on the stdlib ``ThreadingHTTPServer`` -- no web framework, no new
dependencies.  One handler thread per connection; all kernel work happens on
the store's single scheduler thread, so handlers only parse requests, wait
on per-session condition variables, and serialise responses.

Endpoints (all bodies are JSON; the facade dataclasses of :mod:`repro.api`
are the wire format):

``GET  /healthz``
    Liveness probe: ``{"status": "ok"}``, or ``503`` with
    ``{"status": "scheduler-down"}`` once the scheduler thread has died.
``GET  /metrics``
    Service-wide counters: live/active session counts, kernel steps,
    prescreen and observational-equivalence hit rates, rate-limit denials.
``POST /v1/sessions``
    Create a session from a ``SynthesisRequest`` payload; ``201`` with the
    session id and initial state, ``400`` on malformed payloads, ``429``
    when the token bucket is drained.
``GET  /v1/sessions/{id}``
    The session's current :class:`~repro.api.SessionState`.
``GET  /v1/sessions/{id}/programs``
    Top-k candidates.  ``?wait=SECONDS`` blocks until at least ``?count=N``
    candidates exist (or the session settles); a negative or malformed
    ``count`` is ``400``.  ``?stream=1`` switches to a
    chunked newline-delimited JSON stream that emits each candidate as the
    search discovers it -- the anytime kernel made streamable.
``POST /v1/sessions/{id}/examples``
    Add a distinguishing example.  The session's search continues -- it
    is never restarted -- and the response carries the new state with
    every prior candidate revalidated against the new example.
"""

from __future__ import annotations

import json
import re
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ...api import RequestError, SynthesisRequest, example_from_json
from ..sessions import RateLimited, SessionStore, UnknownSession

DEFAULT_PORT = 8642

#: Longest a blocking ``?wait=``/stream request may hold its handler thread.
MAX_WAIT_SECONDS = 300.0

#: Largest request body accepted before parsing (maps to HTTP 413); example
#: tables a few orders of magnitude past anything the synthesizer handles
#: still fit, but a hostile Content-Length cannot make the server allocate
#: arbitrary memory.
MAX_BODY_BYTES = 8 * 1024 * 1024

_SESSION_ROUTE = re.compile(r"^/v1/sessions/([0-9a-f]{1,32})(/programs|/examples)?$")


class PayloadTooLarge(ValueError):
    """The request body exceeds :data:`MAX_BODY_BYTES` (maps to HTTP 413)."""


class SynthesisHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`SessionStore`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], store: SessionStore) -> None:
        super().__init__(address, SynthesisRequestHandler)
        self.store = store

    def server_close(self) -> None:  # pragma: no cover - exercised via serve()
        super().server_close()
        self.store.close()


class SynthesisRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-synthesis"

    #: Quiet by default; the CLI flips this on with --verbose.
    verbose = False

    @property
    def store(self) -> SessionStore:
        return self.server.store

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.verbose:
            super().log_message(format, *args)

    # -- response helpers ---------------------------------------------
    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    # -- routing -------------------------------------------------------
    def do_GET(self) -> None:
        try:
            self._route_get()
        except UnknownSession as error:
            self._error(404, f"unknown session {error.args[0]!r}")
        except RequestError as error:
            self._error(400, str(error))
        except BrokenPipeError:
            self.close_connection = True

    def do_POST(self) -> None:
        try:
            self._route_post()
        except UnknownSession as error:
            self._error(404, f"unknown session {error.args[0]!r}")
        except RateLimited as error:
            self._error(429, str(error))
        except PayloadTooLarge as error:
            self._error(413, str(error))
            # The unread body would be parsed as the next request.
            self.close_connection = True
        except RequestError as error:
            self._error(400, str(error))
        except (ValueError, KeyError, TypeError) as error:
            self._error(400, f"malformed request: {error!r}")

    def _route_get(self) -> None:
        url = urlsplit(self.path)
        if url.path == "/healthz":
            if self.store.healthy:
                self._send_json(200, {"status": "ok"})
            else:
                self._send_json(503, {"status": "scheduler-down"})
            return
        if url.path == "/metrics":
            self._send_json(200, self.store.metrics())
            return
        if url.path == "/v1/sessions":
            self._send_json(200, {"sessions": self.store.list_sessions()})
            return
        match = _SESSION_ROUTE.match(url.path)
        if match and match.group(2) is None:
            self._send_json(200, self.store.get(match.group(1)).state_json())
            return
        if match and match.group(2) == "/programs":
            self._programs(match.group(1), parse_qs(url.query))
            return
        self._error(404, f"no such endpoint: {url.path}")

    def _route_post(self) -> None:
        # Deserialisation goes through the store: building the payload's
        # Table objects mutates the installed execution counters and intern
        # pool, which on a handler thread would corrupt whichever session's
        # context the scheduler has active (see SessionStore.deserialize).
        url = urlsplit(self.path)
        if url.path == "/v1/sessions":
            request = self.store.deserialize(SynthesisRequest.from_json, self._read_json())
            session = self.store.create(request)
            payload = session.state_json()
            self._send_json(201, payload)
            return
        match = _SESSION_ROUTE.match(url.path)
        if match and match.group(2) == "/examples":
            example = self.store.deserialize(example_from_json, self._read_json())
            session = self.store.add_example(match.group(1), example)
            self._send_json(200, session.state_json())
            return
        self._error(404, f"no such endpoint: {url.path}")

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise RequestError("request body is required")
        if length > MAX_BODY_BYTES:
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as error:
            raise RequestError(f"request body is not valid JSON: {error}") from error

    # -- candidate polling / streaming ---------------------------------
    @staticmethod
    def _query_number(query, key, default, cast):
        values = query.get(key)
        if not values:
            return default
        try:
            return cast(values[-1])
        except ValueError as error:
            raise RequestError(f"query parameter {key!r} is malformed: {error}") from error

    def _programs(self, session_id: str, query: dict) -> None:
        session = self.store.get(session_id)
        count = self._query_number(query, "count", None, int)
        if count is not None and count < 0:
            # A negative slice bound would drop candidates from the end.
            raise RequestError(f"query parameter 'count' must be >= 0, got {count}")
        wait = self._query_number(query, "wait", None, float)
        if wait is not None:
            wait = max(0.0, min(wait, MAX_WAIT_SECONDS))
        if query.get("stream", ["0"])[-1] not in ("0", "", "false"):
            self._stream_programs(session, count, wait)
            return
        target = count if count is not None else session.session.target
        if wait is not None:
            session.wait_for(
                lambda: len(session.session.candidates) >= target, timeout=wait
            )
        payload = session.state_json()
        if count is not None:
            payload["candidates"] = payload["candidates"][:count]
        self._send_json(200, payload)

    def _stream_programs(
        self, session, count: Optional[int], wait: Optional[float]
    ) -> None:
        """Chunked NDJSON: one line per candidate, then a final status line.

        The stream ends when *count* candidates have been sent, the session
        settles (done / exhausted / timeout / expired / failed), or *wait*
        seconds pass -- whichever comes first.
        """
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        budget = MAX_WAIT_SECONDS if wait is None else wait
        deadline = time.monotonic() + budget
        sent = 0
        try:
            while True:
                candidates = session.session.candidates
                while sent < len(candidates) and (count is None or sent < count):
                    self._write_chunk(candidates[sent].to_json())
                    sent += 1
                if count is not None and sent >= count:
                    break
                if session.settled:
                    break
                # One shared deadline across all waits: a slow trickle of
                # candidates must not hold the handler past the budget.
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                grew = session.wait_for(
                    lambda: len(session.session.candidates) > sent, timeout=remaining
                )
                if not grew:
                    break
            self._write_chunk(
                {
                    "status": session.status,
                    "candidates_sent": sent,
                    "counters": session.session.counters(),
                }
            )
            self.wfile.write(b"0\r\n\r\n")
        except BrokenPipeError:
            pass
        self.close_connection = True

    def _write_chunk(self, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8") + b"\n"
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")
        self.wfile.flush()


def make_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    store: Optional[SessionStore] = None,
    **store_options,
) -> SynthesisHTTPServer:
    """Build a ready-to-run server (own it: ``serve_forever`` / ``shutdown``)."""
    return SynthesisHTTPServer((host, port), store or SessionStore(**store_options))


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    verbose: bool = False,
    **store_options,
) -> int:
    """Run the service in the foreground until interrupted (CLI entry point)."""
    SynthesisRequestHandler.verbose = verbose
    server = make_server(host=host, port=port, **store_options)
    bound = server.server_address
    print(f"synthesis service listening on http://{bound[0]}:{bound[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0
