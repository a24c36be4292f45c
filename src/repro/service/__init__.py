"""Synthesis-as-a-service: a session layer over the anytime search kernel.

The service turns the facade's interactive sessions (:mod:`repro.api`) into
a long-lived, multi-tenant process:

* :mod:`repro.service.sessions` -- the session store: an in-memory registry
  with TTL expiry, a token-bucket rate limiter, optional restart recovery
  (each session's request is kept as a JSON file and replayed when a new
  store starts), and a background scheduler thread that slices kernel
  steps round-robin across live sessions.
* :mod:`repro.service.api` -- the HTTP layer (stdlib ``http.server``, no
  external dependencies): submit examples, poll or stream candidates,
  add distinguishing examples that continue the same search.

Boot a server with ``repro-bench serve --port 8642`` or programmatically::

    from repro.service import serve

    serve(port=8642)
"""

from .api import SynthesisHTTPServer, make_server, serve
from .sessions import (
    RateLimited,
    ServiceSession,
    SessionStore,
    TokenBucket,
    UnknownSession,
)

__all__ = [
    "RateLimited",
    "ServiceSession",
    "SessionStore",
    "SynthesisHTTPServer",
    "TokenBucket",
    "UnknownSession",
    "make_server",
    "serve",
]
