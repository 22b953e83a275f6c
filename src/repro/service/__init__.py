"""Serving façade: many named cleaning sessions over one shared backend.

Built on the session protocol (``repro.session``): the service holds a
registry of named :class:`~repro.session.CleaningSession` objects, all
dispatching their estimation sweeps through a single shared
``repro.runtime`` backend, and exposes JSON request/response handlers
(``create`` / ``recommend`` / ``step`` / ``run`` / ``status`` /
``result`` / ``checkpoint`` / ``close``).

Iteration verbs run on a bounded :class:`SessionScheduler` worker pool
keyed by session, per-session budgets (:class:`SessionQuotas`) are
enforced at the verb layer, and three front ends carry the verbs through
one request pipeline (decode, auth and shutdown gate, dispatch, encode):
the JSON-lines stream loop :func:`serve_stream` (CLI ``serve`` on
stdio), the line-delimited-JSON :class:`CometTCPServer` (CLI ``serve
--port``), and the minimal :class:`CometHTTPServer` adapter (``serve
--port --http``). They differ only in I/O: how a peer authenticates and
how HTTP maps replies to status codes. :class:`CometClient` is the
programmatic TCP client.

The networked transports take a
:class:`~repro.security.TransportSecurity` (shared-token HMAC auth +
optional TLS); unauthorized requests surface as
:class:`UnauthorizedError` payloads without consuming quota.
"""

from repro.service.quotas import (
    QuotaExceededError,
    ServiceError,
    SessionBusyError,
    SessionQuotas,
    UnauthorizedError,
)
from repro.service.scheduler import SessionScheduler
from repro.service.service import CometService
from repro.service.transport import (
    CometClient,
    CometClientError,
    CometConnectionError,
    CometHTTPServer,
    CometTCPServer,
    serve_stream,
)

__all__ = [
    "CometService",
    "serve_stream",
    "SessionScheduler",
    "SessionQuotas",
    "ServiceError",
    "QuotaExceededError",
    "SessionBusyError",
    "UnauthorizedError",
    "CometTCPServer",
    "CometHTTPServer",
    "CometClient",
    "CometClientError",
    "CometConnectionError",
]
