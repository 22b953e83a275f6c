"""Per-session budgets and structured service errors.

The service enforces quotas at the *verb* layer — the only place every
path into a session (stdio, TCP, HTTP, programmatic ``handle``) funnels
through — so a misbehaving client exhausts its own allowance, never the
process. Three knobs:

- ``max_sessions`` — concurrent sessions one client may hold open;
- ``max_iterations`` — estimation sweeps one session may consume over
  its lifetime (checked before each sweep, so exhaustion always lands
  on a clean iteration boundary: ``status`` and ``checkpoint`` keep
  working afterwards);
- ``max_seconds`` — accumulated engine wall-clock one session may burn
  in iteration verbs (same boundary guarantee);
- ``max_cache_bytes`` — process-wide byte budget for the shared
  cache (:mod:`repro.cache`). Unlike the other knobs
  it is enforced by *eviction*, never by erroring a verb: exceeding it
  costs recomputation, not availability.

Failures surface as :class:`ServiceError` subclasses, which the JSON
layer renders as structured error objects
(``{"type", "code", "message", "details"}``) instead of bare strings —
machine clients branch on ``code``, humans read ``message``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SessionQuotas",
    "ServiceError",
    "QuotaExceededError",
    "SessionBusyError",
    "UnauthorizedError",
    "error_payload",
]


class ServiceError(Exception):
    """Base of service-level failures with a machine-readable payload."""

    #: Stable machine-readable discriminator (subclasses override).
    code = "service_error"

    def __init__(self, message: str, **details) -> None:
        super().__init__(message)
        self.details = details


class QuotaExceededError(ServiceError):
    """A per-session or per-client quota is exhausted.

    ``details`` names the quota plus its limit and observed usage, so a
    client can distinguish "stop stepping this session" from "close a
    session before opening another".
    """

    code = "quota_exceeded"


class SessionBusyError(ServiceError):
    """An iteration verb raced an in-flight one on the same session."""

    code = "session_busy"


class UnauthorizedError(ServiceError):
    """The caller has not (or not successfully) authenticated.

    Raised/rendered by the transports *before* a verb is dispatched, so
    an unauthorized request never consumes quota, touches the scheduler,
    or reaches session state. ``details`` may carry the mechanism the
    transport expects (``auth`` verb challenge–response over TCP,
    ``Authorization: Bearer`` over HTTP).
    """

    code = "unauthorized"


def error_payload(exc: BaseException) -> dict:
    """The structured JSON error object for one failure."""
    payload = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ServiceError):
        payload["code"] = exc.code
        if exc.details:
            payload["details"] = exc.details
    return payload


@dataclass(frozen=True)
class SessionQuotas:
    """Resource limits the service enforces per client and per session.

    ``None`` disables a limit (the default: a trusted local service).
    The instance is immutable and shared by every handler thread.
    """

    #: Estimation sweeps one session may consume over its lifetime.
    max_iterations: int | None = None
    #: Accumulated engine seconds one session may spend iterating.
    max_seconds: float | None = None
    #: Concurrent sessions one client may hold open.
    max_sessions: int | None = None
    #: Process-wide byte budget for the shared caches (eviction-enforced;
    #: ``None`` keeps :data:`repro.cache.DEFAULT_MAX_BYTES`).
    max_cache_bytes: int | None = None

    def __post_init__(self) -> None:
        for field_name in (
            "max_iterations",
            "max_seconds",
            "max_sessions",
            "max_cache_bytes",
        ):
            value = getattr(self, field_name)
            if value is not None and value <= 0:
                raise ValueError(f"{field_name} must be positive, got {value}")

    def to_dict(self) -> dict:
        """JSON-friendly snapshot (the service-level ``status`` verb)."""
        return {
            "max_iterations": self.max_iterations,
            "max_seconds": self.max_seconds,
            "max_sessions": self.max_sessions,
            "max_cache_bytes": self.max_cache_bytes,
        }

    # ------------------------------------------------------------------ #
    # checks (raise QuotaExceededError; no-ops when the knob is None)
    # ------------------------------------------------------------------ #
    def check_create(self, client: str, open_sessions: int) -> None:
        """Gate ``create``: would one more session exceed the client cap?"""
        if self.max_sessions is not None and open_sessions >= self.max_sessions:
            raise QuotaExceededError(
                f"client {client!r} already holds {open_sessions} of "
                f"{self.max_sessions} allowed concurrent sessions "
                "(close one first)",
                quota="max_sessions",
                limit=self.max_sessions,
                used=open_sessions,
                client=client,
            )

    def check_iteration(self, name: str, iterations: int, elapsed: float) -> None:
        """Gate one more sweep for session ``name`` (iteration boundary)."""
        if self.max_iterations is not None and iterations >= self.max_iterations:
            raise QuotaExceededError(
                f"session {name!r} consumed all {self.max_iterations} "
                "allowed iterations",
                quota="max_iterations",
                limit=self.max_iterations,
                used=iterations,
                name=name,
            )
        if self.max_seconds is not None and elapsed >= self.max_seconds:
            raise QuotaExceededError(
                f"session {name!r} consumed its {self.max_seconds:g}s "
                f"wall-clock allowance ({elapsed:.3f}s used)",
                quota="max_seconds",
                limit=self.max_seconds,
                used=round(elapsed, 6),
                name=name,
            )
