"""Front ends for :class:`~repro.service.CometService`: one request
pipeline behind stdio, TCP and HTTP.

Everything here is stdlib-only and speaks the same verbs as the
in-process ``handle`` — a networked trace is bit-identical to an
in-process one because the transport only moves JSON, never touches
session state.

:class:`RequestPipeline` is the one place a request is decoded
(:func:`~repro.runtime.wire.decode_frame`), gated for auth, checked
against the ``shutdown`` policy, dispatched to ``service.handle`` and
encoded. It returns the response and what the connection does next
(:data:`CONTINUE`, :data:`CLOSE` or :data:`STOP`). The front ends keep
only their I/O:

- :func:`serve_stream` — a JSON-lines loop over a trusted text stream
  (the CLI's stdio ``serve``).
- :class:`CometTCPServer` — line-delimited JSON over TCP, one handler
  thread per connection: TLS handshake, idle timeout, and the frame
  limit (an oversized frame is drained and answered; a truncated one is
  answered, then the connection closes).
- :class:`CometHTTPServer` — a minimal HTTP/1.1 adapter: ``POST /rpc``
  with a full request object, ``POST /<verb>`` with the verb's fields
  (the path's verb wins over a body ``action``), ``GET
  /status[/<name>]``; it keeps routing, the bearer check, the
  Content-Length limits and the HTTP status codes.
- :class:`CometClient` — a small programmatic client for the TCP
  transport; verb methods unwrap ``result`` or raise
  :class:`CometClientError` carrying the server's structured error.

Both servers take a :class:`~repro.security.TransportSecurity`: with a
shared token configured, TCP connections must pass an HMAC
challenge–response (the transport-level ``auth`` verb) and HTTP
requests an ``Authorization: Bearer`` check, made before the body is
read. No verb is dispatched before auth succeeds: unauthorized requests
never consume quota or touch the scheduler, they get the structured
``code: "unauthorized"`` error. A TLS certificate wraps every accepted
connection at the socket layer (the JSON framing above it is unchanged).

The stream-level ``shutdown`` verb (also ``POST /shutdown``) is
answered, then serving stops — which is how the CLI's ``serve --port``
terminates cleanly from a remote request. On an unauthenticated server
it is accepted only from loopback peers (``allow_remote_shutdown`` opts
out); with auth enabled it requires a valid token like every other
verb. Quota accounting keys on the peer host.
"""

from __future__ import annotations

import socket
import socketserver
import ssl
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote

from repro.runtime.wire import (
    DEFAULT_MAX_FRAME,
    FrameError,
    decode_frame,
    encode_frame,
    frame_error,
)
from repro.security import (
    ROLE_CLIENT,
    TransportSecurity,
    compute_mac,
    is_loopback_host,
    new_nonce,
)
from repro.service.quotas import ServiceError, UnauthorizedError, error_payload
from repro.service.service import CometService

__all__ = [
    "RequestPipeline",
    "Gate",
    "serve_stream",
    "CometTCPServer",
    "CometHTTPServer",
    "CometClient",
    "CometClientError",
    "CometConnectionError",
    "DEFAULT_MAX_FRAME",
]

#: What a connection does after a reply: read on, close, or close and
#: stop the server.
CONTINUE, CLOSE, STOP = "continue", "close", "stop"

#: What an unauthenticated peer is told, by the mechanism that admits it.
_REFUSALS = {
    "hmac-sha256": "this server requires authentication; complete the 'auth' "
    "challenge-response first (CometClient(..., auth_token=...))",
    "bearer": "missing or invalid Authorization header; send "
    "'Authorization: Bearer <token>'",
}

_SHUTDOWN_REFUSAL = (
    "the shutdown verb is restricted to loopback peers on an "
    "unauthenticated server; restart with --auth-token or "
    "--allow-remote-shutdown to enable remote shutdown"
)

#: How often ``serve_forever`` looks for a shutdown request: the longest
#: ``shutdown()`` (and so the ``shutdown`` verb) waits for the accept
#: loop to stop. The stdlib default is 0.5 s.
_SHUTDOWN_POLL_S = 0.05

#: Verbs the HTTP adapter exposes as ``POST /<verb>``.
_HTTP_VERBS = (
    "create",
    "recommend",
    "step",
    "run",
    "status",
    "result",
    "checkpoint",
    "close",
    "shutdown",
)


def _unauthorized(message: str, **details) -> dict:
    return {"ok": False, "error": error_payload(UnauthorizedError(message, **details))}


def _reply(response: dict, then: str = CONTINUE) -> tuple[dict, bytes, str]:
    return response, encode_frame(response), then


def _bad_frame(message: str, then: str = CONTINUE) -> tuple[dict, bytes, str]:
    """The reply to a frame that never became a request."""
    return _reply(frame_error(message), then)


class Gate:
    """One connection's standing: its ``peer`` (the quota identity),
    whether it is ``authed``, and how it gets in — ``"hmac-sha256"``
    (the TCP ``auth`` verb; ``nonce`` is the outstanding challenge),
    ``"bearer"`` (checked by the HTTP adapter) or ``None`` (trusted)."""

    __slots__ = ("peer", "authed", "mechanism", "nonce")

    def __init__(self, peer: str, authed: bool = True, mechanism: str | None = None):
        self.peer, self.authed, self.mechanism = peer, authed, mechanism
        self.nonce: str | None = None


class RequestPipeline:
    """Decode, auth-gate, shutdown-gate, dispatch and encode one request.

    :meth:`process` takes a raw frame (``bytes``/``str``) or a request
    object plus the connection's :class:`Gate`, and returns ``(response,
    encoded frame, then)``. ``service.handle`` is looked up per request,
    so a wrapper patched onto the class or the instance sees every call.
    """

    def __init__(
        self,
        service: CometService,
        security: TransportSecurity | None = None,
        allow_remote_shutdown: bool = False,
    ) -> None:
        self.service = service
        self.security = security
        self.requires_auth = security is not None and security.requires_auth
        self.allow_remote_shutdown = allow_remote_shutdown

    def process(
        self, frame: bytes | str | dict, gate: Gate, action: str | None = None
    ) -> tuple[dict, bytes, str]:
        """Answer one request; ``action``, when given, overrides the frame's."""
        try:
            request = frame if isinstance(frame, dict) else decode_frame(frame)
        except FrameError as exc:
            return _bad_frame(str(exc))
        if action is not None:
            request = {**request, "action": action}
        verb = request.get("action")
        if verb == "auth" and gate.mechanism == "hmac-sha256":
            return self._auth(request, gate)
        if not gate.authed:
            # No verb is dispatched, no quota consumed, no pickle
            # decoded: the request dies here.
            return _reply(
                _unauthorized(_REFUSALS[gate.mechanism], mechanism=gate.mechanism)
            )
        if verb == "shutdown":
            if not (
                gate.mechanism is None  # the trusted stdio peer
                or self.requires_auth  # reaching here took a valid token
                or self.allow_remote_shutdown
                or is_loopback_host(gate.peer)
            ):
                return _reply(_unauthorized(_SHUTDOWN_REFUSAL))
            return _reply({"ok": True, "result": {"shutdown": True}}, STOP)
        return _reply(self.service.handle(request, client=gate.peer))

    def _auth(self, request: dict, gate: Gate) -> tuple[dict, bytes, str]:
        """One step of the TCP ``auth`` verb.

        Two-frame HMAC challenge–response: ``{"action": "auth"}`` yields
        a single-use nonce; ``{"action": "auth", "mac": HMAC(token,
        nonce)}`` proves possession of the shared token without it ever
        crossing the wire. A failed proof closes the connection, so each
        retry costs the peer a reconnect.
        """
        if not self.requires_auth:
            return _reply(
                {"ok": True, "result": {"authenticated": True, "required": False}}
            )
        mac = request.get("mac")
        if mac is None:
            gate.nonce = new_nonce()
            return _reply(
                {"ok": True, "result": {"nonce": gate.nonce, "mechanism": "hmac-sha256"}}
            )
        nonce, gate.nonce = gate.nonce, None
        if nonce is not None and self.security.check_mac(ROLE_CLIENT, nonce, mac):
            gate.authed = True
            return _reply({"ok": True, "result": {"authenticated": True}})
        message = (
            "invalid auth credential"
            if nonce is not None
            else "no challenge outstanding; request one with {'action': 'auth'}"
        )
        return _reply(_unauthorized(message), CLOSE)


def serve_stream(service: CometService, in_stream, out_stream) -> int:
    """Serve JSON-lines requests from ``in_stream`` until EOF or shutdown.

    One JSON request per line in, one compact JSON response per line
    out, through the same :class:`RequestPipeline` as the networked
    front ends (the stdio peer is trusted). Blank lines are skipped; bad
    frames get an error response; ``shutdown`` stops serving. Returns
    the number of requests handled.
    """
    pipeline, gate = RequestPipeline(service), Gate("local")
    handled = 0
    for line in in_stream:
        if not line.strip():
            continue
        _, frame, then = pipeline.process(line, gate)
        out_stream.write(frame.decode("utf-8"))
        out_stream.flush()
        handled += 1
        if then is STOP:
            break
    return handled


class _ConnectionMixin:
    """What both handlers do before their protocol: bound every read by
    the server's idle timeout, and run the deferred TLS handshake here,
    in the connection's thread, not in the accept loop."""

    def setup(self) -> None:  # noqa: D102 — socketserver hook
        # StreamRequestHandler applies ``self.timeout`` to the socket; a
        # peer silent past it gets its socket closed, so silent
        # connections cannot pin handler threads forever.
        self.timeout = self.server.conn_timeout
        super().setup()

    def handshake(self) -> bool:
        """False when the peer does not speak TLS (or stalled past timeout)."""
        if isinstance(self.connection, ssl.SSLSocket):
            try:
                self.connection.do_handshake()
            except (ssl.SSLError, OSError):
                return False
        return True


# ---------------------------------------------------------------------- #
# TCP: line-delimited JSON
# ---------------------------------------------------------------------- #
class _TCPHandler(_ConnectionMixin, socketserver.StreamRequestHandler):
    """One connection: JSON lines through the pipeline, one write plus
    flush per reply. The connection's auth state is its :class:`Gate`."""

    def handle(self) -> None:  # noqa: D102 — socketserver hook
        limit = self.server.max_frame
        pipeline = self.server.pipeline
        if not self.handshake():
            return
        gate = Gate(self.client_address[0], not pipeline.requires_auth, "hmac-sha256")
        while True:
            try:
                line = self.rfile.readline(limit + 1)
            except OSError:
                return  # peer vanished mid-read, or idled past conn_timeout
            if not line:
                return  # clean EOF between frames
            if len(line) > limit:
                # Drop the rest of the oversized line — unless readline
                # already returned a complete line (frame of exactly
                # limit+1 bytes), where draining would eat the client's
                # *next* request. EOF mid-drain closes after the reply.
                drained = line.endswith(b"\n") or self._drain_line(limit)
                reply = _bad_frame(
                    f"frame exceeds {limit} bytes", CONTINUE if drained else CLOSE
                )
            elif not line.endswith(b"\n"):
                reply = _bad_frame("truncated frame (EOF before newline)", CLOSE)
            elif line.isspace():
                continue
            else:
                reply = pipeline.process(line, gate)
            _, frame, then = reply
            try:
                self.wfile.write(frame)
                self.wfile.flush()
            except OSError:
                return
            if then is not CONTINUE:
                if then is STOP:
                    self.server.request_shutdown()
                return

    def _drain_line(self, limit: int) -> bool:
        """Consume the oversized frame up to its newline; False when EOF
        arrives first (the frame was also truncated)."""
        try:
            while chunk := self.rfile.readline(limit + 1):
                if chunk.endswith(b"\n"):
                    return True
        except OSError:
            pass
        return False


# ---------------------------------------------------------------------- #
# HTTP/1.1 adapter
# ---------------------------------------------------------------------- #
class _HTTPHandler(_ConnectionMixin, BaseHTTPRequestHandler):
    """Maps a tiny URL surface onto the pipeline.

    Keeps routing, the bearer check before any body read, the
    Content-Length limits and the status codes. A reply that leaves a
    body unread carries ``Connection: close``: a kept-alive connection
    would parse that body as the next request.
    """

    protocol_version = "HTTP/1.1"
    # The head and the body go out in two writes; with Nagle's algorithm
    # on, the body waits for the client's delayed ACK (~40 ms a reply on
    # a kept-alive connection).
    disable_nagle_algorithm = True
    server: "CometHTTPServer"

    def handle(self) -> None:  # noqa: D102 — http.server hook
        if self.handshake():
            super().handle()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging is the operator's concern, not stderr's

    def _gate(self) -> Gate | None:
        """The request's gate, or None after the pipeline's refusal was
        sent as a 401 — before the body is read, so nothing is parsed,
        dispatched, or counted against quotas."""
        pipeline = self.server.pipeline
        authed = not pipeline.requires_auth or pipeline.security.check_bearer(
            self.headers.get("Authorization")
        )
        gate = Gate(self.client_address[0], authed, "bearer")
        if authed:
            return gate
        self.close_connection = True
        self._send(pipeline.process({}, gate), 401)
        return None

    def _send(self, reply: tuple[dict, bytes, str], status: int | None = None) -> None:
        response, body, then = reply
        if status is None:
            # Past the bearer gate, "unauthorized" is the shutdown policy.
            status = (
                200 if response["ok"]
                else 403 if response["error"].get("code") == "unauthorized"
                else 400
            )
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        if then is STOP:
            self.server.request_shutdown()

    def _read_body(self) -> bytes | None:
        """The raw body (``{}`` when empty), or None after an error was
        sent; every error closes the connection."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length == 0:
            return b"{}"
        if length < 0:
            status, error = 400, "Content-Length must be a non-negative integer"
        elif length > self.server.max_frame:
            status, error = 413, f"frame exceeds {self.server.max_frame} bytes"
        else:
            raw = self.rfile.read(length)
            if len(raw) == length:
                return raw
            status, error = 400, "truncated body"
        self.close_connection = True
        self._send(_bad_frame(error), status)
        return None

    def _path(self) -> list[str]:
        return [unquote(p) for p in self.path.split("?")[0].split("/") if p]

    def do_GET(self) -> None:  # noqa: N802 — http.server naming
        gate = self._gate()
        if gate is None:
            return
        parts = self._path()
        if parts[:1] == ["status"] and len(parts) <= 2:
            request = {"action": "status"}
            if len(parts) == 2:
                request["name"] = parts[1]
            self._send(self.server.pipeline.process(request, gate))
            return
        self._send(
            _bad_frame(f"unknown path {self.path!r}; GET serves /status[/<name>]"), 404
        )

    def do_POST(self) -> None:  # noqa: N802 — http.server naming
        gate = self._gate()
        if gate is None:
            return
        parts = self._path()
        body = self._read_body()
        if body is None:
            return
        if parts == ["rpc"]:
            self._send(self.server.pipeline.process(body, gate))
        elif len(parts) == 1 and parts[0] in _HTTP_VERBS:
            self._send(self.server.pipeline.process(body, gate, parts[0]))
        else:
            verbs = "|/".join(_HTTP_VERBS)
            message = f"unknown path {self.path!r}; POST serves /rpc and /{verbs}"
            self._send(_bad_frame(message), 404)


# ---------------------------------------------------------------------- #
# servers
# ---------------------------------------------------------------------- #
class _CometServer:
    """Shared construction and lifecycle of both networked servers.

    Precedes a ``socketserver.BaseServer`` subclass in the MRO. Each
    connection gets its own handler thread, so a connection blocked in a
    synchronous ``run`` never delays another connection's ``status`` —
    and ``"wait": false`` keeps even a single connection responsive.
    Bind to port 0 for an ephemeral port (read it back from
    :attr:`port`).
    """

    allow_reuse_address = True
    daemon_threads = True
    _handler: type
    _thread_name: str

    def __init__(
        self,
        service: CometService,
        address: tuple[str, int] = ("127.0.0.1", 0),
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        security: TransportSecurity | None = None,
        conn_timeout: float | None = None,
        allow_remote_shutdown: bool = False,
    ) -> None:
        super().__init__(address, self._handler)
        self.pipeline = RequestPipeline(service, security, allow_remote_shutdown)
        self.max_frame = max_frame
        self.conn_timeout = conn_timeout

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    def get_request(self):
        """Accept one connection, TLS-wrapping it when configured.

        The wrap defers the handshake (``do_handshake_on_connect=False``)
        so a slow or hostile peer cannot stall the accept loop — the
        per-connection handler thread performs it.
        """
        sock, addr = super().get_request()
        security = self.pipeline.security
        if security is not None and security.serves_tls:
            sock = security.wrap_server(sock)
        return sock, addr

    def serve_forever(self, poll_interval: float = _SHUTDOWN_POLL_S) -> None:
        """Accept connections until :meth:`shutdown`; ``poll_interval``
        bounds how long a shutdown request waits."""
        super().serve_forever(poll_interval)

    def request_shutdown(self) -> None:
        """Stop ``serve_forever`` without joining the caller's thread."""
        threading.Thread(target=self.shutdown, daemon=True).start()

    def serve_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (tests, embedding)."""
        thread = threading.Thread(
            target=self.serve_forever, name=self._thread_name, daemon=True
        )
        thread.start()
        return thread


class CometTCPServer(_CometServer, socketserver.ThreadingTCPServer):
    """Line-delimited-JSON TCP transport over one :class:`CometService`."""

    _handler = _TCPHandler
    _thread_name = "comet-tcp-server"


class CometHTTPServer(_CometServer, ThreadingHTTPServer):
    """Minimal HTTP/1.1 adapter exposing the service verbs.

    ``POST /rpc`` takes a full ``{"action": ..., ...}`` request object;
    ``POST /<verb>`` takes the verb's fields; ``GET /status`` and
    ``GET /status/<name>`` mirror the status verb. Responses are the
    pipeline's JSON envelopes with HTTP status 200 (ok), 400 (bad frame
    or handled error), 401 (bad bearer), 403 (shutdown refused), 404
    (unknown path), or 413 (oversized).
    """

    _handler = _HTTPHandler
    _thread_name = "comet-http-server"


# ---------------------------------------------------------------------- #
# programmatic client
# ---------------------------------------------------------------------- #
class CometClientError(ServiceError):
    """A server-side failure, rehydrated client-side.

    Carries the structured error object: :attr:`error_type` and
    :attr:`code` mirror the server's exception type and machine code,
    ``details`` the quota/busy specifics.
    """

    def __init__(self, error: dict) -> None:
        super().__init__(
            error.get("message", "service error"), **error.get("details", {})
        )
        self.error_type = error.get("type", "Exception")
        self.code = error.get("code", "service_error")


class CometConnectionError(CometClientError, ConnectionError):
    """The transport failed: connect retries exhausted, or the server
    vanished mid-call.

    Doubly inherits :class:`ConnectionError` so callers written against
    the raw socket exceptions (``except OSError`` / ``except
    ConnectionError``) keep working, while new callers branch on the
    structured ``code`` like any other :class:`CometClientError`.
    """

    def __init__(self, message: str, **details) -> None:
        super().__init__(
            {
                "type": "ConnectionError",
                "message": message,
                "code": "connection_lost",
                "details": details,
            }
        )


#: Connect errors worth retrying: the server is starting up or briefly
#: restarting.  DNS failures and unreachable routes are not transient.
_TRANSIENT_CONNECT_ERRORS = (
    ConnectionRefusedError,
    ConnectionResetError,
    ConnectionAbortedError,
)


class CometClient:
    """Speak the line-delimited-JSON TCP protocol programmatically.

    One client wraps one connection; requests on it are serialized
    (open several clients for concurrency). ``call`` returns the raw
    response envelope; the verb methods unwrap ``result`` and raise
    :class:`CometClientError` on ``ok: false``.

    Parameters
    ----------
    port, host:
        Where the :class:`CometTCPServer` listens.
    timeout:
        Socket timeout in seconds; ``None`` (default) blocks for as
        long as a synchronous ``run`` takes. Set a timeout when using
        ``wait=False`` verbs to keep the client itself responsive.
    retries:
        Bounded attempts for the *initial* connect: refused and reset
        connections (a server still binding its port, briefly
        restarting) are retried with linear backoff; other failures
        raise immediately.  After the last attempt the refusal
        surfaces as :class:`CometConnectionError`.
    backoff:
        Base seconds between connect attempts (attempt ``n`` waits
        ``n × backoff``).
    tls:
        Wrap the connection in TLS: ``True`` verifies the server
        against the system CA store, a path string points at a CA
        bundle — hand it the server's own certificate to *pin* a
        self-signed deployment — and an ``ssl.SSLContext`` is used
        as-is. A failed TLS handshake is never retried (it is a
        configuration mismatch, not a transient refusal).
    auth_token:
        Shared token for servers started with ``--auth-token``: the
        client runs the HMAC challenge–response right after
        connecting, so the token never crosses the wire. A rejected
        token raises :class:`CometClientError` with ``code ==
        "unauthorized"`` immediately — auth failures are terminal and
        are **not** retried by the connect-retry loop.
    """

    def __init__(
        self,
        port: int,
        host: str = "127.0.0.1",
        *,
        timeout: float | None = None,
        retries: int = 3,
        backoff: float = 0.1,
        tls: bool | str | ssl.SSLContext | None = None,
        auth_token: str | None = None,
    ) -> None:
        if retries < 1:
            raise ValueError(f"retries must be >= 1, got {retries}")
        last: OSError | None = None
        for attempt in range(retries):
            try:
                self._sock = socket.create_connection((host, port), timeout=timeout)
                break
            except _TRANSIENT_CONNECT_ERRORS as exc:
                last = exc
                time.sleep(backoff * (attempt + 1))
        else:
            raise CometConnectionError(
                f"cannot connect to {host}:{port} after {retries} "
                f"attempts: {last}",
                host=host,
                port=port,
                retries=retries,
            ) from last
        if tls:
            try:
                self._sock = self._tls_context(tls).wrap_socket(
                    self._sock, server_hostname=host
                )
            except (ssl.SSLError, OSError) as exc:
                self._sock.close()
                raise CometConnectionError(
                    f"TLS handshake with {host}:{port} failed: {exc}",
                    host=host,
                    port=port,
                ) from exc
        self._rfile = self._sock.makefile("rb")
        self._lock = threading.Lock()
        self._broken = False
        if auth_token:
            try:
                self._authenticate(auth_token)
            except BaseException:
                self.close()
                raise

    @staticmethod
    def _tls_context(tls: bool | str | ssl.SSLContext) -> ssl.SSLContext:
        if isinstance(tls, ssl.SSLContext):
            return tls
        cafile = None if tls is True else str(tls)
        return ssl.create_default_context(cafile=cafile)

    def _authenticate(self, token: str) -> None:
        """Run the transport-level HMAC challenge–response.

        Servers without auth answer the challenge with ``authenticated``
        directly (no nonce), so passing a token to an open server is
        harmless.
        """
        challenge = self._result({"action": "auth"})
        nonce = challenge.get("nonce")
        if nonce is None:
            return  # server does not require authentication
        self._result(
            {"action": "auth", "mac": compute_mac(token, ROLE_CLIENT, nonce)}
        )

    # -- transport ------------------------------------------------------ #
    def call(self, request: dict) -> dict:
        """Send one request object, return the raw response envelope.

        Mid-call transport failures poison the connection (a late
        response would desynchronize subsequent calls) and surface as
        :class:`CometConnectionError`; a *timeout* re-raises the raw
        ``TimeoutError`` so callers can distinguish their own deadline
        from a vanished server.
        """
        payload = encode_frame(request)
        with self._lock:
            if self._broken:
                raise CometConnectionError(
                    "connection is desynchronized after a timeout or "
                    "socket error; open a new CometClient"
                )
            try:
                self._sock.sendall(payload)
                line = self._rfile.readline()
            except TimeoutError:
                # The response to this request may still arrive later;
                # a subsequent call would read it as its own. Poison the
                # connection instead of silently mismatching frames.
                self._broken = True
                raise
            except OSError as exc:
                self._broken = True
                raise CometConnectionError(
                    f"connection lost mid-call: {exc}"
                ) from exc
        if not line:
            self._broken = True
            raise CometConnectionError(
                "server closed the connection before responding"
            )
        return decode_frame(line)

    def _result(self, request: dict) -> dict:
        response = self.call(request)
        if not response.get("ok"):
            raise CometClientError(response.get("error") or {})
        return response["result"]

    # -- verbs ---------------------------------------------------------- #
    def create(
        self,
        name: str,
        params: dict | None = None,
        *,
        checkpoint: str | None = None,
    ) -> dict:
        request: dict = {"action": "create", "name": name}
        if checkpoint is not None:
            request["checkpoint"] = checkpoint
        else:
            request["params"] = params or {}
        return self._result(request)

    def recommend(self, name: str, k: int = 3) -> list[dict]:
        return self._result({"action": "recommend", "name": name, "k": k})[
            "candidates"
        ]

    def step(self, name: str, *, wait: bool = True) -> dict:
        return self._result({"action": "step", "name": name, "wait": wait})

    def run(
        self,
        name: str,
        max_iterations: int | None = None,
        *,
        wait: bool = True,
    ) -> dict:
        request: dict = {"action": "run", "name": name, "wait": wait}
        if max_iterations is not None:
            request["max_iterations"] = max_iterations
        return self._result(request)

    def result(self, name: str, *, wait: bool = True) -> dict:
        return self._result({"action": "result", "name": name, "wait": wait})

    def status(self, name: str | None = None) -> dict:
        request: dict = {"action": "status"}
        if name is not None:
            request["name"] = name
        return self._result(request)

    def checkpoint(self, name: str, path: str) -> dict:
        return self._result(
            {"action": "checkpoint", "name": name, "path": str(path)}
        )

    def close_session(self, name: str) -> dict:
        return self._result({"action": "close", "name": name})

    def shutdown_server(self) -> dict:
        """Ask the server process to stop serving (stream-level verb)."""
        return self._result({"action": "shutdown"})

    # -- lifecycle ------------------------------------------------------ #
    def close(self) -> None:
        """Close the connection (the server keeps running)."""
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "CometClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
