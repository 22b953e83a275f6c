"""Tests for the transport-security layer (``repro.security``).

The acceptance pins of the hardening PR: an unauthenticated peer can
neither execute a verb, shut the server down, nor get a worker to
unpickle a payload — over TCP, HTTP, and the distributed worker link —
while a properly tokened (and TLS-wrapped) deployment produces traces
bit-identical to the in-process path.  Plus the primitives themselves
(HMAC roles, token loading, loopback detection, fail-closed policy),
the per-connection idle timeout, and the CLI's fail-fast exits.
"""

import json
import shutil
import socket
import subprocess
import threading
import time

import pytest

from repro.cli import main
from repro.runtime.distributed import (
    CONNECT_ENV,
    DistributedBackend,
    listen_worker,
    run_worker,
    worker_serve,
)
from repro.runtime.wire import JSONLineConnection, encode_frame
from repro.security import (
    AUTH_TOKEN_ENV,
    ROLE_CLIENT,
    ROLE_COORDINATOR,
    ROLE_WORKER,
    TransportSecurity,
    compute_mac,
    generate_token,
    is_loopback_host,
    load_token,
    new_nonce,
    serve_security_error,
    verify_mac,
    worker_security_error,
)
from repro.service import (
    CometClient,
    CometClientError,
    CometConnectionError,
    CometHTTPServer,
    CometService,
    CometTCPServer,
    SessionQuotas,
)

TOKEN = "test-shared-token-0123456789abcdef"

_PARAMS = {
    "dataset": "cmc",
    "algorithm": "lor",
    "errors": ["missing"],
    "budget": 2,
    "rows": 130,
    "step": 0.05,
    "seed": 0,
}


# ---------------------------------------------------------------------- #
# primitives
# ---------------------------------------------------------------------- #
class TestPrimitives:
    def test_mac_roundtrip(self):
        nonce = new_nonce()
        mac = compute_mac(TOKEN, ROLE_CLIENT, nonce)
        assert verify_mac(TOKEN, ROLE_CLIENT, nonce, mac)

    def test_roles_are_not_interchangeable(self):
        # A transcript captured from one direction must not replay as
        # the other direction's proof.
        nonce = new_nonce()
        worker_proof = compute_mac(TOKEN, ROLE_WORKER, nonce)
        assert not verify_mac(TOKEN, ROLE_COORDINATOR, nonce, worker_proof)
        assert not verify_mac(TOKEN, ROLE_CLIENT, nonce, worker_proof)

    def test_verify_rejects_junk(self):
        nonce = new_nonce()
        for junk in (None, "", 42, ["x"], {"mac": "y"}):
            assert not verify_mac(TOKEN, ROLE_CLIENT, nonce, junk)

    def test_wrong_token_fails(self):
        nonce = new_nonce()
        mac = compute_mac(TOKEN, ROLE_CLIENT, nonce)
        assert not verify_mac("other-token", ROLE_CLIENT, nonce, mac)

    def test_generate_token_is_fresh_and_long(self):
        a, b = generate_token(), generate_token()
        assert a != b and len(a) >= 64

    def test_nonces_are_single_use_material(self):
        assert new_nonce() != new_nonce()


class TestLoadToken:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        path = tmp_path / "tok"
        path.write_text("from-file\n")
        monkeypatch.setenv(AUTH_TOKEN_ENV, "from-env")
        assert load_token("explicit", path) == "explicit"

    def test_file_beats_env(self, tmp_path, monkeypatch):
        path = tmp_path / "tok"
        path.write_text("  from-file  \nsecond line ignored\n")
        monkeypatch.setenv(AUTH_TOKEN_ENV, "from-env")
        assert load_token(None, path) == "from-file"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(AUTH_TOKEN_ENV, "from-env")
        assert load_token() == "from-env"

    def test_none_when_unconfigured(self, monkeypatch):
        monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        assert load_token() is None

    def test_empty_sources_are_errors(self, tmp_path, monkeypatch):
        empty = tmp_path / "empty"
        empty.write_text("   \n")
        with pytest.raises(ValueError):
            load_token(None, empty)
        with pytest.raises(ValueError):
            load_token("   ")
        monkeypatch.setenv(AUTH_TOKEN_ENV, "  ")
        with pytest.raises(ValueError):
            load_token()


class TestFailClosedPolicy:
    def test_loopback_hosts(self):
        for host in ("127.0.0.1", "127.1.2.3", "localhost", "::1"):
            assert is_loopback_host(host)
        for host in ("0.0.0.0", "::", "", "10.0.0.5", "example.org"):
            assert not is_loopback_host(host)

    def test_serve_refuses_remote_without_token(self):
        message = serve_security_error("0.0.0.0", token=None, tls=False)
        assert "--auth-token" in message and "--insecure" in message

    def test_serve_refuses_cleartext_http_bearer(self):
        message = serve_security_error(
            "0.0.0.0", token=TOKEN, tls=False, http=True
        )
        assert "--tls-cert" in message

    def test_serve_allows_loopback_insecure_and_secured(self):
        assert serve_security_error("127.0.0.1", token=None, tls=False) is None
        assert (
            serve_security_error("0.0.0.0", token=None, tls=False, insecure=True)
            is None
        )
        assert serve_security_error("0.0.0.0", token=TOKEN, tls=False) is None
        assert (
            serve_security_error("0.0.0.0", token=TOKEN, tls=True, http=True)
            is None
        )

    def test_worker_refuses_remote_without_token(self):
        message = worker_security_error("0.0.0.0", token=None)
        assert "--auth-token" in message and "unpickle" in message
        assert worker_security_error("127.0.0.1", token=None) is None
        assert worker_security_error("0.0.0.0", token=TOKEN) is None

    def test_bearer_check(self):
        security = TransportSecurity(token=TOKEN)
        assert security.check_bearer(f"Bearer {TOKEN}")
        assert security.check_bearer(f"bearer  {TOKEN} ")
        assert not security.check_bearer(f"Basic {TOKEN}")
        assert not security.check_bearer("Bearer wrong")
        assert not security.check_bearer(None)
        assert not TransportSecurity().check_bearer(f"Bearer {TOKEN}")


# ---------------------------------------------------------------------- #
# TCP auth matrix
# ---------------------------------------------------------------------- #
@pytest.fixture
def service():
    with CometService(workers=2) as service:
        yield service


@pytest.fixture
def secured_tcp(service):
    server = CometTCPServer(service, security=TransportSecurity(token=TOKEN))
    server.serve_background()
    yield server
    server.shutdown()
    server.server_close()


def _raw_call(port, *payloads: dict) -> list[dict]:
    """One connection, n request frames, n parsed responses."""
    responses = []
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        reader = sock.makefile("rb")
        for payload in payloads:
            sock.sendall(encode_frame(payload))
            line = reader.readline()
            if not line:
                responses.append(None)  # server closed on us
                break
            responses.append(json.loads(line))
    return responses


class TestTCPAuthMatrix:
    def test_tokened_client_runs_verbs(self, secured_tcp):
        with CometClient(secured_tcp.port, auth_token=TOKEN, timeout=120) as c:
            assert c.create("s", _PARAMS)["open_candidates"] > 0
            assert c.status()["sessions"] == ["s"]
            assert c.close_session("s") == {"closed": "s"}

    def test_missing_token_gets_structured_unauthorized(self, secured_tcp):
        (response,) = _raw_call(secured_tcp.port, {"action": "status"})
        assert response["ok"] is False
        assert response["error"]["code"] == "unauthorized"
        assert "auth" in response["error"]["message"]

    def test_wrong_token_raises_unauthorized(self, secured_tcp):
        with pytest.raises(CometClientError) as info:
            CometClient(secured_tcp.port, auth_token="wrong-token")
        assert info.value.code == "unauthorized"
        assert not isinstance(info.value, CometConnectionError)

    def test_wrong_mac_closes_connection(self, secured_tcp):
        challenge, rejection, after = _raw_call(
            secured_tcp.port,
            {"action": "auth"},
            {"action": "auth", "mac": "f" * 64},
            {"action": "status"},
        )
        assert challenge["ok"] and challenge["result"]["nonce"]
        assert rejection["error"]["code"] == "unauthorized"
        assert after is None  # a failed proof costs the peer its connection

    def test_empty_token_never_authenticates(self, secured_tcp):
        nonce_resp, rejection = _raw_call(
            secured_tcp.port,
            {"action": "auth"},
            {"action": "auth", "mac": ""},
        )
        nonce = nonce_resp["result"]["nonce"]
        assert rejection["error"]["code"] == "unauthorized"
        # A MAC computed from an empty token is junk too.
        _, rejected = _raw_call(
            secured_tcp.port,
            {"action": "auth"},
            {"action": "auth", "mac": compute_mac("", ROLE_CLIENT, nonce)},
        )
        assert rejected["error"]["code"] == "unauthorized"

    def test_proof_without_challenge_is_rejected(self, secured_tcp):
        nonce = new_nonce()  # self-chosen: the server never issued it
        (response,) = _raw_call(
            secured_tcp.port,
            {"action": "auth", "mac": compute_mac(TOKEN, ROLE_CLIENT, nonce)},
        )
        assert response["error"]["code"] == "unauthorized"

    def test_auth_failure_is_not_retried(self, secured_tcp):
        # The connect-retry loop backs off between attempts; a terminal
        # auth rejection must surface immediately, not after retries
        # worth of sleeping and reconnecting.
        started = time.monotonic()
        with pytest.raises(CometClientError):
            CometClient(
                secured_tcp.port, auth_token="wrong", retries=3, backoff=5.0
            )
        assert time.monotonic() - started < 5.0

    def test_unauthorized_requests_consume_no_quota(self):
        quotas = SessionQuotas(max_sessions=1)
        with CometService(quotas=quotas) as service:
            server = CometTCPServer(
                service, security=TransportSecurity(token=TOKEN)
            )
            server.serve_background()
            try:
                for _ in range(3):
                    (response,) = _raw_call(
                        server.port,
                        {"action": "create", "name": "x", "params": _PARAMS},
                    )
                    assert response["error"]["code"] == "unauthorized"
                # The whole max_sessions=1 allowance is still available.
                with CometClient(server.port, auth_token=TOKEN, timeout=120) as c:
                    assert c.create("s", _PARAMS)["open_candidates"] > 0
            finally:
                server.shutdown()
                server.server_close()

    def test_token_against_open_server_is_harmless(self, service):
        server = CometTCPServer(service)
        server.serve_background()
        try:
            with CometClient(server.port, auth_token=TOKEN, timeout=120) as c:
                assert "sessions" in c.status()
        finally:
            server.shutdown()
            server.server_close()


# ---------------------------------------------------------------------- #
# HTTP auth matrix
# ---------------------------------------------------------------------- #
@pytest.fixture
def secured_http(service):
    server = CometHTTPServer(service, security=TransportSecurity(token=TOKEN))
    server.serve_background()
    yield server
    server.shutdown()
    server.server_close()


def _http(port, method, path, *, token=None, body=None):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        headers = {}
        if token is not None:
            headers["Authorization"] = f"Bearer {token}"
        payload = json.dumps(body).encode() if body is not None else None
        if payload is not None:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


class TestHTTPAuthMatrix:
    def test_bearer_token_passes(self, secured_http):
        status, payload = _http(secured_http.port, "GET", "/status", token=TOKEN)
        assert status == 200 and payload["ok"]

    @pytest.mark.parametrize("token", [None, "wrong", ""])
    def test_bad_bearer_is_401(self, secured_http, token):
        status, payload = _http(secured_http.port, "GET", "/status", token=token)
        assert status == 401
        assert payload["error"]["code"] == "unauthorized"

    def test_post_without_token_is_401_and_undispatched(self, secured_http):
        status, payload = _http(
            secured_http.port,
            "POST",
            "/create",
            body={"name": "x", "params": _PARAMS},
        )
        assert status == 401
        assert payload["error"]["code"] == "unauthorized"
        # Nothing reached the service: no session exists.
        _, listing = _http(secured_http.port, "GET", "/status", token=TOKEN)
        assert listing["result"]["sessions"] == []

    def test_unauthorized_shutdown_leaves_server_up(self, secured_http):
        status, payload = _http(secured_http.port, "POST", "/shutdown", body={})
        assert status == 401
        assert payload["error"]["code"] == "unauthorized"
        status, _ = _http(secured_http.port, "GET", "/status", token=TOKEN)
        assert status == 200  # still serving


# ---------------------------------------------------------------------- #
# shutdown gating on an UNauthenticated server
# ---------------------------------------------------------------------- #
class TestShutdownGating:
    """Without auth the shutdown verb is loopback-only by default."""

    def test_remote_tcp_shutdown_rejected(self, service, monkeypatch):
        server = CometTCPServer(service)
        server.serve_background()
        try:
            # Simulate a remote peer: the gate consults is_loopback_host
            # on the peer address, so patching it is the remote view.
            monkeypatch.setattr(
                "repro.service.transport.is_loopback_host", lambda host: False
            )
            rejection, after = _raw_call(
                server.port, {"action": "shutdown"}, {"action": "status"}
            )
            assert rejection["ok"] is False
            assert rejection["error"]["code"] == "unauthorized"
            assert "--allow-remote-shutdown" in rejection["error"]["message"]
            assert after["ok"]  # connection survived, server still serving
        finally:
            server.shutdown()
            server.server_close()

    def test_remote_http_shutdown_rejected(self, service, monkeypatch):
        server = CometHTTPServer(service)
        server.serve_background()
        try:
            monkeypatch.setattr(
                "repro.service.transport.is_loopback_host", lambda host: False
            )
            status, payload = _http(server.port, "POST", "/shutdown", body={})
            assert status == 403
            assert payload["error"]["code"] == "unauthorized"
            status, _ = _http(server.port, "GET", "/status")
            assert status == 200  # server stayed up
        finally:
            server.shutdown()
            server.server_close()

    def test_allow_remote_shutdown_opts_in(self, service, monkeypatch):
        server = CometTCPServer(service, allow_remote_shutdown=True)
        server.serve_background()
        try:
            monkeypatch.setattr(
                "repro.service.transport.is_loopback_host", lambda host: False
            )
            (response,) = _raw_call(server.port, {"action": "shutdown"})
            assert response == {"ok": True, "result": {"shutdown": True}}
        finally:
            server.shutdown()
            server.server_close()

    def test_authenticated_remote_shutdown_allowed(self, service, monkeypatch):
        server = CometTCPServer(service, security=TransportSecurity(token=TOKEN))
        server.serve_background()
        try:
            monkeypatch.setattr(
                "repro.service.transport.is_loopback_host", lambda host: False
            )
            with CometClient(server.port, auth_token=TOKEN) as client:
                assert client.shutdown_server() == {"shutdown": True}
        finally:
            server.shutdown()
            server.server_close()


# ---------------------------------------------------------------------- #
# idle timeout
# ---------------------------------------------------------------------- #
class TestIdleTimeout:
    def test_idle_connections_are_reaped_and_live_client_unblocked(
        self, service
    ):
        server = CometTCPServer(service, conn_timeout=0.5)
        server.serve_background()
        idle = []
        try:
            for _ in range(5):
                idle.append(
                    socket.create_connection(("127.0.0.1", server.port), timeout=30)
                )
            # A live client is not blocked behind the 5 silent peers.
            with CometClient(server.port, timeout=30) as client:
                assert "sessions" in client.status()
            # ... and each silent peer's socket is closed by the server
            # once it idles past conn_timeout (EOF on our side).
            deadline = time.monotonic() + 10.0
            for sock in idle:
                sock.settimeout(max(0.1, deadline - time.monotonic()))
                assert sock.recv(1) == b""
        finally:
            for sock in idle:
                sock.close()
            server.shutdown()
            server.server_close()

    def test_active_connection_outlives_the_timeout(self, service):
        server = CometTCPServer(service, conn_timeout=0.5)
        server.serve_background()
        try:
            with CometClient(server.port, timeout=30) as client:
                for _ in range(3):
                    time.sleep(0.3)  # stay under the idle limit each time
                    assert "sessions" in client.status()
        finally:
            server.shutdown()
            server.server_close()


# ---------------------------------------------------------------------- #
# TLS
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tls_cert(tmp_path_factory):
    """A self-signed cert/key pair for 127.0.0.1 (skip without openssl)."""
    if shutil.which("openssl") is None:
        pytest.skip("openssl CLI not available to generate a test certificate")
    directory = tmp_path_factory.mktemp("tls")
    cert, key = directory / "cert.pem", directory / "key.pem"
    subprocess.run(
        [
            "openssl", "req", "-x509", "-newkey", "rsa:2048",
            "-keyout", str(key), "-out", str(cert),
            "-days", "2", "-nodes", "-subj", "/CN=localhost",
            "-addext", "subjectAltName=IP:127.0.0.1,DNS:localhost",
        ],
        check=True,
        capture_output=True,
    )
    return str(cert), str(key)


class TestTLS:
    def test_full_verb_trace_over_tls_token_matches_in_process(
        self, service, tls_cert
    ):
        cert, key = tls_cert
        # The reference runs the *same* verb sequence in-process, so the
        # comparison pins the transport (TLS + auth), not the verbs.
        with CometService() as isolated:
            isolated.handle({"action": "create", "name": "r", "params": _PARAMS})
            isolated.handle({"action": "recommend", "name": "r", "k": 2})
            isolated.handle({"action": "step", "name": "r"})
            response = isolated.handle({"action": "run", "name": "r"})
            assert response["ok"]
            reference = response["result"]["trace"]

        server = CometTCPServer(
            service,
            security=TransportSecurity(token=TOKEN, certfile=cert, keyfile=key),
        )
        server.serve_background()
        try:
            with CometClient(
                server.port, tls=cert, auth_token=TOKEN, timeout=120
            ) as client:
                assert client.create("t", _PARAMS)["open_candidates"] > 0
                client.recommend("t", k=2)
                client.step("t")
                client.run("t", wait=False)
                outcome = client.result("t")
                assert outcome["ready"] and outcome["finished"]
                assert client.status("t")["finished"]
                assert client.close_session("t") == {"closed": "t"}
        finally:
            server.shutdown()
            server.server_close()
        assert json.dumps(outcome["trace"], sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_plaintext_client_is_dropped_by_tls_server(self, service, tls_cert):
        cert, key = tls_cert
        server = CometTCPServer(
            service, security=TransportSecurity(certfile=cert, keyfile=key)
        )
        server.serve_background()
        try:
            with pytest.raises((CometConnectionError, TimeoutError)):
                client = CometClient(server.port, timeout=5)
                client.status()
        finally:
            server.shutdown()
            server.server_close()

    def test_unpinned_client_fails_fast(self, service, tls_cert):
        cert, key = tls_cert
        server = CometTCPServer(
            service, security=TransportSecurity(certfile=cert, keyfile=key)
        )
        server.serve_background()
        started = time.monotonic()
        try:
            with pytest.raises(CometConnectionError) as info:
                # System CA store does not know our self-signed cert.
                CometClient(server.port, tls=True, retries=3, backoff=5.0)
            assert "TLS" in str(info.value)
            assert time.monotonic() - started < 5.0  # handshake not retried
        finally:
            server.shutdown()
            server.server_close()


# ---------------------------------------------------------------------- #
# distributed worker link
# ---------------------------------------------------------------------- #
def _square(x):
    return x * x


def _secured_backend(**kwargs):
    kwargs.setdefault("heartbeat", 0.2)
    kwargs.setdefault("register_timeout", 60.0)
    kwargs.setdefault("security", TransportSecurity(token=TOKEN))
    return DistributedBackend(2, **kwargs)


def _start_worker_thread(backend, security, worker_id="w"):
    host, port = backend.address

    def _serve():
        try:
            run_worker(
                connect=(host, port),
                worker_id=worker_id,
                retries=1,
                security=security,
            )
        except (ConnectionError, OSError):
            pass

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    return thread


class TestDistributedAuth:
    def test_mutual_handshake_serves_tasks(self):
        backend = _secured_backend()
        backend.start()
        try:
            _start_worker_thread(backend, TransportSecurity(token=TOKEN))
            assert backend.wait_for_workers(1, timeout=30) == 1
            assert backend.map(_square, [1, 2, 3]) == [1, 4, 9]
        finally:
            backend.shutdown()

    def test_tokenless_worker_is_refused(self):
        backend = _secured_backend()
        backend.start()
        try:
            host, port = backend.address
            with socket.create_connection((host, port), timeout=30) as sock:
                conn = JSONLineConnection(sock)
                conn.send(
                    {"op": "hello", "worker": "w", "pid": 0, "protocol": 1}
                )
                goodbye = conn.recv()
            assert goodbye["op"] == "goodbye"
            assert "authentication required" in goodbye["reason"]
            assert backend.wait_for_workers(1, timeout=1) == 0
        finally:
            backend.shutdown()

    def test_wrong_token_worker_never_registers(self):
        backend = _secured_backend()
        backend.start()
        try:
            errors = []

            def _serve():
                host, port = backend.address
                try:
                    run_worker(
                        connect=(host, port),
                        retries=1,
                        security=TransportSecurity(token="not-the-token"),
                    )
                except ConnectionError as exc:
                    errors.append(str(exc))

            thread = threading.Thread(target=_serve, daemon=True)
            thread.start()
            thread.join(timeout=30)
            assert errors and "authentication" in errors[0]
            assert backend.wait_for_workers(1, timeout=1) == 0
        finally:
            backend.shutdown()

    def test_rogue_coordinator_cannot_trigger_unpickle(self, monkeypatch):
        """A worker with a token refuses an unproven coordinator before
        the task loop — its payloads are never unpickled."""
        import repro.runtime.distributed as distributed

        decoded = []
        real = distributed.text_to_pickle
        monkeypatch.setattr(
            distributed,
            "text_to_pickle",
            lambda text: decoded.append(text) or real(text),
        )

        with socket.create_server(("127.0.0.1", 0)) as listener:
            host, port = listener.getsockname()[:2]

            def _rogue():
                sock, _ = listener.accept()
                conn = JSONLineConnection(sock)
                conn.recv()  # the worker's hello (with its challenge)
                # No auth_mac: this coordinator cannot prove possession,
                # but it tries to push a task anyway.
                conn.send({"op": "welcome", "heartbeat": 1.0})
                try:
                    conn.send(
                        {"op": "task", "id": 0, "payload": "bm90IGEgcGlja2xl"}
                    )
                except (OSError, ConnectionError):
                    pass
                conn.close()

            rogue = threading.Thread(target=_rogue, daemon=True)
            rogue.start()
            sock = socket.create_connection((host, port), timeout=30)
            with pytest.raises(ConnectionError, match="failed authentication"):
                worker_serve(
                    JSONLineConnection(sock),
                    security=TransportSecurity(token=TOKEN),
                )
            rogue.join(timeout=10)
        assert decoded == []  # nothing was ever unpickled

    def test_coordinator_must_challenge_back(self):
        """A welcome that answers the worker's nonce but issues no
        counter-challenge is a one-sided handshake — refused."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            host, port = listener.getsockname()[:2]

            def _half_coordinator():
                sock, _ = listener.accept()
                conn = JSONLineConnection(sock)
                hello = conn.recv()
                conn.send(
                    {
                        "op": "welcome",
                        "heartbeat": 1.0,
                        "auth_mac": compute_mac(
                            TOKEN, ROLE_COORDINATOR, hello["auth_nonce"]
                        ),
                    }
                )
                conn.close()

            threading.Thread(target=_half_coordinator, daemon=True).start()
            sock = socket.create_connection((host, port), timeout=30)
            with pytest.raises(ConnectionError, match="one-sided"):
                worker_serve(
                    JSONLineConnection(sock),
                    security=TransportSecurity(token=TOKEN),
                )

    def test_nonloopback_coordinator_requires_token(self):
        with pytest.raises(ValueError, match="refusing to coordinate"):
            DistributedBackend(2, listen=("0.0.0.0", 0))
        # With a token (or the explicit escape hatch) construction is fine.
        DistributedBackend(
            2, listen=("0.0.0.0", 0), security=TransportSecurity(token=TOKEN)
        )
        DistributedBackend(2, listen=("0.0.0.0", 0), insecure=True)

    def test_nonloopback_listen_worker_requires_token(self):
        with pytest.raises(ValueError, match="--auth-token"):
            listen_worker(listen=("0.0.0.0", 0))

    def test_from_env_picks_up_token(self, monkeypatch):
        monkeypatch.setenv(CONNECT_ENV, "127.0.0.1:9001")
        monkeypatch.setenv(AUTH_TOKEN_ENV, TOKEN)
        backend = DistributedBackend.from_env(2)
        assert backend.security is not None
        assert backend.security.token == TOKEN

    def test_from_env_without_token_is_open(self, monkeypatch):
        monkeypatch.setenv(CONNECT_ENV, "127.0.0.1:9001")
        monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        backend = DistributedBackend.from_env(2)
        assert backend.security is None


class TestDistributedSecuredTrace:
    def test_e1_sweep_bit_identical_over_token_tls_link(self, tls_cert):
        """The acceptance pin: a fully secured worker link (mutual token
        auth + TLS) changes nothing about the E1 trace."""
        from repro.core import Comet, CometConfig
        from repro.datasets import load_dataset, pollute

        cert, key = tls_cert
        dataset = load_dataset("eeg", n_rows=120, rng=0)
        polluted = pollute(dataset, error_types=["missing"], rng=2)

        def trace(backend, jobs=1):
            with Comet(
                polluted,
                algorithm="lor",
                error_types=["missing"],
                budget=3.0,
                config=CometConfig(step=0.05),
                rng=123,
                backend=backend,
                jobs=jobs,
            ) as comet:
                return comet.run()

        serial = trace("serial")
        backend = _secured_backend(
            security=TransportSecurity(token=TOKEN, certfile=cert, keyfile=key)
        )
        backend.start()
        worker_security = TransportSecurity(token=TOKEN, cafile=cert)
        try:
            _start_worker_thread(backend, worker_security, "a")
            _start_worker_thread(backend, worker_security, "b")
            assert backend.wait_for_workers(2, timeout=30) == 2
            secured = trace(backend, jobs=2)
        finally:
            backend.shutdown()
        assert serial == secured


# ---------------------------------------------------------------------- #
# CLI fail-closed exits
# ---------------------------------------------------------------------- #
class TestCLIFailClosed:
    def test_serve_refuses_nonloopback_without_token(self, capsys, monkeypatch):
        monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        assert main(["serve", "--host", "0.0.0.0", "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert "--auth-token" in err and "--insecure" in err

    def test_serve_refuses_cleartext_http_bearer(self, capsys):
        code = main(
            [
                "serve", "--host", "0.0.0.0", "--port", "0", "--http",
                "--auth-token", TOKEN,
            ]
        )
        assert code == 2
        assert "--tls-cert" in capsys.readouterr().err

    def test_worker_listen_refuses_nonloopback_without_token(
        self, capsys, monkeypatch
    ):
        monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        assert main(["worker", "--listen", "0.0.0.0:0"]) == 2
        err = capsys.readouterr().err
        assert "--auth-token" in err and "--insecure" in err

    def test_empty_token_file_is_an_error(self, capsys, tmp_path):
        empty = tmp_path / "token"
        empty.write_text("\n")
        code = main(
            ["serve", "--port", "0", "--auth-token-file", str(empty)]
        )
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_tls_key_requires_cert(self, capsys, tmp_path):
        key = tmp_path / "key.pem"
        key.write_text("not really a key")
        code = main(["serve", "--port", "0", "--tls-key", str(key)])
        assert code == 2
        assert "--tls-cert" in capsys.readouterr().err
