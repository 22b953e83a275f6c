"""Tests for the networked service transports (``repro.service.transport``).

Covers every verb over a real TCP socket, frame hardening (malformed,
oversized, truncated), the HTTP adapter, and the service's concurrency
contracts extended to the networked path: traces fetched over a socket
are bit-identical to in-process ``CometService.handle`` traces, and
``status`` on one session answers in under a second while another
session is mid-``run`` on a CleanML sweep.
"""

import json
import socket
import threading
import time

import pytest

from repro.service import (
    CometClient,
    CometClientError,
    CometConnectionError,
    CometHTTPServer,
    CometService,
    CometTCPServer,
)
from repro.session import SessionObserver

_PARAMS = {
    "dataset": "cmc",
    "algorithm": "lor",
    "errors": ["missing"],
    "budget": 2,
    "rows": 130,
    "step": 0.05,
    "seed": 0,
}

#: A CleanML sweep slow enough (~1s+/iteration) to observe mid-run.
_CLEANML_PARAMS = {
    "dataset": "titanic",
    "cleanml": True,
    "algorithm": "mlp",
    "budget": 50,
    "step": 0.02,
    "seed": 0,
}


def _params(seed=0, **overrides):
    return {**_PARAMS, "seed": seed, **overrides}


@pytest.fixture
def service():
    with CometService(workers=2) as service:
        yield service


@pytest.fixture
def tcp_server(service):
    server = CometTCPServer(service)
    server.serve_background()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture
def client(tcp_server):
    with CometClient(tcp_server.port, timeout=120) as client:
        yield client


def _raw_exchange(port, payload: bytes, *, half_close=False) -> list[bytes]:
    """Send raw bytes, return the newline-delimited response frames."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(payload)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        reader = sock.makefile("rb")
        return reader.read().splitlines() if half_close else [reader.readline()]


class TestVerbRoundTrip:
    """Every verb round-trips over a real socket."""

    def test_full_session_lifecycle(self, client, tmp_path):
        created = client.create("s", _params())
        assert created["open_candidates"] > 0

        everyone = client.status()
        assert everyone["sessions"] == ["s"]
        assert everyone["scheduler_workers"] >= 2
        assert set(everyone["quotas"]) == {
            "max_iterations", "max_seconds", "max_sessions",
        }

        status = client.status("s")
        assert status["iteration"] == 0 and status["running"] is False

        candidates = client.recommend("s", k=2)
        assert all(
            set(c) >= {"feature", "error", "predicted_f1", "score"}
            for c in candidates
        )

        stepped = client.step("s")
        assert stepped["record"]["iteration"] == 1

        scheduled = client.run("s", wait=False)
        assert scheduled == {"name": "s", "scheduled": True}
        outcome = client.result("s")
        assert outcome["ready"] and outcome["finished"]
        # The step's record stayed part of the session's single trace.
        assert outcome["trace"]["records"][0]["iteration"] == 1

        path = tmp_path / "net.ckpt"
        assert client.checkpoint("s", str(path)) == {"path": str(path)}
        assert client.close_session("s") == {"closed": "s"}

        reloaded = client.create("s2", checkpoint=str(path))
        assert reloaded["iteration"] == outcome["trace"]["records"][-1]["iteration"]

    def test_structured_errors_over_socket(self, client):
        with pytest.raises(CometClientError) as excinfo:
            client.status("ghost")
        assert excinfo.value.error_type == "KeyError"
        raw = client.call({"action": "warp"})
        assert not raw["ok"]
        assert set(raw["error"]) >= {"type", "message"}
        assert "unknown action" in raw["error"]["message"]

    def test_shutdown_verb_stops_server(self, service):
        server = CometTCPServer(service)
        thread = server.serve_background()
        with CometClient(server.port, timeout=30) as client:
            assert client.shutdown_server() == {"shutdown": True}
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()


class TestFrameHardening:
    """Bad frames come back as errors; the server survives all of them."""

    def test_malformed_json_keeps_connection(self, tcp_server):
        with socket.create_connection(
            ("127.0.0.1", tcp_server.port), timeout=30
        ) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"this is { not json\n")
            bad = json.loads(reader.readline())
            assert not bad["ok"] and bad["error"]["code"] == "bad_frame"
            assert "invalid JSON" in bad["error"]["message"]
            # The same connection still serves valid requests.
            sock.sendall(json.dumps({"action": "status"}).encode() + b"\n")
            good = json.loads(reader.readline())
            assert good["ok"] and good["result"]["sessions"] == []

    def test_non_object_request_rejected(self, tcp_server):
        frames = _raw_exchange(tcp_server.port, b"[1, 2, 3]\n")
        response = json.loads(frames[0])
        assert not response["ok"]
        assert response["error"]["code"] == "bad_frame"
        assert "JSON object" in response["error"]["message"]

    def test_oversized_frame_rejected_connection_survives(self, service):
        server = CometTCPServer(service, max_frame=512)
        server.serve_background()
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            ) as sock:
                reader = sock.makefile("rb")
                huge = json.dumps({"action": "status", "pad": "x" * 2048})
                sock.sendall(huge.encode() + b"\n")
                response = json.loads(reader.readline())
                assert not response["ok"]
                assert response["error"]["code"] == "bad_frame"
                assert "exceeds 512" in response["error"]["message"]
                sock.sendall(json.dumps({"action": "status"}).encode() + b"\n")
                assert json.loads(reader.readline())["ok"]
        finally:
            server.shutdown()
            server.server_close()

    def test_exact_boundary_oversized_frame_does_not_eat_next_request(
        self, service
    ):
        # A frame of exactly max_frame+1 bytes *including* its newline is
        # already a complete line: the server must reject it without
        # draining (and thereby discarding) the request behind it.
        limit = 512
        server = CometTCPServer(service, max_frame=limit)
        server.serve_background()
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            ) as sock:
                reader = sock.makefile("rb")
                frame = b"x" * limit + b"\n"  # limit+1 bytes with newline
                follow_up = json.dumps({"action": "status"}).encode() + b"\n"
                sock.sendall(frame + follow_up)
                first = json.loads(reader.readline())
                assert first["error"]["code"] == "bad_frame"
                second = json.loads(reader.readline())
                assert second["ok"] and second["result"]["sessions"] == []
        finally:
            server.shutdown()
            server.server_close()

    def test_client_poisons_connection_after_timeout(self, service, tcp_server):
        with CometClient(tcp_server.port, timeout=120) as setup:
            setup.create("slowpoke", _params(budget=4))
        # Hold the run inside its first sweep until the client has given
        # up, so outlasting the 0.2 s timeout never depends on how fast
        # the sweep is (unheld, this run takes about 0.2 s).
        gate = _HoldFirstSweep()
        service.session("slowpoke").add_observer(gate)
        client = CometClient(tcp_server.port, timeout=0.2)
        try:
            with pytest.raises(OSError):
                client.run("slowpoke")
            with pytest.raises(ConnectionError, match="desynchronized"):
                client.status()
        finally:
            gate.release.set()
            client.close()
        # The server survives the broken client; a fresh connection works.
        with CometClient(tcp_server.port, timeout=120) as fresh:
            assert "slowpoke" in fresh.status()["sessions"]

    def test_truncated_frame_reports_error(self, tcp_server):
        frames = _raw_exchange(
            tcp_server.port, b'{"action": "stat', half_close=True
        )
        response = json.loads(frames[0])
        assert not response["ok"]
        assert response["error"]["code"] == "bad_frame"
        assert "truncated" in response["error"]["message"]

    def test_blank_lines_skipped(self, tcp_server):
        with socket.create_connection(
            ("127.0.0.1", tcp_server.port), timeout=30
        ) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"\n   \n" + json.dumps({"action": "status"}).encode() + b"\n")
            response = json.loads(reader.readline())
            assert response["ok"] and "sessions" in response["result"]


class TestClientResilience:
    """``CometClient`` connect retries and mid-call disconnect wrapping."""

    def test_connect_retries_until_server_appears(self, service):
        # Grab a free port, then start the server on it *after* the
        # client has begun dialing — the retry loop must bridge the gap.
        placeholder = socket.create_server(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        server_box = {}

        def late_start():
            time.sleep(0.4)
            server_box["server"] = CometTCPServer(service, ("127.0.0.1", port))
            server_box["server"].serve_background()

        thread = threading.Thread(target=late_start, daemon=True)
        thread.start()
        try:
            with CometClient(port, timeout=30, retries=10, backoff=0.15) as client:
                assert client.call({"action": "status"})["ok"]
        finally:
            thread.join(timeout=10)
            server = server_box.get("server")
            if server is not None:
                server.shutdown()
                server.server_close()

    def test_connect_retries_exhausted(self):
        placeholder = socket.create_server(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()  # nothing listens here anymore
        start = time.monotonic()
        with pytest.raises(CometConnectionError) as excinfo:
            CometClient(port, retries=2, backoff=0.05)
        assert time.monotonic() - start < 30
        error = excinfo.value
        assert isinstance(error, ConnectionError)  # legacy except clauses
        assert isinstance(error, CometClientError)
        assert error.code == "connection_lost"
        assert error.details["retries"] == 2
        assert "2 attempt" in str(error)

    def test_mid_call_disconnect_wrapped(self):
        # A bare listener that accepts one connection, reads the request,
        # then vanishes without replying — the server dying mid-call.
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def vanish():
            conn, _ = listener.accept()
            conn.recv(4096)
            conn.close()

        thread = threading.Thread(target=vanish, daemon=True)
        thread.start()
        client = CometClient(port, timeout=30)
        try:
            with pytest.raises(CometConnectionError, match="closed the connection"):
                client.call({"action": "status"})
            # The connection is poisoned: later calls fail fast, and the
            # error still satisfies legacy ``except ConnectionError``.
            with pytest.raises(ConnectionError, match="desynchronized"):
                client.call({"action": "status"})
        finally:
            client.close()
            listener.close()
            thread.join(timeout=10)

    def test_retries_must_be_positive(self):
        with pytest.raises(ValueError, match="retries"):
            CometClient(1, retries=0)


class TestNetworkedDeterminism:
    """The determinism contract of ``tests/test_service.py`` holds over TCP:
    concurrently driven networked sessions yield traces bit-identical to
    serial in-process ``CometService.handle`` runs."""

    def test_concurrent_networked_traces_equal_in_process(self, tcp_server):
        seeds = [0, 1, 2]
        reference = {}
        for seed in seeds:
            with CometService() as isolated:
                isolated.handle(
                    {"action": "create", "name": "r", "params": _params(seed)}
                )
                response = isolated.handle({"action": "run", "name": "r"})
                assert response["ok"]
                reference[seed] = response["result"]["trace"]

        traces = {}
        errors = []

        def drive(seed):
            try:
                with CometClient(tcp_server.port, timeout=300) as client:
                    client.create(f"n{seed}", _params(seed))
                    traces[seed] = client.run(f"n{seed}")["trace"]
            except Exception as exc:  # pragma: no cover — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(s,)) for s in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for seed in seeds:
            assert json.dumps(traces[seed], sort_keys=True) == json.dumps(
                reference[seed], sort_keys=True
            )


class TestLiveSocketResponsiveness:
    """The acceptance scenario: ``status`` on session B answers in <1s
    while session A is mid-``run`` on a CleanML sweep, and A's networked
    trace is bit-identical to the in-process path."""

    def test_status_fast_while_cleanml_run_in_flight(self, service, tcp_server):
        sweeps = 4
        with CometService() as isolated:
            isolated.handle(
                {"action": "create", "name": "ref", "params": _CLEANML_PARAMS}
            )
            response = isolated.handle(
                {"action": "run", "name": "ref", "max_iterations": sweeps}
            )
            assert response["ok"]
            reference = response["result"]["trace"]

        with CometClient(tcp_server.port, timeout=300) as client:
            client.create("a", _CLEANML_PARAMS)
            client.create("b", _params())
            # Hold A inside its first sweep until B's latency is measured,
            # so "mid-run" never depends on how fast the sweep is.
            gate = _HoldFirstSweep()
            service.session("a").add_observer(gate)
            assert client.run("a", max_iterations=sweeps, wait=False) == {
                "name": "a",
                "scheduled": True,
            }
            try:
                assert gate.reached.wait(timeout=120), "run never started"
                latencies = []
                for __ in range(5):
                    started = time.perf_counter()
                    status = client.status("b")
                    latencies.append(time.perf_counter() - started)
                    assert status["iteration"] == 0
                assert service.scheduler.running("a")
            finally:
                gate.release.set()
            assert max(latencies) < 1.0, f"status too slow: {latencies}"

            outcome = client.result("a")
            assert outcome["ready"]
            assert json.dumps(outcome["trace"], sort_keys=True) == json.dumps(
                reference, sort_keys=True
            )


class _HoldFirstSweep(SessionObserver):
    """Blocks the session thread after its first sweep until released."""

    def __init__(self):
        self.reached = threading.Event()
        self.release = threading.Event()

    def on_iteration(self, session, records):
        if not self.reached.is_set():
            self.reached.set()
            self.release.wait(timeout=120)


class TestHTTPAdapter:
    """The minimal HTTP/1.1 surface maps onto the same verbs."""

    @pytest.fixture
    def http_server(self, service):
        server = CometHTTPServer(service, max_frame=64_000)
        server.serve_background()
        yield server
        server.shutdown()
        server.server_close()

    @staticmethod
    def _request(server, method, path, body=None):
        import urllib.error
        import urllib.request

        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_verbs_over_http(self, http_server):
        status, created = self._request(
            http_server, "POST", "/create", {"name": "h", "params": _params()}
        )
        assert status == 200 and created["ok"]
        assert created["result"]["open_candidates"] > 0

        status, listed = self._request(http_server, "GET", "/status")
        assert status == 200 and listed["result"]["sessions"] == ["h"]

        status, named = self._request(http_server, "GET", "/status/h")
        assert status == 200 and named["result"]["iteration"] == 0

        status, stepped = self._request(
            http_server, "POST", "/rpc", {"action": "step", "name": "h"}
        )
        assert status == 200 and stepped["result"]["record"]["iteration"] == 1

        status, ran = self._request(http_server, "POST", "/run", {"name": "h"})
        assert status == 200 and ran["result"]["finished"]

        status, closed = self._request(
            http_server, "POST", "/close", {"name": "h"}
        )
        assert status == 200 and closed["result"] == {"closed": "h"}

    def test_http_error_statuses(self, http_server):
        status, response = self._request(
            http_server, "POST", "/step", {"name": "ghost"}
        )
        assert status == 400 and response["error"]["type"] == "KeyError"

        status, response = self._request(http_server, "GET", "/nope")
        assert status == 404 and response["error"]["code"] == "bad_frame"

        status, response = self._request(
            http_server, "POST", "/rpc", {"name": "no-action"}
        )
        assert status == 400 and "unknown action" in response["error"]["message"]

        status, response = self._request(
            http_server, "POST", "/create", {"name": "big", "pad": "x" * 100_000}
        )
        assert status == 413 and "exceeds" in response["error"]["message"]

    def test_http_bad_content_length(self, http_server):
        import http.client

        for value in ("abc", "-5"):
            conn = http.client.HTTPConnection("127.0.0.1", http_server.port)
            try:
                conn.putrequest("POST", "/status")
                conn.putheader("Content-Length", value)
                conn.endheaders()
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status == 400
                assert payload["error"]["code"] == "bad_frame"
                assert "Content-Length" in payload["error"]["message"]
                # The unreadable body desynchronized the stream: the
                # server must drop the keep-alive connection.
                assert response.getheader("Connection") == "close"
            finally:
                conn.close()

    def test_http_oversized_body_closes_keep_alive(self, http_server):
        # The 413 path leaves the body unread; keeping the connection
        # alive would parse those bytes as the next request.
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", http_server.port)
        try:
            body = json.dumps({"name": "big", "pad": "x" * 100_000}).encode()
            conn.request("POST", "/create", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 413
            assert "exceeds" in payload["error"]["message"]
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "token", [None, "keep-alive-token-0123456789"], ids=["plain", "token"]
    )
    def test_kept_alive_requests_do_not_wait_for_delayed_acks(self, service, token):
        # A reply written as two segments with Nagle's algorithm on waits
        # for the client's delayed ACK: ~40 ms each, 0.8 s or more for 20.
        import http.client

        from repro.security import TransportSecurity

        security = TransportSecurity(token=token) if token else None
        server = CometHTTPServer(service, security=security)
        server.serve_background()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        headers = {"Authorization": f"Bearer {token}"} if token else {}
        try:
            start = time.perf_counter()
            for __ in range(20):
                conn.request("POST", "/status", body=b"{}", headers=headers)
                response = conn.getresponse()
                assert response.status == 200 and json.loads(response.read())["ok"]
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
        assert elapsed < 0.4, f"20 kept-alive requests took {elapsed:.3f} s"

    def test_http_shutdown(self, service):
        server = CometHTTPServer(service)
        thread = server.serve_background()
        status, response = self._request(server, "POST", "/shutdown", {})
        assert status == 200 and response["result"] == {"shutdown": True}
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()
