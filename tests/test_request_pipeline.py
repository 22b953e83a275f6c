"""One request pipeline behind the stdio, TCP and HTTP front ends.

The front ends differ only in I/O: the same request script gets the same
response envelopes over stdio (:func:`serve_stream`), a
:class:`CometTCPServer` connection and :class:`CometHTTPServer`'s
``POST /rpc``. HTTP status codes are pinned by the transport tests; here
only the envelopes are compared. Also covers the HTTP adapter's routing:
the path verb wins over a body ``action``, and ``GET /status/<name>``
percent-decodes the name.
"""

import http.client
import io
import json
import socket
import urllib.parse

import pytest

from repro.service import CometHTTPServer, CometService, CometTCPServer, serve_stream

#: Valid status, bad JSON, a non-object, an unknown action, a missing
#: ``name``, and the stream-level shutdown.
_SCRIPT = [
    json.dumps({"action": "status"}),
    "this is { not json",
    "[1, 2, 3]",
    json.dumps({"action": "warp"}),
    json.dumps({"action": "step"}),
    json.dumps({"action": "shutdown"}),
]

_PARAMS = {
    "dataset": "cmc",
    "algorithm": "lor",
    "errors": ["missing"],
    "budget": 2,
    "rows": 130,
    "step": 0.05,
    "seed": 0,
}


def _http(port, method, path, body: bytes | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _over_stdio() -> list[bytes]:
    out = io.StringIO()
    with CometService() as service:
        handled = serve_stream(service, io.StringIO("\n".join(_SCRIPT) + "\n"), out)
    assert handled == len(_SCRIPT)
    return [line.encode() for line in out.getvalue().splitlines()]


def _over_tcp() -> list[bytes]:
    with CometService() as service:
        server = CometTCPServer(service)
        thread = server.serve_background()
        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=60) as sock:
                reader = sock.makefile("rb")
                frames = []
                for line in _SCRIPT:
                    sock.sendall(line.encode() + b"\n")
                    frames.append(reader.readline().rstrip(b"\n"))
            thread.join(timeout=10)
            assert not thread.is_alive(), "shutdown must stop the TCP server"
        finally:
            server.server_close()
    return frames


def _over_http() -> list[bytes]:
    with CometService() as service:
        server = CometHTTPServer(service)
        thread = server.serve_background()
        try:
            frames = [
                _http(server.port, "POST", "/rpc", line.encode())[1].rstrip(b"\n")
                for line in _SCRIPT
            ]
            thread.join(timeout=10)
            assert not thread.is_alive(), "/rpc shutdown must stop the HTTP server"
        finally:
            server.server_close()
    return frames


def test_front_ends_return_identical_envelopes():
    stdio, tcp, web = _over_stdio(), _over_tcp(), _over_http()
    envelopes = [json.loads(frame) for frame in stdio]
    assert [json.loads(frame) for frame in tcp] == envelopes
    assert [json.loads(frame) for frame in web] == envelopes
    # stdio writes the same compact frames as TCP, byte for byte.
    assert stdio == tcp
    status, bad_json, non_object, unknown, nameless, shutdown = envelopes
    assert status["ok"] and status["result"]["sessions"] == []
    for bad in (bad_json, non_object):
        assert bad["error"]["type"] == "FrameError"
        assert bad["error"]["code"] == "bad_frame"
    assert "unknown action 'warp'" in unknown["error"]["message"]
    assert "missing required field 'name'" in nameless["error"]["message"]
    assert shutdown == {"ok": True, "result": {"shutdown": True}}


class TestHTTPRouting:
    @pytest.fixture(scope="class")
    def http_server(self):
        with CometService() as service:
            assert service.handle(
                {"action": "create", "name": "my s", "params": _PARAMS}
            )["ok"]
            server = CometHTTPServer(service)
            server.serve_background()
            try:
                yield server
            finally:
                server.shutdown()
                server.server_close()

    def test_path_verb_wins_over_body_action(self, http_server):
        body = json.dumps({"action": "close", "name": "my s"}).encode()
        status, raw = _http(http_server.port, "POST", "/status", body)
        response = json.loads(raw)
        assert status == 200 and response["result"]["name"] == "my s"
        assert "closed" not in response["result"]
        _, listing = _http(http_server.port, "GET", "/status")
        assert json.loads(listing)["result"]["sessions"] == ["my s"]

    def test_status_path_name_is_percent_decoded(self, http_server):
        path = "/status/" + urllib.parse.quote("my s")
        status, raw = _http(http_server.port, "GET", path)
        response = json.loads(raw)
        assert status == 200, response
        assert response["result"]["name"] == "my s"


def test_rpc_shutdown_passes_the_shutdown_gate(monkeypatch):
    with CometService() as service:
        server = CometHTTPServer(service)
        server.serve_background()
        try:
            monkeypatch.setattr(
                "repro.service.transport.is_loopback_host", lambda host: False
            )
            body = json.dumps({"action": "shutdown"}).encode()
            status, raw = _http(server.port, "POST", "/rpc", body)
            assert status == 403
            assert json.loads(raw)["error"]["code"] == "unauthorized"
            status, _ = _http(server.port, "GET", "/status")
            assert status == 200  # the server stayed up
        finally:
            server.shutdown()
            server.server_close()
