"""Stateful property test for the networked front ends' auth gate.

A Hypothesis :class:`RuleBasedStateMachine` drives one token-secured
:class:`CometTCPServer` and one token-secured :class:`CometHTTPServer`
that share a :class:`CometService`, over real loopback sockets. Each TCP
connection is modelled by its auth state (authenticated or not, the
challenge it holds); the rules open connections, run the challenge–
response with good, wrong, replayed and unchallenged proofs, and send
verbs, bad JSON and oversized frames. HTTP rules send requests with a
good, wrong or missing bearer token.

The machine's contract:

- ``CometService.handle`` runs exactly once per authorized verb frame
  and never for any other frame (a counting wrapper on the instance);
- every other frame is answered with ``code: "unauthorized"`` or
  ``code: "bad_frame"`` (auth frames with their challenge or success);
- a failed proof costs the peer its connection;
- an HTTP rejection is a 401 whose body is never dispatched;
- a rejected frame consumes no quota: a rejected ``create`` registers
  no session.

The servers are built once per test and shared by every example, so the
steps stay cheap: no rule builds a session.
"""

import http.client
import json
import socket

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from hypothesis_tiers import STATE_MACHINE_SETTINGS
from repro.runtime.wire import encode_frame
from repro.security import ROLE_CLIENT, TransportSecurity, compute_mac, new_nonce
from repro.service import CometHTTPServer, CometService, CometTCPServer, SessionQuotas

TOKEN = "state-machine-token"
MAX_FRAME = 512
MAX_CONNECTIONS = 4

#: Parameters that *would* build a real session if a rejected ``create``
#: ever reached the service.
_CREATE = {
    "action": "create",
    "name": "leak",
    "params": {
        "dataset": "cmc",
        "rows": 100,
        "algorithm": "lor",
        "budget": 2.0,
        "step": 0.05,
        "seed": 0,
    },
}

#: Verbs an authenticated TCP connection may send: each is dispatched and
#: cheap. ``warp`` is unknown to the service, which answers it.
_AUTHED_VERBS = [{"action": "status"}, {"action": "warp"}]

#: Verbs sent on unauthenticated connections: every one must be refused,
#: including those that would build a session or stop the server.
_UNAUTHED_VERBS = _AUTHED_VERBS + [_CREATE, {"action": "shutdown"}]


@pytest.fixture(scope="module")
def servers():
    security = TransportSecurity(token=TOKEN)
    with CometService(quotas=SessionQuotas(max_sessions=1), workers=2) as service:
        calls = []
        unwrapped = service.handle

        def counting_handle(request, **kwargs):
            calls.append(request.get("action"))
            return unwrapped(request, **kwargs)

        service.handle = counting_handle
        tcp = CometTCPServer(service, max_frame=MAX_FRAME, security=security)
        web = CometHTTPServer(service, security=security)
        for server in (tcp, web):
            server.serve_background()
        try:
            yield service, tcp, web, calls
        finally:
            for server in (tcp, web):
                server.shutdown()
                server.server_close()


class _Connection:
    """One client socket plus the model of its server-side gate state."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.reader = self.sock.makefile("rb")
        self.authed = False
        self.nonce: str | None = None

    def exchange(self, payload: bytes) -> dict:
        self.sock.sendall(payload)
        line = self.reader.readline()
        assert line, "server closed the connection instead of replying"
        return json.loads(line)

    def assert_closed_by_server(self) -> None:
        assert self.reader.readline() == b""

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class TransportAuthMachine(RuleBasedStateMachine):
    def __init__(self, service, tcp, web, calls) -> None:
        super().__init__()
        self.service, self.tcp, self.web, self.calls = service, tcp, web, calls
        calls.clear()
        self.expected_calls = 0
        self.connections: list[_Connection] = []
        #: Every nonce the server has issued in this example.
        self.issued: list[str] = []

    def _pick(self, index: int, keep=lambda conn: True) -> _Connection:
        pool = [conn for conn in self.connections if keep(conn)]
        return pool[index % len(pool)]

    def _drop(self, conn: _Connection) -> None:
        conn.assert_closed_by_server()
        conn.close()
        self.connections.remove(conn)

    def _expect_unauthorized(self, response: dict) -> None:
        assert response["ok"] is False
        assert response["error"]["code"] == "unauthorized"

    # -- TCP: connections and the challenge–response ------------------- #
    @precondition(lambda self: len(self.connections) < MAX_CONNECTIONS)
    @rule()
    def open_connection(self):
        self.connections.append(_Connection(self.tcp.port))

    @precondition(lambda self: self.connections)
    @rule(index=st.integers(0, MAX_CONNECTIONS - 1))
    def close_connection(self, index):
        conn = self._pick(index)
        conn.close()
        self.connections.remove(conn)

    @precondition(lambda self: self.connections)
    @rule(index=st.integers(0, MAX_CONNECTIONS - 1))
    def request_challenge(self, index):
        conn = self._pick(index)
        response = conn.exchange(encode_frame({"action": "auth"}))
        assert response["ok"] is True
        conn.nonce = response["result"]["nonce"]
        assert conn.nonce not in self.issued
        self.issued.append(conn.nonce)

    @precondition(lambda self: any(c.nonce for c in self.connections))
    @rule(index=st.integers(0, MAX_CONNECTIONS - 1))
    def good_proof(self, index):
        conn = self._pick(index, lambda c: c.nonce)
        mac = compute_mac(TOKEN, ROLE_CLIENT, conn.nonce)
        response = conn.exchange(encode_frame({"action": "auth", "mac": mac}))
        assert response == {"ok": True, "result": {"authenticated": True}}
        conn.authed, conn.nonce = True, None

    @precondition(lambda self: self.connections)
    @rule(
        index=st.integers(0, MAX_CONNECTIONS - 1),
        mac=st.sampled_from(["", "f" * 64, compute_mac("wrong", ROLE_CLIENT, "x")]),
    )
    def wrong_proof(self, index, mac):
        conn = self._pick(index)
        response = conn.exchange(encode_frame({"action": "auth", "mac": mac}))
        self._expect_unauthorized(response)
        self._drop(conn)

    @precondition(lambda self: self.connections and self.issued)
    @rule(
        index=st.integers(0, MAX_CONNECTIONS - 1),
        old=st.integers(0, 1_000),
    )
    def replayed_proof(self, index, old):
        conn = self._pick(index)
        stale = [n for n in self.issued if n != conn.nonce]
        if not stale:
            return
        nonce = stale[old % len(stale)]
        mac = compute_mac(TOKEN, ROLE_CLIENT, nonce)
        response = conn.exchange(encode_frame({"action": "auth", "mac": mac}))
        self._expect_unauthorized(response)
        self._drop(conn)

    @precondition(lambda self: any(c.nonce is None for c in self.connections))
    @rule(index=st.integers(0, MAX_CONNECTIONS - 1))
    def proof_without_challenge(self, index):
        conn = self._pick(index, lambda c: c.nonce is None)
        mac = compute_mac(TOKEN, ROLE_CLIENT, new_nonce())
        response = conn.exchange(encode_frame({"action": "auth", "mac": mac}))
        self._expect_unauthorized(response)
        self._drop(conn)

    # -- TCP: verbs and bad frames -------------------------------------- #
    @precondition(lambda self: any(c.authed for c in self.connections))
    @rule(index=st.integers(0, MAX_CONNECTIONS - 1), verb=st.sampled_from(_AUTHED_VERBS))
    def authed_verb(self, index, verb):
        conn = self._pick(index, lambda c: c.authed)
        response = conn.exchange(encode_frame(verb))
        self.expected_calls += 1
        if verb["action"] == "status":
            assert response["ok"] is True
        else:
            assert response["error"].get("code") is None
            assert "unknown action" in response["error"]["message"]

    @precondition(lambda self: any(not c.authed for c in self.connections))
    @rule(
        index=st.integers(0, MAX_CONNECTIONS - 1),
        verb=st.sampled_from(_UNAUTHED_VERBS),
    )
    def unauthed_verb(self, index, verb):
        conn = self._pick(index, lambda c: not c.authed)
        self._expect_unauthorized(conn.exchange(encode_frame(verb)))

    @precondition(lambda self: self.connections)
    @rule(
        index=st.integers(0, MAX_CONNECTIONS - 1),
        payload=st.sampled_from([b"this is { not json\n", b"[1, 2, 3]\n", b'"status"\n']),
    )
    def bad_json(self, index, payload):
        response = self._pick(index).exchange(payload)
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_frame"

    @precondition(lambda self: self.connections)
    @rule(index=st.integers(0, MAX_CONNECTIONS - 1), extra=st.integers(0, 2 * MAX_FRAME))
    def oversized_frame(self, index, extra):
        # ``extra == 0`` is the exact boundary: a complete line of
        # MAX_FRAME + 1 bytes, which must not swallow the next frame.
        response = self._pick(index).exchange(b"x" * (MAX_FRAME + extra) + b"\n")
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_frame"
        assert f"exceeds {MAX_FRAME}" in response["error"]["message"]

    # -- HTTP: the bearer gate ------------------------------------------ #
    @rule(
        bearer=st.sampled_from([TOKEN, "wrong", "", None]),
        route=st.sampled_from(
            [
                ("GET", "/status", None),
                ("POST", "/status", {}),
                ("POST", "/rpc", {"action": "status"}),
                ("POST", "/create", {k: v for k, v in _CREATE.items() if k != "action"}),
                ("POST", "/rpc", _CREATE),
                ("POST", "/shutdown", {}),
            ]
        ),
    )
    def http_request(self, bearer, route):
        method, path, body = route
        authorized = bearer == TOKEN
        if authorized and (body and "params" in body or path == "/shutdown"):
            return  # would build a session or stop the server
        conn = http.client.HTTPConnection("127.0.0.1", self.web.port, timeout=30)
        try:
            headers = {} if bearer is None else {"Authorization": f"Bearer {bearer}"}
            payload = None if body is None else json.dumps(body).encode()
            conn.request(method, path, body=payload, headers=headers)
            reply = conn.getresponse()
            status, response = reply.status, json.loads(reply.read())
        finally:
            conn.close()
        if authorized:
            self.expected_calls += 1
            assert status == 200 and response["ok"] is True
        else:
            assert status == 401
            self._expect_unauthorized(response)

    # -- invariants ----------------------------------------------------- #
    @invariant()
    def handle_runs_once_per_authorized_verb(self):
        assert len(self.calls) == self.expected_calls, self.calls

    @invariant()
    def rejected_frames_consume_no_quota(self):
        assert self.service.names() == []

    def teardown(self):
        for conn in self.connections:
            conn.close()


def test_transport_auth_state_machine(servers):
    run_state_machine_as_test(
        lambda: TransportAuthMachine(*servers),
        settings=settings(STATE_MACHINE_SETTINGS, deadline=None, stateful_step_count=30),
    )
