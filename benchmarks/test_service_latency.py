"""Micro-benchmark: the networked service's control-plane latency.

Measures what the transport layer adds on top of the in-process verbs,
recorded in ``benchmarks/results/BENCH_service_latency.json``
(``REPRO_BENCH_RECORD=1``):

1. *``status`` round-trip over TCP* — p50/p95 of a cheap verb through
   the full socket → frame → dispatch → frame path. This is the verb
   that must stay responsive while other sessions sweep, so its tail is
   the service's interactivity budget.
2. *``status`` while a sweep runs* — the same measurement with another
   session mid-``run`` on the scheduler, demonstrating that iteration
   work does not queue ahead of the control plane.
3. *Multi-connection throughput* — total ``status`` requests/second
   across 4 concurrent client connections (ThreadingTCPServer's
   one-thread-per-connection scaling).
4. *Secured path* — the same ``status`` round-trip over a token-
   authenticated, TLS-wrapped connection, pinning what the HMAC
   handshake amortizes to and what TLS record framing adds per call
   (the handshakes are per-connection, the per-call cost is crypto on
   ~100-byte frames).
"""

import json
import shutil
import subprocess
import threading
import time

from _helpers import record

from repro.security import TransportSecurity
from repro.service import CometClient, CometService, CometTCPServer

_PARAMS = {
    "dataset": "cmc",
    "algorithm": "lor",
    "errors": ["missing"],
    "budget": 4,
    "rows": 130,
    "step": 0.05,
    "seed": 0,
}


def _percentile(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _timed_status(client, calls):
    latencies = []
    for _ in range(calls):
        started = time.perf_counter()
        client.status()
        latencies.append(time.perf_counter() - started)
    return latencies


def _secured_roundtrip(service, calls=200):
    """``status`` p50/p95 over a token-authenticated (and, when openssl
    can mint a cert, TLS-wrapped) connection."""
    import tempfile

    token = "bench-token"
    tls = shutil.which("openssl") is not None
    with tempfile.TemporaryDirectory() as tmp:
        cert = key = None
        if tls:
            cert, key = f"{tmp}/cert.pem", f"{tmp}/key.pem"
            subprocess.run(
                [
                    "openssl", "req", "-x509", "-newkey", "rsa:2048",
                    "-keyout", key, "-out", cert, "-days", "2", "-nodes",
                    "-subj", "/CN=localhost",
                    "-addext", "subjectAltName=IP:127.0.0.1,DNS:localhost",
                ],
                check=True,
                capture_output=True,
            )
        server = CometTCPServer(
            service,
            security=TransportSecurity(token=token, certfile=cert, keyfile=key),
        )
        server.serve_background()
        try:
            connect_started = time.perf_counter()
            with CometClient(
                server.port,
                timeout=120,
                tls=cert if tls else None,
                auth_token=token,
            ) as client:
                connect_s = time.perf_counter() - connect_started
                secured = _timed_status(client, calls)
        finally:
            server.shutdown()
            server.server_close()
    return {
        "calls": len(secured),
        "p50_s": _percentile(secured, 0.50),
        "p95_s": _percentile(secured, 0.95),
        "tls": tls,
        "auth": "hmac-token",
        "connect_handshake_s": connect_s,
    }


def test_service_latency_benchmark():
    out = {}
    with CometService(workers=2) as service:
        server = CometTCPServer(service)
        server.serve_background()
        try:
            with CometClient(server.port, timeout=120) as client:
                client.create("bench", _PARAMS)

                idle = _timed_status(client, 200)
                out["status_roundtrip_idle"] = {
                    "calls": len(idle),
                    "p50_s": _percentile(idle, 0.50),
                    "p95_s": _percentile(idle, 0.95),
                }

                client.run("bench", wait=False)
                busy = _timed_status(client, 200)
                out["status_roundtrip_during_run"] = {
                    "calls": len(busy),
                    "p50_s": _percentile(busy, 0.50),
                    "p95_s": _percentile(busy, 0.95),
                    "run_still_active": service.scheduler.running("bench"),
                }
                outcome = client.result("bench")
                assert outcome["ready"] and outcome["finished"]

                # Throughput: 4 connections hammering status concurrently.
                counts = []
                duration = 2.0

                def hammer():
                    with CometClient(server.port, timeout=120) as worker:
                        done = 0
                        deadline = time.perf_counter() + duration
                        while time.perf_counter() < deadline:
                            worker.status()
                            done += 1
                        counts.append(done)

                threads = [threading.Thread(target=hammer) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                out["status_throughput"] = {
                    "connections": len(threads),
                    "duration_s": duration,
                    "requests_per_s": sum(counts) / duration,
                }
        finally:
            server.shutdown()
            server.server_close()

        out["status_roundtrip_secured"] = _secured_roundtrip(service)

    record("BENCH_service_latency.json", json.dumps(out, indent=2) + "\n")
    print(json.dumps(out, indent=2))

    # Loose sanity floors (CI boxes are noisy; these catch regressions of
    # kind, not degree): the control plane answers in well under a second
    # even while a sweep runs, and throughput is comfortably interactive.
    assert out["status_roundtrip_idle"]["p95_s"] < 0.25
    assert out["status_roundtrip_during_run"]["p95_s"] < 1.0
    assert out["status_throughput"]["requests_per_s"] > 50
    # Auth + TLS must stay control-plane cheap: same order of magnitude
    # as the open path, still interactive by a wide margin.
    assert out["status_roundtrip_secured"]["p95_s"] < 0.25
