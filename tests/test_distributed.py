"""Tests for the distributed execution backend (``repro.runtime``).

Covers the shared wire framing, registry integration (``"distributed"``
is exempt from the jobs<=1 serial fallback), ordered ``map`` and
per-future dispatch semantics over real sockets, the fault-tolerance
paths (worker death mid-task, heartbeat eviction of a hung worker, retry
exhaustion, the no-worker inline fallback), and the headline acceptance pin: a full E1
sweep trace is bit-identical between ``backend="serial"`` and
``backend="distributed"`` with two workers — including under induced
worker death.  Subprocess topologies (``repro worker --connect``
processes dialing in, the ``repro worker --listen`` inversion) are
exercised end-to-end through the real CLI.
"""

import io
import json
import socket
import subprocess
import sys
import threading
import time

import pytest
from local_workers import local_workers

from repro.core import Comet, CometConfig
from repro.datasets import load_dataset, pollute
from repro.runtime import (
    DistributedBackend,
    RemoteTaskError,
    SerialBackend,
    WorkerLostError,
    available_backends,
    listen_worker,
    make_backend,
    worker_serve,
)
from repro.runtime.distributed import CONNECT_ENV
from repro.runtime.wire import (
    FrameError,
    JSONLineConnection,
    encode_frame,
    format_address,
    parse_address,
    pickle_to_text,
    read_frame,
    text_to_pickle,
)
from repro.service import CometService


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _slow_square(x):
    time.sleep(0.02)
    return x * x


# ---------------------------------------------------------------------- #
# harness: in-process worker threads over real loopback sockets
# ---------------------------------------------------------------------- #
class WorkerHarness:
    """Drive a backend with worker *threads* speaking the real protocol.

    The worker loop is byte-for-byte the one ``repro worker`` runs; only
    the process boundary is elided, which keeps the fault-injection
    hooks (`_fail_after_tasks`, silence) deterministic and the tests
    fast.  Subprocess topologies are covered separately below.
    """

    def __init__(self, backend: DistributedBackend) -> None:
        self.backend = backend
        backend.start()
        self.threads: list[threading.Thread] = []

    def add(self, worker_id: str = "w", **hooks) -> None:
        host, port = self.backend.address
        sock = socket.create_connection((host, port), timeout=30)
        thread = threading.Thread(
            target=self._serve,
            args=(JSONLineConnection(sock),),
            kwargs={"worker_id": worker_id, **hooks},
            daemon=True,
        )
        thread.start()
        self.threads.append(thread)

    @staticmethod
    def _serve(conn, **kwargs) -> None:
        try:
            worker_serve(conn, **kwargs)
        except (ConnectionError, FrameError, OSError):
            pass  # the coordinator tearing down mid-serve is fine

    def add_hung(self) -> None:
        """Register a worker that goes silent: no heartbeats, no results."""
        host, port = self.backend.address
        sock = socket.create_connection((host, port), timeout=30)
        conn = JSONLineConnection(sock)
        conn.send({"op": "hello", "worker": "hung", "pid": 0, "protocol": 1})
        assert conn.recv()["op"] == "welcome"
        self._keepalive = (sock, conn)  # keep the socket from being GC-closed


def _backend(jobs: int = 2, **kwargs) -> DistributedBackend:
    kwargs.setdefault("heartbeat", 0.2)
    kwargs.setdefault("register_timeout", 60.0)
    return DistributedBackend(jobs, **kwargs)


@pytest.fixture
def harness():
    backend = _backend()
    h = WorkerHarness(backend)
    yield h
    backend.shutdown()


# ---------------------------------------------------------------------- #
# wire framing
# ---------------------------------------------------------------------- #
class TestWire:
    def test_frame_roundtrip(self):
        frame = {"op": "task", "id": 3, "payload": "aGk="}
        assert read_frame(io.BytesIO(encode_frame(frame))) == frame

    def test_eof_returns_none(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_oversized_frame_raises(self):
        with pytest.raises(FrameError, match="exceeds"):
            read_frame(io.BytesIO(b'{"x": "' + b"a" * 64 + b'"}\n'), limit=32)

    def test_truncated_frame_raises(self):
        with pytest.raises(FrameError, match="truncated"):
            read_frame(io.BytesIO(b'{"op": "hel'))

    def test_non_object_frame_raises(self):
        with pytest.raises(FrameError, match="JSON object"):
            read_frame(io.BytesIO(b"[1, 2]\n"))

    def test_invalid_json_raises(self):
        with pytest.raises(FrameError, match="invalid JSON"):
            read_frame(io.BytesIO(b"{nope}\n"))

    def test_pickle_text_roundtrip(self):
        payload = {"fn": _square, "args": (3,), "blob": b"\x00\xff"}
        clone = text_to_pickle(pickle_to_text(payload))
        assert clone["args"] == (3,) and clone["blob"] == b"\x00\xff"
        assert clone["fn"](4) == 16
        # the text must survive a JSON frame untouched
        assert json.loads(json.dumps(pickle_to_text(payload)))

    def test_parse_address(self):
        assert parse_address("10.0.0.7:9000") == ("10.0.0.7", 9000)
        assert parse_address(":9000") == ("127.0.0.1", 9000)
        assert format_address(("h", 1)) == "h:1"
        with pytest.raises(ValueError):
            parse_address("no-port")


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
class TestDistributedRegistry:
    def test_registered(self):
        assert "distributed" in available_backends()

    def test_make_backend_by_name(self, monkeypatch):
        monkeypatch.setenv(CONNECT_ENV, "10.0.0.7:9000")
        backend = make_backend("distributed", jobs=2)
        assert isinstance(backend, DistributedBackend)
        assert backend.workers == 2

    def test_single_worker_stays_distributed(self, monkeypatch):
        # One *remote* worker is still remote execution — the jobs<=1
        # serial fallback of the process pool must not apply.
        monkeypatch.setenv(CONNECT_ENV, "10.0.0.7:9000")
        backend = make_backend("distributed", jobs=1)
        assert isinstance(backend, DistributedBackend)

    def test_pools_still_fall_back_to_serial(self):
        for name in ("serial", "process"):
            assert isinstance(make_backend(name, jobs=1), SerialBackend)

    def test_connect_env_parsed(self, monkeypatch):
        monkeypatch.setenv(CONNECT_ENV, "10.0.0.7:9000, 10.0.0.8:9001")
        backend = make_backend("distributed", jobs=2)
        assert backend.connect == [("10.0.0.7", 9000), ("10.0.0.8", 9001)]

    def test_no_env_refuses_before_opening_anything(self, monkeypatch):
        # No worker could find a by-name coordinator's ephemeral port, so
        # it refuses to exist rather than fall back or start processes.
        def _forbidden(*args, **kwargs):
            raise AssertionError("the refusal must come before any socket")

        monkeypatch.delenv(CONNECT_ENV, raising=False)
        monkeypatch.setattr(socket, "create_server", _forbidden)
        monkeypatch.setattr(socket, "create_connection", _forbidden)
        monkeypatch.setattr(subprocess, "Popen", _forbidden)
        with pytest.raises(ValueError, match=CONNECT_ENV) as excinfo:
            make_backend("distributed", jobs=2)
        assert 'backend="process"' in str(excinfo.value)


# ---------------------------------------------------------------------- #
# map and per-future dispatch semantics over real sockets
# ---------------------------------------------------------------------- #
class TestMapSemantics:
    def test_map_preserves_task_order(self, harness):
        harness.add("a")
        harness.add("b")
        assert harness.backend.wait_for_workers(2, timeout=30) == 2
        assert harness.backend.map(_slow_square, range(20)) == [
            x * x for x in range(20)
        ]

    def test_empty_task_list(self, harness):
        assert harness.backend.map(_square, []) == []

    def test_enqueue_returns_future(self, harness):
        harness.add("a")
        assert harness.backend._enqueue(_square, (7,)).result(timeout=30) == 49

    def test_remote_exception_carries_traceback(self, harness):
        harness.add("a")
        with pytest.raises(RemoteTaskError, match="boom 3") as excinfo:
            harness.backend.map(_boom, [3])
        assert excinfo.value.error_type == "ValueError"
        assert "remote traceback" in str(excinfo.value)

    def test_failed_task_does_not_poison_siblings(self, harness):
        harness.add("a")
        harness.add("b")
        futures = [
            harness.backend._enqueue(_boom if i == 2 else _square, (i,))
            for i in range(5)
        ]
        results = []
        for i, future in enumerate(futures):
            if i == 2:
                with pytest.raises(RemoteTaskError):
                    future.result(timeout=30)
            else:
                results.append(future.result(timeout=30))
        assert results == [0, 1, 9, 16]

    def test_concurrent_maps_interleave_safely(self, harness):
        # The service topology: many sessions share one backend and map
        # concurrently from scheduler threads.
        harness.add("a")
        harness.add("b")
        outcomes = {}

        def one(key, offset):
            outcomes[key] = harness.backend.map(
                _slow_square, range(offset, offset + 10)
            )

        threads = [
            threading.Thread(target=one, args=(k, k * 100)) for k in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for k in range(3):
            assert outcomes[k] == [x * x for x in range(k * 100, k * 100 + 10)]


# ---------------------------------------------------------------------- #
# fault tolerance
# ---------------------------------------------------------------------- #
class TestFaultTolerance:
    def test_worker_death_requeues_task(self, harness):
        harness.add("dies", _fail_after_tasks=1)
        harness.add("lives")
        assert harness.backend.wait_for_workers(2, timeout=30) == 2
        assert harness.backend.map(_slow_square, range(12)) == [
            x * x for x in range(12)
        ]
        stats = harness.backend.stats()
        assert stats["requeued"] >= 1 and stats["evicted"] >= 1

    def test_hung_worker_evicted_by_heartbeat_timeout(self):
        backend = _backend(heartbeat=0.1)  # evicted after five silent beats
        harness = WorkerHarness(backend)
        try:
            harness.add_hung()
            harness.add("healthy")
            assert backend.wait_for_workers(2, timeout=30) == 2
            start = time.monotonic()
            assert backend.map(_slow_square, range(8)) == [
                x * x for x in range(8)
            ]
            assert time.monotonic() - start < 30
            stats = backend.stats()
            assert stats["evicted"] >= 1
            assert all(w["id"].startswith("healthy") for w in backend.worker_info())
        finally:
            backend.shutdown()

    def test_retry_exhaustion_raises_worker_lost(self):
        backend = _backend(jobs=1, max_task_retries=0)
        harness = WorkerHarness(backend)
        try:
            harness.add("dies", _fail_after_tasks=0)
            assert backend.wait_for_workers(1, timeout=30) == 1
            with pytest.raises(WorkerLostError):
                backend.map(_square, [1])
        finally:
            backend.shutdown()

    def test_inline_fallback_when_no_workers(self):
        backend = _backend(register_timeout=0.2)
        try:
            with pytest.warns(RuntimeWarning, match="running queued tasks inline"):
                assert backend.map(_square, range(5)) == [
                    x * x for x in range(5)
                ]
            assert backend.stats()["inline"] == 5
        finally:
            backend.shutdown()

    def test_restart_after_shutdown(self):
        backend = _backend()
        harness = WorkerHarness(backend)
        harness.add("a")
        assert backend.map(_square, [2]) == [4]
        backend.shutdown()
        harness2 = WorkerHarness(backend)  # start() again: fresh listener
        harness2.add("b")
        assert backend.map(_square, [3]) == [9]
        backend.shutdown()


# ---------------------------------------------------------------------- #
# the acceptance pin: bit-identical E1 sweep traces
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def polluted():
    dataset = load_dataset("eeg", n_rows=120, rng=0)
    return pollute(dataset, error_types=["missing"], rng=2)


def _trace(polluted, backend, jobs=1):
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


class TestTraceEquality:
    def test_distributed_trace_bit_identical_to_serial(self, polluted):
        serial = _trace(polluted, "serial")
        backend = _backend()
        harness = WorkerHarness(backend)
        harness.add("a")
        harness.add("b")
        assert backend.wait_for_workers(2, timeout=30) == 2
        try:
            distributed = _trace(polluted, backend, jobs=2)
        finally:
            backend.shutdown()
        assert serial == distributed

    def test_trace_bit_identical_under_worker_death(self, polluted):
        serial = _trace(polluted, "serial")
        backend = _backend()
        harness = WorkerHarness(backend)
        harness.add("doomed", _fail_after_tasks=1)
        harness.add("survivor")
        assert backend.wait_for_workers(2, timeout=30) == 2
        try:
            distributed = _trace(polluted, backend, jobs=2)
            stats = backend.stats()
        finally:
            backend.shutdown()
        assert stats["evicted"] >= 1 and stats["requeued"] >= 1
        assert serial == distributed


# ---------------------------------------------------------------------- #
# subprocess topologies (the real CLI worker)
# ---------------------------------------------------------------------- #
class TestSubprocessWorkers:
    def test_spawned_local_workers_run_the_sweep(self, polluted):
        # Two real `repro worker --connect` processes dial the
        # coordinator's listener, as an operator would start them.
        backend = DistributedBackend(jobs=2)
        with local_workers(backend, 2) as procs:
            if backend.wait_for_workers(2, timeout=90) < 2:
                pytest.skip("cannot start local worker subprocesses here")
            info = backend.worker_info()
            distributed = _trace(polluted, backend, jobs=2)
            stats = backend.stats()
        assert distributed == _trace(polluted, "serial")
        assert sorted(w["pid"] for w in info) == sorted(p.pid for p in procs)
        assert stats["done"] > 0 and stats["inline"] == 0
        # Dismissed by the coordinator's shutdown, each exits cleanly.
        assert [p.returncode for p in procs] == [0, 0]

    def test_listen_topology_roundtrip(self):
        # Inverted topology: the worker owns the port, the coordinator
        # dials out — in-process here; the CLI flag is exercised below.
        address = {}
        ready = threading.Event()

        def _capture(bound):
            address["addr"] = bound
            ready.set()

        thread = threading.Thread(
            target=listen_worker,
            kwargs={
                "listen": ("127.0.0.1", 0),
                "worker_id": "listener",
                "once": True,
                "ready": _capture,
            },
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=30)
        backend = _backend(jobs=1, connect=[address["addr"]])
        try:
            backend.start()
            assert backend.wait_for_workers(1, timeout=30) == 1
            assert backend.map(_square, range(6)) == [x * x for x in range(6)]
        finally:
            backend.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_cli_listen_worker_serves_builtin_tasks(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--listen", "127.0.0.1:0", "--once", "--id", "cli-listener"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert line.startswith("worker listening on ")
            address = parse_address(line.rsplit(" ", 1)[-1].strip())
            backend = _backend(jobs=1, connect=[address])
            try:
                backend.start()
                assert backend.wait_for_workers(1, timeout=60) == 1
                # builtins pickle by name, so they resolve in any process
                assert backend.map(abs, [-3, 4, -5]) == [3, 4, 5]
            finally:
                backend.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)


# ---------------------------------------------------------------------- #
# service observability (status verb)
# ---------------------------------------------------------------------- #
class TestStatusObservability:
    def test_status_exposes_caches_and_scheduler(self):
        with CometService() as service:
            response = service.handle({"action": "status"})
        assert response["ok"]
        result = response["result"]
        assert {"hits", "misses"} <= set(result["fd_cache"])
        assert set(result["cache"]["namespaces"]) == {"fd"}
        assert result["scheduler"]["workers"] == 4
        assert result["scheduler"]["jobs_in_flight"] == 0

    def test_status_exposes_distributed_backend_stats(self):
        backend = _backend()
        with CometService(backend=backend) as service:
            response = service.handle({"action": "status"})
        assert response["ok"]
        stats = response["result"]["backend_stats"]
        assert stats["backend"] == "distributed"
        assert {"pending", "inflight", "live_workers"} <= set(stats)


class TestWorkerCLIParser:
    def test_worker_connect_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["worker", "--connect", "10.0.0.7:9000", "--id", "w1"]
        )
        assert args.command == "worker"
        assert args.connect == "10.0.0.7:9000"
        assert args.worker_id == "w1"

    def test_worker_requires_a_topology(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_worker_topologies_exclusive(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["worker", "--connect", "a:1", "--listen", "b:2"]
            )
