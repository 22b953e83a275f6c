"""Distributed execution backend: fit-score sweeps on remote workers.

The coordinator (:class:`DistributedBackend`) ships pickled tasks to
worker processes that run somewhere else, over the same
line-delimited-JSON framing the COMET service speaks
(:mod:`repro.runtime.wire`).  It is the road past the machine boundary;
for parallelism on one host use ``backend="process"``.

Topology
--------
The coordinator dials out to listening workers (``repro worker --listen
host:port``) at the addresses in its ``connect=[...]`` option or, when
built by name (``make_backend("distributed", ...)``, ``Comet``,
``CometService``, the CLI), in the ``REPRO_DISTRIBUTED_CONNECT``
environment variable; without it the by-name build raises
:class:`ValueError`, since no worker could reach the coordinator.
It also listens on ``listen`` (loopback and an ephemeral port unless
given), so workers can dial in instead (``repro worker --connect
host:port``) once they know the bound :attr:`~DistributedBackend.address`.

Protocol (one JSON object per line; pickles ride base64 inside)::

    worker → hello     {"op": "hello", "worker": id, "pid", "protocol"
                        [, "auth_nonce"]}
    coord  → welcome   {"op": "welcome", "heartbeat": seconds
                        [, "auth_mac", "auth_nonce"]}
    worker → auth      {"op": "auth", "mac"}       (token mode only)
    coord  → task      {"op": "task", "id": n, "payload": b64(pickle)}
    worker → result    {"op": "result", "id": n, "ok": true, "payload"}
                       {"op": "result", "id": n, "ok": false, "error",
                        "traceback"}
    worker → heartbeat {"op": "heartbeat"}        (idle or busy — a
                       dedicated thread beats while a task runs)
    coord  → shutdown  {"op": "shutdown"}

Pickles are code execution on both ends, so the handshake is *mutual*
when a shared token is configured (:mod:`repro.security`): the hello
carries the worker's challenge nonce, the welcome answers it with the
coordinator's HMAC proof plus the coordinator's own challenge, and the
worker's ``auth`` frame closes the loop.  The worker verifies the
coordinator **before entering its task loop** — it never unpickles a
payload from an unproven peer — and the coordinator verifies the worker
before registering it for dispatch.  Role labels in the MACs keep one
direction's transcript from replaying as the other's.  TLS
(``TransportSecurity`` cert/CA knobs) wraps the sockets underneath the
framing for links that cross untrusted networks.  Without a token the
protocol is open: run it only inside a trusted boundary (loopback, a
private network, an SSH tunnel).

Fault tolerance
---------------
Workers send periodic heartbeats; the coordinator evicts a worker whose
connection drops or that misses five heartbeats in a row, and
**requeues** the task the evicted worker held, at the front of the
queue.  A task that raised on a worker is *not* requeued (tasks are
pure, so it would raise everywhere); the error surfaces as
:class:`RemoteTaskError` carrying the remote traceback.  If no worker
is available for ``register_timeout`` seconds the coordinator runs
queued tasks inline (with a warning) so a sweep never stalls.

Determinism
-----------
The bit-identical-trace contract of :mod:`repro.runtime` is preserved
unchanged: every random draw happened while *building* tasks, each task
is a pure function of its pickled payload, and results are reassembled
by submission position.  Worker placement, eviction, and requeueing
therefore cannot alter a trace, only its wall-clock, **provided every
worker runs the coordinator's BLAS kernels and library versions**.  A
worker whose OpenBLAS picks other kernels (Haswell against a SkylakeX
coordinator, say) can compute a different ``X.T @ X`` and so a
different score.  Nothing checks this condition yet.
"""

from __future__ import annotations

import itertools
import os
import socket
import ssl
import threading
import time
import traceback
import warnings
from collections import deque
from concurrent.futures import Future
from typing import Callable, Iterable, Sequence

from repro.runtime.backends import ExecutionBackend
from repro.runtime.wire import (
    FrameError,
    JSONLineConnection,
    format_address,
    parse_address,
    pickle_to_text,
    text_to_pickle,
)
from repro.security import (
    AUTH_TOKEN_ENV,
    ROLE_COORDINATOR,
    ROLE_WORKER,
    TransportSecurity,
    is_loopback_host,
    load_token,
    new_nonce,
)

__all__ = [
    "DistributedBackend",
    "RemoteTaskError",
    "WorkerLostError",
    "worker_serve",
    "run_worker",
    "PROTOCOL_VERSION",
]

#: Version tag exchanged in the hello/welcome handshake.
PROTOCOL_VERSION = 1

#: Environment variable naming worker listeners the coordinator dials
#: (comma-separated ``host:port`` entries).
CONNECT_ENV = "REPRO_DISTRIBUTED_CONNECT"

#: Seconds a coordinator gives one worker link to connect, finish its
#: TLS handshake and complete the hello/welcome exchange.
HANDSHAKE_TIMEOUT = 10.0

#: Heartbeats a worker may miss in a row before it is evicted.
MISSED_HEARTBEATS = 5


def connect_from_env() -> list[tuple[str, int]]:
    """Worker addresses from ``REPRO_DISTRIBUTED_CONNECT``.

    Raises :class:`ValueError` when the variable is unset or empty: a
    coordinator built by name listens on an ephemeral loopback port that
    no worker can find, so it would have nobody to dispatch to.
    """
    parts = os.environ.get(CONNECT_ENV, "").split(",")
    addresses = [parse_address(part.strip()) for part in parts if part.strip()]
    if not addresses:
        raise ValueError(
            f"the distributed backend needs worker addresses: set {CONNECT_ENV}"
            "=host:port[,host:port...] to listening workers (started with "
            "'repro worker --listen host:port'); for parallelism on one "
            'host use backend="process"'
        )
    return addresses


class RemoteTaskError(RuntimeError):
    """A task raised on a worker; carries the remote type and traceback."""

    def __init__(self, error: dict, remote_traceback: str = "") -> None:
        message = f"{error.get('type', 'Exception')}: {error.get('message', '')}"
        if remote_traceback:
            message += "\n--- remote traceback ---\n" + remote_traceback
        super().__init__(message)
        self.error_type = error.get("type", "Exception")
        self.remote_traceback = remote_traceback


class WorkerLostError(RuntimeError):
    """A task's workers kept dying until its retry budget ran out."""


# ---------------------------------------------------------------------- #
# coordinator-side bookkeeping
# ---------------------------------------------------------------------- #
class _Task:
    """One queued unit of work: the call, its wire payload, its future."""

    __slots__ = ("id", "call", "payload", "future", "attempts")

    def __init__(self, task_id: int, call: tuple, payload: str) -> None:
        self.id = task_id
        self.call = call  # (fn, args) — kept for the inline fallback
        self.payload = payload
        self.future: Future = Future()
        self.attempts = 0


class _Worker:
    """One registered remote worker (its connection and liveness)."""

    __slots__ = ("id", "conn", "pid", "last_seen", "current", "done", "dead")

    def __init__(self, worker_id: str, conn: JSONLineConnection, pid: int) -> None:
        self.id = worker_id
        self.conn = conn
        self.pid = pid
        self.last_seen = time.monotonic()
        self.current: _Task | None = None
        self.done = 0
        self.dead = False


class DistributedBackend(ExecutionBackend):
    """Coordinate fit-score tasks across remote worker processes.

    Parameters
    ----------
    jobs:
        Nominal worker count: the Estimator cuts each sweep into this
        many shares.  Match it to the workers that serve the coordinator.
    connect:
        Addresses of *listening* workers (``repro worker --listen``) to
        dial at startup, as ``host:port`` strings or ``(host, port)``
        pairs.  :meth:`from_env` reads them from
        ``REPRO_DISTRIBUTED_CONNECT``.
    listen:
        ``(host, port)`` the coordinator binds for dial-in workers
        (default: loopback, ephemeral port — read it back from
        :attr:`address`).
    heartbeat:
        Seconds between worker heartbeats (sent to workers in the
        welcome frame).  A worker silent for five of them is evicted.
    register_timeout:
        How long a queued task waits for *any* worker before the
        coordinator runs it inline.
    max_task_retries:
        Worker deaths one task survives before its future fails with
        :class:`WorkerLostError`.
    security:
        :class:`~repro.security.TransportSecurity` for every link this
        coordinator owns.  A token turns on the mutual HMAC handshake
        (both for dial-in workers and for listeners it dials);
        ``certfile``/``keyfile`` wrap accepted connections in TLS;
        ``cafile`` verifies listening workers it dials out to.
    insecure:
        Allow a non-loopback ``listen`` without a token.  The default
        refuses (fail-closed): the task protocol unpickles payloads,
        which is code execution for any peer that can reach the port.

    The backend is thread-safe: concurrent ``map`` calls (the service
    topology — many sessions, one shared backend) interleave their tasks
    on one queue and collect by future, so ordering per call is intact.
    """

    name = "distributed"

    def __init__(
        self,
        jobs: int = 2,
        *,
        connect: Iterable | None = None,
        listen: tuple[str, int] = ("127.0.0.1", 0),
        heartbeat: float = 1.0,
        register_timeout: float = 10.0,
        max_task_retries: int = 3,
        security: TransportSecurity | None = None,
        insecure: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        token = security.token if security is not None else None
        if not token and not insecure and not is_loopback_host(listen[0]):
            raise ValueError(
                f"refusing to coordinate on non-loopback host {listen[0]!r} "
                "without authentication: the task protocol unpickles "
                "payloads, which is code execution for any peer that can "
                "reach the port. Pass security=TransportSecurity(token=...) "
                f"(or set {AUTH_TOKEN_ENV}), or insecure=True to accept "
                "the risk."
            )
        self.security = security
        self.workers = jobs
        self.connect = [self._normalize(a) for a in (connect or [])]
        self.listen = listen
        self.heartbeat = float(heartbeat)
        self.register_timeout = register_timeout
        self.max_task_retries = max_task_retries

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: deque[_Task] = deque()
        self._inflight: dict[int, _Task] = {}
        self._workers: dict[str, _Worker] = {}
        self._task_ids = itertools.count()
        self._worker_ids = itertools.count()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False
        self._degraded = False
        self._warned_inline = False
        self._last_worker_seen = time.monotonic()
        self._counters = {"done": 0, "requeued": 0, "evicted": 0, "inline": 0}

    @staticmethod
    def _normalize(address) -> tuple[str, int]:
        if isinstance(address, str):
            return parse_address(address)
        host, port = address
        return str(host), int(port)

    @classmethod
    def from_env(cls, jobs: int = 2) -> "DistributedBackend":
        """Build with ``connect`` taken from ``REPRO_DISTRIBUTED_CONNECT``
        and the shared token from ``REPRO_AUTH_TOKEN``.

        This is how ``Comet(backend="distributed")`` finds its workers
        and picks up security with zero code changes: export both
        variables and every link authenticates with the token.  Raises
        :class:`ValueError` (see :func:`connect_from_env`) before any
        socket opens when no worker address is configured.
        """
        connect = connect_from_env()
        token = load_token()
        security = TransportSecurity(token=token) if token is not None else None
        return cls(jobs, connect=connect, security=security)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int] | None:
        """``(host, port)`` of the coordinator's listener once started."""
        if self._listener is None:
            return None
        return self._listener.getsockname()[:2]

    def start(self) -> None:
        """Open the listener, dial workers, start service threads."""
        with self._lock:
            if self._started or self._degraded:
                return
            self._started = True
            self._stop.clear()
        try:
            self._listener = socket.create_server(self.listen, backlog=16)
        except OSError as exc:
            self._degrade(f"cannot listen on {format_address(self.listen)}: {exc}")
            return
        self._last_worker_seen = time.monotonic()
        self._spawn_thread(self._accept_loop, "repro-dist-accept")
        self._spawn_thread(self._dispatch_loop, "repro-dist-dispatch")
        self._spawn_thread(self._monitor_loop, "repro-dist-monitor")
        for address in self.connect:
            self._dial_worker(address)

    def shutdown(self) -> None:
        """Stop serving: dismiss workers, fail leftovers, join threads."""
        with self._lock:
            if not self._started:
                return
            self._started = False
            self._stop.set()
            workers = list(self._workers.values())
            leftovers = list(self._pending) + list(self._inflight.values())
            self._pending.clear()
            self._inflight.clear()
            self._workers.clear()
            self._cond.notify_all()
        for task in leftovers:
            if not task.future.done():
                task.future.set_exception(
                    RuntimeError("distributed backend was shut down mid-task")
                )
        for worker in workers:
            try:
                worker.conn.send({"op": "shutdown"})
            except (OSError, FrameError):
                pass
            worker.conn.close()
        if self._listener is not None:
            # close() alone does not wake the accept loop blocked in
            # accept(); shutdown() does, so its join below is immediate.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()

    def _degrade(self, reason: str) -> None:
        self._degraded = True
        warnings.warn(
            f"distributed backend unavailable ({reason}); running tasks inline",
            RuntimeWarning,
            stacklevel=3,
        )

    def _spawn_thread(self, target: Callable, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def _dial_worker(self, address: tuple[str, int]) -> None:
        """Connect out to one listening worker (``connect`` topology)."""
        try:
            sock = socket.create_connection(address, timeout=HANDSHAKE_TIMEOUT)
            if self.security is not None and self.security.dials_tls:
                sock = self.security.wrap_client(
                    sock, server_hostname=address[0]
                )
        except OSError as exc:
            raise ConnectionError(
                f"cannot reach worker at {format_address(address)}: {exc}"
            ) from exc
        conn = JSONLineConnection(sock)
        self._spawn_thread(
            lambda: self._serve_connection(conn), "repro-dist-reader"
        )

    # ------------------------------------------------------------------ #
    # worker connections
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stop.is_set():
            try:
                sock, _ = listener.accept()
            except OSError:
                return  # listener closed by shutdown
            if self.security is not None and self.security.serves_tls:
                # Handshake deferred to the reader thread — a hostile
                # peer must not stall the accept loop.
                try:
                    sock = self.security.wrap_server(sock)
                except OSError:
                    sock.close()
                    continue
            conn = JSONLineConnection(sock)
            self._spawn_thread(
                lambda c=conn: self._serve_connection(c), "repro-dist-reader"
            )

    def _serve_connection(self, conn: JSONLineConnection) -> None:
        """Handshake one connection, then pump its frames until it dies."""
        if isinstance(conn.sock, ssl.SSLSocket) and conn.sock.server_side:
            conn.sock.settimeout(HANDSHAKE_TIMEOUT)
            try:
                conn.sock.do_handshake()
            except OSError:
                conn.close()
                return  # peer does not speak TLS
        worker = self._handshake(conn)
        if worker is None:
            conn.close()
            return
        try:
            while not self._stop.is_set():
                try:
                    frame = conn.recv()
                except (FrameError, OSError):
                    break
                if frame is None:
                    break
                self._on_frame(worker, frame)
        finally:
            self._evict(worker, "connection lost")

    def _handshake(self, conn: JSONLineConnection) -> _Worker | None:
        conn.sock.settimeout(HANDSHAKE_TIMEOUT)
        security = self.security
        try:
            hello = conn.recv()
            if not hello or hello.get("op") != "hello":
                return None
            if hello.get("protocol") != PROTOCOL_VERSION:
                conn.send(
                    {
                        "op": "goodbye",
                        "reason": f"protocol {hello.get('protocol')!r} "
                        f"unsupported (want {PROTOCOL_VERSION})",
                    }
                )
                return None
            welcome: dict = {"op": "welcome", "heartbeat": self.heartbeat}
            if security is not None and security.requires_auth:
                # Mutual challenge–response: answer the worker's nonce
                # (proving *we* hold the token before it will unpickle
                # anything from us), challenge it back, and verify its
                # proof before it is registered for dispatch.
                worker_nonce = hello.get("auth_nonce")
                if not isinstance(worker_nonce, str) or not worker_nonce:
                    conn.send(
                        {
                            "op": "goodbye",
                            "reason": "authentication required: configure "
                            "the shared token (repro worker --auth-token/"
                            f"--auth-token-file or {AUTH_TOKEN_ENV})",
                        }
                    )
                    return None
                coordinator_nonce = new_nonce()
                welcome["auth_mac"] = security.mac(
                    ROLE_COORDINATOR, worker_nonce
                )
                welcome["auth_nonce"] = coordinator_nonce
                conn.send(welcome)
                proof = conn.recv()
                if (
                    not proof
                    or proof.get("op") != "auth"
                    or not security.check_mac(
                        ROLE_WORKER, coordinator_nonce, proof.get("mac")
                    )
                ):
                    conn.send(
                        {"op": "goodbye", "reason": "invalid auth credential"}
                    )
                    return None
            else:
                conn.send(welcome)
        except (FrameError, OSError):
            return None
        conn.sock.settimeout(None)
        base = str(hello.get("worker") or conn.peer)
        with self._lock:
            worker_id = f"{base}#{next(self._worker_ids)}"
            worker = _Worker(worker_id, conn, int(hello.get("pid") or 0))
            self._workers[worker_id] = worker
            self._last_worker_seen = time.monotonic()
            self._cond.notify_all()
        return worker

    def _on_frame(self, worker: _Worker, frame: dict) -> None:
        with self._lock:
            worker.last_seen = time.monotonic()
            self._last_worker_seen = worker.last_seen
        op = frame.get("op")
        if op == "result":
            self._complete(worker, frame)
        # heartbeats only refresh last_seen, handled above

    def _complete(self, worker: _Worker, frame: dict) -> None:
        task_id = frame.get("id")
        with self._lock:
            task = self._inflight.pop(task_id, None)
            if task is None:
                # The monitor may have evicted-and-requeued this task a
                # moment before its (late) result landed; serve the
                # result rather than computing it again elsewhere.
                for queued in self._pending:
                    if queued.id == task_id:
                        task = queued
                        self._pending.remove(queued)
                        break
            if worker.current is task or (
                worker.current is not None and worker.current.id == task_id
            ):
                worker.current = None
            worker.done += 1
            self._counters["done"] += 1
            self._cond.notify_all()
        if task is None or task.future.done():
            return
        if frame.get("ok"):
            try:
                task.future.set_result(text_to_pickle(frame["payload"]))
            except Exception as exc:  # undecodable result payload
                task.future.set_exception(
                    RemoteTaskError(
                        {"type": type(exc).__name__, "message": str(exc)}
                    )
                )
        else:
            task.future.set_exception(
                RemoteTaskError(
                    frame.get("error") or {}, frame.get("traceback", "")
                )
            )

    def _evict(self, worker: _Worker, reason: str) -> None:
        """Drop a worker; requeue (or fail) the task it was running."""
        with self._lock:
            if worker.dead:
                return
            worker.dead = True
            self._workers.pop(worker.id, None)
            task, worker.current = worker.current, None
            requeue = None
            if task is not None and self._inflight.pop(task.id, None) is not None:
                task.attempts += 1
                if task.attempts > self.max_task_retries:
                    requeue = False
                else:
                    requeue = True
                    self._pending.appendleft(task)
                    self._counters["requeued"] += 1
            self._counters["evicted"] += 1
            self._cond.notify_all()
        worker.conn.close()
        if requeue is False and not task.future.done():
            task.future.set_exception(
                WorkerLostError(
                    f"task {task.id} lost {task.attempts} workers "
                    f"(last: {worker.id}, {reason})"
                )
            )

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        tick = max(0.05, self.heartbeat / 2.0)
        while True:
            inline_task = None
            with self._lock:
                while not self._stop.is_set():
                    assignment = self._next_assignment()
                    if assignment is not None:
                        break
                    if self._pending and self._inline_due():
                        inline_task = self._pending.popleft()
                        self._counters["inline"] += 1
                        break
                    self._cond.wait(timeout=tick)
                else:
                    return
                if inline_task is None and assignment is not None:
                    task, worker = assignment
                    worker.current = task
                    self._inflight[task.id] = task
            if inline_task is not None:
                self._run_inline(inline_task)
                continue
            try:
                worker.conn.send(
                    {"op": "task", "id": task.id, "payload": task.payload}
                )
            except (OSError, FrameError):
                self._evict(worker, "send failed")

    def _next_assignment(self) -> tuple[_Task, _Worker] | None:
        if not self._pending:
            return None
        for worker in self._workers.values():
            if worker.current is None and not worker.dead:
                return self._pending.popleft(), worker
        return None

    def _inline_due(self) -> bool:
        """Whether queued work has waited long enough to run locally."""
        if self._workers:
            return False
        if time.monotonic() - self._last_worker_seen < self.register_timeout:
            return False
        if not self._warned_inline:
            self._warned_inline = True
            warnings.warn(
                "no distributed worker available for "
                f"{self.register_timeout:g}s; running queued tasks inline",
                RuntimeWarning,
                stacklevel=2,
            )
        return True

    def _run_inline(self, task: _Task) -> None:
        if task.future.done():
            return
        fn, args = task.call
        try:
            task.future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 — futures carry failures
            task.future.set_exception(exc)

    def _monitor_loop(self) -> None:
        tick = max(0.05, self.heartbeat / 2.0)
        timeout = MISSED_HEARTBEATS * self.heartbeat
        while not self._stop.wait(tick):
            now = time.monotonic()
            with self._lock:
                stale = [
                    worker
                    for worker in self._workers.values()
                    if now - worker.last_seen > timeout
                ]
            for worker in stale:
                self._evict(worker, "heartbeat timeout")

    # ------------------------------------------------------------------ #
    # the ExecutionBackend verb
    # ------------------------------------------------------------------ #
    def _enqueue(self, fn: Callable, args: tuple) -> Future:
        task = _Task(
            next(self._task_ids), (fn, args), pickle_to_text((fn, args))
        )
        with self._lock:
            self._pending.append(task)
            self._cond.notify_all()
        return task.future

    def map(self, fn: Callable, tasks: Iterable) -> list:
        """Apply ``fn`` to every task; results come back in task order.

        Tasks fan out across every registered worker; eviction and
        requeue keep the call running through worker deaths, and the
        inline fallback keeps it running with no workers at all.
        """
        tasks = list(tasks) if not isinstance(tasks, Sequence) else tasks
        if not tasks:
            return []
        if self._degraded:
            return [fn(task) for task in tasks]
        self.start()
        if self._degraded:  # start() may have just degraded
            return [fn(task) for task in tasks]
        futures = [self._enqueue(fn, (task,)) for task in tasks]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def wait_for_workers(self, count: int, timeout: float = 30.0) -> int:
        """Block until ``count`` workers registered (returns live count)."""
        self.start()
        deadline = time.monotonic() + timeout
        with self._lock:
            while len(self._workers) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._degraded:
                    break
                self._cond.wait(timeout=remaining)
            return len(self._workers)

    def worker_info(self) -> list[dict]:
        """Snapshot of every live worker (id, pid, busy, tasks done)."""
        with self._lock:
            return [
                {
                    "id": w.id,
                    "pid": w.pid,
                    "busy": w.current is not None,
                    "tasks_done": w.done,
                }
                for w in self._workers.values()
            ]

    def stats(self) -> dict:
        """Queue depth, worker counts, and lifetime task counters."""
        with self._lock:
            return {
                "backend": self.name,
                "nominal_workers": self.workers,
                "live_workers": len(self._workers),
                "pending": len(self._pending),
                "inflight": len(self._inflight),
                "degraded": self._degraded,
                **self._counters,
            }

    def __repr__(self) -> str:
        return (
            f"DistributedBackend(jobs={self.workers}, "
            f"live={len(self._workers)}, address={self.address})"
        )


# ---------------------------------------------------------------------- #
# worker side
# ---------------------------------------------------------------------- #
def _execute_frame(frame: dict) -> dict:
    """Run one task frame, rendering the outcome as a result frame."""
    try:
        fn, args = text_to_pickle(frame["payload"])
        result = fn(*args)
        return {
            "op": "result",
            "id": frame.get("id"),
            "ok": True,
            "payload": pickle_to_text(result),
        }
    except Exception as exc:  # noqa: BLE001 — shipped back, never fatal here
        return {
            "op": "result",
            "id": frame.get("id"),
            "ok": False,
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "traceback": traceback.format_exc(limit=30),
        }


def worker_serve(
    conn: JSONLineConnection,
    *,
    worker_id: str = "worker",
    security: TransportSecurity | None = None,
    _fail_after_tasks: int | None = None,
) -> int:
    """Serve one coordinator over an established connection.

    Performs the hello/welcome handshake — *mutual* when ``security``
    carries a token: the hello ships a challenge nonce the coordinator
    must answer in its welcome, and an unproven coordinator is refused
    **before the task loop starts**, so this worker never unpickles a
    payload from a peer that has not demonstrated token possession.
    Then starts the heartbeat thread (which beats *during* task
    execution — liveness is orthogonal to progress) and loops
    task → result until the coordinator says ``shutdown`` or the
    connection ends.  Returns the number of tasks completed.

    ``_fail_after_tasks`` is a failure-injection hook for the
    fault-tolerance tests: it makes the worker drop its connection
    (simulated crash) when task ``n + 1`` arrives.
    """
    try:
        challenge = (
            new_nonce()
            if security is not None and security.requires_auth
            else None
        )
        hello = {
            "op": "hello",
            "worker": worker_id,
            "pid": os.getpid(),
            "protocol": PROTOCOL_VERSION,
        }
        if challenge is not None:
            hello["auth_nonce"] = challenge
        conn.send(hello)
        welcome = conn.recv()
        if not welcome or welcome.get("op") != "welcome":
            reason = (welcome or {}).get("reason", "no welcome frame")
            raise ConnectionError(f"coordinator rejected worker: {reason}")
        if challenge is not None:
            if not security.check_mac(
                ROLE_COORDINATOR, challenge, welcome.get("auth_mac")
            ):
                raise ConnectionError(
                    "coordinator failed authentication: its welcome does "
                    "not prove possession of the shared token; refusing to "
                    "accept tasks (payloads are pickles — code execution)"
                )
            coordinator_nonce = welcome.get("auth_nonce")
            if not isinstance(coordinator_nonce, str) or not coordinator_nonce:
                raise ConnectionError(
                    "coordinator sent no auth challenge of its own; "
                    "refusing a one-sided handshake"
                )
            conn.send(
                {
                    "op": "auth",
                    "mac": security.mac(ROLE_WORKER, coordinator_nonce),
                }
            )
    except BaseException:
        # A refused peer must see EOF, not a half-open socket it can
        # keep feeding frames into.
        conn.close()
        raise
    interval = float(welcome.get("heartbeat", 1.0))
    stop_beating = threading.Event()

    def _beat() -> None:
        while not stop_beating.wait(interval):
            try:
                conn.send({"op": "heartbeat"})
            except (OSError, FrameError):
                return

    threading.Thread(
        target=_beat, name=f"{worker_id}-heartbeat", daemon=True
    ).start()
    done = 0
    try:
        while True:
            frame = conn.recv()
            if frame is None or frame.get("op") == "shutdown":
                break
            if frame.get("op") != "task":
                continue
            if _fail_after_tasks is not None and done >= _fail_after_tasks:
                conn.close()  # simulated crash: vanish without replying
                break
            conn.send(_execute_frame(frame))
            done += 1
    finally:
        stop_beating.set()
        conn.close()
    return done


def run_worker(
    *,
    connect: str | tuple[str, int],
    worker_id: str = "worker",
    retries: int = 60,
    backoff: float = 0.25,
    security: TransportSecurity | None = None,
) -> int:
    """Dial a coordinator (with bounded connect retries) and serve it.

    The retry loop tolerates the common startup race — worker processes
    launched a moment before the coordinator binds its listener — by
    retrying refused connections with linear backoff for up to
    ``retries × backoff`` seconds.  A failed TLS handshake is *not*
    retried (it is a configuration mismatch, not a startup race).
    Returns the number of tasks served.
    """
    address = (
        parse_address(connect) if isinstance(connect, str) else connect
    )
    last_error: OSError | None = None
    for attempt in range(max(1, retries)):
        try:
            sock = socket.create_connection(address, timeout=30.0)
            break
        except OSError as exc:
            last_error = exc
            time.sleep(backoff * min(attempt + 1, 8))
    else:
        raise ConnectionError(
            f"cannot reach coordinator at {format_address(address)} "
            f"after {retries} attempts: {last_error}"
        )
    if security is not None and security.dials_tls:
        try:
            sock = security.wrap_client(sock, server_hostname=address[0])
        except OSError as exc:
            sock.close()
            raise ConnectionError(
                f"TLS handshake with coordinator at "
                f"{format_address(address)} failed: {exc}"
            ) from exc
    sock.settimeout(None)
    return worker_serve(
        JSONLineConnection(sock),
        worker_id=worker_id,
        security=security,
    )


def listen_worker(
    *,
    listen: str | tuple[str, int],
    worker_id: str = "worker",
    once: bool = False,
    ready: Callable[[tuple[str, int]], None] | None = None,
    security: TransportSecurity | None = None,
    insecure: bool = False,
) -> int:
    """Listen for coordinators and serve them one at a time.

    The inverted topology: the worker owns a port
    (``repro worker --listen``) and coordinators dial in via their
    ``connect=[...]`` option.  ``ready`` is called once with the bound
    address (the CLI prints its readiness line from it).  Serves
    coordinators sequentially until interrupted, or exactly one with
    ``once=True``.  Returns the total number of tasks served.

    Fail-closed: a non-loopback ``listen`` without a shared token
    raises :class:`ValueError` before the socket is even bound — this
    path unpickles whatever an accepted peer sends — unless
    ``insecure`` explicitly accepts the exposure.
    """
    address = parse_address(listen) if isinstance(listen, str) else listen
    token = security.token if security is not None else None
    if not token and not insecure and not is_loopback_host(address[0]):
        raise ValueError(
            f"refusing to listen on non-loopback host {address[0]!r} "
            "without authentication: the task protocol unpickles payloads, "
            "which is code execution for any peer that can reach --listen. "
            f"Set --auth-token/--auth-token-file (or {AUTH_TOKEN_ENV}), "
            "or pass --insecure to accept the risk."
        )
    total = 0
    with socket.create_server(address, backlog=2) as listener:
        if ready is not None:
            ready(listener.getsockname()[:2])
        while True:
            sock, _ = listener.accept()
            sock.settimeout(None)
            if security is not None and security.serves_tls:
                try:
                    sock = security.wrap_server(sock)
                    sock.settimeout(30.0)
                    sock.do_handshake()
                    sock.settimeout(None)
                except OSError:
                    sock.close()
                    continue  # peer does not speak TLS
            try:
                total += worker_serve(
                    JSONLineConnection(sock),
                    worker_id=worker_id,
                    security=security,
                )
            except (ConnectionError, FrameError, OSError):
                pass  # a vanished coordinator ends its pairing, not the worker
            if once:
                return total
