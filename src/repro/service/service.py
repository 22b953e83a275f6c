"""The multi-session cleaning service.

:class:`CometService` manages many *named* :class:`~repro.session.
CleaningSession` instances over **one shared** ``repro.runtime`` backend:
a single worker pool serves every session's E1 sweep, so concurrent
sessions share capacity instead of each spawning their own pool. Because
every session's randomness lives in its own :class:`~repro.session.
SessionState`, concurrently served sessions produce exactly the traces
isolated runs would (the determinism contract is per-state, and the
shared backend only changes *where* fit-score tasks execute).

Two API layers:

- a programmatic one (``create_session`` / ``load_session`` /
  ``session`` / ``close_session``) handing out live session objects;
- a JSON request/response one (:meth:`CometService.handle`) with the
  verbs ``create``, ``recommend``, ``step``, ``run``, ``status``,
  ``result``, ``checkpoint``, and ``close``.

Sweep verbs (``recommend``/``step``/``run`` — each pays an E1
estimation sweep) are dispatched through a bounded
:class:`~repro.service.scheduler.SessionScheduler`, so a slow sweep on
one session never blocks ``status``/``checkpoint`` on another — pass
``"wait": false`` to get the response immediately and collect the
outcome later with ``result``. Per-session budgets
(:class:`~repro.service.quotas.SessionQuotas`) are enforced at the verb
layer and surface as structured JSON errors. Failures are rendered as
``{"ok": false, "error": {"type", "message", "code"?, "details"?}}``.

Front ends live in ``repro.service.transport``: one request pipeline
(decode, auth and shutdown gate, dispatch to :meth:`CometService.handle`,
encode) behind the stdio loop, the TCP and HTTP servers, plus the
:class:`~repro.service.transport.CometClient`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.cache import cache_stats
from repro.detect import fd_cache_stats
from repro.experiments import Configuration, build_polluted
from repro.runtime import ExecutionBackend, make_backend
from repro.service.quotas import SessionBusyError, SessionQuotas, error_payload
from repro.service.scheduler import SessionScheduler
from repro.session import CleaningSession, SessionObserver, SessionState
from repro.store import SessionStore

__all__ = ["CometService"]


@dataclass
class _Reservation:
    """Placeholder registered while a session is still being built.

    Carries the creating client's identity so racing ``create`` calls
    count in-flight builds against the per-client session quota — a
    bare ``None`` placeholder would let two concurrent creates both
    squeeze under the cap while neither is fully registered yet.
    """

    client: str = "local"


@dataclass
class _SessionRecord:
    """Service-side bookkeeping wrapped around one live session."""

    session: CleaningSession
    #: Serializes iteration work and state reads for this session.
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Identity of the creating client (quota accounting key).
    client: str = "local"
    #: Accumulated engine wall-clock spent in iteration verbs (seconds).
    elapsed: float = 0.0


@dataclass
class _StoredMarker:
    """A cold persisted session, known to the store but not yet live.

    ``serve --state-dir`` registers one per indexed session at startup
    (:meth:`CometService.resume_persisted`); the first verb that touches
    the name rehydrates it into a full :class:`_SessionRecord`. Markers
    hold a quota slot for their client (a persisted session *is* an open
    session) and carry the persisted wall-clock usage so ``max_seconds``
    survives restarts.
    """

    client: str = "local"
    #: Engine wall-clock already consumed before the restart (seconds).
    elapsed: float = 0.0
    #: Serializes racing rehydrations of this one session.
    lock: threading.Lock = field(default_factory=threading.Lock)


class _StorePersistence(SessionObserver):
    """The write-behind hook: snapshot into the store on every boundary.

    Registered on each live session when the service has a store. The
    engine fires ``on_iteration`` while the verb handler holds the
    session's lock, so the snapshot (a synchronous pickle inside
    ``store.put``) always sees a clean iteration boundary; the file I/O
    happens on the store's writer thread, off the verb path.
    """

    def __init__(self, service: "CometService", name: str) -> None:
        self._service = service
        self._name = name

    def on_iteration(self, session, records) -> None:  # noqa: D102 — hook
        self._service._persist(self._name)


class CometService:
    """Serve many named cleaning sessions over one shared backend.

    Parameters
    ----------
    backend:
        Registry name or :class:`~repro.runtime.ExecutionBackend`
        instance shared by every session the service manages.
    jobs:
        Worker count for pooled backends; ``1`` falls back to serial.
    checkpoint_io:
        Whether the JSON layer may touch the filesystem: the
        ``checkpoint`` verb (writes a file at a caller-supplied path)
        and ``create``'s ``checkpoint`` field (unpickles a
        caller-supplied file — code execution if the file is hostile).
        Disable when the request stream is less trusted than the
        operator; the programmatic API is unaffected.
    quotas:
        Per-client/per-session resource limits enforced at the verb
        layer (default: unlimited).
    workers:
        Worker threads of the session scheduler — the number of sweep
        verbs (``recommend``/``step``/``run``) that may run
        concurrently. Must be >= 1.
    store:
        Optional :class:`~repro.store.SessionStore` making sessions
        durable: every live session is snapshotted into the store on
        clean iteration boundaries (write-behind), cold persisted
        sessions rehydrate lazily on the first verb that touches them
        (after :meth:`resume_persisted`), closing a session evicts it,
        and a graceful :meth:`shutdown` flushes and closes the store.

    The service is thread-safe: the session registry is lock-protected
    and each session additionally has its own lock, so handlers for
    *different* sessions run concurrently (sharing the worker pool)
    while requests against the *same* session serialize. ``run`` holds a
    session's lock per *iteration*, not for the whole run, so ``status``
    and ``checkpoint`` on a running session answer at the next iteration
    boundary.
    """

    def __init__(
        self,
        backend: str | ExecutionBackend = "serial",
        jobs: int = 1,
        checkpoint_io: bool = True,
        quotas: SessionQuotas | None = None,
        workers: int = 4,
        store: SessionStore | None = None,
    ) -> None:
        self.backend = make_backend(backend, jobs)
        self.checkpoint_io = checkpoint_io
        self.quotas = quotas or SessionQuotas()
        self.scheduler = SessionScheduler(workers)
        self.store = store
        self._sessions: dict[str, _SessionRecord] = {}
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # programmatic API
    # ------------------------------------------------------------------ #
    def create_session(
        self, name: str, dataset, *, client: str = "local", **kwargs
    ) -> CleaningSession:
        """Register a fresh session under ``name`` (a polluted dataset in
        hand; keyword arguments as in :meth:`CleaningSession.create`)."""
        return self._build_session(
            name,
            lambda: CleaningSession.create(
                dataset, backend=self.backend, own_backend=False, **kwargs
            ),
            client=client,
        )

    def load_session(
        self, name: str, path, *, client: str = "local"
    ) -> CleaningSession:
        """Register a checkpointed session under ``name``.

        The checkpoint is a pickle (see :meth:`SessionState.load`); only
        load paths the service operator trusts.
        """
        return self._build_session(
            name,
            lambda: CleaningSession.load(
                path, backend=self.backend, own_backend=False
            ),
            client=client,
        )

    def adopt_session(
        self, name: str, state: SessionState, *, client: str = "local"
    ) -> CleaningSession:
        """Register an existing state under ``name`` (shared backend)."""
        return self._build_session(
            name,
            lambda: CleaningSession(state, backend=self.backend, own_backend=False),
            client=client,
        )

    def session(self, name: str) -> CleaningSession:
        """The live session registered under ``name``."""
        return self._record(name).session

    def names(self) -> list[str]:
        """Names of all registered sessions, sorted.

        Includes cold persisted sessions (:meth:`resume_persisted`
        markers) — they answer verbs after a lazy rehydration, so they
        are part of the service's surface.
        """
        with self._lock:
            return sorted(
                n
                for n, r in self._sessions.items()
                if isinstance(r, (_SessionRecord, _StoredMarker))
            )

    def resume_persisted(self) -> list[str]:
        """Register every session the store knows as lazily resumable.

        Called once after a restart (``serve --state-dir`` does it before
        accepting requests): each indexed session gets a cold marker
        under its old name — holding its client's quota slot and its
        persisted wall-clock usage — and rehydrates on first touch.
        Returns the newly registered names.
        """
        if self.store is None:
            return []
        resumed: list[str] = []
        for name in self.store.names():
            try:
                meta = self.store.meta(name)
            except KeyError:
                continue  # deleted between names() and meta()
            with self._lock:
                if self._closed or name in self._sessions:
                    continue
                self._sessions[name] = _StoredMarker(
                    client=meta.get("client") or "local",
                    elapsed=float(meta.get("elapsed") or 0.0),
                )
            resumed.append(name)
        return resumed

    def close_session(self, name: str) -> None:
        """Drop a session from the registry (the shared backend stays up).

        With a store attached, closing also *evicts* the persisted
        snapshot — a closed session is finished business; checkpoint a
        copy first (the ``checkpoint`` verb) if you want to keep it.
        Cold persisted sessions close without being rehydrated.
        """
        if self.scheduler.running(name):
            raise SessionBusyError(
                f"session {name!r} has an iteration verb in flight; "
                "collect it with 'result' before closing",
                name=name,
            )
        with self._lock:
            # Absent, or still being built (a _Reservation): not closable.
            record = self._sessions.get(name)
            if not isinstance(record, (_SessionRecord, _StoredMarker)):
                raise KeyError(f"no session named {name!r}")
            del self._sessions[name]
        self.scheduler.discard(name)
        if self.store is not None:
            self.store.delete(name)

    def shutdown(self) -> None:
        """Drop every session, drain in-flight requests, shut the backend.

        The scheduler drains first (iteration jobs own session locks
        while sweeping); acquiring every session lock before the backend
        goes down then lets remaining handlers finish their dispatch
        (the drain the backend layer requires). Requests arriving
        afterwards get a "service is shut down" error response.

        With a store attached, every live session gets a final snapshot
        after the drain (so the store holds the newest boundary even if
        its write-behind queue lagged), then the store is flushed and
        closed — the graceful half of the durability story; the crash
        half is the write-behind persistence itself.
        """
        with self._lock:
            self._closed = True
        self.scheduler.shutdown()
        with self._lock:
            records = {
                n: r
                for n, r in self._sessions.items()
                if isinstance(r, _SessionRecord)
            }
            self._sessions.clear()
        if self.store is not None:
            for name, record in records.items():
                with record.lock:
                    try:
                        self._persist(name, record)
                    except RuntimeError:
                        break  # store already closed externally
            self.store.flush()
            self.store.close()
        locks = [r.lock for r in records.values()]
        for lock in locks:
            lock.acquire()
        try:
            self.backend.shutdown()
        finally:
            for lock in locks:
                lock.release()

    def __enter__(self) -> "CometService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _build_session(
        self, name: str, builder, client: str = "local"
    ) -> CleaningSession:
        """Reserve ``name``, then build — so a duplicate name fails fast
        instead of after the (potentially expensive) session construction,
        and two concurrent creates for one name cannot both build. The
        per-client session quota is checked under the same lock, so two
        racing creates cannot both squeeze under the cap."""
        with self._lock:
            if self._closed:
                raise RuntimeError("service is shut down")
            if name in self._sessions:
                raise ValueError(f"session {name!r} already exists")
            # Reservations count too: a build in flight already holds a
            # slot, so racing creates cannot overshoot the quota.
            held = sum(
                1
                for record in self._sessions.values()
                if record.client == client
            )
            self.quotas.check_create(client, held)
            self._sessions[name] = _Reservation(client=client)
        try:
            session = builder()
        except BaseException:
            with self._lock:
                self._sessions.pop(name, None)
            raise
        record = _SessionRecord(session=session, client=client)
        if self.store is not None:
            session.add_observer(_StorePersistence(self, name))
            # Persist the newborn session too: a crash before its first
            # iteration must not lose the creation.
            self._persist(name, record)
        with self._lock:
            self._sessions[name] = record
        return session

    def _record(self, name: str) -> _SessionRecord:
        with self._lock:
            record = self._sessions.get(name)
        if isinstance(record, _SessionRecord):
            return record
        if isinstance(record, _StoredMarker):
            return self._rehydrate(name, record)
        raise KeyError(f"no session named {name!r}")

    def _rehydrate(self, name: str, marker: _StoredMarker) -> _SessionRecord:
        """Turn a cold persisted session into a live one (first touch).

        The marker's lock serializes racing first touches: the winner
        loads the state from the store and swaps in a full record; the
        losers find that record when they re-check the registry.
        """
        with marker.lock:
            with self._lock:
                current = self._sessions.get(name)
            if isinstance(current, _SessionRecord):
                return current
            if current is not marker or self.store is None:
                raise KeyError(f"no session named {name!r}")
            state = self.store.load(name)
            session = CleaningSession(
                state, backend=self.backend, own_backend=False
            )
            session.add_observer(_StorePersistence(self, name))
            record = _SessionRecord(
                session=session, client=marker.client, elapsed=marker.elapsed
            )
            with self._lock:
                self._sessions[name] = record
            return record

    def _persist(self, name: str, record: _SessionRecord | None = None) -> None:
        """Snapshot one session into the store (callers hold its lock).

        The envelope metadata carries the quota ledger (iterations,
        engine wall-clock, owning client) and the backend fingerprint,
        so a restarted service resumes enforcement where it left off and
        operators can see what produced a checkpoint.
        """
        if self.store is None:
            return
        if record is None:
            with self._lock:
                candidate = self._sessions.get(name)
            if not isinstance(candidate, _SessionRecord):
                return  # closed while the snapshot was in flight
            record = candidate
        state = record.session.state
        self.store.put(
            name,
            state,
            meta={
                "client": record.client,
                "iteration": state.iteration,
                "elapsed": round(record.elapsed, 6),
                "finished": state.is_finished,
                "backend": {
                    "name": self.backend.name,
                    "workers": self.backend.workers,
                },
            },
        )

    # ------------------------------------------------------------------ #
    # JSON request/response API
    # ------------------------------------------------------------------ #
    def handle(self, request: dict, *, client: str = "local") -> dict:
        """Dispatch one JSON-style request.

        Requests are ``{"action": <verb>, ...}``; responses are
        ``{"ok": true, "result": ...}`` or ``{"ok": false, "error":
        {"type", "message", "code"?, "details"?}}``. ``client`` is the
        caller's identity for per-client quotas (transports pass the
        peer address; stdio and programmatic callers share ``"local"``).
        """
        try:
            action = request.get("action")
            handler = {
                "create": self._handle_create,
                "recommend": self._handle_recommend,
                "step": self._handle_step,
                "run": self._handle_run,
                "status": self._handle_status,
                "result": self._handle_result,
                "checkpoint": self._handle_checkpoint,
                "close": self._handle_close,
            }.get(action)
            if handler is None:
                raise ValueError(
                    f"unknown action {action!r}; expected one of create, "
                    "recommend, step, run, status, result, checkpoint, close"
                )
            return {"ok": True, "result": handler(request, client)}
        except Exception as exc:  # noqa: BLE001 — every failure becomes a response
            return {"ok": False, "error": error_payload(exc)}

    def _handle_create(self, request: dict, client: str) -> dict:
        # Parameter defaults follow the library/paper (step 0.01, full
        # dataset rows) rather than the CLI's laptop-scale defaults —
        # service callers state their scenario explicitly. A `checkpoint`
        # path loads a pickle; expose this verb only to trusted callers.
        name = _required(request, "name")
        checkpoint = request.get("checkpoint")
        if checkpoint is not None:
            self._require_checkpoint_io()
            session = self.load_session(name, checkpoint, client=client)
        else:
            params = request.get("params", {})
            config = Configuration(
                dataset=_required(params, "dataset"),
                algorithm=params.get("algorithm", "svm"),
                error_types=tuple(params.get("errors", ("missing",))),
                n_rows=params.get("rows"),
                budget=float(params.get("budget", 50.0)),
                step=float(params.get("step", 0.01)),
                cost_model=params.get("cost_model", "uniform"),
                cleanml=bool(params.get("cleanml", False)),
            )
            polluted = build_polluted(config, seed=int(params.get("seed", 0)))
            session = self.create_session(
                name,
                polluted,
                client=client,
                algorithm=config.algorithm,
                error_types=list(config.error_types),
                budget=config.budget,
                cost_model=config.make_cost_model(),
                config=config.make_comet_config(),
                rng=int(params.get("seed", 0)),
            )
        return {"name": name, **session.status()}

    # ------------------------------------------------------------------ #
    # sweep verbs (scheduled)
    # ------------------------------------------------------------------ #
    def _handle_recommend(self, request: dict, client: str) -> dict:
        # A recommendation pays a full E1 estimation sweep — the same
        # compute as one run iteration — so it is scheduled and
        # quota-accounted like the other sweep verbs (it just never
        # advances the iteration counter or touches data/budget).
        name = _required(request, "name")
        self._record(name)
        k = int(request.get("k", 3))
        return self._dispatch(
            name, lambda: self._recommend_session(name, k), request
        )

    def _recommend_session(self, name: str, k: int) -> dict:
        record = self._record(name)
        with record.lock:
            self._check_iteration_quota(name, record)
            started = time.perf_counter()
            try:
                candidates = record.session.recommend(k=k)
            finally:
                record.elapsed += time.perf_counter() - started
        return {
            "candidates": [
                {
                    "feature": c.feature,
                    "error": c.error,
                    "predicted_f1": c.prediction.predicted_f1,
                    "uncertainty": c.prediction.uncertainty,
                    "gain": c.gain,
                    "cost": c.cost,
                    "score": c.score,
                }
                for c in candidates
            ]
        }

    def _handle_step(self, request: dict, client: str) -> dict:
        name = _required(request, "name")
        self._record(name)  # fail fast on unknown names, before scheduling
        return self._dispatch(name, lambda: self._step_session(name), request)

    def _handle_run(self, request: dict, client: str) -> dict:
        name = _required(request, "name")
        self._record(name)
        max_iterations = request.get("max_iterations")
        if max_iterations is not None:
            max_iterations = int(max_iterations)
        return self._dispatch(
            name, lambda: self._run_session(name, max_iterations), request
        )

    def _dispatch(self, name: str, job, request: dict) -> dict:
        """Route an iteration job through the bounded scheduler.

        ``"wait": false`` returns immediately (collect with ``result``);
        the default blocks for the job's payload, preserving synchronous
        verb semantics while still bounding concurrent iteration work.
        """
        future = self.scheduler.submit(name, job)
        if not request.get("wait", True):
            return {"name": name, "scheduled": True}
        return self.scheduler.collect(name, future)

    def _handle_result(self, request: dict, client: str) -> dict:
        name = _required(request, "name")
        future = self.scheduler.job(name)
        if future is None:
            raise KeyError(f"no scheduled iteration verb for session {name!r}")
        if not request.get("wait", True) and not future.done():
            return {"name": name, "ready": False}
        # collect() re-raises the job's failure (e.g. QuotaExceededError
        # from mid-run exhaustion), which handle() turns into the same
        # structured error a synchronous verb would have produced.
        payload = self.scheduler.collect(name, future)
        return {"name": name, "ready": True, **payload}

    def _step_session(self, name: str) -> dict:
        record = self._record(name)
        with record.lock:
            self._check_iteration_quota(name, record)
            started = time.perf_counter()
            try:
                result = record.session.step()
            finally:
                record.elapsed += time.perf_counter() - started
            return {
                "record": result.to_dict() if result is not None else None,
                "finished": record.session.is_finished,
            }

    def _run_session(self, name: str, max_iterations: int | None = None) -> dict:
        """Run a session out (or ``max_iterations`` sweeps), quota-gated.

        The session lock is held per iteration, so ``status`` and
        ``checkpoint`` interleave at iteration boundaries instead of
        waiting for the whole run. Quotas are checked *before* each
        sweep: exhaustion surfaces as a structured error while the state
        sits on a clean boundary — still checkpointable, still
        inspectable.
        """
        record = self._record(name)
        session = record.session
        sweeps = 0
        while True:
            with record.lock:
                if session.is_finished:
                    break
                self._check_iteration_quota(name, record)
                started = time.perf_counter()
                try:
                    records = session.iterate()
                finally:
                    record.elapsed += time.perf_counter() - started
            if not records:
                break
            sweeps += 1
            if max_iterations is not None and sweeps >= max_iterations:
                break
        with record.lock:
            trace = session.trace
            return {
                "trace": trace.to_dict() if trace is not None else None,
                "finished": session.is_finished,
            }

    def _check_iteration_quota(self, name: str, record: _SessionRecord) -> None:
        self.quotas.check_iteration(
            name, record.session.state.iteration, record.elapsed
        )

    # ------------------------------------------------------------------ #
    # cheap verbs
    # ------------------------------------------------------------------ #
    def _handle_status(self, request: dict, client: str) -> dict:
        name = request.get("name")
        if name is None:
            # Service-level status doubles as the remote operator's
            # observability surface: cache hit rates and scheduler/
            # backend load without process access.
            payload = {
                "sessions": self.names(),
                "backend": self.backend.name,
                "workers": self.backend.workers,
                "scheduler_workers": self.scheduler.workers,
                "scheduler": self.scheduler.stats(),
                "quotas": self.quotas.to_dict(),
                "fd_cache": fd_cache_stats(),
                "cache": cache_stats(),
            }
            backend_stats = getattr(self.backend, "stats", None)
            if callable(backend_stats):
                payload["backend_stats"] = backend_stats()
            if self.store is not None:
                payload["store"] = self.store.stats()
            return payload
        record = self._record(name)
        running = self.scheduler.running(name)
        with record.lock:
            return {
                "name": name,
                **record.session.status(),
                "running": running,
                "elapsed_seconds": round(record.elapsed, 6),
            }

    def _handle_checkpoint(self, request: dict, client: str) -> dict:
        self._require_checkpoint_io()
        record = self._record(_required(request, "name"))
        path = _required(request, "path")
        with record.lock:
            record.session.save(path)
        return {"path": str(path)}

    def _require_checkpoint_io(self) -> None:
        if not self.checkpoint_io:
            raise PermissionError(
                "checkpoint I/O is disabled for this service "
                "(start it with checkpoint_io=True / without --no-checkpoint-io)"
            )

    def _handle_close(self, request: dict, client: str) -> dict:
        name = _required(request, "name")
        self.close_session(name)
        return {"closed": name}


def _required(mapping: dict, key: str):
    value = mapping.get(key)
    if value is None:
        raise ValueError(f"missing required field {key!r}")
    return value
