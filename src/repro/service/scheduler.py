"""The async session scheduler: iteration verbs on a bounded worker pool.

``step``, ``run``, and ``recommend`` are the verbs that spend compute
(each pays an E1 estimation sweep); everything else (``status``,
``checkpoint``, ``close``) is cheap.
The scheduler routes the expensive verbs onto a bounded pool of worker
threads, so one slow E1 sweep occupies one worker, never the transport
thread that carried the request. ``status`` on session B answers
immediately while session A is mid-``run``, whether the caller arrived
over stdio, TCP, or HTTP. The threads buy concurrency, not CPU: a
sweep's own parallelism is the session's execution backend's business.

Jobs are keyed by session: at most one iteration job per session may be
in flight (a second submission raises
:class:`~repro.service.quotas.SessionBusyError` instead of silently
queueing work the client cannot see). Callers either wait on the
returned future (the default, synchronous verb semantics) or collect it
later through the service's ``result`` verb.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable

from repro.service.quotas import SessionBusyError

__all__ = ["SessionScheduler"]


class SessionScheduler:
    """Bounded, session-keyed dispatch for iteration verbs.

    Parameters
    ----------
    workers:
        Worker threads iteration jobs share — the number of sessions
        that may sweep concurrently. Must be >= 1; with 1, iteration
        jobs of *all* sessions serialize (an operator's throttling
        choice — cheap verbs still answer, they never enter this pool).
    """

    def __init__(self, workers: int = 4) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        # Always a real thread pool: even one worker must run jobs *off*
        # the dispatching thread, or "wait": false could not return early.
        self._pool = ThreadPoolExecutor(
            self.workers, thread_name_prefix="repro-scheduler"
        )
        self._jobs: dict[str, Future] = {}
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def submit(self, name: str, fn: Callable[[], dict]) -> Future:
        """Schedule ``fn`` as session ``name``'s iteration job.

        Raises :class:`SessionBusyError` while a previous job for the
        same session is still running; an uncollected *finished* job is
        replaced (its result is dropped — the client moved on). Raises
        ``RuntimeError`` after :meth:`shutdown`, which a verb racing the
        service's shutdown can reach.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("service is shut down")
            existing = self._jobs.get(name)
            if existing is not None and not existing.done():
                raise SessionBusyError(
                    f"session {name!r} already has an iteration verb in "
                    "flight; wait for it or collect it with the "
                    "'result' action",
                    name=name,
                )
            future = self._pool.submit(fn)
            self._jobs[name] = future
        return future

    def collect(self, name: str, future: Future) -> dict:
        """Wait for ``future`` and retire it from the job table."""
        try:
            return future.result()
        finally:
            self.discard(name, future)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Queue depth and worker counts for the ``status`` verb.

        ``jobs_in_flight`` are iteration verbs currently executing (or
        queued for a free worker thread); ``jobs_uncollected`` finished
        with ``"wait": false`` and await their ``result`` call.
        """
        with self._lock:
            in_flight = sum(1 for f in self._jobs.values() if not f.done())
            return {
                "workers": self.workers,
                "jobs_in_flight": in_flight,
                "jobs_uncollected": len(self._jobs) - in_flight,
            }

    def job(self, name: str) -> Future | None:
        """The in-flight or uncollected job for ``name`` (``None`` if none)."""
        with self._lock:
            return self._jobs.get(name)

    def running(self, name: str) -> bool:
        """Whether an iteration job for ``name`` is still executing."""
        future = self.job(name)
        return future is not None and not future.done()

    def discard(self, name: str, future: Future | None = None) -> None:
        """Drop ``name``'s job entry (only if it still is ``future``)."""
        with self._lock:
            if future is None or self._jobs.get(name) is future:
                self._jobs.pop(name, None)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def drain(self) -> None:
        """Block until every in-flight job has finished (results kept)."""
        with self._lock:
            futures = list(self._jobs.values())
        for future in futures:
            try:
                future.result()
            except BaseException:  # noqa: BLE001 — drained jobs report via verbs
                pass

    def shutdown(self) -> None:
        """Refuse new jobs, drain in-flight ones, release the threads."""
        with self._lock:
            self._closed = True
        self.drain()
        with self._lock:
            self._jobs.clear()
        self._pool.shutdown(wait=True)
