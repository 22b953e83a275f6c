"""Execution backends: serial and process-pool task runners.

A backend is a context manager owning worker resources plus one verb,
``map(fn, tasks)``, which applies ``fn`` to every task and returns the
results *in task order* — completion order never leaks through, which is
half of the determinism guarantee (see the package docstring).

Pools are created lazily on first ``map`` so a backend constructed but
never used costs nothing; entering the context starts the pool eagerly
and leaving it shuts the pool down.

The process pool here is one end of a spectrum; the
:class:`~repro.runtime.distributed.DistributedBackend` implements the
same ordered ``map`` over remote worker processes, so the estimator's
flat E1 dispatch never distinguishes local from distributed execution.
"""

from __future__ import annotations

import abc
import threading
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, Iterable, Sequence

__all__ = ["ExecutionBackend", "SerialBackend", "ProcessBackend"]


class ExecutionBackend(abc.ABC):
    """Common API of all execution backends.

    Subclasses implement :meth:`map`; pooled backends additionally manage
    worker lifecycles through :meth:`start` / :meth:`shutdown`, which the
    context-manager protocol calls for them.
    """

    #: Registry name of the backend (``"serial"``, ``"process"``, …).
    name: str = "?"
    #: Number of workers the backend runs tasks on (1 for serial).
    workers: int = 1

    @abc.abstractmethod
    def map(self, fn: Callable, tasks: Iterable) -> list:
        """Apply ``fn`` to every task; results come back in task order."""

    def start(self) -> None:
        """Acquire worker resources (no-op for serial execution)."""

    def shutdown(self) -> None:
        """Release worker resources (no-op for serial execution)."""

    def __enter__(self) -> "ExecutionBackend":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(ExecutionBackend):
    """Run every task inline on the calling thread (the reference order)."""

    name = "serial"

    def map(self, fn: Callable, tasks: Iterable) -> list:
        """Apply ``fn`` to every task; results come back in task order."""
        return [fn(task) for task in tasks]


class ProcessBackend(ExecutionBackend):
    """Process-pool execution: true CPU parallelism, pickled payloads.

    Tasks and the mapped function must be picklable (module-level
    callables, dataclass payloads).  If the host forbids spawning worker
    processes (sandboxes, restricted containers), ``map`` degrades to
    inline execution with a warning rather than failing the run — the
    results are identical either way.

    Lifecycle transitions are lock-protected: one backend instance may be
    shared by many sessions dispatching from different threads (the
    ``repro.service`` topology), and the lazy first ``map`` must create
    exactly one pool — not one per racing caller.
    """

    name = "process"

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None
        self._lifecycle = threading.Lock()
        self._degraded = False

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

    def start(self) -> None:
        """Acquire worker resources (idempotent, thread-safe)."""
        self._acquire_pool()

    def _acquire_pool(self) -> ProcessPoolExecutor:
        with self._lifecycle:
            if self._pool is None:
                self._pool = self._make_pool()
            return self._pool

    def shutdown(self) -> None:
        """Release worker resources (idempotent, thread-safe)."""
        with self._lifecycle:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def map(self, fn: Callable, tasks: Iterable) -> list:
        """Apply ``fn`` to every task; results come back in task order.

        Concurrent ``map`` calls from different threads are safe (they
        share one pool). ``shutdown`` is safe to race with *idle* maps —
        the next dispatch lazily rebuilds the pool — but shutting down
        while a dispatch is in flight surfaces as an executor error in
        that dispatch; callers owning a shared backend (the service)
        must drain their sessions before shutting it down.

        Pool failures degrade to the inline fallback — stickily, so a
        host that forbids worker processes pays the failed pool setup
        once, not per sweep. ``OSError`` is caught around the dispatch
        as well as pool creation because worker processes are only
        spawned at first submit — that is where a fork-denying host
        actually raises. Fit-score tasks are pure numpy computation and
        never raise ``OSError`` themselves, so the attribution is
        unambiguous for this workload.
        """
        tasks = list(tasks) if not isinstance(tasks, Sequence) else tasks
        if not tasks:
            return []
        if self._degraded:
            return [fn(task) for task in tasks]
        try:
            # The pool is fetched once so a racing shutdown() cannot None
            # it between the acquire and the dispatch.
            return list(self._acquire_pool().map(fn, tasks))
        except (BrokenExecutor, OSError, PermissionError) as exc:
            self.shutdown()
            self._degraded = True
            warnings.warn(
                f"process backend unavailable ({exc}); running tasks inline",
                RuntimeWarning,
                stacklevel=2,
            )
            return [fn(task) for task in tasks]
