"""Execution engine: pluggable parallel backends for COMET's hot paths.

The Estimator's E1 sweep retrains the model ``|candidates| ×
n_combinations × n_pollution_steps`` times per session iteration, and the
estimations for different candidates are independent (PAPER §3.1).  This
package turns that loop into *task dispatch*: the Estimator builds a flat
list of picklable :class:`~repro.runtime.tasks.FitScoreTask` objects,
cuts it into one contiguous share per worker, and hands the shares to an
:class:`~repro.runtime.backends.ExecutionBackend`, which runs them
serially (one share), on a process pool, or on remote workers.  Every
share carries the sweep's base featurization, so each worker splices
its tasks' polluted states exactly as a serial run does.  There is no
thread pool: on CPython two threads of the sweep's small numpy fits
contend for the interpreter and run slower than one.

Backend selection
-----------------
Backends are selected by name::

    from repro.runtime import make_backend

    backend = make_backend("process", jobs=4)  # or "serial" /
    with backend:                              # "distributed"
        scores = backend.map(fn, tasks)

``make_backend`` auto-falls back to :class:`SerialBackend` whenever
``jobs <= 1`` — asking for one worker *is* serial execution, so callers
never pay pool overhead for it.  ``"process"`` is the one parallel path
on this host.  ``"distributed"`` (:mod:`repro.runtime.distributed`)
dispatches to worker processes that run elsewhere, over line-delimited
JSON; by name it dials the listening workers named in
``REPRO_DISTRIBUTED_CONNECT`` and raises :class:`ValueError` without
them.  It is exempt from the serial fallback: its single worker runs in
another process, usually on another machine.  Passing an
already-constructed backend instance returns it unchanged, which lets
tests and power users inject custom backends.  ``Comet(..., backend="process", jobs=4)`` and the CLI's
``--backend/--jobs`` flags route through the same ``make_backend``.

Determinism guarantees
----------------------
Serial, process, and distributed runs of the same session are
**bit-identical**:

1. *All randomness is consumed while building tasks, never while running
   them.*  The Estimator draws per-candidate RNG streams (via
   ``Generator.spawn``) in a fixed candidate order and materializes every
   polluted data state up front; a task is then a pure function of its
   payload (fit a model, score a split).
2. *Results are reassembled by position.*  ``ExecutionBackend.map``
   returns results in share order regardless of completion order, and a
   share scores its tasks in order.
3. *Model fits are deterministic.*  Learners take explicit
   ``random_state`` hyperparameters and never touch global RNG state, and
   the FD memo (:mod:`repro.cache`) only holds values that a miss would
   recompute identically.

Consequently a :class:`~repro.core.trace.CleaningTrace` produced with
``backend="process", jobs=4`` equals the ``backend="serial"`` trace for
the same seed, and the choice of backend is purely a throughput knob.
Point 3 assumes every worker computes with the parent's BLAS kernels
and library versions, which holds for the process pool by construction.
Remote workers on another CPU can pick other kernels and score
differently; nothing checks this yet (see
:mod:`repro.runtime.distributed`).
"""

from repro.runtime.backends import ExecutionBackend, ProcessBackend, SerialBackend
from repro.runtime.distributed import (
    DistributedBackend,
    RemoteTaskError,
    WorkerLostError,
    listen_worker,
    run_worker,
    worker_serve,
)
from repro.runtime.registry import available_backends, make_backend
from repro.runtime.tasks import FitScoreTask, run_fit_score_task

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "DistributedBackend",
    "RemoteTaskError",
    "WorkerLostError",
    "worker_serve",
    "run_worker",
    "listen_worker",
    "available_backends",
    "make_backend",
    "FitScoreTask",
    "run_fit_score_task",
]
