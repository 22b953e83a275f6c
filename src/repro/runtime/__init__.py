"""Execution engine: pluggable parallel backends for COMET's hot paths.

The Estimator's E1 sweep retrains the model ``|candidates| ×
n_combinations × n_pollution_steps`` times per session iteration, and the
estimations for different candidates are independent (PAPER §3.1).  This
package turns that loop into *task dispatch*: the caller builds a flat
list of picklable :class:`~repro.runtime.tasks.FitScoreTask` objects and
hands them to an :class:`~repro.runtime.backends.ExecutionBackend`, which
runs them serially, on a thread pool, or on a process pool.

Backend selection
-----------------
Backends are selected by name through the registry::

    from repro.runtime import make_backend

    backend = make_backend("thread", jobs=4)   # "serial" / "process" /
    with backend:                              # "distributed"
        scores = backend.map(fn, tasks)

``make_backend`` auto-falls back to :class:`SerialBackend` whenever
``jobs <= 1`` — asking for one worker *is* serial execution, so callers
never pay pool overhead for it.  The ``"distributed"`` backend
(:mod:`repro.runtime.distributed` — remote worker processes over
line-delimited JSON) is exempt: its single worker still runs in another
process, possibly on another machine.  Passing an already-constructed backend
instance returns it unchanged, which lets tests and power users inject
custom backends.  ``Comet(..., backend="thread", jobs=4)`` and the CLI's
``--backend/--jobs`` flags route through the same registry.

Determinism guarantees
----------------------
Serial, thread, process, and distributed runs of the same session are
**bit-identical**:

1. *All randomness is consumed while building tasks, never while running
   them.*  The Estimator draws per-candidate RNG streams (via
   ``Generator.spawn``) in a fixed candidate order and materializes every
   polluted data state up front; a task is then a pure function of its
   payload (fit a model, score a split).
2. *Results are reassembled by position.*  ``ExecutionBackend.map``
   returns results in task order regardless of completion order.
3. *Model fits are deterministic.*  Learners take explicit
   ``random_state`` hyperparameters and never touch global RNG state, and
   the shared cache only memoizes values that a cache-miss would
   recompute identically.

Consequently a :class:`~repro.core.trace.CleaningTrace` produced with
``backend="thread", jobs=4`` equals the ``backend="serial"`` trace for
the same seed, and the choice of backend is purely a throughput knob.
"""

from repro.runtime.backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.runtime.distributed import (
    DistributedBackend,
    RemoteTaskError,
    WorkerLostError,
    listen_worker,
    run_worker,
    worker_serve,
)
from repro.runtime.registry import (
    available_backends,
    make_backend,
    register_backend,
)
from repro.runtime.tasks import FitScoreTask, run_fit_score_task

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "DistributedBackend",
    "RemoteTaskError",
    "WorkerLostError",
    "worker_serve",
    "run_worker",
    "listen_worker",
    "available_backends",
    "make_backend",
    "register_backend",
    "FitScoreTask",
    "run_fit_score_task",
]
