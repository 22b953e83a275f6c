"""Backend registry: select an execution backend by name.

Mirrors the ML registry idiom (``repro.ml.registry``): a fixed name →
factory mapping with a ``make_backend`` constructor used by
:class:`~repro.core.comet.Comet`, the experiment runner, and the CLI's
``--backend`` flag.
"""

from __future__ import annotations

from repro.runtime.backends import ExecutionBackend, ProcessBackend, SerialBackend
from repro.runtime.distributed import DistributedBackend

__all__ = ["make_backend", "available_backends"]

#: name → factory of a backend with ``jobs`` workers.
_BACKENDS = {
    "serial": lambda jobs: SerialBackend(),
    "process": ProcessBackend,
    "distributed": DistributedBackend.from_env,
}


def available_backends() -> list[str]:
    """Backend names, sorted."""
    return sorted(_BACKENDS)


def make_backend(
    backend: str | ExecutionBackend = "serial", jobs: int = 1
) -> ExecutionBackend:
    """Instantiate a backend by name, with serial auto-fallback.

    Parameters
    ----------
    backend:
        Backend name, or an already-constructed backend (returned as-is
        so callers can inject custom implementations).
    jobs:
        Worker count.  ``jobs <= 1`` yields a :class:`SerialBackend` —
        one local worker is serial execution, so no pool is ever paid
        for it.  ``"distributed"`` is exempt: its single worker runs in
        another process, usually on another machine.

    Raises :class:`ValueError` for an unknown name, and for
    ``"distributed"`` when ``REPRO_DISTRIBUTED_CONNECT`` names no worker
    (use ``"process"`` for parallelism on one host).
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    factory = _BACKENDS.get(backend)
    if factory is None:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {available_backends()}"
        )
    if jobs <= 1 and backend != "distributed":
        return SerialBackend()
    return factory(max(jobs, 1))
