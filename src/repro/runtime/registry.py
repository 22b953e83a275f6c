"""Backend registry: select an execution backend by name.

Mirrors the ML registry idiom (``repro.ml.registry``): a name → factory
mapping with a ``make_backend`` constructor used by :class:`~repro.core.
comet.Comet`, the experiment runner, and the CLI's ``--backend`` flag.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.runtime.backends import ExecutionBackend, ProcessBackend, SerialBackend
from repro.runtime.distributed import DistributedBackend

__all__ = ["register_backend", "make_backend", "available_backends"]


class _Entry(NamedTuple):
    factory: Callable[[int], ExecutionBackend]
    #: Whether ``jobs <= 1`` should yield a :class:`SerialBackend`
    #: instead of calling the factory.  True for the process pool (one
    #: worker *is* serial execution); False for backends whose
    #: workers live elsewhere — one *remote* worker is still remote.
    serial_when_single: bool


#: name → registered entry.
_BACKENDS: dict[str, _Entry] = {}


def register_backend(
    name: str,
    factory: Callable[[int], ExecutionBackend],
    *,
    serial_when_single: bool = True,
) -> None:
    """Register a backend factory under ``name`` (overwrites silently)."""
    _BACKENDS[name] = _Entry(factory, serial_when_single)


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKENDS)


def make_backend(
    backend: str | ExecutionBackend = "serial", jobs: int = 1
) -> ExecutionBackend:
    """Instantiate a backend by name, with serial auto-fallback.

    Parameters
    ----------
    backend:
        Registry name, or an already-constructed backend (returned as-is
        so callers can inject custom implementations).
    jobs:
        Worker count.  ``jobs <= 1`` yields a :class:`SerialBackend` for
        the process pool — one worker is serial execution, so no
        pool is ever paid for it.  Backends registered with
        ``serial_when_single=False`` (``"distributed"``) are exempt:
        their single worker runs somewhere a serial fallback cannot.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    entry = _BACKENDS.get(backend)
    if entry is None:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {available_backends()}"
        )
    if jobs <= 1 and entry.serial_when_single:
        return SerialBackend()
    return entry.factory(max(jobs, 1))


register_backend("serial", lambda jobs: SerialBackend())
register_backend("process", lambda jobs: ProcessBackend(jobs))
register_backend(
    "distributed",
    lambda jobs: DistributedBackend.from_env(jobs),
    serial_when_single=False,
)
