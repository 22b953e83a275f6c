"""Process-wide, size-accounted cache shared by every memoization layer.

A long-lived multi-tenant service needs its memos *shared* (identical
CleanML column tokens across sessions hit the same entries), *bounded in
bytes* process-wide, and governed by the service's
:class:`~repro.service.quotas.SessionQuotas`.

:class:`SharedCache` is that single layer. Entries live in namespaces —
today only ``"fd"``, the FD pair statistics of :mod:`repro.detect.fd` —
every entry is charged its payload ``nbytes`` plus a fixed per-key
overhead, and one global LRU order spans all namespaces. Eviction —
never an error — keeps the total under the byte budget:

- the LRU walk first skips entries whose namespace is at or below its
  *floor* (a small per-namespace reservation, so pressure from one
  namespace cannot completely starve another);
- if respecting floors cannot get under the budget, a second pass evicts
  in pure LRU order — the budget is a hard bound, floors are best-effort;
- entries larger than an admission cap (a fraction of the budget) are
  rejected outright and counted, not cached.

Per-namespace counters (hits, misses, puts, evictions, rejected, bytes,
entries) plus the global totals are exposed via :func:`cache_stats`,
which the service's ``status`` verb and the benchmarks report. The
budget is wired to ``SessionQuotas.max_cache_bytes`` (and ``serve
--max-cache-bytes``) by the service layer; see :func:`set_cache_budget`.

Caching here never changes results: callers key entries by content-
proving column identity tokens (see :mod:`repro.frame.column`), so a hit
returns exactly what a recompute would. Eviction only costs a future
recompute.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

import numpy as np

__all__ = [
    "SharedCache",
    "shared_cache",
    "cache_stats",
    "set_cache_budget",
    "clear_shared_cache",
    "DEFAULT_MAX_BYTES",
    "KEY_OVERHEAD_BYTES",
]

#: Default process-wide budget: roomy for a workstation sweep, small
#: enough that a long-lived service cannot hoard matrices unnoticed.
DEFAULT_MAX_BYTES = 128 * 1024 * 1024

#: Flat per-entry charge covering the key tuple, the OrderedDict slot,
#: and bookkeeping — so even nbytes=0 entries (small tuples) cannot grow
#: the cache without limit.
KEY_OVERHEAD_BYTES = 256

#: No single entry may take more than this fraction of the budget; a
#: matrix that large would evict everything else for one once-used value.
_ADMISSION_FRACTION = 8


def estimate_nbytes(value: Any) -> int:
    """Byte estimate for a cached payload (arrays exactly, rest coarsely)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(estimate_nbytes(v) for v in value)
    if isinstance(value, dict):
        return sum(estimate_nbytes(v) for v in value.values())
    arrays = getattr(value, "__dict__", None)
    if arrays:
        return sum(
            int(v.nbytes) for v in arrays.values() if isinstance(v, np.ndarray)
        )
    return 64


def _zero_namespace_stats() -> dict[str, int]:
    return {
        "hits": 0,
        "misses": 0,
        "puts": 0,
        "evictions": 0,
        "rejected": 0,
        "bytes": 0,
        "entries": 0,
    }


class SharedCache:
    """A namespaced LRU cache with byte accounting and floor-aware eviction.

    Thread-safe behind a single lock: sessions in a service run on
    scheduler worker threads but share this one cache, and the lock also
    makes counter read-and-reset atomic (a reset can no longer lose a
    racing update, which the per-module caches it replaces could).
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self._lock = threading.RLock()
        #: (namespace, key) → (value, charged cost) in LRU order.
        self._entries: OrderedDict[tuple[str, Hashable], tuple[Any, int]] = (
            OrderedDict()
        )
        self._max_bytes = int(max_bytes)
        self._floors: dict[str, int] = {}
        self._stats: dict[str, dict[str, int]] = {}
        self._bytes: dict[str, int] = {}
        self._total_bytes = 0

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    @property
    def max_bytes(self) -> int:
        """The process-wide byte budget currently enforced."""
        with self._lock:
            return self._max_bytes

    def register(self, namespace: str, floor_bytes: int = 0) -> str:
        """Declare a namespace (idempotent) with an eviction floor.

        The floor is a best-effort reservation: global pressure prefers
        evicting namespaces that sit above their floor. Re-registering
        keeps the larger floor, so import order cannot shrink one.
        """
        if floor_bytes < 0:
            raise ValueError(f"floor_bytes must be >= 0, got {floor_bytes}")
        with self._lock:
            self._floors[namespace] = max(
                self._floors.get(namespace, 0), int(floor_bytes)
            )
            self._stats.setdefault(namespace, _zero_namespace_stats())
            self._bytes.setdefault(namespace, 0)
        return namespace

    def configure(
        self,
        max_bytes: int | None = None,
        floors: dict[str, int] | None = None,
    ) -> None:
        """Change the budget and/or floors; evicts immediately if shrunk."""
        with self._lock:
            if max_bytes is not None:
                if max_bytes <= 0:
                    raise ValueError(
                        f"max_bytes must be positive, got {max_bytes}"
                    )
                self._max_bytes = int(max_bytes)
            if floors:
                for namespace, floor in floors.items():
                    if floor < 0:
                        raise ValueError(
                            f"floor for {namespace!r} must be >= 0, got {floor}"
                        )
                    self._floors[namespace] = int(floor)
                    self._stats.setdefault(namespace, _zero_namespace_stats())
                    self._bytes.setdefault(namespace, 0)
            self._evict_to_budget()

    # ------------------------------------------------------------------ #
    # the cache protocol
    # ------------------------------------------------------------------ #
    def get(self, namespace: str, key: Hashable) -> Any | None:
        """The cached value, or ``None``; counts the hit/miss either way."""
        full_key = (namespace, key)
        with self._lock:
            stats = self._namespace_stats(namespace)
            entry = self._entries.get(full_key)
            if entry is None:
                stats["misses"] += 1
                return None
            self._entries.move_to_end(full_key)
            stats["hits"] += 1
            return entry[0]

    def put(
        self, namespace: str, key: Hashable, value: Any, nbytes: int | None = None
    ) -> bool:
        """Admit ``value`` under ``(namespace, key)``; returns False if
        rejected (oversized). Eviction, never an error, restores the
        budget afterwards."""
        if nbytes is None:
            nbytes = estimate_nbytes(value)
        cost = int(nbytes) + KEY_OVERHEAD_BYTES
        full_key = (namespace, key)
        with self._lock:
            stats = self._namespace_stats(namespace)
            if cost > max(self._max_bytes // _ADMISSION_FRACTION, 1):
                stats["rejected"] += 1
                return False
            existing = self._entries.get(full_key)
            if existing is not None:
                self._charge(namespace, -existing[1])
            self._entries[full_key] = (value, cost)
            self._entries.move_to_end(full_key)
            self._charge(namespace, cost)
            stats["puts"] += 1
            self._evict_to_budget()
            return True

    def clear(self, namespace: str | None = None, counters: bool = True) -> None:
        """Drop entries (one namespace or all); optionally zero counters."""
        with self._lock:
            if namespace is None:
                self._entries.clear()
                for ns in self._bytes:
                    self._bytes[ns] = 0
                self._total_bytes = 0
                if counters:
                    for ns in self._stats:
                        self._stats[ns] = _zero_namespace_stats()
                return
            doomed = [k for k in self._entries if k[0] == namespace]
            for full_key in doomed:
                __, cost = self._entries.pop(full_key)
                self._charge(namespace, -cost)
            if counters:
                self._stats[namespace] = _zero_namespace_stats()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def stats(self, namespace: str | None = None) -> dict:
        """Counters and sizes — per namespace, or the full picture."""
        with self._lock:
            if namespace is not None:
                out = dict(self._namespace_stats(namespace))
                out["bytes"] = self._bytes.get(namespace, 0)
                out["entries"] = sum(
                    1 for k in self._entries if k[0] == namespace
                )
                out["floor_bytes"] = self._floors.get(namespace, 0)
                return out
            namespaces = {}
            for ns in sorted(self._stats):
                entry = dict(self._stats[ns])
                entry["bytes"] = self._bytes.get(ns, 0)
                entry["entries"] = sum(1 for k in self._entries if k[0] == ns)
                entry["floor_bytes"] = self._floors.get(ns, 0)
                namespaces[ns] = entry
            return {
                "max_bytes": self._max_bytes,
                "total_bytes": self._total_bytes,
                "entries": len(self._entries),
                "evictions": sum(s["evictions"] for s in self._stats.values()),
                "namespaces": namespaces,
            }

    def total_bytes(self) -> int:
        """Charged bytes currently held (payload + key overhead)."""
        with self._lock:
            return self._total_bytes

    @property
    def lock(self) -> threading.RLock:
        """The cache's lock — callers co-locate their own counters under
        it so read-and-reset stays atomic against puts (see
        ``repro.detect.fd``)."""
        return self._lock

    # ------------------------------------------------------------------ #
    # internals (lock held)
    # ------------------------------------------------------------------ #
    def _namespace_stats(self, namespace: str) -> dict[str, int]:
        stats = self._stats.get(namespace)
        if stats is None:
            stats = self._stats[namespace] = _zero_namespace_stats()
            self._bytes.setdefault(namespace, 0)
        return stats

    def _charge(self, namespace: str, delta: int) -> None:
        self._bytes[namespace] = self._bytes.get(namespace, 0) + delta
        self._total_bytes += delta
        stats = self._namespace_stats(namespace)
        stats["bytes"] = self._bytes[namespace]

    def _evict_to_budget(self) -> None:
        if self._total_bytes <= self._max_bytes:
            return
        # First pass: LRU order, but spare namespaces at/below their
        # floor so one namespace's burst cannot starve the others.
        for full_key in list(self._entries):
            if self._total_bytes <= self._max_bytes:
                return
            namespace = full_key[0]
            floor = self._floors.get(namespace, 0)
            if self._bytes.get(namespace, 0) <= floor:
                continue
            self._evict_one(full_key)
        # Second pass: the budget is a hard bound — floors yield.
        for full_key in list(self._entries):
            if self._total_bytes <= self._max_bytes:
                return
            self._evict_one(full_key)

    def _evict_one(self, full_key: tuple[str, Hashable]) -> None:
        __, cost = self._entries.pop(full_key)
        namespace = full_key[0]
        self._charge(namespace, -cost)
        self._namespace_stats(namespace)["evictions"] += 1


# ---------------------------------------------------------------------- #
# the process-wide instance
# ---------------------------------------------------------------------- #
_SHARED = SharedCache()


def shared_cache() -> SharedCache:
    """The process-wide cache every memoization layer shares."""
    return _SHARED


def cache_stats() -> dict:
    """Global + per-namespace counters of the shared cache (the service's
    ``status`` verb reports this payload verbatim)."""
    return _SHARED.stats()


def set_cache_budget(
    max_bytes: int | None = None, floors: dict[str, int] | None = None
) -> None:
    """Set the process-wide byte budget (and optional per-namespace
    floors); over-budget entries are evicted immediately. ``None`` leaves
    the current budget untouched."""
    _SHARED.configure(max_bytes=max_bytes, floors=floors)


def clear_shared_cache(namespace: str | None = None) -> None:
    """Drop cached entries (one namespace, or everything) and counters."""
    _SHARED.clear(namespace)
