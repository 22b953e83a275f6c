"""The shared eviction-aware cache layer (``repro.cache``).

Two contracts:

* **Accounting** — entries are charged payload bytes + key overhead,
  per-namespace and total byte counters track puts/evictions exactly,
  and the budget is a *hard* bound (floors are best-effort).
* **Equivalence** — caching and eviction never change results: session
  traces are bit-identical under a generous budget, a starvation-level
  budget (every put evicts something), and a cold cache, in both kernel
  modes.
"""

import numpy as np
import pytest

from repro.cache import (
    DEFAULT_MAX_BYTES,
    KEY_OVERHEAD_BYTES,
    SharedCache,
    cache_stats,
    clear_shared_cache,
    set_cache_budget,
    shared_cache,
)
from repro.core import CometConfig
from repro.datasets import load_dataset, pollute
from repro.detect import AlgorithmicCleaner, clear_fd_cache
from repro.kernels import use_kernels
from repro.session import CleaningSession


@pytest.fixture(autouse=True)
def _pristine_shared_cache():
    """Every test starts cold and leaves the default budget behind."""
    clear_fd_cache()
    yield
    set_cache_budget(DEFAULT_MAX_BYTES)
    clear_fd_cache()


def _array(n_bytes: int) -> np.ndarray:
    return np.zeros(n_bytes // 8, dtype=np.float64)


# --------------------------------------------------------------------- #
# SharedCache unit behavior (private instances, not the global one)
# --------------------------------------------------------------------- #
class TestSharedCacheAccounting:
    def test_bytes_charged_with_key_overhead(self):
        cache = SharedCache(max_bytes=1 << 20)
        cache.put("ns", "k", _array(1024), nbytes=1024)
        assert cache.total_bytes() == 1024 + KEY_OVERHEAD_BYTES
        stats = cache.stats("ns")
        assert stats["bytes"] == 1024 + KEY_OVERHEAD_BYTES
        assert stats["entries"] == 1 and stats["puts"] == 1

    def test_replacing_a_key_releases_the_old_charge(self):
        cache = SharedCache(max_bytes=1 << 20)
        cache.put("ns", "k", _array(4096), nbytes=4096)
        cache.put("ns", "k", _array(512), nbytes=512)
        assert cache.total_bytes() == 512 + KEY_OVERHEAD_BYTES
        assert cache.stats("ns")["entries"] == 1

    def test_hit_miss_counters(self):
        cache = SharedCache(max_bytes=1 << 20)
        assert cache.get("ns", "absent") is None
        cache.put("ns", "k", _array(64), nbytes=64)
        assert cache.get("ns", "k") is not None
        stats = cache.stats("ns")
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_budget_is_a_hard_bound_under_lru_eviction(self):
        cache = SharedCache(max_bytes=16 * 1024)
        for i in range(32):
            cache.put("ns", i, _array(1024), nbytes=1024)
            assert cache.total_bytes() <= 16 * 1024
        stats = cache.stats("ns")
        assert stats["evictions"] > 0
        # The survivors are the most recently used keys.
        assert cache.get("ns", 31) is not None
        assert cache.get("ns", 0) is None

    def test_get_refreshes_lru_position(self):
        cost = 1024 + KEY_OVERHEAD_BYTES
        cache = SharedCache(max_bytes=8 * cost)  # exactly 8 entries fit
        for i in range(8):
            cache.put("ns", i, _array(1024), nbytes=1024)
        assert cache.get("ns", 0) is not None  # refresh the oldest
        cache.put("ns", 8, _array(1024), nbytes=1024)
        assert cache.get("ns", 0) is not None  # survived: 1 was evicted
        assert cache.get("ns", 1) is None

    def test_floors_shield_a_namespace_from_foreign_pressure(self):
        cache = SharedCache(max_bytes=8 * 1024)
        floor = 2 * (512 + KEY_OVERHEAD_BYTES)
        cache.register("small", floor_bytes=floor)
        cache.put("small", "a", _array(512), nbytes=512)
        cache.put("small", "b", _array(512), nbytes=512)
        for i in range(64):
            cache.put("big", i, _array(1024), nbytes=1024)
        # "small" sits at its floor and survived the LRU sweep entirely.
        assert cache.get("small", "a") is not None
        assert cache.get("small", "b") is not None
        assert cache.total_bytes() <= 8 * 1024

    def test_floors_yield_when_the_budget_demands_it(self):
        cache = SharedCache(max_bytes=2 * 1024)
        cache.register("ns", floor_bytes=1 << 20)  # floor above the budget
        for i in range(8):
            cache.put("ns", i, _array(512), nbytes=512)
        # Second-pass eviction ignored the floor: hard bound holds.
        assert cache.total_bytes() <= 2 * 1024

    def test_oversized_entries_are_rejected_not_cached(self):
        cache = SharedCache(max_bytes=8 * 1024)
        admitted = cache.put("ns", "huge", _array(4 * 1024), nbytes=4 * 1024)
        assert not admitted
        assert cache.get("ns", "huge") is None
        assert cache.stats("ns")["rejected"] == 1
        assert cache.total_bytes() == 0

    def test_shrinking_the_budget_evicts_immediately(self):
        cache = SharedCache(max_bytes=1 << 20)
        for i in range(16):
            cache.put("ns", i, _array(1024), nbytes=1024)
        cache.configure(max_bytes=4 * 1024)
        assert cache.total_bytes() <= 4 * 1024
        assert cache.max_bytes == 4 * 1024

    def test_clear_one_namespace_leaves_the_rest(self):
        cache = SharedCache(max_bytes=1 << 20)
        cache.put("a", 1, _array(64), nbytes=64)
        cache.put("b", 1, _array(64), nbytes=64)
        cache.clear("a")
        assert cache.get("a", 1) is None
        assert cache.get("b", 1) is not None
        assert cache.stats("a")["bytes"] == 0

    def test_global_stats_shape(self):
        cache = SharedCache(max_bytes=1 << 20)
        cache.put("ns", 1, _array(64), nbytes=64)
        stats = cache.stats()
        assert stats["max_bytes"] == 1 << 20
        assert stats["entries"] == 1
        assert set(stats["namespaces"]["ns"]) >= {
            "hits", "misses", "puts", "evictions", "rejected",
            "bytes", "entries", "floor_bytes",
        }

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            SharedCache(max_bytes=0)
        with pytest.raises(ValueError):
            SharedCache(max_bytes=1024).configure(max_bytes=-1)
        with pytest.raises(ValueError):
            SharedCache(max_bytes=1024).register("ns", floor_bytes=-1)


class TestModuleSingleton:
    def test_set_cache_budget_governs_the_shared_instance(self):
        set_cache_budget(32 * 1024)
        assert shared_cache().max_bytes == 32 * 1024
        assert cache_stats()["max_bytes"] == 32 * 1024

    def test_only_the_fd_namespace_is_registered(self):
        assert set(cache_stats()["namespaces"]) == {"fd"}

    def test_clear_shared_cache_drops_everything(self):
        shared_cache().put("fd", b"probe", (1.0, 2.0, 3.0), nbytes=24)
        clear_shared_cache()
        assert cache_stats()["total_bytes"] == 0


# --------------------------------------------------------------------- #
# Whole-session equivalence: budgets and kernel modes never change traces
# --------------------------------------------------------------------- #
def _session_trace(seed=3, errors=("missing",)):
    dataset = load_dataset("cmc", n_rows=120, rng=0)
    polluted = pollute(dataset, error_types=list(errors), rng=seed)
    session = CleaningSession.create(
        polluted,
        algorithm="lor",
        error_types=list(errors),
        budget=3.0,
        config=CometConfig(step=0.05),
        rng=0,
        cleaner=AlgorithmicCleaner(step=0.05, rng=0),
    )
    try:
        return session.run()
    finally:
        session.close()


class TestSessionEquivalence:
    @pytest.mark.parametrize("mode", ["vectorized", "reference"])
    def test_traces_identical_across_budgets(self, mode):
        # Categorical-shift detection mines FDs through the "fd" namespace.
        errors = ("categorical",)
        with use_kernels(mode):
            clear_fd_cache()
            baseline = _session_trace(errors=errors)
            # Warm shared cache (second run leans on the first run's
            # entries as another tenant would).
            warm = _session_trace(errors=errors)
            # Starvation budget: eviction on nearly every put.
            set_cache_budget(4 * 1024)
            clear_fd_cache()
            starved = _session_trace(errors=errors)
            assert warm == baseline
            assert starved == baseline

    def test_bounded_memory_under_budget(self):
        # Categorical-shift detection mines FDs, which fills the "fd"
        # namespace past this budget.
        set_cache_budget(8 * 1024)
        for seed in (1, 2):
            _session_trace(seed=seed, errors=("categorical",))
            assert cache_stats()["total_bytes"] <= 8 * 1024
        assert cache_stats()["evictions"] > 0
