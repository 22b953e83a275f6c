"""Micro-benchmark: what session durability costs.

Measures the two prices of the ``repro.store`` write-behind design,
recorded in ``benchmarks/results/BENCH_store.json`` (``REPRO_BENCH_RECORD=1``):

1. *Write-behind overhead per iteration* — the same session stepped to
   completion bare, with a write-behind store snapshotting every
   iteration boundary (the ``serve --state-dir`` configuration; only
   the synchronous pickle is on the verb path), and with inline writes
   (``write_behind=False`` — what a naive design would pay, fsync and
   all, on every boundary).
2. *Cold-rehydration latency* — ``store.load`` on a fresh store over
   the same directory: the first-verb cost of a lazily resumed session
   after a restart.
"""

import json
import tempfile
import time
from pathlib import Path

from _helpers import record

from repro.experiments import Configuration, build_polluted
from repro.session import CleaningSession
from repro.store import DirectorySessionStore

_CONFIG = Configuration(
    dataset="cmc",
    algorithm="lor",
    error_types=("missing",),
    n_rows=200,
    budget=16.0,
    step=0.02,
)
_SEED = 0


def _fresh_session() -> CleaningSession:
    dataset = build_polluted(_CONFIG, seed=_SEED)
    return CleaningSession.create(
        dataset,
        algorithm=_CONFIG.algorithm,
        error_types=list(_CONFIG.error_types),
        budget=_CONFIG.budget,
        cost_model=_CONFIG.make_cost_model(),
        config=_CONFIG.make_comet_config(),
        rng=_SEED,
    )


def _step_out(session: CleaningSession, store=None, name="bench") -> tuple[int, float]:
    """Step the session to completion, snapshotting each boundary."""
    iterations = 0
    started = time.perf_counter()
    while not session.is_finished:
        if session.step() is None:
            break
        iterations += 1
        if store is not None:
            state = session.state
            store.put(
                name,
                state,
                meta={"iteration": state.iteration, "finished": state.is_finished},
            )
    return iterations, time.perf_counter() - started


def test_store_benchmark():
    out = {
        "workload": (
            f"{_CONFIG.dataset}/{_CONFIG.algorithm}, {_CONFIG.n_rows} rows, "
            f"budget {_CONFIG.budget:g}, one snapshot per iteration"
        )
    }

    iterations, bare_s = _step_out(_fresh_session())
    assert iterations > 0
    out["iterations"] = iterations
    out["bare_per_iter_s"] = bare_s / iterations

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        root = Path(tmp) / "state"

        with DirectorySessionStore(root) as store:
            wb_iters, wb_s = _step_out(_fresh_session(), store)
            flush_started = time.perf_counter()
            store.flush()
            out["flush_drain_s"] = time.perf_counter() - flush_started
            out["checkpoint_bytes"] = store.stats()["bytes"]
        assert wb_iters == iterations  # durability must not change the run
        out["write_behind_per_iter_s"] = wb_s / iterations
        out["write_behind_overhead"] = wb_s / bare_s - 1.0

        with DirectorySessionStore(root, write_behind=False) as store:
            inline_iters, inline_s = _step_out(_fresh_session(), store)
        assert inline_iters == iterations
        out["inline_per_iter_s"] = inline_s / iterations
        out["inline_overhead"] = inline_s / bare_s - 1.0

        # Cold rehydration: a fresh store over the same directory, as the
        # first verb after `serve --state-dir` restarts would see it.
        samples = []
        for _ in range(5):
            with DirectorySessionStore(root) as store:
                started = time.perf_counter()
                state = store.load("bench")
                samples.append(time.perf_counter() - started)
            assert state.iteration == iterations
        out["cold_rehydrate_s"] = {"best": min(samples), "mean": sum(samples) / len(samples)}

    record("BENCH_store.json", json.dumps(out, indent=2) + "\n")
    print(json.dumps(out, indent=2))

    # Loose sanity floors (kind, not degree): the write-behind snapshot
    # must stay a small fraction of an iteration, and a rehydration must
    # be interactive.
    assert out["write_behind_overhead"] < 0.5
    assert out["cold_rehydrate_s"]["best"] < 1.0
