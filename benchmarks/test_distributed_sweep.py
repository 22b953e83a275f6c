"""Micro-benchmark: one Estimator E1 sweep on the distributed backend.

Times the same ``estimate_many`` candidate sweep as
``test_runtime_backends.py`` on the serial backend and on a 2-worker
local-loopback :class:`~repro.runtime.DistributedBackend` (auto-spawned
``repro worker`` subprocesses speaking the JSON-lines protocol),
verifies the predictions are bit-identical, and records
``benchmarks/results/BENCH_distributed.json`` (``REPRO_BENCH_RECORD=1``).

Two topology-appropriate assertions, matching the acceptance criteria:
on a host with ≥2 CPUs the 2-worker sweep must be ≥1.5× serial; on a
1-CPU host real parallel speedup is impossible, so instead the wire
protocol must cost ≤35% over serial at ``workers=1`` — i.e. shipping
pickled fit-score tasks over loopback sockets stays cheap relative to
the fits themselves. The sweep itself is ~0.5 s, so the 1-CPU margin is
tens of milliseconds of absolute budget; it is deliberately loose
enough to survive scheduler noise on a shared single core (typical
measured overhead is ~4-10%) while still catching a wire-protocol
regression that doubles the round-trip cost.
"""

import json
import os
import time

import numpy as np
from _helpers import record

from repro.cache import clear_shared_cache
from repro.core import CometConfig, CometEstimator
from repro.datasets import load_dataset, pollute
from repro.errors import MissingValues
from repro.ml import make_classifier
from repro.runtime import DistributedBackend, SerialBackend


def _sweep(backend, polluted, candidates):
    """One full E1+E2 candidate sweep on ``backend``; returns predictions.

    MLP learner for the same reason as the backend bench: per-fit cost
    (~40 ms) dominates dispatch, so the numbers measure the topology,
    not pool mechanics.
    """
    estimator = CometEstimator(
        make_classifier("mlp"),
        label="label",
        config=CometConfig(step=0.04, n_pollution_steps=2, n_combinations=2),
        rng=5,
    )
    return estimator.estimate_many(polluted.train, polluted.test, candidates, 0.8, backend=backend)


def _timed(backend, polluted, candidates, repeats=5):
    """Best-of-``repeats`` wall clock for one sweep, plus the predictions.

    The first repeat amortizes worker registration on the distributed
    backend; best-of then measures the steady state every topology
    reaches in a real session.
    """
    best = float("inf")
    predictions = None
    clear_shared_cache()
    with backend:
        for __ in range(repeats):
            start = time.perf_counter()
            predictions = _sweep(backend, polluted, candidates)
            best = min(best, time.perf_counter() - start)
    return best, predictions


def test_estimator_sweep_distributed(benchmark):
    dataset = load_dataset("eeg", n_rows=240, rng=0)
    polluted = pollute(dataset, error_types=["missing"], rng=1)
    candidates = [(f, MissingValues()) for f in polluted.feature_names[:6]]
    n_tasks = len(candidates) * 2 * 2  # candidates × combinations × steps
    multi_cpu = (os.cpu_count() or 1) >= 2

    def run():
        serial_s, serial_preds = _timed(SerialBackend(), polluted, candidates)
        # jobs=1: one remote worker — isolates pure wire/pickle overhead.
        one_s, one_preds = _timed(
            DistributedBackend(1), polluted, candidates
        )
        two_s, two_preds = _timed(
            DistributedBackend(2), polluted, candidates
        )
        results = {
            "workload": "estimate_many: 6 candidates x 2 combinations x 2 steps (eeg/mlp)",
            "n_tasks": n_tasks,
            "topology": "loopback listener + auto-spawned `repro worker` subprocesses",
            "cpu_count": os.cpu_count(),
            "serial_s": serial_s,
            "distributed_1w_s": one_s,
            "distributed_2w_s": two_s,
            "overhead_1w": one_s / serial_s - 1.0,
            "speedup_2w": serial_s / two_s,
            "identical": all(
                s.predicted_f1 == a.predicted_f1 == b.predicted_f1
                and np.array_equal(s.scores, a.scores)
                and np.array_equal(s.scores, b.scores)
                for s, a, b in zip(serial_preds, one_preds, two_preds)
            ),
        }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    record("BENCH_distributed.json", json.dumps(results, indent=2) + "\n")
    print(f"\n{json.dumps(results, indent=2)}")

    assert results["identical"], "distributed sweep diverged from serial"
    if multi_cpu:
        assert results["speedup_2w"] >= 1.5, (
            f"2-worker distributed sweep only {results['speedup_2w']:.2f}x "
            f"serial on a {os.cpu_count()}-CPU host"
        )
    else:
        assert results["overhead_1w"] <= 0.35, (
            f"loopback wire overhead {results['overhead_1w']:.1%} at "
            "workers=1 exceeds the 35% budget"
        )
