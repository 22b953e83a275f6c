"""Micro-benchmark: one Estimator E1 sweep, serial vs pooled backends.

Times the exact hot path the execution engine parallelizes — a full
``estimate_many`` candidate sweep — on the serial and thread backends
(plus the process backend when the host has ≥2 CPUs), verifies the
results are bit-identical, and records the wall-clock numbers in
``benchmarks/results/BENCH_estimator_sweep.json`` (``REPRO_BENCH_RECORD=1``)
so runtime regressions are visible across PRs.
"""

import json
import os
import time

import numpy as np
from _helpers import record

from repro.core import CometConfig, CometEstimator
from repro.datasets import load_dataset, pollute
from repro.errors import MissingValues
from repro.ml import make_classifier
from repro.runtime import ProcessBackend, SerialBackend, ThreadBackend

WORKERS = 2


def _sweep(backend, polluted, candidates):
    """One full E1+E2 candidate sweep on ``backend``; returns predictions.

    Uses the MLP learner: its per-fit cost (~40 ms) is large against the
    dispatch overhead, so backend comparisons measure parallelism, not
    pool mechanics.
    """
    estimator = CometEstimator(
        make_classifier("mlp"),
        label="label",
        config=CometConfig(step=0.04, n_pollution_steps=2, n_combinations=2),
        rng=5,
    )
    return estimator.estimate_many(polluted.train, polluted.test, candidates, 0.8, backend=backend)


def _timed(backend, polluted, candidates, repeats=3):
    """Best-of-``repeats`` wall clock for one sweep, plus the predictions.

    Best-of-``repeats`` leaves out pool start-up (the first repeat pays
    for worker spawn on the process backend), so the comparison is
    like-for-like.
    """
    best = float("inf")
    predictions = None
    with backend:
        for __ in range(repeats):
            start = time.perf_counter()
            predictions = _sweep(backend, polluted, candidates)
            best = min(best, time.perf_counter() - start)
    return best, predictions


def test_estimator_sweep_backends(benchmark):
    dataset = load_dataset("eeg", n_rows=240, rng=0)
    polluted = pollute(dataset, error_types=["missing"], rng=1)
    candidates = [(f, MissingValues()) for f in polluted.feature_names[:6]]
    n_tasks = len(candidates) * 2 * 2  # candidates × combinations × steps

    def run():
        serial_s, serial_preds = _timed(SerialBackend(), polluted, candidates)
        thread_s, thread_preds = _timed(ThreadBackend(WORKERS), polluted, candidates)
        results = {
            "workload": "estimate_many: 6 candidates x 2 combinations x 2 steps (eeg/mlp)",
            "n_tasks": n_tasks,
            "workers": WORKERS,
            "cpu_count": os.cpu_count(),
            "serial_s": serial_s,
            "thread_s": thread_s,
            "thread_speedup": serial_s / thread_s,
        }
        identical = all(
            s.predicted_f1 == t.predicted_f1 and np.array_equal(s.scores, t.scores)
            for s, t in zip(serial_preds, thread_preds)
        )
        if (os.cpu_count() or 1) >= 2:
            process_s, process_preds = _timed(
                ProcessBackend(WORKERS), polluted, candidates
            )
            results["process_s"] = process_s
            results["process_speedup"] = serial_s / process_s
            identical = identical and all(
                s.predicted_f1 == p.predicted_f1
                for s, p in zip(serial_preds, process_preds)
            )
        results["identical"] = identical
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    record("BENCH_estimator_sweep.json", json.dumps(results, indent=2) + "\n")
    print(f"\n{json.dumps(results, indent=2)}")

    assert results["identical"], "backends disagreed on the sweep results"
    # Thread dispatch must not meaningfully slow the sweep down even on a
    # single-CPU host (pool overhead is bounded); with ≥2 CPUs the process
    # backend must show a measurable speedup over serial. The margins are
    # deliberately loose — shared CI runners are noisy, and the JSON
    # artifact carries the precise numbers.
    assert results["thread_s"] <= results["serial_s"] * 1.5
    if (os.cpu_count() or 1) >= 2:
        assert results["process_speedup"] > 1.05
