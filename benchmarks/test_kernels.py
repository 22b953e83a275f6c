"""Micro-benchmark: vectorized columnar kernels vs the reference kernels.

Times the pollute → detect → repair hot path at 2k and 200k rows under
both kernel modes and records ``benchmarks/results/BENCH_kernels.json``
(``REPRO_BENCH_RECORD=1``).
The equivalence suite (``tests/test_kernels_equivalence.py``) proves the
two modes bit-identical; this benchmark proves the rewrite is *worth it*:
the combined per-iteration cost at 200k rows must drop at least 5×.

Three phases, mirroring one COMET iteration's inner work:

* *pollute* — all five injectors corrupting one step's worth (1 %) of
  cells, timed per ``corrupt`` call;
* *detect* — the four detectors, including FD discovery from a cold
  pair-stats cache (the reference path is the original zip-loop code);
* *repair* — mean/median/mode/conditional-mode imputation over one
  step's worth of flagged cells.

A fourth section measures the token-keyed FD pair-stats cache: a warm
``discover_fds`` sweep must be far cheaper than a cold one.
"""

import json
import timeit

import numpy as np
from _helpers import record

from repro.detect import (
    CategoricalShiftDetector,
    ConditionalModeRepairer,
    MeanRepairer,
    MedianRepairer,
    MissingValueDetector,
    ModeRepairer,
    NoiseDetector,
    ScalingDetector,
    clear_fd_cache,
    discover_fds,
    fd_cache_stats,
)
from repro.errors import (
    CategoricalShift,
    GaussianNoise,
    InconsistentRepresentation,
    MissingValues,
    Scaling,
)
from repro.frame import DataFrame
from repro.kernels import use_kernels

SMALL_ROWS, LARGE_ROWS = 2_000, 200_000


def _build_frame(n_rows: int) -> DataFrame:
    """A frame shaped like a polluted dataset mid-session: an FD-bearing
    categorical pair with shift/missing damage and a numeric column with
    scaling outliers, noise, and missing cells."""
    rng = np.random.default_rng(0)
    group = rng.choice([f"g{i}" for i in range(8)], n_rows).astype(object)
    dep = np.array(["d_" + g for g in group], dtype=object)
    dep[rng.choice(n_rows, n_rows // 50, replace=False)] = "d_g0"
    dep[rng.choice(n_rows, n_rows // 100, replace=False)] = None
    num = rng.normal(40.0, 4.0, n_rows)
    num[rng.choice(n_rows, n_rows // 50, replace=False)] *= 100.0
    num[rng.choice(n_rows, n_rows // 100, replace=False)] = np.nan
    return DataFrame({"dep": dep, "group": group, "num": num})


def _best_call_s(fn, number, repeat=3):
    """Per-call seconds, best of ``repeat`` timed loops (noise floor)."""
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number


def _measure_mode(mode: str, n_rows: int) -> dict:
    frame = _build_frame(n_rows)
    n_cells = max(1, n_rows // 100)
    pick = np.random.default_rng(42)
    rows = np.sort(pick.choice(n_rows, n_cells, replace=False))
    number = 10 if n_rows <= SMALL_ROWS else 1

    injectors = [
        (MissingValues(), "num"),
        (GaussianNoise(), "num"),
        (Scaling(), "num"),
        (CategoricalShift(), "dep"),
        (InconsistentRepresentation(), "dep"),
    ]
    detectors = [
        (MissingValueDetector(), "num"),
        (ScalingDetector(), "num"),
        (NoiseDetector(), "num"),
        (CategoricalShiftDetector(min_confidence=0.5), "dep"),
    ]
    repairers = [
        (MeanRepairer(), "num"),
        (MedianRepairer(), "num"),
        (ModeRepairer(), "dep"),
        (ConditionalModeRepairer(condition_on="group"), "dep"),
    ]

    out = {"pollute_s": 0.0, "detect_s": 0.0, "repair_s": 0.0}
    with use_kernels(mode):
        for error, feature in injectors:
            column = frame[feature]
            out["pollute_s"] += _best_call_s(
                lambda: error.corrupt(column, rows, np.random.default_rng(1)),
                number=number,
            )
        for detector, feature in detectors:
            def run_detect():
                clear_fd_cache()  # cold FD stats: time the real work
                return detector.detect(frame, feature)

            out["detect_s"] += _best_call_s(run_detect, number=number)
        for repairer, feature in repairers:
            def run_repair():
                clear_fd_cache()
                return repairer.repair(frame, feature, rows)

            out["repair_s"] += _best_call_s(run_repair, number=number)
    clear_fd_cache()
    out["combined_s"] = out["pollute_s"] + out["detect_s"] + out["repair_s"]
    return out


def _measure_fd_cache(n_rows: int) -> dict:
    frame = _build_frame(n_rows)

    def cold():
        clear_fd_cache()
        return discover_fds(frame, min_confidence=0.5)

    cold_s = _best_call_s(cold, number=1)
    clear_fd_cache()
    fd_cache_stats(reset=True)
    discover_fds(frame, min_confidence=0.5)  # prime the cache
    warm_s = _best_call_s(lambda: discover_fds(frame, min_confidence=0.5), number=5)
    stats = fd_cache_stats()
    clear_fd_cache()
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_over_warm": cold_s / warm_s,
        "hits": stats["hits"],
        "misses": stats["misses"],
    }


def test_kernels(benchmark):
    def run():
        results = {}
        for label, n_rows in (("small_2k", SMALL_ROWS), ("large_200k", LARGE_ROWS)):
            per_mode = {
                mode: _measure_mode(mode, n_rows)
                for mode in ("reference", "vectorized")
            }
            per_mode["speedup"] = {
                phase: per_mode["reference"][f"{phase}_s"]
                / per_mode["vectorized"][f"{phase}_s"]
                for phase in ("pollute", "detect", "repair", "combined")
            }
            results[label] = per_mode
        results["fd_cache_200k"] = _measure_fd_cache(LARGE_ROWS)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    record("BENCH_kernels.json", json.dumps(results, indent=2) + "\n")
    print(f"\n{json.dumps(results, indent=2)}")

    # The acceptance bar: one combined pollute+detect+repair iteration
    # over a 200k-row frame must be at least 5× cheaper vectorized.
    assert results["large_200k"]["speedup"]["combined"] >= 5.0
    # The win must come from doing less work per row, so it grows with
    # frame size — the large-frame speedup dominates the small-frame one.
    assert (
        results["large_200k"]["speedup"]["combined"]
        >= results["small_2k"]["speedup"]["combined"] * 0.5
    )
    # A warm token-keyed FD cache skips the factorized pass entirely.
    assert results["fd_cache_200k"]["cold_over_warm"] > 5.0
