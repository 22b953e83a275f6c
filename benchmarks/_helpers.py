"""Shared machinery for the figure/table benchmarks.

Every benchmark regenerates one table or figure of the paper at laptop
scale: smaller row counts and budgets than the original cluster runs, but
the same workloads, methods, and reporting axes. Each run prints its
paper-style series. With ``REPRO_BENCH_RECORD=1`` it also records them
under ``benchmarks/results/`` (see :func:`record`); without it a run
leaves the tracked results untouched.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.experiments import (
    Configuration,
    f1_advantage_curves,
    format_series,
    run_configuration,
    run_configurations,
)

RESULTS_DIR = Path(__file__).parent / "results"

# Laptop-scale defaults (the paper: full Table 1 sizes, budget 50, 1 % step).
N_ROWS = 240
BUDGET = 16.0
STEP = 0.02
GRID = np.arange(0.0, BUDGET + 1.0)
RR_REPEATS = 2

# Figure suites fan their (configuration, setting) tasks out through a
# ``repro.runtime`` backend — results are trace-identical to serial runs
# (the determinism contract), so this is purely a throughput knob.
# Override with REPRO_BENCH_BACKEND=serial|thread|process and
# REPRO_BENCH_JOBS=<n>; the default uses the process pool on multi-core
# hosts and degrades to serial on single-core ones (``jobs<=1`` → serial).
BENCH_BACKEND = os.environ.get("REPRO_BENCH_BACKEND", "process")
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS") or 0) or min(
    os.cpu_count() or 1, 4
)

ERROR_NAMES = ("categorical", "noise", "missing", "scaling")
ERROR_LABELS = {
    "categorical": "Categorical Shift",
    "noise": "Gaussian Noise",
    "missing": "Missing Values",
    "scaling": "Scaling",
}
PREPOLLUTED_DATASETS = ("cmc", "churn", "eeg", "s-credit")
CLEANML_CASES = (("airbnb", "scaling"), ("credit", "scaling"), ("titanic", "missing"))


def comparison_config(
    dataset: str,
    algorithm: str,
    error_types,
    cost_model: str = "uniform",
    cleanml: bool = False,
    budget: float = BUDGET,
    n_rows: int = N_ROWS,
) -> Configuration:
    return Configuration(
        dataset=dataset,
        algorithm=algorithm,
        error_types=tuple(error_types),
        n_rows=n_rows,
        budget=budget,
        step=STEP,
        cost_model=cost_model,
        cleanml=cleanml,
        rr_repeats=RR_REPEATS,
    )


def advantage_lines(
    config: Configuration,
    methods,
    n_settings: int = 1,
    seed: int = 0,
    grid: np.ndarray | None = None,
) -> tuple[list[str], dict]:
    """Run a comparison and format COMET's advantage series per baseline.

    Settings fan out through the benchmark backend (see ``BENCH_BACKEND``);
    the returned traces equal a serial run's.
    """
    grid = GRID if grid is None else grid
    results = run_configuration(
        config,
        methods=("comet", *methods),
        n_settings=n_settings,
        seed=seed,
        backend=BENCH_BACKEND,
        jobs=BENCH_JOBS,
    )
    curves = f1_advantage_curves(results, grid)
    lines = [
        format_series(f"{config.dataset}/{config.algorithm} vs {m.upper()}", grid, c)
        for m, c in curves.items()
    ]
    return lines, {"results": results, "curves": curves}


def results_grid(
    configs: list[Configuration],
    methods,
    n_settings: int = 1,
    seed: int = 0,
) -> list[dict]:
    """Run a whole grid of configurations through one backend fan-out.

    The work unit is one (configuration, setting) pair, so figure-style
    grids of many small configurations saturate the pool even with a
    single setting each. Returns one method→traces dict per
    configuration, in input order, identical to serial execution.
    """
    return run_configurations(
        configs,
        methods=methods,
        n_settings=n_settings,
        seed=seed,
        backend=BENCH_BACKEND,
        jobs=BENCH_JOBS,
    )


def applicable_errors(dataset: str) -> tuple[str, ...]:
    """Error types applicable to a dataset (EEG has no categoricals)."""
    if dataset == "eeg":
        return tuple(e for e in ERROR_NAMES if e != "categorical")
    return ERROR_NAMES


def record(filename: str, text: str) -> None:
    """Write ``text`` to ``results/<filename>`` when ``REPRO_BENCH_RECORD=1``.

    The results are tracked files, many with wall-clock timings, so plain
    test runs only print and assert; recording is asked for explicitly.
    """
    if os.environ.get("REPRO_BENCH_RECORD") != "1":
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / filename).write_text(text)


def report(name: str, title: str, lines) -> str:
    """Echo a benchmark's series and record it as results/<name>.txt."""
    text = f"# {title}\n" + "\n".join(lines) + "\n"
    record(f"{name}.txt", text)
    print(f"\n{text}")
    return text
