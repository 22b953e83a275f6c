"""Configuration runner.

A *configuration* (§4) is a unique combination of dataset, ML algorithm,
and error type(s); each configuration is evaluated across several sampled
pre-pollution settings. ``run_configuration`` executes a set of methods
(COMET plus baselines) on identical polluted datasets so their traces are
directly comparable.

Settings are independent by construction — every per-setting run derives
its dataset and method RNG from explicit ``(seed, setting, repeat)``
arithmetic, never from shared generator state — so ``run_configuration``
and ``run_configurations`` can fan the per-setting work out through a
``repro.runtime`` backend and still return exactly what a sequential run
returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines import (
    ActiveClean,
    CometLight,
    FeatureImportanceCleaner,
    OracleCleaner,
    RandomCleaner,
)
from repro.cleaning import paper_cost_model, uniform_cost_model
from repro.core import Comet, CometConfig
from repro.core.trace import CleaningTrace
from repro.datasets import load_cleanml, load_dataset, pollute
from repro.errors.prepollution import PollutedDataset
from repro.runtime import ExecutionBackend, make_backend

__all__ = [
    "Configuration",
    "METHOD_NAMES",
    "build_polluted",
    "run_method",
    "run_configuration",
    "run_configurations",
]

METHOD_NAMES = ("comet", "rr", "fir", "cl", "ac", "oracle")


@dataclass
class Configuration:
    """One experimental scenario (dataset × algorithm × error types).

    Attributes
    ----------
    dataset:
        Dataset registry name (or CleanML name with ``cleanml=True``).
    algorithm:
        ML algorithm registry name.
    error_types:
        Error type names; one entry = single-error scenario.
    n_rows:
        Scaled-down row count for tractable runs (``None`` = Table 1 size).
    budget:
        Cleaning budget in cost units (50 in the paper).
    step:
        Cleaning/pollution step fraction (1 % in the paper).
    cost_model:
        ``"uniform"`` (single-error scenario) or ``"paper"`` (multi-error
        scenario with diverse cost functions).
    cleanml:
        Load the dataset as a fixed CleanML dirty/clean pair instead of
        sampling a pre-pollution setting.
    rr_repeats:
        Random-baseline repetitions averaged per setting (5 in §4.5).
    backend:
        Execution backend name for COMET's estimation sweep
        (``"serial"``, ``"process"`` for this host's cores, or
        ``"distributed"`` for the remote workers named in
        ``REPRO_DISTRIBUTED_CONNECT``).
    jobs:
        Worker count for the backend; ``1`` falls back to serial.
    """

    dataset: str
    algorithm: str = "svm"
    error_types: tuple = ("missing",)
    n_rows: int | None = None
    budget: float = 50.0
    step: float = 0.01
    cost_model: str = "uniform"
    cleanml: bool = False
    rr_repeats: int = 5
    comet_config: CometConfig | None = None
    pollution_scale: float = 0.15
    max_level: float = 0.4
    backend: str = "serial"
    jobs: int = 1

    def make_cost_model(self):
        """Instantiate the configured cost model."""
        if self.cost_model == "paper":
            return paper_cost_model()
        if self.cost_model == "uniform":
            return uniform_cost_model()
        raise ValueError(f"unknown cost model {self.cost_model!r}")

    def make_comet_config(self) -> CometConfig:
        """Instantiate the configured CometConfig."""
        if self.comet_config is not None:
            return self.comet_config
        return CometConfig(step=self.step)


def build_polluted(config: Configuration, seed: int) -> PollutedDataset:
    """Materialize the polluted dataset of one pre-pollution setting."""
    if config.cleanml:
        return load_cleanml(config.dataset, n_rows=config.n_rows, rng=seed)
    dataset = load_dataset(config.dataset, n_rows=config.n_rows)
    return pollute(
        dataset,
        error_types=list(config.error_types),
        scale=config.pollution_scale,
        max_level=config.max_level,
        step=config.step,
        rng=seed,
    )


def run_method(
    method: str,
    polluted: PollutedDataset,
    config: Configuration,
    rng: np.random.Generator | int | None = None,
) -> CleaningTrace:
    """Run one cleaning method on one polluted dataset."""
    rng = np.random.default_rng(rng)
    common = dict(
        error_types=list(config.error_types),
        budget=config.budget,
        cost_model=config.make_cost_model(),
    )
    if method == "comet":
        with Comet(
            polluted,
            algorithm=config.algorithm,
            config=config.make_comet_config(),
            rng=rng,
            backend=config.backend,
            jobs=config.jobs,
            **common,
        ) as comet:
            return comet.run()
    if method == "cl":
        return CometLight(
            polluted,
            algorithm=config.algorithm,
            step=config.step,
            config=config.make_comet_config(),
            rng=rng,
            **common,
        ).run()
    strategy_cls = {
        "rr": RandomCleaner,
        "fir": FeatureImportanceCleaner,
        "ac": ActiveClean,
        "oracle": OracleCleaner,
    }.get(method)
    if strategy_cls is None:
        raise ValueError(f"unknown method {method!r}; choose from {METHOD_NAMES}")
    return strategy_cls(
        polluted, algorithm=config.algorithm, step=config.step, rng=rng, **common
    ).run()


@dataclass
class _SettingTask:
    """One pre-pollution setting's full method sweep (picklable)."""

    config: Configuration
    methods: tuple
    setting: int
    seed: int


def _run_setting(task: _SettingTask) -> dict[str, list[CleaningTrace]]:
    """Build one setting's polluted dataset and run every method on it.

    Module-level so process backends can pickle it. The methods share one
    polluted dataset and run in declaration order, exactly as the
    sequential loop did.
    """
    polluted = build_polluted(task.config, seed=task.seed + task.setting)
    results: dict[str, list[CleaningTrace]] = {m: [] for m in task.methods}
    for method in task.methods:
        repeats = task.config.rr_repeats if method == "rr" else 1
        for r in range(repeats):
            results[method].append(
                run_method(
                    method,
                    polluted,
                    task.config,
                    rng=task.seed * 1000 + task.setting * 10 + r,
                )
            )
    return results


def run_configuration(
    config: Configuration,
    methods=("comet", "rr"),
    n_settings: int = 1,
    seed: int = 0,
    backend: str | ExecutionBackend = "serial",
    jobs: int = 1,
) -> dict[str, list[CleaningTrace]]:
    """Run each method across ``n_settings`` pre-pollution settings.

    The random baseline is repeated ``config.rr_repeats`` times per setting
    (its traces are appended; downstream averaging treats them as one
    setting each, matching the paper's averaged RR curves).

    ``backend``/``jobs`` parallelize *across settings* (each setting task
    seeds itself from ``seed + setting``, so results match a serial run
    trace-for-trace). This outer fan-out composes with the per-session
    ``config.backend``/``config.jobs`` knob — combining both multiplies
    worker counts, so enable only one level for CPU-bound runs.
    """
    return run_configurations(
        [config], methods, n_settings, seed, backend=backend, jobs=jobs
    )[0]


def run_configurations(
    configs: list[Configuration],
    methods=("comet", "rr"),
    n_settings: int = 1,
    seed: int = 0,
    backend: str | ExecutionBackend = "serial",
    jobs: int = 1,
) -> list[dict[str, list[CleaningTrace]]]:
    """Run several configurations, fanning (config, setting) tasks out.

    The work unit is one setting of one configuration, so a figure-style
    grid of many small configurations saturates the backend even when
    each configuration has a single setting. Returns one result dict per
    configuration, in input order, identical to serial execution.
    """
    tasks = [
        _SettingTask(config, tuple(methods), s, seed)
        for config in configs
        for s in range(n_settings)
    ]
    with make_backend(backend, jobs) as pool:
        per_task = pool.map(_run_setting, tasks)
    out: list[dict[str, list[CleaningTrace]]] = []
    for i in range(len(configs)):
        results: dict[str, list[CleaningTrace]] = {m: [] for m in methods}
        for setting_result in per_task[i * n_settings : (i + 1) * n_settings]:
            for method in methods:
                results[method].extend(setting_result[method])
        out.append(results)
    return out
