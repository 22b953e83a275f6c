"""COMET (Figure 2) as one constructor call.

``Comet`` *is* a :class:`~repro.session.CleaningSession` built from the
paper's parameters; its run state lives in ``comet.state``, and ``run``,
``step``, ``recommend``, ``save``/``load`` are the engine's.
"""

from __future__ import annotations

import numpy as np

from repro.cleaning import CostModel
from repro.core.config import CometConfig
from repro.errors.prepollution import PollutedDataset
from repro.ml.base import BaseEstimator
from repro.runtime import ExecutionBackend
from repro.session.engine import CleaningSession, new_state

__all__ = ["Comet"]


class Comet(CleaningSession):
    """Cost-aware step-by-step cleaning recommendations.

    Parameters
    ----------
    dataset:
        The dirty dataset (with ground truth for the simulated Cleaner).
        The session works on a copy; the input is never mutated.
    algorithm:
        Registry name (``"svm"``, ``"knn"``, ``"mlp"``, ``"gb"``, …) or an
        unfitted estimator instance.
    error_types:
        Error types COMET should consider (names or instances). One for the
        single-error scenario, several for the multi-error scenario.
    budget:
        Total cleaning budget in cost units (50 in the paper).
    cost_model:
        Cleaning costs per error type; defaults to the uniform model.
    task:
        ``"classification"`` (the paper's setting, F1) or ``"regression"``
        (R² — the §6 extension; pass a regressor instance as ``algorithm``).
    cleaner:
        The Cleaner performing the actual cleaning. Defaults to the
        ground-truth simulation used in the paper's experiments; pass a
        :class:`~repro.detect.AlgorithmicCleaner` for a fully automatic
        detect-and-impute pipeline.
    backend:
        Execution backend for the Estimator's E1 sweep: a registry name
        (``"serial"``, ``"process"`` for this host's cores, or
        ``"distributed"`` for the remote workers named in
        ``REPRO_DISTRIBUTED_CONNECT``) or an
        :class:`~repro.runtime.ExecutionBackend` instance. Traces are
        bit-identical across backends for a fixed ``rng`` (the
        ``repro.runtime`` determinism contract); the backend is purely a
        throughput knob. :meth:`close` shuts it down, injected instances
        included.
    jobs:
        Worker count for pooled backends; ``1`` falls back to serial.
    """

    def __init__(
        self,
        dataset: PollutedDataset,
        algorithm: str | BaseEstimator = "svm",
        error_types=("missing",),
        budget: float = 50.0,
        cost_model: CostModel | None = None,
        config: CometConfig | None = None,
        rng: np.random.Generator | int | None = None,
        task: str = "classification",
        cleaner=None,
        backend: str | ExecutionBackend = "serial",
        jobs: int = 1,
    ) -> None:
        super().__init__(
            new_state(
                dataset, algorithm, error_types, budget, cost_model, config,
                rng, task, cleaner,
            ),
            backend=backend,
            jobs=jobs,
            own_backend=True,
        )

    @classmethod
    def load(
        cls,
        path,
        *,
        backend: str | ExecutionBackend = "serial",
        jobs: int = 1,
        migrate: bool = False,
    ) -> "Comet":
        """Resume a checkpoint (from ``Comet`` or any ``CleaningSession``).

        Like the constructor, the resumed session owns its backend.
        ``migrate=True`` upgrades old-but-migratable checkpoint versions
        in memory instead of raising ``CheckpointVersionError``.
        """
        return super().load(
            path, backend=backend, jobs=jobs, own_backend=True, migrate=migrate
        )
