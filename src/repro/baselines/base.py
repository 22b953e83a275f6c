"""Shared machinery for the pick-and-clean baselines (RR, FIR, AC, Oracle).

Every such baseline owns a working copy of the dataset, a budget, a cost
model, and the same simulated Cleaner COMET uses, and emits the same
:class:`~repro.core.trace.CleaningTrace` so the experiments can compare
F1-per-budget curves directly. CL (:mod:`repro.baselines.comet_light`)
runs on the session engine instead.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.cleaning import Budget, CostModel, GroundTruthCleaner, uniform_cost_model
from repro.core.trace import CleaningTrace, IterationRecord
from repro.errors.prepollution import PollutedDataset
from repro.ml.base import BaseEstimator
from repro.ml.pipeline import TabularModel
from repro.session.engine import mark_if_clean, resolve_setup

__all__ = ["BaseCleaningStrategy"]


class BaseCleaningStrategy(abc.ABC):
    """Budgeted feature-wise cleaning loop with a pluggable selection rule."""

    def __init__(
        self,
        dataset: PollutedDataset,
        algorithm: str | BaseEstimator = "svm",
        error_types=("missing",),
        budget: float = 50.0,
        cost_model: CostModel | None = None,
        step: float = 0.01,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.dataset = dataset.copy()
        self._rng = np.random.default_rng(rng)
        self.algorithm_name, self.model, self.errors, self._active = resolve_setup(
            self.dataset, algorithm, error_types
        )
        self.budget = Budget(budget)
        self.cost_model = (cost_model or uniform_cost_model()).copy()
        self.cleaner = GroundTruthCleaner(step=step, rng=self._rng.integers(2**63))
        self._iteration = 0
        self._current_f1: float | None = None

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def select_pair(self, baseline_f1: float) -> tuple[str, str] | None:
        """Choose the next (feature, error) to clean; ``None`` stops."""

    def run(self) -> CleaningTrace:
        """Iterate until the budget is spent or everything is clean."""
        trace = CleaningTrace(initial_f1=self.measure_f1())
        while True:
            record = self.step()
            if record is None:
                break
            trace.append(record)
        return trace

    def step(self) -> IterationRecord | None:
        """Run one cleaning iteration; ``None`` when the run is over."""
        if not self._active or self.budget.exhausted():
            return None
        baseline = self.measure_f1()
        pair = self.select_pair(baseline)
        if pair is None:
            return None
        cost = self.cost_model.next_cost(*pair)
        if not self.budget.can_afford(cost):
            return None
        self._iteration += 1
        return self.clean_pair(pair, baseline)

    def clean_pair(
        self, pair: tuple[str, str], baseline: float
    ) -> IterationRecord:
        """Charge, clean one step, measure, and mark clean when done."""
        feature, error = pair
        cost = self.cost_model.record_step(feature, error)
        self.budget.charge(cost)
        self.cleaner.clean_step(self.dataset, feature, error)
        f1_after = self.measure_f1(refresh=True)
        mark_if_clean(self.dataset, self._active, pair)
        return IterationRecord(
            iteration=self._iteration,
            feature=feature,
            error=error,
            cost=cost,
            budget_spent=self.budget.spent,
            f1_before=baseline,
            f1_after=f1_after,
        )

    # ------------------------------------------------------------------ #
    def measure_f1(self, refresh: bool = False) -> float:
        """Current model F1 on the test split (cached)."""
        if refresh or self._current_f1 is None:
            model = TabularModel(self.model, label=self.dataset.label)
            self._current_f1 = model.fit_score(self.dataset.train, self.dataset.test)
        return self._current_f1

    def open_candidates(self) -> list[tuple[str, str]]:
        """(feature, error) pairs not yet marked clean."""
        return list(self._active)

    def affordable_candidates(self) -> list[tuple[str, str]]:
        """Open candidates whose next step fits the budget."""
        return [
            pair
            for pair in self._active
            if self.budget.can_afford(self.cost_model.next_cost(*pair))
        ]
