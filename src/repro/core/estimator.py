"""The Estimator (§3.2): measure pollution effects, predict cleaning gains.

Step 1 (``E1``) measures prediction accuracy on incrementally polluted data
states produced by the Polluter. Step 2 (``E2``) fits a Bayesian regression
to the (pollution level → F1) series and extrapolates one *cleaning* step
backwards (level ``−step``), yielding the predicted post-cleaning F1 and
its uncertainty. After each realized cleaning, the observed discrepancy
feeds back into later predictions for the same candidate (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.bayes import BayesianLinearRegression, polynomial_design
from repro.core.config import CometConfig
from repro.errors.base import ErrorType
from repro.errors.polluter import Polluter
from repro.frame import DataFrame
from repro.ml.base import BaseEstimator
from repro.ml.pipeline import Featurized, TabularModel
from repro.runtime import (
    ExecutionBackend,
    FitScoreTask,
    SerialBackend,
    ThreadBackend,
    run_fit_score_task,
)

__all__ = ["CometEstimator", "Prediction"]


@dataclass
class _CandidateTasks:
    """E1 work for one (feature, error) candidate: tasks + bookkeeping."""

    feature: str
    error: ErrorType
    #: Fit-score tasks, one per (combination, pollution step).
    tasks: list[FitScoreTask]
    #: Pollution level of each task, aligned with ``tasks``.
    levels: list[float]
    #: Train rows the Polluter touched (union over combinations).
    polluted_rows: np.ndarray


def _assemble_curve(
    group: _CandidateTasks, fit_scores: list, baseline_f1: float
) -> tuple[np.ndarray, np.ndarray]:
    """(levels, scores) for one candidate, with level 0 carrying the
    baseline — the single place the E1 curve is put together, so serial
    and batched dispatch can never drift apart."""
    levels = np.asarray([0.0] + group.levels)
    scores = np.asarray([baseline_f1] + list(fit_scores))
    return levels, scores


@dataclass
class Prediction:
    """E2 output for one (feature, error) candidate."""

    feature: str
    error: str
    #: Predicted F1 after one cleaning step (discrepancy-adjusted).
    predicted_f1: float
    #: Uncertainty: width of the credible interval of the prediction.
    uncertainty: float
    #: Measured (level, F1) points backing the prediction.
    levels: np.ndarray
    scores: np.ndarray
    #: Train rows the Polluter touched — the Cleaner's priority cells.
    polluted_rows: np.ndarray


class CometEstimator:
    """Measures pollution effects and predicts post-cleaning accuracy."""

    def __init__(
        self,
        estimator: BaseEstimator,
        label: str,
        config: CometConfig | None = None,
        rng: np.random.Generator | int | None = None,
        task: str = "classification",
        history: dict[tuple[str, str], list[float]] | None = None,
    ) -> None:
        self.estimator = estimator
        self.label = label
        self.config = config or CometConfig()
        self.task = task
        self._rng = np.random.default_rng(rng)
        #: (feature, error) → list of observed (actual − predicted) F1 gaps.
        #: ``history`` is adopted *by reference*, so a caller-owned dict
        #: (e.g. a checkpointable ``SessionState``) tracks every update.
        self._discrepancies: dict[tuple[str, str], list[float]] = (
            history if history is not None else {}
        )

    # ------------------------------------------------------------------ #
    # E1: pollution effect measurement
    # ------------------------------------------------------------------ #
    def measure_baseline(self, train: DataFrame, test: DataFrame) -> float:
        """F1 of the model on the current (unmodified) data state."""
        model = TabularModel(self.estimator, label=self.label, task=self.task)
        return model.fit_score(train, test)

    def build_candidate_tasks(
        self,
        train: DataFrame,
        test: DataFrame,
        feature: str,
        error: ErrorType,
        base: Featurized | None = None,
    ) -> _CandidateTasks:
        """Materialize one candidate's E1 sweep as picklable fit-score tasks.

        All randomness happens here, in the calling thread: the per-
        combination Polluter streams are spawned from the Estimator's RNG
        (independent child streams for the train and test split, so the
        splits are polluted separately at the same levels without
        leakage, per §3.1) and every polluted data state is produced up
        front. The returned tasks are pure fit-and-score closures over
        frozen frames — a backend may run them in any order or process.

        The polluted states are copy-on-write: each differs from the
        base frame in one column and *shares* the rest, identity tokens
        and cached integer codes included. Given ``base``, the
        featurization of ``(train, test)``, every task copies the shared
        columns from it and encodes only the polluted one.
        """
        cfg = self.config
        tasks: list[FitScoreTask] = []
        levels: list[float] = []
        touched: list[np.ndarray] = []
        for __ in range(cfg.n_combinations):
            train_rng, test_rng = self._rng.spawn(2)
            train_polluter = Polluter(error, step=cfg.step, rng=train_rng)
            test_polluter = Polluter(error, step=cfg.step, rng=test_rng)
            train_states = train_polluter.incremental_states(
                train, feature, n_steps=cfg.n_pollution_steps
            )[0]
            test_states = test_polluter.incremental_states(
                test, feature, n_steps=cfg.n_pollution_steps
            )[0]
            for train_state, test_state in zip(train_states, test_states):
                tasks.append(
                    FitScoreTask(
                        estimator=self.estimator,
                        label=self.label,
                        train=train_state.frame,
                        test=test_state.frame,
                        task=self.task,
                        tag=(feature, error.name, train_state.level),
                        base=base,
                    )
                )
                levels.append(train_state.level)
            touched.append(train_states[-1].rows)
        polluted_rows = (
            np.unique(np.concatenate(touched)) if touched else np.array([], int)
        )
        return _CandidateTasks(feature, error, tasks, levels, polluted_rows)

    def measure_pollution_curve(
        self,
        train: DataFrame,
        test: DataFrame,
        feature: str,
        error: ErrorType,
        baseline_f1: float,
        backend: ExecutionBackend | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Measure F1 at increasing pollution of ``feature`` (E1).

        Train and test are polluted separately (same levels, independent
        cells) to avoid leakage, per §3.1. Returns (levels, scores,
        polluted train rows), where level 0 carries the baseline. The
        model fits run through ``backend`` when given, inline otherwise.
        """
        candidate = self.build_candidate_tasks(train, test, feature, error)
        if backend is not None:
            fit_scores = backend.map(run_fit_score_task, candidate.tasks)
        else:
            fit_scores = [run_fit_score_task(t) for t in candidate.tasks]
        levels, scores = _assemble_curve(candidate, fit_scores, baseline_f1)
        return levels, scores, candidate.polluted_rows

    # ------------------------------------------------------------------ #
    # E2: predictive model construction
    # ------------------------------------------------------------------ #
    def predict_cleaning(
        self,
        feature: str,
        error: ErrorType,
        levels: np.ndarray,
        scores: np.ndarray,
        polluted_rows: np.ndarray,
    ) -> Prediction:
        """Fit the Bayesian regression and extrapolate to level ``−step``."""
        cfg = self.config
        design = polynomial_design(levels, degree=cfg.regression_degree)
        model = BayesianLinearRegression().fit(design, scores)
        probe = polynomial_design(np.array([-cfg.step]), degree=cfg.regression_degree)
        mean, lower, upper = model.credible_interval(probe, level=cfg.credible_level)
        predicted = float(mean[0])
        uncertainty = float(upper[0] - lower[0])
        if cfg.adjust_predictions:
            history = self._discrepancies.get((feature, error.name))
            if history:
                predicted += float(np.mean(history))
        return Prediction(
            feature=feature,
            error=error.name,
            predicted_f1=predicted,
            uncertainty=uncertainty,
            levels=levels,
            scores=scores,
            polluted_rows=polluted_rows,
        )

    def estimate(
        self,
        train: DataFrame,
        test: DataFrame,
        feature: str,
        error: ErrorType,
        baseline_f1: float,
        backend: ExecutionBackend | None = None,
    ) -> Prediction:
        """E1 followed by E2 for one candidate."""
        levels, scores, rows = self.measure_pollution_curve(
            train, test, feature, error, baseline_f1, backend=backend
        )
        return self.predict_cleaning(feature, error, levels, scores, rows)

    def estimate_many(
        self,
        train: DataFrame,
        test: DataFrame,
        candidates: list[tuple[str, ErrorType]],
        baseline_f1: float,
        backend: ExecutionBackend | None = None,
    ) -> list[Prediction]:
        """E1 + E2 for a whole candidate sweep in one batched dispatch.

        On the serial and thread backends, featurizes the base
        ``(train, test)`` state once; every task then copies the columns
        its polluted state shares with the base and encodes only the
        polluted one (byte-identical to encoding all). Pickled tasks drop
        the base, so for other backends none is built.

        Builds candidate task lists in candidate order (the same RNG
        draws a sequence of :meth:`estimate` calls would make). On a
        pooled backend the whole sweep is materialized and dispatched as
        one flat task list — peak memory holds every polluted state at
        once, the price of cross-candidate parallelism. Serially, each
        candidate's states are built, scored, and discarded in turn, so
        memory matches the pre-batching loop. Either way the RNG
        consumption and results are bit-identical; see ``repro.runtime``
        for the contract.
        """
        serial = backend is None or isinstance(backend, SerialBackend)
        base = None
        if serial or isinstance(backend, ThreadBackend):
            model = TabularModel(self.estimator, label=self.label, task=self.task)
            base = model.featurize(train, test)
        groups = (
            self.build_candidate_tasks(train, test, feature, error, base)
            for feature, error in candidates
        )
        if serial:
            scored = (
                (group, [run_fit_score_task(t) for t in group.tasks])
                for group in groups
            )
        else:
            groups = list(groups)
            flat = [task for group in groups for task in group.tasks]
            fit_scores = iter(backend.map(run_fit_score_task, flat))
            scored = (
                (group, list(islice(fit_scores, len(group.tasks))))
                for group in groups
            )
        predictions: list[Prediction] = []
        for group, chunk in scored:
            levels, scores = _assemble_curve(group, chunk, baseline_f1)
            predictions.append(
                self.predict_cleaning(
                    group.feature, group.error, levels, scores, group.polluted_rows
                )
            )
        return predictions

    # ------------------------------------------------------------------ #
    # discrepancy feedback (§3.3)
    # ------------------------------------------------------------------ #
    def record_outcome(self, prediction: Prediction, actual_f1: float) -> None:
        """Feed a realized post-cleaning F1 back into the predictive model.

        The Estimator adjusts even when the Recommender judged the cleaning
        inefficient and reverted it (§3.3).
        """
        key = (prediction.feature, prediction.error)
        self._discrepancies.setdefault(key, []).append(
            actual_f1 - prediction.predicted_f1
        )

    def discrepancy_history(self, feature: str, error: str) -> list[float]:
        """Observed (actual − predicted) gaps for the pair."""
        return list(self._discrepancies.get((feature, error), []))
