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


@dataclass
class _Curve:
    """One candidate's measured E1 curve: what E2 needs, without the
    tasks (and their polluted frames) that measured it."""

    feature: str
    error: ErrorType
    #: Pollution levels, 0 first.
    levels: np.ndarray
    #: F1 at each level; level 0 carries the baseline.
    scores: np.ndarray
    #: Train rows the Polluter touched.
    polluted_rows: np.ndarray


def _assemble_curve(
    group: _CandidateTasks, fit_scores: list, baseline_f1: float
) -> _Curve:
    """One candidate's curve, with level 0 carrying the baseline."""
    levels = np.asarray([0.0] + group.levels)
    scores = np.asarray([baseline_f1] + list(fit_scores))
    return _Curve(group.feature, group.error, levels, scores, group.polluted_rows)


def _shares(tasks: list, n: int) -> list[list]:
    """Cut ``tasks`` into ``n`` contiguous shares (fewer for a short list,
    none for an empty one) whose sizes differ by at most one; they
    concatenate to ``tasks``."""
    n = min(n, len(tasks))
    return [tasks[len(tasks) * i // n : len(tasks) * (i + 1) // n] for i in range(n)]


def _run_share(share: list[FitScoreTask]) -> list[float]:
    """Score one share's tasks in order (module-level, so pooled
    backends pickle it by reference)."""
    return [run_fit_score_task(task) for task in share]


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
        model fits run through ``backend`` (inline when omitted).
        """
        curve = self._measure_curves(
            train, test, [(feature, error)], baseline_f1, backend
        )[0]
        return curve.levels, curve.scores, curve.polluted_rows

    def _measure_curves(
        self,
        train: DataFrame,
        test: DataFrame,
        candidates: list[tuple[str, ErrorType]],
        baseline_f1: float,
        backend: ExecutionBackend | None,
    ) -> list[_Curve]:
        """E1 for a candidate sweep: one base, one ``map`` of shares.

        Featurizes the base ``(train, test)`` once and builds every
        candidate's tasks against it, in candidate order (the RNG draws
        a sequence of single-candidate sweeps would make). The flat task
        list is cut into one contiguous share per backend worker and
        mapped once; a serial backend has one worker, so it scores the
        single share inline. Each share pickles the base and every
        shared column once, so a worker splices exactly as the parent
        would. The sweep holds every polluted state until it is scored.
        """
        backend = backend or SerialBackend()
        model = TabularModel(self.estimator, label=self.label, task=self.task)
        base = model.featurize(train, test)
        groups = [
            self.build_candidate_tasks(train, test, feature, error, base)
            for feature, error in candidates
        ]
        flat = [task for group in groups for task in group.tasks]
        shares = backend.map(_run_share, _shares(flat, backend.workers))
        scores = iter([score for share in shares for score in share])
        return [
            _assemble_curve(group, list(islice(scores, len(group.tasks))), baseline_f1)
            for group in groups
        ]

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
        curve = _Curve(feature, error, levels, scores, polluted_rows)
        return self._predict_curves([curve])[0]

    def _predict_curves(self, curves: list[_Curve]) -> list[Prediction]:
        """E2 for a sweep's curves: one stacked Bayesian fit, each curve
        byte-identical to a fit of its own."""
        if not curves:
            return []
        cfg = self.config
        designs = np.stack(
            [polynomial_design(c.levels, degree=cfg.regression_degree) for c in curves]
        )
        model = BayesianLinearRegression().fit(designs, np.stack([c.scores for c in curves]))
        probe = polynomial_design(np.array([-cfg.step]), degree=cfg.regression_degree)
        mean, lower, upper = model.credible_interval(
            np.broadcast_to(probe, (len(curves),) + probe.shape), level=cfg.credible_level
        )
        predictions = []
        for curve, m, lo, hi in zip(curves, mean[:, 0], lower[:, 0], upper[:, 0]):
            predicted = float(m)
            if cfg.adjust_predictions:
                history = self._discrepancies.get((curve.feature, curve.error.name))
                if history:
                    predicted += float(np.mean(history))
            predictions.append(
                Prediction(
                    feature=curve.feature,
                    error=curve.error.name,
                    predicted_f1=predicted,
                    uncertainty=float(hi - lo),
                    levels=curve.levels,
                    scores=curve.scores,
                    polluted_rows=curve.polluted_rows,
                )
            )
        return predictions

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
        """E1 + E2 for a whole candidate sweep.

        E1 runs as one dispatch over the backend's workers, every task
        splicing its polluted state from one base featurization; see
        :meth:`_measure_curves`. E2 then runs once for the sweep, one
        stacked Bayesian fit over every curve. RNG consumption and
        results are those of a sequence of :meth:`estimate` calls, on
        every backend; see ``repro.runtime`` for the contract.
        """
        curves = self._measure_curves(train, test, candidates, baseline_f1, backend)
        return self._predict_curves(curves)

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
