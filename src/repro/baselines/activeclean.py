"""AC: ActiveClean (Krishnan et al., VLDB 2016), adapted per §4.5/§5.3.

ActiveClean treats cleaning as stochastic gradient descent: records whose
loss gradients are largest are cleaned first. Following the paper's
adaptation of the authors' published code:

* the model is pre-trained on the records that are already clean (AC lacks
  gradient information before any cleaning);
* each iteration selects a cleaning-step-sized sample of dirty train
  records with probability proportional to their current gradient norms,
  cleans them **across all features**, and retrains;
* budget accounting is feature-wise: an iteration is charged the next-step
  cost of every (feature, error type) pair it touched — this is how
  record-wise cleaning "corrects different error types across multiple
  features during each cleaning step" and burns budget faster than COMET;
* the model is updated with a *stochastic gradient step* on each cleaned
  batch (decaying step size), not retrained from scratch — that is the
  published algorithm's defining mechanism and the source of the erratic
  F1 behaviour §5.3 reports;
* the reported F1 per step is that SGD-updated model's score on the test
  split;
* the test split is cleaned at the same rate (uniformly random records,
  since no gradients exist for unlabeled deployment data), keeping the
  train/test pollution symmetry of the experimental setup.

Only convex learners expose ``gradient_norms``/``sgd_step``: ``ac_svm``,
``lir``, ``lor``.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaseCleaningStrategy
from repro.core.trace import IterationRecord
from repro.ml.pipeline import TabularModel
from repro.session.engine import mark_if_clean

__all__ = ["ActiveClean"]

_CONVEX = {"ac_svm", "lir", "lor", "svm"}


class ActiveClean(BaseCleaningStrategy):
    """Gradient-guided record-wise cleaning."""

    def __init__(self, *args, learning_rate: float = 1.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not hasattr(self.model, "gradient_norms"):
            raise ValueError(
                "ActiveClean needs a convex learner with per-sample gradients "
                f"(one of {sorted(_CONVEX)}); got {self.algorithm_name!r}"
            )
        self.learning_rate = learning_rate
        self._fitted: TabularModel | None = None
        self._pretrain()

    def select_pair(self, baseline_f1: float):  # pragma: no cover - unused
        """Choose the next (feature, error) to clean; ``None`` stops."""
        raise NotImplementedError("ActiveClean overrides step() directly")

    def measure_f1(self, refresh: bool = False) -> float:
        """F1 of *ActiveClean's own* (SGD-updated) model on the test split."""
        if refresh or self._current_f1 is None:
            from repro.ml.metrics import f1_score

            y_true = self.dataset.test.label_array(self.dataset.label)
            pred = self._fitted.model_.predict(
                self._fitted.preprocessor_.transform(self.dataset.test)
            )
            self._current_f1 = f1_score(y_true, pred)
        return self._current_f1

    # ------------------------------------------------------------------ #
    def _pretrain(self) -> None:
        """Fit the initial model on the already-clean train records."""
        from repro.ml.preprocessing import TabularPreprocessor

        dirty_rows = self._dirty_rows(self.dataset.dirty_train)
        clean_rows = np.setdiff1d(np.arange(self.dataset.train.n_rows), dirty_rows)
        y = self.dataset.train.label_array(self.dataset.label)
        # The preprocessor must know the full frame (all categories, full
        # scaling statistics) even when the classifier only sees the clean
        # subset, so later transforms stay dimension-compatible; the model
        # reuses it pre-fit instead of refitting on the training subset.
        model = TabularModel(
            self.model,
            label=self.dataset.label,
            preprocessor=TabularPreprocessor(self.dataset.feature_names).fit(
                self.dataset.train
            ),
        )
        # Pre-training needs every class present; fall back to all records.
        if clean_rows.size >= 10 and len(np.unique(y[clean_rows])) == len(np.unique(y)):
            model.fit(self.dataset.train.take(clean_rows))
        else:
            model.fit(self.dataset.train)
        self._fitted = model

    @staticmethod
    def _dirty_rows(cells) -> np.ndarray:
        rows: set[int] = set()
        for feature, error in cells.pairs():
            rows.update(cells.rows(feature, error).tolist())
        return np.array(sorted(rows), dtype=int)

    def step(self) -> IterationRecord | None:
        """Run one cleaning iteration; ``None`` when the run is over."""
        dirty_rows = self._dirty_rows(self.dataset.dirty_train)
        if dirty_rows.size == 0 or self.budget.exhausted():
            return None
        baseline = self.measure_f1()
        batch = self._select_batch(dirty_rows)
        touched = self._touched_pairs(batch)
        cost = sum(self.cost_model.next_cost(f, e) for f, e in touched)
        if not self.budget.can_afford(cost):
            return None
        for feature, error in touched:
            self.cost_model.record_step(feature, error)
        self.budget.charge(cost)
        self._iteration += 1
        self._clean_records(batch)
        self._clean_test_records()
        for pair in touched:
            mark_if_clean(self.dataset, self._active, pair)
        # ActiveClean's model update: one SGD step on the freshly cleaned
        # batch, with a 1/√t decaying step size.
        X_batch = self._fitted.preprocessor_.transform(self.dataset.train.take(batch))
        y_batch = self.dataset.train.label_array(self.dataset.label)[batch]
        self._fitted.model_.sgd_step(
            X_batch, y_batch, lr=self.learning_rate / np.sqrt(self._iteration)
        )
        f1_after = self.measure_f1(refresh=True)
        feature, error = touched[0] if touched else ("", "")
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
    def _select_batch(self, dirty_rows: np.ndarray) -> np.ndarray:
        """Sample dirty records proportional to their gradient norms."""
        size = min(
            self.cleaner.cells_per_step(self.dataset.train.n_rows), dirty_rows.size
        )
        X = self._fitted.preprocessor_.transform(self.dataset.train.take(dirty_rows))
        y = self.dataset.train.label_array(self.dataset.label)[dirty_rows]
        norms = self._fitted.model_.gradient_norms(X, y)
        total = norms.sum()
        if total <= 0.0 or not np.isfinite(total):
            probs = None
        else:
            # Hinge-type losses zero out gradients of well-classified
            # records; smooth with a uniform floor so sampling without
            # replacement always has enough support (AC's detector/sampler
            # mixes in uniform exploration for the same reason).
            probs = norms / total
            floor = 1.0 / (10.0 * len(probs))
            probs = probs + floor
            probs /= probs.sum()
        chosen = self._rng.choice(dirty_rows, size=size, replace=False, p=probs)
        return np.asarray(chosen, dtype=int)

    def _touched_pairs(self, batch: np.ndarray) -> list[tuple[str, str]]:
        batch_set = set(batch.tolist())
        touched = []
        for feature, error in self.dataset.dirty_train.pairs():
            rows = set(self.dataset.dirty_train.rows(feature, error).tolist())
            if rows & batch_set:
                touched.append((feature, error))
        return touched

    def _clean_records(self, batch: np.ndarray) -> None:
        """Restore ground truth for every dirty cell of the batch records.

        The in-place ``set_values`` below are copy-on-write: the working
        frames came from ``dataset.copy()``, so the caller's dataset (and
        the clean ground truth) never see these mutations.
        """
        batch_set = set(batch.tolist())
        for feature, error in self.dataset.dirty_train.pairs():
            rows = self.dataset.dirty_train.rows(feature, error)
            hit = np.array(sorted(set(rows.tolist()) & batch_set), dtype=int)
            if hit.size == 0:
                continue
            column = self.dataset.train[feature]
            clean = self.dataset.clean_train[feature]
            column.set_values(hit, clean.values[hit])
            truly_missing = hit[clean.missing_mask[hit]]
            if truly_missing.size:
                column.set_missing(truly_missing)
            self.dataset.dirty_train.remove(feature, error, hit)

    def _clean_test_records(self) -> None:
        """Clean a step-sized random sample of dirty test records."""
        dirty_rows = self._dirty_rows(self.dataset.dirty_test)
        if dirty_rows.size == 0:
            return
        size = min(
            self.cleaner.cells_per_step(self.dataset.test.n_rows), dirty_rows.size
        )
        batch = set(self._rng.choice(dirty_rows, size=size, replace=False).tolist())
        for feature, error in self.dataset.dirty_test.pairs():
            rows = self.dataset.dirty_test.rows(feature, error)
            hit = np.array(sorted(set(rows.tolist()) & batch), dtype=int)
            if hit.size == 0:
                continue
            column = self.dataset.test[feature]
            clean = self.dataset.clean_test[feature]
            column.set_values(hit, clean.values[hit])
            truly_missing = hit[clean.missing_mask[hit]]
            if truly_missing.size:
                column.set_missing(truly_missing)
            self.dataset.dirty_test.remove(feature, error, hit)
