"""End-to-end tabular model: preprocessing + classifier behind one call.

COMET repeatedly evaluates "train on this (possibly polluted) frame, score
F1 on that frame"; :class:`TabularModel` packages that loop body.

Every featurization — fit, score, and fit-score — yields read-only
:class:`Split` inputs. Kept as a *base*, a :class:`Featurized` state
lets a later fit-score on a state that shares columns with it copy
those columns' statistics, design-matrix blocks and targets instead of
recomputing them (see :mod:`repro.ml.preprocessing`); the Estimator
featurizes each E1 sweep's unpolluted state once this way.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.frame import DataFrame
from repro.ml.base import BaseEstimator, clone
from repro.ml.metrics import f1_score, r2_score
from repro.ml.preprocessing import Design, TabularPreprocessor

__all__ = ["TabularModel"]


class Split(NamedTuple):
    """One split of a data state as model inputs (arrays read-only)."""

    design: Design
    targets: np.ndarray
    #: Token of the label column the targets were encoded from.
    label_token: bytes


class Featurized(NamedTuple):
    """A ``(train, test)`` data state as model inputs."""

    #: The preprocessor fitted on ``train``'s frame.
    preprocessor: TabularPreprocessor
    train: Split
    test: Split


class TabularModel:
    """Fit a model on a :class:`DataFrame` and score another.

    Parameters
    ----------
    estimator:
        Unfitted estimator template (cloned on every ``fit``).
    label:
        Name of the label column.
    feature_names:
        Feature columns; defaults to all non-label columns of the frame
        passed to ``fit``.
    task:
        ``"classification"`` (F1 score, integer-encoded labels — the
        paper's setting) or ``"regression"`` (R², raw float targets — the
        §6 extension).
    preprocessor:
        Optional pre-fit :class:`TabularPreprocessor` to reuse as-is —
        ``fit`` then skips featurization fitting entirely (the caller
        vouches that the fitted statistics match the training frame, e.g.
        repeated refits on the same data state). An unfitted instance is
        fit once on the first training frame and reused afterwards.
    """

    def __init__(
        self,
        estimator: BaseEstimator,
        label: str,
        feature_names: list[str] | None = None,
        task: str = "classification",
        preprocessor: TabularPreprocessor | None = None,
    ) -> None:
        if task not in ("classification", "regression"):
            raise ValueError(f"unknown task {task!r}")
        self.estimator = estimator
        self.label = label
        self.feature_names = feature_names
        self.task = task
        self.preprocessor = preprocessor

    def _targets(self, frame: DataFrame) -> np.ndarray:
        if self.task == "classification":
            return frame.label_array(self.label)
        column = frame[self.label]
        if not column.is_numeric:
            raise ValueError(f"regression label {self.label!r} must be numeric")
        if column.n_missing:
            raise ValueError(f"label column {self.label!r} contains missing values")
        return column.values.astype(float)

    def _fit_preprocessor(
        self, frame: DataFrame, base: TabularPreprocessor | None
    ) -> TabularPreprocessor:
        if self.preprocessor is not None:
            if not hasattr(self.preprocessor, "encoder_"):
                self.preprocessor.fit(frame)
            preprocessor = self.preprocessor
        else:
            features = self.feature_names or [
                n for n in frame.column_names if n != self.label
            ]
            preprocessor = TabularPreprocessor(features).fit(frame, base=base)
        self.features_ = list(preprocessor.feature_names)
        self.preprocessor_ = preprocessor
        return preprocessor

    def _split(
        self,
        preprocessor: TabularPreprocessor,
        frame: DataFrame,
        base: Split | None,
    ) -> Split:
        design = preprocessor.design(frame, None if base is None else base.design)
        label_token = frame[self.label].token
        if base is not None and label_token == base.label_token:
            targets = base.targets.copy()
        else:
            targets = self._targets(frame)
        targets.setflags(write=False)
        return Split(design, targets, label_token)

    def featurize(
        self, train: DataFrame, test: DataFrame, base: Featurized | None = None
    ) -> Featurized:
        """Fit the preprocessor on ``train`` and featurize both splits.

        ``base`` is the featurization of a state that shares columns
        with this one: every column whose tokens match is copied from it
        rather than re-encoded, with byte-identical results. Nothing
        returned aliases the base.
        """
        base_preprocessor, base_train, base_test = base or (None, None, None)
        preprocessor = self._fit_preprocessor(train, base_preprocessor)
        return Featurized(
            preprocessor,
            self._split(preprocessor, train, base_train),
            self._split(preprocessor, test, base_test),
        )

    def _fit_model(self, split: Split) -> "TabularModel":
        self.model_ = clone(self.estimator)
        self.model_.fit(split.design.matrix, split.targets)
        return self

    def _score(self, split: Split) -> float:
        predicted = self.model_.predict(split.design.matrix)
        if self.task == "classification":
            return f1_score(split.targets, predicted)
        return r2_score(split.targets, predicted)

    def fit(self, frame: DataFrame) -> "TabularModel":
        """Fit on the given training data and return ``self``."""
        preprocessor = self._fit_preprocessor(frame, None)
        return self._fit_model(self._split(preprocessor, frame, None))

    def predict(self, frame: DataFrame) -> np.ndarray:
        """Predict labels (or values) for the given input."""
        X = self.preprocessor_.transform(frame)
        return self.model_.predict(X)

    def score(self, frame: DataFrame) -> float:
        """Task metric on ``frame``: F1 (classification) or R² (regression)."""
        return self._score(self._split(self.preprocessor_, frame, None))

    def fit_score(
        self,
        train: DataFrame,
        test: DataFrame,
        base: Featurized | None = None,
    ) -> float:
        """Train on ``train``, return the task metric on ``test``
        (the COMET loop body); ``base`` as in :meth:`featurize`."""
        state = self.featurize(train, test, base)
        return self._fit_model(state.train)._score(state.test)
