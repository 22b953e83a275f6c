"""Classification and regression metrics.

The paper reports the F1 score throughout ("prediction accuracy" refers to
F1 in all experiments) and uses the mean absolute error for the Estimator
accuracy analysis (Figure 11).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import unique_labels

__all__ = [
    "accuracy_score",
    "confusion_matrix",
    "precision_score",
    "recall_score",
    "f1_score",
    "mean_absolute_error",
    "r2_score",
]


def _check_pair(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("metrics are undefined on empty inputs")
    return y_true, y_pred


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exactly matching predictions."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int | None = None) -> np.ndarray:
    """Counts matrix ``C[i, j]`` = #samples with true class i predicted as j."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    labels = np.union1d(np.unique(y_true), np.unique(y_pred)).astype(int)
    if n_classes is None:
        n_classes = int(labels.max()) + 1 if labels.size else 0
    matrix = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(matrix, (y_true.astype(int), y_pred.astype(int)), 1)
    return matrix


def precision_score(y_true: np.ndarray, y_pred: np.ndarray, positive: int = 1) -> float:
    """Binary precision for the ``positive`` class; 0 when nothing predicted."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    predicted = y_pred == positive
    if not predicted.any():
        return 0.0
    return float(np.mean(y_true[predicted] == positive))


def recall_score(y_true: np.ndarray, y_pred: np.ndarray, positive: int = 1) -> float:
    """Binary recall for the ``positive`` class; 0 when class absent."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    actual = y_true == positive
    if not actual.any():
        return 0.0
    return float(np.mean(y_pred[actual] == positive))


def f1_score(y_true: np.ndarray, y_pred: np.ndarray, average: str = "auto") -> float:
    """F1 score.

    ``average='binary'`` computes the positive-class (label 1) F1;
    ``'macro'`` averages per-class F1 over the classes present in
    ``y_true``; the default ``'auto'`` picks binary for exactly-two-class
    problems and macro otherwise (including the degenerate single-class
    case), matching how the paper reports F1 across both its binary and its
    three-class (CMC) tasks.
    """
    y_true, y_pred = _check_pair(y_true, y_pred)
    classes = unique_labels(y_true)
    if average == "auto":
        if classes.size == 2:
            # Positive class = the larger of the two labels present, so
            # {0, 1} → 1 and label encodings like {0, 2} still work.
            return _binary_f1(y_true, y_pred, positive=int(classes[1]))
        average = "macro"
    if average == "binary":
        return _binary_f1(y_true, y_pred, positive=1)
    if average == "macro":
        scores = [_binary_f1(y_true, y_pred, positive=int(c)) for c in classes]
        return float(np.mean(scores))
    raise ValueError(f"unknown average {average!r}; use 'auto', 'binary' or 'macro'")


def _binary_f1(y_true: np.ndarray, y_pred: np.ndarray, positive: int) -> float:
    # Precision and recall from three counts: the quotients of
    # ``precision_score`` and ``recall_score`` (an exact count over an
    # exact count), without their pair checks and masked copies.
    predicted = y_pred == positive
    actual = y_true == positive
    n_predicted = np.count_nonzero(predicted)
    n_actual = np.count_nonzero(actual)
    n_hit = np.count_nonzero(predicted & actual)
    precision = n_hit / n_predicted if n_predicted else 0.0
    recall = n_hit / n_actual if n_actual else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def mean_absolute_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean absolute deviation between two real-valued vectors."""
    y_true, y_pred = _check_pair(np.asarray(y_true, float), np.asarray(y_pred, float))
    return float(np.mean(np.abs(y_true - y_pred)))


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination (1 − SSE/SST).

    The regression counterpart of the F1 score in COMET's regression-task
    extension (§6); a constant-target degenerate case scores 0 for exact
    predictions and is unbounded below otherwise, like sklearn's.
    """
    y_true, y_pred = _check_pair(np.asarray(y_true, float), np.asarray(y_pred, float))
    sse = float(np.sum((y_true - y_pred) ** 2))
    sst = float(np.sum((y_true - y_true.mean()) ** 2))
    if sst == 0.0:
        return 0.0 if sse > 0.0 else 1.0
    return 1.0 - sse / sst
