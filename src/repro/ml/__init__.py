"""From-scratch machine-learning substrate.

scikit-learn is not available in the reproduction environment, so this
subpackage implements the learners the paper evaluates (SVM, KNN, MLP,
gradient boosting, logistic regression, linear regression), the metrics
(F1, accuracy, MAE), model selection (train/test split, random
hyperparameter search), and tabular preprocessing (imputation, scaling,
one-hot encoding) on top of numpy.
"""

from repro.ml.base import BaseEstimator, clone
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.knn import KNeighborsClassifier
from repro.ml.linear import (
    LinearRegression,
    LinearRegressionClassifier,
    LogisticRegression,
)
from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    f1_score,
    mean_absolute_error,
    precision_score,
    recall_score,
)
from repro.ml.mlp import MLPClassifier
from repro.ml.model_selection import (
    KFold,
    RandomSearch,
    train_test_split,
)
from repro.ml.pipeline import TabularModel
from repro.ml.preprocessing import (
    OneHotEncoder,
    StandardScaler,
    TabularPreprocessor,
)
from repro.ml.registry import available_algorithms, make_classifier
from repro.ml.svm import LinearSVC

__all__ = [
    "BaseEstimator",
    "clone",
    "GradientBoostingClassifier",
    "KNeighborsClassifier",
    "LinearRegression",
    "LinearRegressionClassifier",
    "LogisticRegression",
    "MLPClassifier",
    "LinearSVC",
    "accuracy_score",
    "confusion_matrix",
    "f1_score",
    "mean_absolute_error",
    "precision_score",
    "recall_score",
    "KFold",
    "RandomSearch",
    "train_test_split",
    "OneHotEncoder",
    "StandardScaler",
    "TabularPreprocessor",
    "TabularModel",
    "available_algorithms",
    "make_classifier",
]
