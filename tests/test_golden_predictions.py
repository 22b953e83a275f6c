"""Golden predictions: every registry algorithm, byte for byte.

Each estimator is fitted on one fixed seeded dataset and the sha256 of
its ``predict`` (and ``predict_proba``, where it has one) output bytes is
pinned. A change to a model's arithmetic — a different summation order,
a different tie-break, a different tree — moves a digest, so speed-ups
that claim to leave predictions unchanged are held to that claim.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.registry import make_classifier

GOLDEN = {
    "svm": {
        "predict": "381729472304aee7653556f739c4f3cf49e347c8104b27ad2e24507023add7a8",
        "predict_proba": None,
    },
    "knn": {
        "predict": "0bb795c939128d739ee4a1686c21f719b6df4f4c35efd1de0efc86de0d32cd42",
        "predict_proba": "09ff798ed1fbae797a57952c6b16a8dd6da78b70b03c535653de0d7df47e0f8e",
    },
    "mlp": {
        "predict": "04c4cc42a3760b0defe82dbb79f0ca4f7dd2fa8c43d716c1fa014985ab6afceb",
        "predict_proba": "3386c9fd5a58810b68192a11dbc07de4abc1534630e85e471a14aee75c7e3980",
    },
    "gb": {
        "predict": "99ac4b8fc88b1b05f548800d6f2395d3d93edd39c5a7fd06692cf69fe4807708",
        "predict_proba": "fad5dd1aebe598c6f0e99543a501f2a3cc8c91f3120522c24adfe7ce5d931d11",
    },
    "lir": {
        "predict": "a0cb6bc5e4ef7ec96593e76fcbd38ca740de3801dc2c63149ec9e9a8804bae04",
        "predict_proba": None,
    },
    "lor": {
        "predict": "ab01d6d8d6d641fe69a3ffe105f70e9ce78d8b87e496a049b78167be75ad11fa",
        "predict_proba": "875a66b51672d84de13d73c05f952281c0210b69d1ea4615e24bceb760d15762",
    },
    "gb_regressor": {
        "predict": "6d6784e120e6a436097334bd3343302330806ae0459aa45a183fe21f4e7fc9fb",
        "predict_proba": None,
    },
}


def _dataset():
    """160 rows: four Gaussian columns, two small-integer columns with
    many ties, one constant column; three classes and a real target."""
    rng = np.random.default_rng(20250417)
    n = 160
    X = np.column_stack(
        [
            rng.normal(size=(n, 4)),
            rng.integers(0, 5, size=(n, 2)).astype(float),
            np.full(n, 2.5),
        ]
    )
    score = X[:, 0] - 0.7 * X[:, 1] + 0.4 * X[:, 4] + 0.3 * rng.normal(size=n)
    y = np.digitize(score, np.quantile(score, [1 / 3, 2 / 3])).astype(np.int64)
    target = np.sin(X[:, 0]) + 0.5 * X[:, 5] - X[:, 2] ** 2
    return X[:120], y[:120], target[:120], X[120:]


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _digests(name: str) -> dict:
    X, y, target, X_test = _dataset()
    if name == "gb_regressor":
        model = GradientBoostingRegressor(n_estimators=30, max_depth=3)
        model.fit(X, target)
    else:
        model = make_classifier(name)
        model.fit(X, y)
    proba = getattr(model, "predict_proba", None)
    return {
        "predict": _sha(model.predict(X_test)),
        "predict_proba": None if proba is None else _sha(proba(X_test)),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_predictions_match_golden_digest(name):
    assert _digests(name) == GOLDEN[name]
