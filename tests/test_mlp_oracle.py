"""The flat-buffer Adam loop of ``MLPClassifier`` against a per-slot oracle.

``_reference_fit`` is the original training loop: separate weight and
bias arrays, and Adam's moments and update computed slot by slot. The
library keeps every parameter in one flat vector and updates it in one
elementwise pass, with the same operations in the same order, so its
weights, biases and probabilities must match byte for byte.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.ml.base import check_X_y, one_hot
from repro.ml.mlp import MLPClassifier


def _reference_fit(model, X, y):
    """Fit ``model`` the per-slot way; return the number of epochs run."""
    X, y = check_X_y(X, y)
    model.classes_ = np.unique(y)
    rng = np.random.default_rng(model.random_state)
    n, d = X.shape
    sizes = [d, *list(model.hidden_sizes), len(model.classes_)]
    model.weights_ = [
        rng.normal(0.0, np.sqrt(2.0 / sizes[i]), size=(sizes[i], sizes[i + 1]))
        for i in range(len(sizes) - 1)
    ]
    model.biases_ = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
    Y = one_hot(y, model.classes_)
    m = [np.zeros_like(w) for w in model.weights_] + [np.zeros_like(b) for b in model.biases_]
    v = [np.zeros_like(w) for w in model.weights_] + [np.zeros_like(b) for b in model.biases_]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    batch = min(model.batch_size, n)
    best_loss = np.inf
    stall = 0
    epochs = 0
    for __ in range(model.max_epochs):
        epochs += 1
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            loss, grads = model._backprop(X[idx], Y[idx])
            epoch_loss += loss * len(idx)
            step += 1
            for slot, grad in enumerate(grads):
                m[slot] = beta1 * m[slot] + (1 - beta1) * grad
                v[slot] = beta2 * v[slot] + (1 - beta2) * grad**2
                m_hat = m[slot] / (1 - beta1**step)
                v_hat = v[slot] / (1 - beta2**step)
                update = model.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
                if slot < len(model.weights_):
                    model.weights_[slot] -= update
                else:
                    model.biases_[slot - len(model.weights_)] -= update
        epoch_loss /= n
        if epoch_loss < best_loss - model.tol:
            best_loss = epoch_loss
            stall = 0
        else:
            stall += 1
            if stall >= model.patience:
                break
    return epochs


def _data(seed, n=100, d=7, k=3):
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.normal(size=(n, 3)), rng.integers(0, 2, size=(n, d - 3))])
    y = (X[:, 0] > 0).astype(int) + (X[:, 3] > 0.5) * (k - 2)
    return X.astype(float), y, rng.normal(size=(30, d))


def _assert_same_model(X, y, X_test, **params):
    model = MLPClassifier(**params).fit(X, y)
    reference = MLPClassifier(**params)
    epochs = _reference_fit(reference, X, y)
    for got, want in zip(model.weights_ + model.biases_, reference.weights_ + reference.biases_):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    for rows in (X, X_test):
        assert model.predict_proba(rows).tobytes() == reference.predict_proba(rows).tobytes()
    return model, epochs


@pytest.mark.parametrize("hidden_sizes", [(32,), (32, 16)])
@pytest.mark.parametrize("seed", range(3))
def test_flat_adam_matches_per_slot_loop(hidden_sizes, seed):
    X, y, X_test = _data(seed)
    # 100 rows in batches of 32: the last batch of every epoch has 4 rows.
    _assert_same_model(
        X, y, X_test, hidden_sizes=hidden_sizes, batch_size=32, max_epochs=25, random_state=seed
    )


def test_binary_target_with_full_batch():
    X, y, X_test = _data(3, k=2)
    _assert_same_model(X, y, X_test, batch_size=500, max_epochs=15)


def test_early_stop_on_patience_matches():
    X, y, X_test = _data(4)
    max_epochs = 200
    __, epochs = _assert_same_model(
        X, y, X_test, max_epochs=max_epochs, tol=0.05, patience=2, random_state=1
    )
    assert epochs < max_epochs  # the run really stopped early


def test_pickled_model_predicts_the_same_bytes():
    X, y, X_test = _data(5)
    model = MLPClassifier(hidden_sizes=(32, 16), max_epochs=10).fit(X, y)
    loaded = pickle.loads(pickle.dumps(model))
    for rows in (X, X_test):
        assert loaded.predict_proba(rows).tobytes() == model.predict_proba(rows).tobytes()
