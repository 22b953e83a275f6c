"""Multi-layer perceptron classification (ReLU hidden layers, softmax
output, Adam optimizer)."""

from __future__ import annotations

import math

import numpy as np

from repro.ml.base import BaseEstimator, check_X, check_X_y, one_hot

__all__ = ["MLPClassifier"]


class MLPClassifier(BaseEstimator):
    """A small feed-forward network trained with mini-batch Adam.

    Parameters
    ----------
    hidden_sizes:
        Widths of the hidden layers.
    learning_rate:
        Adam step size.
    max_epochs:
        Upper bound on passes over the training data.
    batch_size:
        Mini-batch size (clamped to the dataset size).
    alpha:
        L2 penalty on the weights.
    tol / patience:
        Training stops early when the epoch loss fails to improve by
        ``tol`` for ``patience`` consecutive epochs.
    """

    def __init__(
        self,
        hidden_sizes: tuple = (32,),
        learning_rate: float = 1e-2,
        max_epochs: int = 120,
        batch_size: int = 64,
        alpha: float = 1e-4,
        tol: float = 1e-4,
        patience: int = 8,
        random_state: int = 0,
    ) -> None:
        self.hidden_sizes = hidden_sizes
        self.learning_rate = learning_rate
        self.max_epochs = max_epochs
        self.batch_size = batch_size
        self.alpha = alpha
        self.tol = tol
        self.patience = patience
        self.random_state = random_state

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPClassifier":
        """Fit on the given training data and return ``self``."""
        X, y = check_X_y(X, y)
        self.classes_ = np.unique(y)
        rng = np.random.default_rng(self.random_state)
        n, d = X.shape
        k = len(self.classes_)
        sizes = [d, *list(self.hidden_sizes), k]
        n_layers = len(sizes) - 1
        shapes = [(sizes[i], sizes[i + 1]) for i in range(n_layers)]
        shapes += [(sizes[i + 1],) for i in range(n_layers)]
        # ``weights_`` then ``biases_`` are views into one flat parameter
        # vector (the slot order of ``_backprop``'s gradients), so an Adam
        # step is one elementwise update over all of it.
        counts = [math.prod(shape) for shape in shapes]
        params = np.zeros(sum(counts))
        slots = np.split(params, np.cumsum(counts)[:-1])
        slots = [slot.reshape(shape) for slot, shape in zip(slots, shapes)]
        self.weights_, self.biases_ = slots[:n_layers], slots[n_layers:]
        for W in self.weights_:
            W[...] = rng.normal(0.0, np.sqrt(2.0 / W.shape[0]), size=W.shape)
        Y = one_hot(y, self.classes_)

        m = np.zeros_like(params)
        v = np.zeros_like(params)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        batch = min(self.batch_size, n)
        best_loss = np.inf
        stall = 0
        for __ in range(self.max_epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                loss, grads = self._backprop(X[idx], Y[idx])
                epoch_loss += loss * len(idx)
                step += 1
                grad = np.concatenate([g.ravel() for g in grads])
                m *= beta1
                m += (1 - beta1) * grad
                v *= beta2
                v += (1 - beta2) * grad**2
                m_hat = m / (1 - beta1**step)
                v_hat = v / (1 - beta2**step)
                params -= self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
            epoch_loss /= n
            if epoch_loss < best_loss - self.tol:
                best_loss = epoch_loss
                stall = 0
            else:
                stall += 1
                if stall >= self.patience:
                    break
        return self

    def _forward(self, X: np.ndarray) -> list[np.ndarray]:
        activations = [X]
        for layer, (W, b) in enumerate(zip(self.weights_, self.biases_)):
            z = activations[-1] @ W + b
            if layer < len(self.weights_) - 1:
                z = np.maximum(z, 0.0)
            activations.append(z)
        return activations

    def _backprop(self, X: np.ndarray, Y: np.ndarray) -> tuple[float, list[np.ndarray]]:
        activations = self._forward(X)
        probs = _softmax(activations[-1])
        n = len(X)
        loss = -np.sum(Y * np.log(probs + 1e-12)) / n
        loss += 0.5 * self.alpha * sum(np.sum(w**2) for w in self.weights_)
        delta = (probs - Y) / n
        w_grads: list[np.ndarray] = [None] * len(self.weights_)  # type: ignore[list-item]
        b_grads: list[np.ndarray] = [None] * len(self.biases_)  # type: ignore[list-item]
        for layer in range(len(self.weights_) - 1, -1, -1):
            w_grads[layer] = activations[layer].T @ delta + self.alpha * self.weights_[layer]
            b_grads[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights_[layer].T) * (activations[layer] > 0.0)
        return loss, w_grads + b_grads

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability estimates; rows sum to one."""
        X = check_X(X)
        return _softmax(self._forward(X)[-1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict labels (or values) for the given input."""
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)
