"""Linear baseline models: ridge regression and (multinomial) logistic regression.

These are the interpretable/tractable models the paper contrasts with LLM
regression (Section 4.2, Table 4), and they also serve as building blocks:
CLS II's improvement classifier is a logistic regression over metadata
features, and ridge regression provides closed-form heads elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RidgeRegression:
    """Multi-output ridge regression with a closed-form normal-equation fit.

    Attributes
    ----------
    l2:
        Ridge penalty (not applied to the intercept).
    """

    l2: float = 1.0
    weights: np.ndarray | None = field(default=None, init=False)
    bias: np.ndarray | None = field(default=None, init=False)

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RidgeRegression":
        """Fit on ``features [n, d]`` and ``targets [n, m]`` (or ``[n]``)."""
        X = np.asarray(features, dtype=np.float64)
        Y = np.asarray(targets, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y[:, None]
        if X.shape[0] != Y.shape[0]:
            raise ValueError("features and targets must have the same number of rows")
        n, d = X.shape
        X_mean = X.mean(axis=0)
        Y_mean = Y.mean(axis=0)
        Xc = X - X_mean
        Yc = Y - Y_mean
        gram = Xc.T @ Xc + self.l2 * np.eye(d)
        self.weights = np.linalg.solve(gram, Xc.T @ Yc)
        self.bias = Y_mean - X_mean @ self.weights
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``features [n, d]``; returns ``[n, m]``."""
        if self.weights is None or self.bias is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(features, dtype=np.float64)
        return X @ self.weights + self.bias


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


@dataclass
class LogisticRegression:
    """Multinomial logistic regression trained with full-batch gradient descent.

    Small feature dimensions and dataset sizes make full-batch updates with a
    fixed learning rate perfectly adequate (and deterministic).
    """

    n_classes: int = 2
    l2: float = 1e-3
    learning_rate: float = 0.5
    n_iterations: int = 300
    weights: np.ndarray | None = field(default=None, init=False)
    bias: np.ndarray | None = field(default=None, init=False)

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LogisticRegression":
        """Fit on ``features [n, d]`` and integer ``labels [n]``."""
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        if X.shape[0] != y.shape[0]:
            raise ValueError("features and labels must have the same number of rows")
        if y.size and (y.min() < 0 or y.max() >= self.n_classes):
            raise ValueError("labels out of range for n_classes")
        n, d = X.shape
        onehot = np.zeros((n, self.n_classes), dtype=np.float64)
        onehot[np.arange(n), y] = 1.0
        self.weights = np.zeros((d, self.n_classes), dtype=np.float64)
        self.bias = np.zeros(self.n_classes, dtype=np.float64)
        for _ in range(self.n_iterations):
            probs = softmax(X @ self.weights + self.bias)
            grad_logits = (probs - onehot) / max(1, n)
            grad_w = X.T @ grad_logits + self.l2 * self.weights
            grad_b = grad_logits.sum(axis=0)
            self.weights -= self.learning_rate * grad_w
            self.bias -= self.learning_rate * grad_b
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities ``[n, n_classes]``."""
        if self.weights is None or self.bias is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(features, dtype=np.float64)
        return softmax(X @ self.weights + self.bias)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Most likely class per row."""
        return self.predict_proba(features).argmax(axis=1)

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy."""
        return float(np.mean(self.predict(features) == np.asarray(labels)))
