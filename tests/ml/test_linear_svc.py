"""Tests for the linear baseline models (ridge, logistic, SVC)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.linear import LogisticRegression, RidgeRegression, softmax
from repro.ml.svc import LinearSVC


def make_linear_data(seed=0, n=200, d=5, m=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    W = rng.normal(size=(d, m))
    Y = X @ W + 0.01 * rng.normal(size=(n, m)) + 3.0
    return X, Y


def make_classification_data(seed=0, n=300, d=4, k=3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(k, d))
    labels = rng.integers(0, k, size=n)
    X = centers[labels] + rng.normal(size=(n, d))
    return X, labels


class TestRidge:
    def test_recovers_linear_relationship(self):
        X, Y = make_linear_data()
        model = RidgeRegression(l2=1e-6).fit(X, Y)
        # Noise is 0.01 per target: the fit recovers W and the 3.0 intercept.
        assert np.abs(model.predict(X) - Y).max() < 0.05

    def test_single_output_vector_targets(self):
        X, Y = make_linear_data(m=1)
        model = RidgeRegression().fit(X, Y[:, 0])
        assert model.predict(X).shape == (X.shape[0], 1)

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            RidgeRegression().predict(np.zeros((2, 3)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RidgeRegression().fit(np.zeros((5, 2)), np.zeros((4, 1)))

    def test_regularisation_shrinks_weights(self):
        X, Y = make_linear_data()
        small = RidgeRegression(l2=1e-6).fit(X, Y)
        large = RidgeRegression(l2=1e4).fit(X, Y)
        assert np.linalg.norm(large.weights) < np.linalg.norm(small.weights)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        probs = softmax(np.random.default_rng(0).normal(size=(10, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_stability_with_large_logits(self):
        probs = softmax(np.array([[1000.0, 999.0]]))
        assert np.all(np.isfinite(probs))


class TestLogisticRegression:
    def test_separable_data_high_accuracy(self):
        X, y = make_classification_data()
        model = LogisticRegression(n_classes=3, n_iterations=400).fit(X, y)
        assert model.accuracy(X, y) > 0.9

    def test_probabilities_valid(self):
        X, y = make_classification_data()
        model = LogisticRegression(n_classes=3).fit(X, y)
        probs = model.predict_proba(X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_label_range_validated(self):
        with pytest.raises(ValueError):
            LogisticRegression(n_classes=2).fit(np.zeros((3, 2)), np.array([0, 1, 5]))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegression().predict_proba(np.zeros((1, 2)))


class TestLinearSVC:
    def test_separable_data_high_accuracy(self):
        X, y = make_classification_data(seed=3)
        model = LinearSVC(n_classes=3, n_epochs=20).fit(X, y)
        assert model.accuracy(X, y) > 0.85

    def test_decision_function_shape(self):
        X, y = make_classification_data(seed=4)
        model = LinearSVC(n_classes=3).fit(X, y)
        assert model.decision_function(X).shape == (X.shape[0], 3)

    def test_deterministic_given_seed(self):
        X, y = make_classification_data(seed=5)
        a = LinearSVC(n_classes=3, seed=1).fit(X, y).predict(X)
        b = LinearSVC(n_classes=3, seed=1).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LinearSVC().decision_function(np.zeros((1, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearSVC().fit(np.zeros((4, 2)), np.zeros(3))
