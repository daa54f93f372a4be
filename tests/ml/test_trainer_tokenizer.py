"""Tests for the optimisers, training utilities and the hashing tokenizer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.tokenizer import CLS_ID, PAD_ID, HashingTokenizer
from repro.ml.trainer import (
    AdamOptimizer,
    TrainingHistory,
    clip_gradients,
    minibatch_indices,
    numerical_gradient,
)


class TestOptimizers:
    def test_adam_minimises_quadratic(self):
        params = {"x": np.array([5.0, -3.0])}
        optimizer = AdamOptimizer(learning_rate=0.1)
        for _ in range(300):
            grads = {"x": 2.0 * params["x"]}
            optimizer.step(params, grads)
        assert np.abs(params["x"]).max() < 0.05

    def test_adam_ignores_unknown_parameters(self):
        params = {"x": np.zeros(2)}
        AdamOptimizer().step(params, {"y": np.ones(2)})
        np.testing.assert_array_equal(params["x"], np.zeros(2))

    def test_adam_begin_step_counts_and_creates_missing_moments(self):
        optimizer = AdamOptimizer(beta1=0.9, beta2=0.999)
        optimizer.begin_step({"x": np.ones(2)})
        optimizer._m["x"] += 1.0
        optimizer.begin_step({"x": np.ones(2), "y": np.ones(3)})
        assert optimizer._t == 2
        assert optimizer._corrections == pytest.approx((1.0 - 0.9**2, 1.0 - 0.999**2))
        # An existing moment is kept; a new parameter starts from zeros.
        np.testing.assert_array_equal(optimizer._m["x"], np.ones(2))
        np.testing.assert_array_equal(optimizer._m["y"], np.zeros(3))
        np.testing.assert_array_equal(optimizer._v["y"], np.zeros(3))

    def test_adam_reset(self):
        optimizer = AdamOptimizer()
        params = {"x": np.ones(1)}
        optimizer.step(params, {"x": np.ones(1)})
        optimizer.reset()
        assert optimizer._t == 0


class TestTrainingUtilities:
    def test_history_records(self):
        history = TrainingHistory()
        history.record(1.0, 2.0)
        history.record(0.5, 1.5)
        assert history.train_loss == [1.0, 0.5]
        assert history.validation_loss == [2.0, 1.5]

    def test_minibatches_cover_all_indices(self):
        batches = list(minibatch_indices(25, 8, seed=3, epoch=0))
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(25))
        assert all(len(b) <= 8 for b in batches)

    def test_minibatches_reshuffled_per_epoch(self):
        a = np.concatenate(list(minibatch_indices(30, 10, seed=3, epoch=0)))
        b = np.concatenate(list(minibatch_indices(30, 10, seed=3, epoch=1)))
        assert not np.array_equal(a, b)

    def test_clip_gradients(self):
        grads = {"a": np.full(4, 10.0)}
        norm = clip_gradients(grads, max_norm=1.0)
        assert norm > 1.0
        assert np.linalg.norm(grads["a"]) == pytest.approx(1.0)

    def test_clip_noop_below_threshold(self):
        grads = {"a": np.full(4, 0.01)}
        clip_gradients(grads, max_norm=10.0)
        np.testing.assert_allclose(grads["a"], 0.01)

    def test_numerical_gradient_of_quadratic(self):
        x = np.array([1.0, -2.0, 3.0])
        grad = numerical_gradient(lambda: float(np.sum(x**2)), x)
        np.testing.assert_allclose(grad, 2 * x, atol=1e-4)


class TestHashingTokenizer:
    def test_encode_shape_and_padding(self):
        tokenizer = HashingTokenizer(vocab_size=128, max_length=16)
        ids = tokenizer.encode("a short text")
        assert ids.shape == (16,)
        assert ids[0] == CLS_ID
        assert ids[-1] == PAD_ID

    def test_truncation(self):
        tokenizer = HashingTokenizer(vocab_size=128, max_length=8)
        ids = tokenizer.encode("word " * 50)
        assert ids.shape == (8,)
        assert (ids != PAD_ID).all()

    def test_batch_mask(self):
        tokenizer = HashingTokenizer(vocab_size=128, max_length=10)
        ids, mask = tokenizer.encode_batch(["one two", "a much longer sentence with many words"])
        assert ids.shape == mask.shape == (2, 10)
        assert mask[0].sum() < mask[1].sum()

    def test_stability_across_instances(self):
        a = HashingTokenizer(vocab_size=512, max_length=12).encode("stable hashing please")
        b = HashingTokenizer(vocab_size=512, max_length=12).encode("stable hashing please")
        np.testing.assert_array_equal(a, b)

    def test_ids_in_range(self):
        tokenizer = HashingTokenizer(vocab_size=64, max_length=32)
        ids = tokenizer.encode("many different words " * 5)
        assert ids.max() < 64

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            HashingTokenizer(vocab_size=2)
        with pytest.raises(ValueError):
            HashingTokenizer(max_length=1)

    @settings(max_examples=30, deadline=None)
    @given(st.text(max_size=200))
    def test_encode_never_fails(self, text):
        tokenizer = HashingTokenizer(vocab_size=256, max_length=20)
        ids = tokenizer.encode(text)
        assert ids.shape == (20,)
        assert (ids >= 0).all()
