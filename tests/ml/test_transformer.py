"""Tests for the numpy Transformer encoder (forward, backward, LoRA)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.trainer import numerical_gradient
from repro.ml.transformer import TransformerConfig, TransformerEncoder, gelu, gelu_grad

TINY = TransformerConfig(
    vocab_size=64, max_length=8, d_model=8, n_heads=2, n_layers=2, d_ff=12, seed=5, lora_rank=2
)


def make_batch(config: TransformerConfig, batch_size: int = 3, seed: int = 0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(3, config.vocab_size, size=(batch_size, config.max_length))
    ids[:, 0] = 1
    mask = np.ones((batch_size, config.max_length))
    mask[0, config.max_length // 2 :] = 0
    ids[mask == 0] = 0
    return ids, mask


class TestConfigValidation:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            TransformerConfig(d_model=10, n_heads=3)

    def test_pooling_validated(self):
        with pytest.raises(ValueError):
            TransformerConfig(pooling="max")


class TestActivations:
    def test_gelu_matches_numerical_gradient(self):
        x = np.linspace(-3, 3, 13)
        numeric = np.array(
            [(gelu(xi + 1e-5) - gelu(xi - 1e-5)) / 2e-5 for xi in x]
        )
        np.testing.assert_allclose(gelu_grad(x), numeric, atol=1e-6)


class TestForward:
    def test_output_shape(self):
        encoder = TransformerEncoder(TINY)
        ids, mask = make_batch(TINY)
        hidden, cache = encoder.forward(ids, mask)
        assert hidden.shape == (3, TINY.max_length, TINY.d_model)
        assert len(cache["layers"]) == TINY.n_layers

    def test_deterministic(self):
        encoder = TransformerEncoder(TINY)
        ids, mask = make_batch(TINY)
        a, _ = encoder.forward(ids, mask)
        b, _ = encoder.forward(ids, mask)
        np.testing.assert_array_equal(a, b)

    def test_padding_does_not_affect_real_tokens(self):
        # Changing the *content* of padded positions must not change the
        # representation of unpadded positions (they are masked out of
        # attention).
        encoder = TransformerEncoder(TINY)
        ids, mask = make_batch(TINY)
        hidden_a, _ = encoder.forward(ids, mask)
        ids_b = ids.copy()
        ids_b[0, -1] = 7  # padded position of example 0
        hidden_b, _ = encoder.forward(ids_b, mask)
        np.testing.assert_allclose(hidden_a[0, 0], hidden_b[0, 0], atol=1e-10)

    def test_pooling_modes(self):
        encoder = TransformerEncoder(TINY)
        ids, mask = make_batch(TINY)
        hidden, _ = encoder.forward(ids, mask)
        cls = encoder.pool(hidden, mask)
        assert cls.shape == (3, TINY.d_model)
        mean_cfg = TransformerConfig(
            vocab_size=64, max_length=8, d_model=8, n_heads=2, n_layers=1, d_ff=12, pooling="mean"
        )
        mean_encoder = TransformerEncoder(mean_cfg)
        hidden2, _ = mean_encoder.forward(ids, mask)
        pooled = mean_encoder.pool(hidden2, mask)
        assert pooled.shape == (3, 8)

    def test_parameter_count_and_names(self):
        encoder = TransformerEncoder(TINY)
        assert len(encoder.lora_parameter_names()) == TINY.n_layers * 4
        assert all(".lora_" in n for n in encoder.lora_parameter_names())

    def test_parameter_names_list_every_parameter_once(self):
        encoder = TransformerEncoder(TINY)
        names = encoder.parameter_names()
        assert names == list(encoder.clone_parameters())
        assert len(set(names)) == len(names)
        assert set(encoder.lora_parameter_names()) < set(names)

    def test_encode_texts_is_the_tokenizer_batch(self):
        encoder = TransformerEncoder(TINY)
        texts = ["a parsed page", "", "another page of text with more words than fit"]
        ids, mask = encoder.encode_texts(text for text in texts)
        expected_ids, expected_mask = encoder.tokenizer.encode_batch(texts)
        np.testing.assert_array_equal(ids, expected_ids)
        np.testing.assert_array_equal(mask, expected_mask)
        assert ids.shape == (3, TINY.max_length)


class TestBackward:
    @pytest.mark.parametrize(
        "name",
        [
            "token_embedding",
            "position_embedding",
            "layer0.Wv",
            "layer0.Wo",
            "layer0.W_ff1",
            "layer0.W_ff2",
            "layer0.ln1_gamma",
            "layer1.ln2_beta",
            "layer1.bq",
            "layer0.lora_Bv",
        ],
    )
    def test_gradients_match_numerical(self, name):
        encoder = TransformerEncoder(TINY)
        ids, mask = make_batch(TINY, batch_size=2, seed=3)
        rng = np.random.default_rng(9)
        target = rng.normal(size=(2, TINY.max_length, TINY.d_model))

        def loss() -> float:
            hidden, _ = encoder.forward(ids, mask)
            return float(np.sum(hidden * target))

        hidden, cache = encoder.forward(ids, mask)
        grads = encoder.backward(target, cache)
        numeric = numerical_gradient(loss, encoder.params[name], epsilon=1e-4)
        scale = max(1e-6, np.abs(numeric).max())
        np.testing.assert_allclose(grads[name], numeric, atol=2e-3 * scale + 1e-8)

    def test_attention_projection_gradients_close(self):
        # Wq/Wk gradients are small at init (soft attention), so compare with a
        # looser tolerance relative to their own scale.
        encoder = TransformerEncoder(TINY)
        ids, mask = make_batch(TINY, batch_size=2, seed=4)
        target = np.random.default_rng(2).normal(size=(2, TINY.max_length, TINY.d_model))

        def loss() -> float:
            hidden, _ = encoder.forward(ids, mask)
            return float(np.sum(hidden * target))

        _, cache = encoder.forward(ids, mask)
        grads = encoder.backward(target, cache)
        for name in ("layer0.Wq", "layer0.Wk"):
            numeric = numerical_gradient(loss, encoder.params[name], epsilon=1e-4)
            denom = np.abs(numeric).max() + 1e-8
            assert np.abs(grads[name] - numeric).max() / denom < 5e-3

    def test_pool_backward_cls(self):
        encoder = TransformerEncoder(TINY)
        ids, mask = make_batch(TINY)
        hidden, _ = encoder.forward(ids, mask)
        grad_pooled = np.ones((3, TINY.d_model))
        grad_hidden = encoder.pool_backward(grad_pooled, hidden.shape, mask)
        assert grad_hidden[:, 0, :].sum() == pytest.approx(3 * TINY.d_model)
        assert grad_hidden[:, 1:, :].sum() == 0


class TestLoRA:
    def test_lora_parameters_fewer_than_full(self):
        encoder = TransformerEncoder(TINY)
        sizes = {name: param.size for name, param in encoder.params.items()}
        assert 0 < sum(sizes[name] for name in encoder.lora_parameter_names()) < sum(sizes.values())

    def test_clone_and_load_parameters(self):
        encoder = TransformerEncoder(TINY)
        snapshot = encoder.clone_parameters()
        encoder.params["token_embedding"] += 1.0
        encoder.load_parameters(snapshot)
        np.testing.assert_array_equal(encoder.params["token_embedding"], snapshot["token_embedding"])
