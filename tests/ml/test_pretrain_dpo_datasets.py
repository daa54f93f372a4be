"""Tests for pre-training, DPO post-training, and dataset construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.datasets import build_quality_dataset
from repro.ml.dpo import DPOConfig, DPOTrainer, PreferencePair
from repro.ml.pretrain import (
    PretrainConfig,
    generic_sentences,
    masked_token_pretrain,
    pretrain_encoder_variant,
    scientific_sentences,
)
from repro.ml.transformer import TransformerConfig, TransformerEncoder

TINY = TransformerConfig(
    vocab_size=256, max_length=16, d_model=16, n_heads=2, n_layers=1, d_ff=24, lora_rank=2
)
PRETRAIN = PretrainConfig(n_sentences=60, n_epochs=2, batch_size=16)


class TestPretrainCorpora:
    def test_scientific_sentences_generated(self):
        sentences = scientific_sentences(40, seed=1)
        assert len(sentences) == 40
        assert all(s.endswith(".") for s in sentences)

    def test_generic_sentences_differ_from_scientific(self):
        sci = " ".join(scientific_sentences(40, seed=1)).lower()
        gen = " ".join(generic_sentences(40, seed=1)).lower()
        assert "catalyst" in sci or "eigenvalue" in sci or "biomarker" in sci
        assert sci != gen

    def test_unknown_corpus_kind(self):
        with pytest.raises(ValueError):
            pretrain_encoder_variant(TransformerEncoder(TINY), "legal", PRETRAIN)


class TestMaskedTokenPretraining:
    def test_loss_decreases(self):
        encoder = TransformerEncoder(TINY, name="mlm-test")
        sentences = scientific_sentences(60, seed=2)
        history = masked_token_pretrain(encoder, sentences, PRETRAIN)
        assert len(history.train_loss) == PRETRAIN.n_epochs
        assert history.train_loss[-1] < history.train_loss[0]

    def test_empty_corpus_is_noop(self):
        encoder = TransformerEncoder(TINY)
        history = masked_token_pretrain(encoder, [], PRETRAIN)
        assert history.train_loss == []

    def test_pretraining_changes_parameters(self):
        encoder = TransformerEncoder(TINY, name="mlm-change")
        before = encoder.params["token_embedding"].copy()
        pretrain_encoder_variant(encoder, "scientific", PRETRAIN)
        assert not np.allclose(before, encoder.params["token_embedding"])


def make_pairs() -> list[PreferencePair]:
    clean = "the robust catalyst framework demonstrates a significant polymerization yield"
    junk = "t h e r o b u s t ctaalyst frmaework dmonstrtes sgnificnt plyomerisation yeild"
    return [
        PreferencePair(doc_id=f"d{i}", preferred_text=clean + f" case {i}", rejected_text=junk + f" case {i}")
        for i in range(10)
    ]


class TestDPO:
    def test_training_improves_preference_accuracy(self):
        encoder = TransformerEncoder(TINY, name="dpo-test")
        trainer = DPOTrainer(encoder, DPOConfig(n_epochs=6, batch_size=5, learning_rate=5e-3, lora_only=False))
        pairs = make_pairs()
        before = trainer.preference_accuracy(pairs)
        history = trainer.train(pairs)
        after = trainer.preference_accuracy(pairs)
        assert len(history.train_loss) == 6
        assert history.train_loss[-1] <= history.train_loss[0]
        assert after >= before

    def test_reference_scores_fixed_during_training(self):
        encoder = TransformerEncoder(TINY, name="dpo-ref")
        trainer = DPOTrainer(encoder, DPOConfig(n_epochs=2, lora_only=True))
        pairs = make_pairs()
        ref_before = trainer.reference_score([pairs[0].preferred_text])
        trainer.train(pairs)
        ref_after = trainer.reference_score([pairs[0].preferred_text])
        np.testing.assert_allclose(ref_before, ref_after, atol=1e-9)

    def test_empty_pairs_noop(self):
        trainer = DPOTrainer(TransformerEncoder(TINY), DPOConfig(n_epochs=1))
        history = trainer.train([])
        assert history.train_loss == []

    def test_score_shapes(self):
        trainer = DPOTrainer(TransformerEncoder(TINY))
        scores = trainer.score(["a", "b", "c"])
        assert scores.shape == (3,)
        assert trainer.score([]).shape == (0,)


class TestQualityDataset:
    def test_build_dataset_structure(self, tiny_corpus, registry):
        dataset = build_quality_dataset(tiny_corpus, registry, label_pages=2)
        assert len(dataset) == len(tiny_corpus)
        assert dataset.targets.shape == (len(tiny_corpus), len(registry.names))
        assert np.all(dataset.targets >= 0) and np.all(dataset.targets <= 1)
        assert all(e.n_tokens > 0 for e in dataset.examples)

    def test_best_parser_labels_within_range(self, tiny_corpus, registry):
        dataset = build_quality_dataset(tiny_corpus, registry, label_pages=2)
        labels = dataset.best_parser_labels()
        assert labels.min() >= 0 and labels.max() < len(registry.names)

    def test_subset(self, tiny_corpus, registry):
        dataset = build_quality_dataset(tiny_corpus, registry, label_pages=1)
        subset = dataset.subset([0, 1])
        assert len(subset) == 2
        assert subset.parser_names == dataset.parser_names

    def test_unknown_default_parser(self, tiny_corpus, registry):
        with pytest.raises(KeyError):
            build_quality_dataset(tiny_corpus, registry, default_parser="acrobat")
