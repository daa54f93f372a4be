"""Tests for the fastText model and the parser-quality predictor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.fasttext import FastTextConfig, FastTextModel
from repro.ml.quality_model import FineTuneConfig, ParserQualityPredictor
from repro.ml.transformer import TransformerConfig

PARSERS = ["pymupdf", "nougat"]

CLEAN_TEXTS = [
    f"the robust framework demonstrates a significant result in catalyst analysis number {i}"
    for i in range(12)
]
JUNK_TEXTS = [
    f"t h e r o b u s t frmaework dmonstrtes a sginificnt rselut nmuber {i}" for i in range(12)
]
# Clean extraction → pymupdf wins; junk extraction → nougat wins.
CLEAN_TARGETS = np.tile(np.array([0.9, 0.7]), (len(CLEAN_TEXTS), 1))
JUNK_TARGETS = np.tile(np.array([0.2, 0.7]), (len(JUNK_TEXTS), 1))
TEXTS = CLEAN_TEXTS + JUNK_TEXTS
TARGETS = np.vstack([CLEAN_TARGETS, JUNK_TARGETS])

FAST_CONFIG = FastTextConfig(embedding_dim=16, n_buckets=1 << 10, n_epochs=15, batch_size=8)
TINY_TRANSFORMER = TransformerConfig(
    vocab_size=256, max_length=24, d_model=16, n_heads=2, n_layers=1, d_ff=24, lora_rank=2
)


class TestFastTextModel:
    def test_bucket_ids_deterministic_and_in_range(self):
        model = FastTextModel(FAST_CONFIG, n_outputs=2)
        ids_a = model.bucket_ids("catalyst analysis of polymers")
        ids_b = model.bucket_ids("catalyst analysis of polymers")
        np.testing.assert_array_equal(ids_a, ids_b)
        assert ids_a.max() < FAST_CONFIG.n_buckets

    def test_training_reduces_loss(self):
        model = FastTextModel(FAST_CONFIG, n_outputs=2)
        history = model.fit(TEXTS, TARGETS)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_learns_to_separate_clean_from_junk(self):
        model = FastTextModel(FAST_CONFIG, n_outputs=2)
        model.fit(TEXTS, TARGETS)
        predictions = model.predict([CLEAN_TEXTS[0], JUNK_TEXTS[0]])
        # pymupdf (column 0) predicted clearly higher for the clean text.
        assert predictions[0, 0] - predictions[1, 0] > 0.2

    def test_classification_mode(self):
        model = FastTextModel(FAST_CONFIG, n_outputs=2, task="classification")
        labels = np.array([0] * len(CLEAN_TEXTS) + [1] * len(JUNK_TEXTS))
        model.fit(TEXTS, labels)
        probs = model.predict([CLEAN_TEXTS[1], JUNK_TEXTS[1]])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_text_vectors_stack_one_text_vector_per_text(self):
        model = FastTextModel(FAST_CONFIG, n_outputs=2)
        vectors = model.text_vectors(TEXTS[:3])
        assert vectors.shape == (3, FAST_CONFIG.embedding_dim)
        for row, text in zip(vectors, TEXTS[:3]):
            np.testing.assert_array_equal(row, model.text_vector(text))

    def test_fit_records_the_validation_loss_of_the_trained_model(self):
        model = FastTextModel(FAST_CONFIG, n_outputs=2)
        validation = (TEXTS[::3], TARGETS[::3])
        history = model.fit(TEXTS, TARGETS, validation=validation)
        assert len(history.validation_loss) == FAST_CONFIG.n_epochs
        assert history.validation_loss[-1] == model.evaluate_loss(*validation)

    def test_invalid_task_rejected(self):
        with pytest.raises(ValueError):
            FastTextModel(FAST_CONFIG, n_outputs=2, task="ranking")

    def test_empty_text_handled(self):
        model = FastTextModel(FAST_CONFIG, n_outputs=2)
        assert model.predict([""]).shape == (1, 2)

    def test_an_empty_training_set_is_refused(self):
        # It used to set the bias to the mean of no rows: NaN, under a
        # swallowed warning, and every later prediction NaN with it.
        model = FastTextModel(FAST_CONFIG, n_outputs=2)
        with pytest.raises(ValueError, match="empty"):
            model.fit([], np.zeros((0, 2)))
        assert not np.isnan(model.predict(["text"])).any()

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_texts_and_targets_of_different_lengths_are_refused(self, task):
        # It used to start the bias from all five rows and train on two.
        model = FastTextModel(FAST_CONFIG, n_outputs=2, task=task)
        targets = np.zeros((5, 2)) if task == "regression" else np.zeros(5)
        with pytest.raises(ValueError, match="2 texts but 5 target rows"):
            model.fit(TEXTS[:2], targets)
        assert not np.any(model.head_bias) and not model.history.train_loss


class TestParserQualityPredictor:
    def test_fasttext_backend_end_to_end(self):
        predictor = ParserQualityPredictor(PARSERS, backend="fasttext", fasttext_config=FAST_CONFIG)
        predictor.fit(TEXTS, TARGETS)
        best = predictor.predict_best_parser([CLEAN_TEXTS[0], JUNK_TEXTS[0]])
        assert best[1] == "nougat"
        improvements = predictor.predicted_improvement([JUNK_TEXTS[0]], baseline_parser="pymupdf")
        assert improvements[0] > 0

    def test_transformer_backend_trains(self):
        predictor = ParserQualityPredictor(
            PARSERS,
            backend="transformer",
            transformer_config=TINY_TRANSFORMER,
            finetune_config=FineTuneConfig(n_epochs=3, batch_size=8, lora_only=False),
        )
        history = predictor.fit(TEXTS, TARGETS)
        assert history.train_loss[-1] < history.train_loss[0]
        predictions = predictor.predict([CLEAN_TEXTS[0], JUNK_TEXTS[0]])
        assert predictions.shape == (2, 2)

    def test_target_shape_validated(self):
        predictor = ParserQualityPredictor(PARSERS, backend="fasttext", fasttext_config=FAST_CONFIG)
        with pytest.raises(ValueError):
            predictor.fit(TEXTS, np.zeros((len(TEXTS), 3)))

    @pytest.mark.parametrize("backend", ["fasttext", "transformer"])
    def test_target_rows_validated(self, backend):
        predictor = ParserQualityPredictor(
            PARSERS, backend=backend, fasttext_config=FAST_CONFIG, transformer_config=TINY_TRANSFORMER
        )
        with pytest.raises(ValueError, match="empty"):
            predictor.fit([], np.zeros((0, 2)))
        with pytest.raises(ValueError, match="2 texts but 5 target rows"):
            predictor.fit(TEXTS[:2], TARGETS[:5])
        assert not predictor.history.train_loss

    @pytest.mark.parametrize("override", [{"learning_rate": 1e-4}, {"n_epochs": 1}])
    def test_fasttext_backend_refuses_transformer_overrides(self, override):
        # They used to be dropped: the fit ran at FastTextConfig's values.
        predictor = ParserQualityPredictor(PARSERS, backend="fasttext", fasttext_config=FAST_CONFIG)
        before = predictor.weights_fingerprint()
        with pytest.raises(ValueError, match="FastTextConfig"):
            predictor.fit(TEXTS, TARGETS, **override)
        assert predictor.weights_fingerprint() == before and not predictor.history.train_loss

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ParserQualityPredictor(PARSERS, backend="xgboost")

    def test_empty_parser_list_rejected(self):
        with pytest.raises(ValueError):
            ParserQualityPredictor([], backend="fasttext")

    def test_r2_and_selection_accuracy_reported(self):
        predictor = ParserQualityPredictor(PARSERS, backend="fasttext", fasttext_config=FAST_CONFIG)
        predictor.fit(TEXTS, TARGETS)
        r2 = predictor.r2_scores(TEXTS, TARGETS)
        assert set(r2) == set(PARSERS)
        accuracy = predictor.selection_accuracy(TEXTS, TARGETS)
        assert 0.0 <= accuracy <= 1.0

    def test_unknown_baseline_rejected(self):
        predictor = ParserQualityPredictor(PARSERS, backend="fasttext", fasttext_config=FAST_CONFIG)
        predictor.fit(TEXTS, TARGETS)
        with pytest.raises(KeyError):
            predictor.predicted_improvement(TEXTS[:1], baseline_parser="marker")

    def test_empty_prediction(self):
        predictor = ParserQualityPredictor(PARSERS, backend="fasttext", fasttext_config=FAST_CONFIG)
        assert predictor.predict([]).shape == (0, 2)
