"""Tests for the three classification stages (CLS I, II, III)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cls1 import (
    ValidationClassifier,
    ValidationConfig,
    calibrate_validation_threshold,
)
from repro.core.cls2 import ImprovementClassifier, ImprovementLabeling
from repro.core.cls3 import ParserSelector
from repro.documents.metadata import sample_metadata
from repro.ml.fasttext import FastTextConfig
from repro.ml.quality_model import ParserQualityPredictor

VALID_TEXT = (
    "The robust framework demonstrates a significant result in the catalyst analysis. "
    "Moreover, the systematic experiment validates the adaptive mechanism across the "
    "polymerization dataset with respect to the measured yield and observed variance. "
) * 4
_scramble_rng = np.random.default_rng(99)
SCRAMBLED_TEXT = __import__("repro.documents.noise", fromlist=["scramble_layer"]).scramble_layer(
    VALID_TEXT, _scramble_rng
)
WHITESPACE_TEXT = " ".join(list("the robust framework demonstrates a significant result")) * 10


class TestValidationClassifier:
    def test_valid_text_accepted(self):
        verdict = ValidationClassifier().validate(VALID_TEXT, n_pages=1)
        assert verdict.is_valid
        assert verdict.reasons == ()

    def test_empty_text_rejected(self):
        verdict = ValidationClassifier().validate("", n_pages=3)
        assert not verdict.is_valid
        assert "too short" in verdict.reasons[0]

    def test_scrambled_text_rejected(self):
        assert not ValidationClassifier().is_valid(SCRAMBLED_TEXT)

    def test_whitespace_injected_text_rejected(self):
        assert not ValidationClassifier().is_valid(WHITESPACE_TEXT)

    def test_too_few_words_per_page(self):
        verdict = ValidationClassifier().validate(VALID_TEXT, n_pages=100)
        assert not verdict.is_valid

    def test_custom_thresholds(self):
        lenient = ValidationClassifier(ValidationConfig(min_characters=1, min_words_per_page=0,
                                                        min_alpha_ratio=0.0, max_whitespace_ratio=1.0,
                                                        max_vowel_free_word_ratio=1.0,
                                                        max_single_char_word_ratio=1.0,
                                                        max_non_ascii_ratio=1.0,
                                                        min_lexicon_hit_ratio=0.0))
        assert lenient.is_valid(WHITESPACE_TEXT)

    def test_calibration_returns_config(self):
        texts = [VALID_TEXT] * 20 + [SCRAMBLED_TEXT] * 5
        accuracies = np.array([0.8] * 20 + [0.05] * 5)
        config = calibrate_validation_threshold(texts, accuracies)
        assert isinstance(config, ValidationConfig)
        assert ValidationClassifier(config).is_valid(VALID_TEXT)


class TestImprovementClassifier:
    def _dataset(self, n=60, seed=4):
        rng = np.random.default_rng(seed)
        metadatas = [sample_metadata(rng, n_pages=6) for _ in range(n)]
        accuracies = np.zeros((n, 2))
        labels_informative = []
        for i, meta in enumerate(metadatas):
            # Scanner-produced or old documents improve with the better parser.
            improvable = meta.producer in ("scanner_firmware", "legacy_distiller") or meta.year < 2008
            accuracies[i, 0] = 0.4 if improvable else 0.8
            accuracies[i, 1] = 0.75
            labels_informative.append(improvable)
        return metadatas, accuracies

    def test_labeling_rule(self):
        labeling = ImprovementLabeling(default_parser="pymupdf", margin=0.05)
        labels = labeling.labels(["pymupdf", "nougat"], np.array([[0.8, 0.7], [0.3, 0.7]]))
        np.testing.assert_array_equal(labels, [0, 1])

    def test_fit_and_predict(self):
        metadatas, accuracies = self._dataset()
        clf = ImprovementClassifier()
        clf.fit(metadatas, ["pymupdf", "nougat"], accuracies)
        probs = clf.improvement_probability(metadatas)
        assert probs.shape == (len(metadatas),)
        assert np.all((probs >= 0) & (probs <= 1))
        assert clf.accuracy(metadatas, ["pymupdf", "nougat"], accuracies) > 0.7

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ImprovementClassifier().improvement_probability([])


class TestParserSelector:
    def _predictor(self) -> ParserQualityPredictor:
        predictor = ParserQualityPredictor(
            ["pymupdf", "nougat", "marker"],
            backend="fasttext",
            fasttext_config=FastTextConfig(embedding_dim=16, n_buckets=1 << 10, n_epochs=10),
        )
        texts = [VALID_TEXT[:200], SCRAMBLED_TEXT[:200]] * 6
        targets = np.array([[0.9, 0.7, 0.6], [0.2, 0.7, 0.6]] * 6)
        predictor.fit(texts, targets)
        return predictor

    def test_candidate_restriction(self):
        selector = ParserSelector(self._predictor(), candidate_parsers=["pymupdf", "nougat"])
        decisions = selector.decide([VALID_TEXT[:200], SCRAMBLED_TEXT[:200]])
        assert all(d.best_parser in ("pymupdf", "nougat") for d in decisions)
        assert decisions[1].best_parser == "nougat"
        assert decisions[1].improvement_over_default > 0

    def test_improvement_scores_sign(self):
        selector = ParserSelector(self._predictor(), candidate_parsers=["pymupdf", "nougat"])
        scores = selector.improvement_scores([VALID_TEXT[:200], SCRAMBLED_TEXT[:200]], "nougat")
        assert scores[1] > scores[0]

    def test_unknown_parsers_rejected(self):
        predictor = self._predictor()
        with pytest.raises(KeyError):
            ParserSelector(predictor, default_parser="acrobat")
        with pytest.raises(KeyError):
            ParserSelector(predictor, candidate_parsers=["acrobat"])
        selector = ParserSelector(predictor)
        with pytest.raises(KeyError):
            selector.improvement_scores(["x"], "acrobat")

    def test_empty_batch(self):
        selector = ParserSelector(self._predictor())
        assert selector.decide([]) == []
