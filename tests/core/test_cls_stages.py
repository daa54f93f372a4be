"""Tests for the three classification stages (CLS I, II, III)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cls1 import (
    ValidationClassifier,
    ValidationConfig,
    calibrate_validation_threshold,
)
from repro.core.cls2 import ImprovementClassifier, ImprovementLabeling
from repro.core.cls3 import ParserSelector
from repro.documents import lexicon
from repro.documents.metadata import sample_metadata
from repro.ml.fasttext import FastTextConfig
from repro.ml.features import TEXT_FEATURE_NAMES, TextStatisticsExtractor
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


def rules_over_features(text: str, n_pages: int) -> tuple[bool, tuple[str, ...]]:
    """CLS I's rules, read from the whole 18-feature vector: the reference
    that ``validate`` (which computes only the seven statistics it reads)
    must match verdict for verdict and reason for reason."""
    cfg, extractor = ValidationConfig(), TextStatisticsExtractor()
    if len(text.strip()) < cfg.min_characters:
        return False, (f"text too short ({len(text.strip())} chars)",)
    feature = dict(zip(TEXT_FEATURE_NAMES, extractor.extract(text).tolist()))
    n_words = float(np.expm1(feature["n_words_log"]))
    if len(text) > extractor.max_chars:
        n_words *= len(text) / extractor.max_chars
    words_per_page = n_words / max(1, n_pages)
    reasons = []
    if words_per_page < cfg.min_words_per_page:
        reasons.append(f"too few words per page ({words_per_page:.0f})")
    if feature["alpha_ratio"] < cfg.min_alpha_ratio:
        reasons.append("low alphabetic ratio")
    if feature["whitespace_ratio"] > cfg.max_whitespace_ratio:
        reasons.append("excessive whitespace")
    if feature["vowel_free_word_ratio"] > cfg.max_vowel_free_word_ratio:
        reasons.append("many unpronounceable (scrambled) words")
    if feature["single_char_word_ratio"] > cfg.max_single_char_word_ratio:
        reasons.append("many single-character words (whitespace injection)")
    if feature["non_ascii_ratio"] > cfg.max_non_ascii_ratio:
        reasons.append("high non-ASCII ratio")
    if feature["lexicon_hit_ratio"] < cfg.min_lexicon_hit_ratio:
        reasons.append("no recognisable vocabulary")
    return not reasons, tuple(reasons)


# Words that reach each rule: lexicon terms (bare and wrapped in the
# punctuation the lexicon match strips), words of length 1, 4, 18 and 19 with
# and without vowels, "İ" (whose lower() is two code points), astral
# characters and lone surrogates.
_SHORT_WORDS = ("analysis", "model", "lemma", "theorem", "the", "of", "a", "I", "x", "yield")
_WORDS = _SHORT_WORDS + (
    "(analysis),", "framework.", "xkcd", "rhythm", "ab-\ncd", "42", "Σ∫", "=",
    "abcdefghijklmnopqr", "abcdefghijklmnopqrs", "bcdfghjklmnpqrstvw", "bcdfghjklmnpqrstvwx",
    "İ", "İİİİ", "İstanbul", "𝔸𝔹", "\U0001e900", "\ud800", "x\udfffy", "\U0010ffff",
)
_SEPARATORS = st.sampled_from([" ", " ", "\n", "  ", "\t", " \n\n"])


@st.composite
def _texts(draw) -> tuple[str, int]:
    """Words from a few of those above (so that each rule is reached), inside
    the 6000-character window or past it, over 1 to 64 pages."""
    vocabulary = draw(
        st.lists(st.one_of(st.sampled_from(_WORDS), st.text(max_size=6)), min_size=1, max_size=8)
    )
    words = draw(st.lists(st.sampled_from(vocabulary), max_size=60))
    separator = draw(_SEPARATORS)
    unit = separator.join(words)
    n_copies = draw(st.integers(1, 4))
    if draw(st.booleans()):
        n_copies += 6000 // (len(unit) + 1) + 1
    return draw(_SEPARATORS) + separator.join([unit] * n_copies), draw(st.integers(1, 64))


_TERMS = tuple(t for t in lexicon.all_scientific_terms() if len(t) <= 10)


@st.composite
def _forty_words_per_page(draw) -> tuple[str, int]:
    """Exactly 40 words per page, inside the window."""
    n_pages = draw(st.integers(1, 12))
    pattern = draw(st.lists(st.sampled_from(_TERMS + _SHORT_WORDS), min_size=1, max_size=40))
    words = (pattern * (40 * n_pages))[: 40 * n_pages]
    return draw(_SEPARATORS).join(words), n_pages


# 240 words read back from log1p as just under 240: over 6 pages the round
# trip, not the exact count, is what decides.
_240_WORDS = " ".join((list(lexicon.ACADEMIC_NOUNS[:12]) * 20)[:240])


def _stripped_length(n_characters: int) -> str:
    return " \n" + ("analysis " * 30)[:n_characters] + "\n "


class TestVerdictExactness:
    """``validate`` reads the seven statistics of
    :meth:`TextStatisticsExtractor.validity_statistics`, not the 18-feature
    vector; both come out of one pass, so the verdict is what the same rules
    give over the vector, and each statistic is that vector's entry."""

    @settings(max_examples=300, deadline=None)
    @given(case=st.one_of(_texts(), _forty_words_per_page()))
    @example(case=(_stripped_length(199), 1))
    @example(case=(_stripped_length(200), 1))
    @example(case=(_stripped_length(201), 1))
    @example(case=(_240_WORDS, 6))
    @example(case=(" ".join(["analysis"] * 1000), 25))
    @example(case=("İstanbul analysis 𝔸 \ud800 " * 400, 30))
    @example(case=(" ".join(lexicon.all_scientific_terms() * 10), 30))
    def test_verdict_is_the_rules_over_the_feature_vector(self, case):
        text, n_pages = case
        verdict = ValidationClassifier().validate(text, n_pages=n_pages)
        assert (verdict.is_valid, verdict.reasons) == rules_over_features(text, n_pages)

    @settings(max_examples=200, deadline=None)
    @given(case=st.one_of(_texts(), _forty_words_per_page()))
    @example(case=("", 1))
    def test_each_statistic_is_its_feature(self, case):
        text, _ = case
        extractor = TextStatisticsExtractor()
        statistics = extractor.validity_statistics(text)
        feature = dict(zip(TEXT_FEATURE_NAMES, extractor.extract(text).tolist()))
        assert math.log1p(statistics.n_words) == feature["n_words_log"]
        for name in (
            "alpha_ratio",
            "whitespace_ratio",
            "non_ascii_ratio",
            "vowel_free_word_ratio",
            "single_char_word_ratio",
            "lexicon_hit_ratio",
        ):
            assert getattr(statistics, name) == feature[name], name

    def test_the_log1p_round_trip_decides_at_the_boundary(self):
        assert float(np.expm1(math.log1p(240))) < 240
        verdict = ValidationClassifier().validate(_240_WORDS, n_pages=6)
        assert verdict.reasons == ("too few words per page (40)",)


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
