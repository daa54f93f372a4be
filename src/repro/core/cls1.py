"""CLS I: rule-based validation of the extracted text.

The first classification stage judges, from cheap aggregate statistics of the
PyMuPDF-extracted text (character counts, whitespace and alphabetic ratios,
scrambled-word indicators, ...), whether the extraction is *valid* at all.
Invalid documents bypass the rest of the cascade and go straight to the
high-quality parser.  The paper stresses that this stage must be interpretable
and fast — hence explicit thresholds rather than a learned model, with an
optional calibration helper that tunes the thresholds from labelled data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ml.features import TEXT_FEATURE_NAMES, TextStatisticsExtractor


@dataclass(frozen=True)
class ValidationConfig:
    """Thresholds of the rule-based validity check."""

    min_characters: int = 200
    min_words_per_page: float = 40.0
    min_alpha_ratio: float = 0.55
    max_whitespace_ratio: float = 0.35
    max_vowel_free_word_ratio: float = 0.25
    max_single_char_word_ratio: float = 0.20
    max_non_ascii_ratio: float = 0.20
    min_lexicon_hit_ratio: float = 0.02


@dataclass(frozen=True)
class ValidationVerdict:
    """Outcome of CLS I for one document."""

    is_valid: bool
    reasons: tuple[str, ...] = ()


class ValidationClassifier:
    """Rule-based validity classifier over extracted-text statistics."""

    def __init__(self, config: ValidationConfig | None = None) -> None:
        self.config = config or ValidationConfig()
        self.extractor = TextStatisticsExtractor()

    def validate(self, text: str, n_pages: int = 1) -> ValidationVerdict:
        """Judge one extracted text (optionally normalised per page)."""
        cfg = self.config
        n_characters = len(text.strip())
        if n_characters < cfg.min_characters:
            reason = f"text too short ({n_characters} chars)"
            return ValidationVerdict(is_valid=False, reasons=(reason,))
        stats = self.extractor.validity_statistics(text)
        # Through log1p and back, as the feature vector holds the word count:
        # a text at exactly the words-per-page threshold keeps its verdict.
        n_words = float(np.expm1(math.log1p(stats.n_words)))
        if len(text) > self.extractor.max_chars:
            # The statistics see the first max_chars characters only: scale
            # that window's words to the whole text before dividing by every page.
            n_words *= len(text) / self.extractor.max_chars
        words_per_page = n_words / max(1, n_pages)
        reasons: list[str] = []
        if words_per_page < cfg.min_words_per_page:
            reasons.append(f"too few words per page ({words_per_page:.0f})")
        if stats.alpha_ratio < cfg.min_alpha_ratio:
            reasons.append("low alphabetic ratio")
        if stats.whitespace_ratio > cfg.max_whitespace_ratio:
            reasons.append("excessive whitespace")
        if stats.vowel_free_word_ratio > cfg.max_vowel_free_word_ratio:
            reasons.append("many unpronounceable (scrambled) words")
        if stats.single_char_word_ratio > cfg.max_single_char_word_ratio:
            reasons.append("many single-character words (whitespace injection)")
        if stats.non_ascii_ratio > cfg.max_non_ascii_ratio:
            reasons.append("high non-ASCII ratio")
        if stats.lexicon_hit_ratio < cfg.min_lexicon_hit_ratio:
            reasons.append("no recognisable vocabulary")
        return ValidationVerdict(is_valid=not reasons, reasons=tuple(reasons))

    def is_valid(self, text: str, n_pages: int = 1) -> bool:
        """Boolean shortcut for :meth:`validate`."""
        return self.validate(text, n_pages=n_pages).is_valid


def calibrate_validation_threshold(
    texts: list[str],
    accuracies: np.ndarray,
    accuracy_floor: float = 0.25,
    quantile: float = 0.05,
) -> ValidationConfig:
    """Tune CLS I thresholds from labelled data.

    Documents whose extraction accuracy falls below ``accuracy_floor`` are
    treated as "should have been flagged invalid"; thresholds are set at the
    requested quantile of the *good* documents' feature distributions so that
    valid documents are rarely rejected.
    """
    extractor = TextStatisticsExtractor()
    features = extractor.extract_batch(texts)
    accuracies = np.asarray(accuracies, dtype=np.float64)
    good = accuracies >= accuracy_floor
    if good.sum() < 5:
        return ValidationConfig()
    index = {name: i for i, name in enumerate(TEXT_FEATURE_NAMES)}
    good_features = features[good]
    return ValidationConfig(
        min_alpha_ratio=float(np.quantile(good_features[:, index["alpha_ratio"]], quantile)),
        max_whitespace_ratio=float(
            np.quantile(good_features[:, index["whitespace_ratio"]], 1 - quantile)
        ),
        max_vowel_free_word_ratio=float(
            np.quantile(good_features[:, index["vowel_free_word_ratio"]], 1 - quantile)
        ),
        max_single_char_word_ratio=float(
            np.quantile(good_features[:, index["single_char_word_ratio"]], 1 - quantile)
        ),
        max_non_ascii_ratio=float(
            np.quantile(good_features[:, index["non_ascii_ratio"]], 1 - quantile)
        ),
    )
