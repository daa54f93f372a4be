"""Tests for ROUGE."""

from __future__ import annotations

import pytest

from repro.metrics.rouge import rouge_n

REFERENCE = "the adaptive parser selects the most promising parser for each document"
CANDIDATE = "the adaptive parser selects a parser for each document quickly"


class TestRougeN:
    def test_identity(self):
        scores = rouge_n(REFERENCE, REFERENCE, n=1)
        assert scores["f1"] == pytest.approx(1.0)

    def test_empty_candidate(self):
        assert rouge_n("", REFERENCE, n=1)["f1"] == 0.0

    def test_partial_overlap(self):
        scores = rouge_n(CANDIDATE, REFERENCE, n=1)
        assert 0.5 < scores["f1"] < 1.0
        assert 0.0 <= scores["precision"] <= 1.0
        assert 0.0 <= scores["recall"] <= 1.0

    def test_bigram_stricter_than_unigram(self):
        uni = rouge_n(CANDIDATE, REFERENCE, n=1)["f1"]
        bi = rouge_n(CANDIDATE, REFERENCE, n=2)["f1"]
        assert bi <= uni

    def test_order_insensitive_for_unigrams(self):
        shuffled = " ".join(reversed(REFERENCE.split()))
        assert rouge_n(shuffled, REFERENCE, n=1)["f1"] == pytest.approx(1.0)
