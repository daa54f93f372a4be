"""Tests for character accuracy rate and page coverage."""

from __future__ import annotations

import pytest

from repro.metrics.car import character_accuracy_rate, page_character_accuracy
from repro.metrics.coverage import page_coverage_rate


class TestPageCharacterAccuracy:
    def test_identical_pages(self):
        assert page_character_accuracy("abc def", "abc def") == pytest.approx(1.0)

    def test_empty_parse(self):
        assert page_character_accuracy("abc", "") == 0.0

    def test_empty_ground_truth(self):
        assert page_character_accuracy("", "") == 1.0
        assert page_character_accuracy("", "junk") == 0.0

    def test_small_corruption_high_accuracy(self):
        gt = "the quick brown fox jumps over the lazy dog"
        parsed = gt.replace("quick", "qu1ck")
        assert page_character_accuracy(gt, parsed) > 0.95

    def test_whitespace_normalisation(self):
        gt = "a b  c\n d"
        parsed = "a b c d"
        assert page_character_accuracy(gt, parsed) == pytest.approx(1.0)


class TestDocumentCar:
    def test_missing_page_penalised(self):
        gt_pages = ["page one text here", "page two text here"]
        parsed = ["page one text here"]
        car = character_accuracy_rate(gt_pages, parsed)
        assert 0.4 < car < 0.6

    def test_weighting_by_page_length(self):
        gt_pages = ["x" * 1000, "y" * 10]
        parsed = ["x" * 1000, ""]
        assert character_accuracy_rate(gt_pages, parsed) > 0.95

    def test_empty_document(self):
        assert character_accuracy_rate([], []) == 1.0

    def test_truncation_cap_applies(self):
        gt = ["a" * 10_000]
        parsed = ["a" * 10_000]
        assert character_accuracy_rate(gt, parsed, max_chars=500) == pytest.approx(1.0)


class TestCoverage:
    def test_full_coverage(self):
        pages = ["content " * 10] * 4
        assert page_coverage_rate(pages, pages) == 1.0

    def test_dropped_page_detected(self):
        gt = ["content " * 10, "more content " * 10]
        parsed = ["content " * 10, ""]
        assert page_coverage_rate(gt, parsed) == pytest.approx(0.5)

    def test_short_fragment_counts_as_dropped(self):
        gt = ["a rather long ground truth page with many words"]
        parsed = ["a"]
        assert page_coverage_rate(gt, parsed) == 0.0

    def test_missing_trailing_pages(self):
        gt = ["page"] * 3
        parsed = ["page"]
        assert page_coverage_rate(gt, parsed) == pytest.approx(1 / 3)

    def test_empty_ground_truth(self):
        assert page_coverage_rate([], []) == 1.0
