"""Tests for the benchmark augmentations (Tables 2 and 3 setups)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.documents.augment import (
    AugmentationConfig,
    degrade_image_layers,
    degraded_scan_layer,
    replace_text_layers_with_ocr,
)
from repro.documents.document import TextLayerQuality


class TestConfigValidation:
    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            AugmentationConfig(affected_fraction=1.2)

    def test_invalid_tool(self):
        with pytest.raises(ValueError):
            AugmentationConfig(ocr_tool="abbyy")


class TestImageDegradation:
    def test_affects_requested_fraction(self, small_corpus):
        config = AugmentationConfig(affected_fraction=0.5, seed=9)
        augmented = degrade_image_layers(small_corpus, config)
        n_scanned_before = sum(d.image_layer.is_scanned for d in small_corpus)
        n_scanned_after = sum(d.image_layer.is_scanned for d in augmented)
        assert n_scanned_after >= n_scanned_before
        assert n_scanned_after >= len(small_corpus) // 2

    def test_text_layer_untouched(self, small_corpus):
        config = AugmentationConfig(affected_fraction=1.0, seed=9)
        augmented = degrade_image_layers(small_corpus, config)
        for before, after in zip(small_corpus, augmented):
            assert before.text_layer.page_texts == after.text_layer.page_texts

    def test_ground_truth_untouched(self, small_corpus):
        augmented = degrade_image_layers(small_corpus, AugmentationConfig(affected_fraction=1.0))
        for before, after in zip(small_corpus, augmented):
            assert before.ground_truth_text() == after.ground_truth_text()

    def test_deterministic(self, small_corpus):
        config = AugmentationConfig(affected_fraction=0.3, seed=5)
        a = degrade_image_layers(small_corpus, config)
        b = degrade_image_layers(small_corpus, config)
        assert [d.image_layer.is_scanned for d in a] == [d.image_layer.is_scanned for d in b]

    def test_zero_fraction_is_identity(self, small_corpus):
        augmented = degrade_image_layers(small_corpus, AugmentationConfig(affected_fraction=0.0))
        assert [d.image_layer for d in augmented] == [d.image_layer for d in small_corpus]


class TestDegradedScanLayer:
    @pytest.mark.parametrize("severity", [0.0, 0.5, 1.0])
    def test_fields_stay_in_the_recipe_ranges(self, severity):
        rng = np.random.default_rng(11)
        for _ in range(50):
            layer = degraded_scan_layer(severity, rng)
            assert layer.is_scanned
            assert layer.dpi in (110, 150, 200)
            assert 0.3 <= layer.contrast <= 1.4
            assert 30 <= layer.jpeg_quality < 70
            assert layer.blur_sigma >= 0.0 and layer.noise_level >= 0.0
            assert 0.0 <= layer.degradation_score() <= 1.0

    def test_severity_is_clipped_to_the_unit_interval(self):
        assert degraded_scan_layer(3.0, np.random.default_rng(4)) == degraded_scan_layer(
            1.0, np.random.default_rng(4)
        )
        assert degraded_scan_layer(-2.0, np.random.default_rng(4)) == degraded_scan_layer(
            0.0, np.random.default_rng(4)
        )

    def test_harsher_scans_score_worse_on_average(self):
        def mean_score(severity: float) -> float:
            rng = np.random.default_rng(8)
            return float(np.mean([degraded_scan_layer(severity, rng).degradation_score() for _ in range(200)]))

        assert mean_score(0.0) < mean_score(0.5) < mean_score(1.0)

    def test_every_scan_is_worse_than_a_born_digital_render(self, small_corpus):
        rng = np.random.default_rng(3)
        pristine = max(doc.image_layer.degradation_score() for doc in small_corpus if not doc.image_layer.is_scanned)
        assert all(degraded_scan_layer(0.0, rng).degradation_score() > pristine for _ in range(50))


class TestTextLayerReplacement:
    def test_affected_layers_marked_ocr_derived(self, small_corpus):
        config = AugmentationConfig(affected_fraction=1.0, seed=2)
        augmented = replace_text_layers_with_ocr(small_corpus, config)
        assert all(d.text_layer.quality is TextLayerQuality.OCR_DERIVED for d in augmented)
        assert all(d.text_layer.producer.startswith("replaced-") for d in augmented)

    def test_partial_replacement_count(self, small_corpus):
        config = AugmentationConfig(affected_fraction=0.25, seed=2)
        augmented = replace_text_layers_with_ocr(small_corpus, config)
        replaced = sum(d.text_layer.producer.startswith("replaced-") for d in augmented)
        assert replaced == round(0.25 * len(small_corpus))

    def test_replacement_degrades_layer_fidelity(self, small_corpus):
        config = AugmentationConfig(affected_fraction=1.0, seed=2, ocr_tool="grobid")
        augmented = replace_text_layers_with_ocr(small_corpus, config)
        for before, after in zip(small_corpus, augmented):
            if before.text_layer.quality is TextLayerQuality.CLEAN:
                assert after.text_layer.n_characters <= before.text_layer.n_characters * 1.1

    def test_page_alignment_preserved(self, small_corpus):
        augmented = replace_text_layers_with_ocr(
            small_corpus, AugmentationConfig(affected_fraction=1.0)
        )
        for doc in augmented:
            assert doc.text_layer.n_pages == doc.n_pages
