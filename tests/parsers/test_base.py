"""Tests for the parser abstraction and cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import LLM_VARIANT_CONFIG
from repro.documents.document import ImageLayer
from repro.parsers.base import Parser, ParserCost, ResourceUsage

#: A hard scan: every term of :meth:`ImageLayer.degradation_score` saturates.
_WORST_SCAN = ImageLayer(
    dpi=50, rotation_deg=10.0, blur_sigma=3.0, contrast=0.2, noise_level=0.5, jpeg_quality=15, is_scanned=True
)


class FailingParser(Parser):
    name = "failing"
    cost = ParserCost(cpu_seconds_per_page=0.01)

    def _parse_pages(self, document, rng):
        raise RuntimeError("corrupted document stream")


class EchoParser(Parser):
    name = "echo"
    cost = ParserCost(cpu_seconds_per_page=0.01)

    def _parse_pages(self, document, rng):
        return list(document.text_layer.page_texts)


class TestResourceUsage:
    def test_addition_sums_time_and_maxes_memory(self):
        a = ResourceUsage(cpu_seconds=1.0, gpu_seconds=0.5, cpu_memory_mb=100, gpu_memory_mb=0)
        b = ResourceUsage(cpu_seconds=2.0, gpu_seconds=1.0, cpu_memory_mb=50, gpu_memory_mb=900)
        c = a + b
        assert c.cpu_seconds == 3.0
        assert c.gpu_seconds == 1.5
        assert c.cpu_memory_mb == 100
        assert c.gpu_memory_mb == 900


class TestParserCost:
    def test_expected_usage_scales_with_pages(self):
        cost = ParserCost(cpu_seconds_per_page=0.1, per_document_overhead_seconds=0.5)
        u10 = cost.expected_document_usage(10)
        u20 = cost.expected_document_usage(20)
        assert u10.cpu_seconds == pytest.approx(1.5)
        assert u20.cpu_seconds == pytest.approx(2.5)

    def test_sampled_usage_positive_and_varies(self):
        cost = ParserCost(cpu_seconds_per_page=0.1, variability=0.3)
        rng = np.random.default_rng(0)
        samples = [cost.sample_document_usage(10, rng).cpu_seconds for _ in range(20)]
        assert all(s > 0 for s in samples)
        assert len({round(s, 6) for s in samples}) > 1

    def test_difficulty_inflates_cost(self):
        cost = ParserCost(cpu_seconds_per_page=0.1, variability=0.0)
        rng = np.random.default_rng(0)
        easy = cost.sample_document_usage(10, rng, difficulty=0.0).cpu_seconds
        hard = cost.sample_document_usage(10, rng, difficulty=1.0).cpu_seconds
        assert hard > easy


class TestParserBehaviour:
    def test_parse_failure_is_captured(self, sample_document):
        result = FailingParser().parse(sample_document)
        assert not result.succeeded
        assert "corrupted" in (result.error or "")
        assert result.n_pages == sample_document.n_pages
        assert result.text == "\n" * (sample_document.n_pages - 1)

    def test_parse_result_fields(self, sample_document):
        result = EchoParser().parse(sample_document)
        assert result.succeeded
        assert result.parser_name == "echo"
        assert result.doc_id == sample_document.doc_id
        assert result.n_characters > 0
        assert result.usage.cpu_seconds > 0

    def test_parse_many_matches_parse(self, sample_document):
        parser = EchoParser()
        single = parser.parse(sample_document)
        batch = parser.parse_many([sample_document, sample_document])
        assert batch[0].text == single.text
        assert len(batch) == 2

    def test_document_rng_is_deterministic(self, sample_document):
        parser = EchoParser()
        a = parser.document_rng(sample_document).random(3)
        b = parser.document_rng(sample_document).random(3)
        np.testing.assert_array_equal(a, b)


class TestContentDifficulty:
    def test_is_half_equations_half_scan_degradation(self, sample_document):
        expected = 0.5 * sample_document.equation_fraction + 0.5 * sample_document.image_layer.degradation_score()
        assert EchoParser().content_difficulty(sample_document) == pytest.approx(expected)

    def test_a_degraded_scan_is_harder_than_its_clean_render(self, sample_document):
        parser = EchoParser()
        clean = sample_document.with_image_layer(ImageLayer())
        scanned = sample_document.with_image_layer(_WORST_SCAN)
        assert parser.content_difficulty(clean) == pytest.approx(0.5 * sample_document.equation_fraction)
        assert parser.content_difficulty(scanned) == pytest.approx(parser.content_difficulty(clean) + 0.5)

    def test_stays_in_the_unit_interval(self, small_corpus):
        parser = EchoParser()
        for document in small_corpus:
            assert 0.0 <= parser.content_difficulty(document) <= 1.0
            assert 0.0 <= parser.content_difficulty(document.with_image_layer(_WORST_SCAN)) <= 1.0

    def test_parse_cost_scales_with_difficulty(self, sample_document):
        # The cost draw comes from the (parser, document) stream, which the
        # image layer does not enter, so only the difficulty factor differs.
        parser = EchoParser()
        clean = sample_document.with_image_layer(ImageLayer())
        scanned = sample_document.with_image_layer(_WORST_SCAN)
        ratio = parser.parse(scanned).usage.cpu_seconds / parser.parse(clean).usage.cpu_seconds
        expected = (1.0 + 0.5 * parser.content_difficulty(scanned)) / (1.0 + 0.5 * parser.content_difficulty(clean))
        assert ratio == pytest.approx(expected)


def _ideal_node_rate(cpu_seconds_per_doc, gpu_seconds_per_doc, cpu_cores=32, gpus=4):
    """Documents/second of one node with perfect parallelism over its cores
    and GPUs (the legend of Figure 3): the slower pool is the bottleneck."""
    rates = [cpu_cores / cpu_seconds_per_doc] if cpu_seconds_per_doc > 0 else []
    rates += [gpus / gpu_seconds_per_doc] if gpu_seconds_per_doc > 0 else []
    return min(rates)


def _cpu_gpu_per_doc(cost, pages=10.0):
    return cost.per_document_overhead_seconds + cost.cpu_seconds_per_page * pages, cost.gpu_seconds_per_page * pages


class TestSingleNodeThroughput:
    """The registry's cost models against the paper's single-node ratios."""

    def test_ratio_calibration_pymupdf_vs_nougat(self, registry):
        pymupdf, nougat, pypdf = (
            _ideal_node_rate(*_cpu_gpu_per_doc(registry.get(name).cost)) for name in ("pymupdf", "nougat", "pypdf")
        )
        assert 80 <= pymupdf / nougat <= 220      # paper: ≈135×
        assert 8 <= pymupdf / pypdf <= 20         # paper: ≈13×

    def test_adaparse_llm_mix_close_to_paper_ratio(self, registry):
        """Every document pays PyMuPDF plus selection; an α share also pays
        Nougat.  At the LLM variant's α = 5 % the mix sits an order of
        magnitude above Nougat alone (the paper reports ≈17×)."""
        config = LLM_VARIANT_CONFIG
        cheap_cpu, _ = _cpu_gpu_per_doc(registry.get("pymupdf").cost)
        vit_cpu, vit_gpu = _cpu_gpu_per_doc(registry.get("nougat").cost)
        mix = _ideal_node_rate(
            cheap_cpu + config.selection_cpu_seconds + config.alpha * vit_cpu,
            config.selection_gpu_seconds + config.alpha * vit_gpu,
        )
        assert 5 < mix / _ideal_node_rate(vit_cpu, vit_gpu) < 60
