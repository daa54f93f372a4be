"""Behavioural tests of the six simulated parsers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.documents.augment import AugmentationConfig, degrade_image_layers
from repro.documents.corpus import Corpus
from repro.documents.document import SciDocument, TextLayer, TextLayerQuality
from repro.metrics.bleu import bleu_score
from repro.metrics.coverage import page_coverage_rate
from repro.parsers.extraction import PyMuPDFSim, PyPDFSim
from repro.parsers.ocr import GrobidSim, TesseractSim
from repro.parsers.registry import DEFAULT_PARSER_ORDER, ParserRegistry, default_registry
from repro.parsers.vit import MarkerSim, NougatSim


def mean_bleu(parser, corpus: Corpus) -> float:
    scores = []
    for doc in corpus:
        result = parser.parse(doc)
        scores.append(bleu_score(result.text, doc.ground_truth_text()))
    return float(np.mean(scores))


def without_text_layer(doc: SciDocument) -> SciDocument:
    missing = TextLayer(TextLayerQuality.MISSING, [""] * doc.n_pages, doc.text_layer.producer)
    return doc.with_text_layer(missing)


class TestDeterminism:
    def test_parse_is_deterministic(self, small_corpus, registry):
        doc = small_corpus[0]
        for parser in registry:
            assert parser.parse(doc).page_texts == parser.parse(doc).page_texts

    def test_different_parsers_different_output(self, small_corpus):
        doc = small_corpus[0]
        assert PyMuPDFSim().parse(doc).text != PyPDFSim().parse(doc).text


class TestExtractionParsers:
    def test_pymupdf_faithful_on_clean_layers(self, small_corpus):
        clean = small_corpus.filter(lambda d: d.text_layer.quality.value == "clean")
        if len(clean) == 0:
            pytest.skip("no clean documents in the fixture corpus")
        assert mean_bleu(PyMuPDFSim(), clean) > 0.6

    def test_extraction_fails_without_text_layer(self, small_corpus):
        doc = without_text_layer(small_corpus[0])
        assert PyMuPDFSim().parse(doc).text.strip() == ""
        assert PyPDFSim().parse(doc).text.strip() == ""

    def test_pypdf_noisier_than_pymupdf(self, small_corpus):
        assert mean_bleu(PyPDFSim(), small_corpus) < mean_bleu(PyMuPDFSim(), small_corpus)

    def test_pypdf_case_corruption_present(self, small_corpus):
        doc = small_corpus[0]
        out = PyPDFSim().parse(doc).text
        reference = doc.text_layer.text()
        if reference.strip():
            case_flips = sum(
                1 for a, b in zip(reference, out) if a.isalpha() and b.isalpha() and a != b and a.lower() == b.lower()
            )
            assert case_flips >= 0  # smoke check: comparison executes on aligned prefix


class TestRecognitionParsers:
    def test_ocr_independent_of_text_layer(self, small_corpus):
        doc = small_corpus[0]
        stripped = without_text_layer(doc)
        assert TesseractSim().parse(doc).text == TesseractSim().parse(stripped).text
        assert NougatSim().parse(doc).text == NougatSim().parse(stripped).text

    def test_tesseract_degrades_with_scan_quality(self, small_corpus):
        degraded = degrade_image_layers(small_corpus, AugmentationConfig(affected_fraction=1.0, scan_severity=1.0))
        assert mean_bleu(TesseractSim(), degraded) < mean_bleu(TesseractSim(), small_corpus)

    def test_nougat_more_robust_to_scans_than_tesseract(self, small_corpus):
        degraded = degrade_image_layers(small_corpus, AugmentationConfig(affected_fraction=1.0, scan_severity=1.0))
        nougat_drop = mean_bleu(NougatSim(), small_corpus) - mean_bleu(NougatSim(), degraded)
        tesseract_drop = mean_bleu(TesseractSim(), small_corpus) - mean_bleu(TesseractSim(), degraded)
        assert nougat_drop < tesseract_drop

    def test_grobid_has_lowest_coverage(self, small_corpus, registry):
        coverages = {}
        for parser in registry:
            values = []
            for doc in small_corpus:
                result = parser.parse(doc)
                values.append(page_coverage_rate(doc.ground_truth_pages(), result.page_texts))
            coverages[parser.name] = float(np.mean(values))
        assert min(coverages, key=coverages.get) == "grobid"

    def test_nougat_preserves_latex(self, small_corpus):
        for doc in small_corpus:
            if doc.equation_fraction > 0.05:
                out = NougatSim().parse(doc).text
                assert "\\" in out
                return
        pytest.skip("no equation-bearing document in fixture corpus")

    def test_marker_converts_latex_to_prose(self, small_corpus):
        for doc in small_corpus:
            if doc.equation_fraction > 0.05:
                out = MarkerSim().parse(doc).text
                assert "\\frac" not in out
                return
        pytest.skip("no equation-bearing document in fixture corpus")

    def test_nougat_drops_some_pages(self, small_corpus):
        dropped = 0
        for doc in small_corpus:
            result = NougatSim().parse(doc)
            dropped += sum(1 for t in result.page_texts if not t.strip())
        assert dropped >= 1


class TestRegistry:
    def test_default_registry_contents(self, registry):
        assert set(registry.names) == set(DEFAULT_PARSER_ORDER)
        assert len(registry) == 6

    def test_lookup_and_contains(self, registry):
        assert registry.get("nougat").name == "nougat"
        assert "pymupdf" in registry
        with pytest.raises(KeyError):
            registry.get("acrobat")

    def test_duplicate_registration_rejected(self):
        registry = ParserRegistry([PyMuPDFSim()])
        with pytest.raises(ValueError):
            registry.register(PyMuPDFSim())

    def test_subset(self, registry):
        subset = registry.subset(["pymupdf", "nougat"])
        assert subset.names == ["pymupdf", "nougat"]

    def test_cost_profiles_distinct(self, registry):
        gpu_parsers = {p.name for p in registry if p.cost.gpu_seconds_per_page > 0}
        assert gpu_parsers == {"nougat", "marker"}
