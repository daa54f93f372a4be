"""Tests for corpus construction and splits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.documents.corpus import (
    Corpus,
    CorpusConfig,
    benchmark_splits,
    build_corpus,
    build_document,
    build_text_layer,
    embedded_page_text,
    sample_text_layer_quality,
)
from repro.documents.document import ImageLayer, PageContent, PageElement, TextLayerQuality
from repro.utils.rng import DrawStream


class TestCorpusConfig:
    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            CorpusConfig(n_documents=0)
        with pytest.raises(ValueError):
            CorpusConfig(min_pages=5, max_pages=3)
        with pytest.raises(ValueError):
            CorpusConfig(scanned_fraction=1.5)


class TestBuildDocument:
    def test_deterministic_per_index(self):
        config = CorpusConfig(n_documents=3, seed=50, min_pages=3, max_pages=5)
        a = build_document(1, config)
        b = build_document(1, config)
        assert a.doc_id == b.doc_id
        assert a.ground_truth_text() == b.ground_truth_text()
        assert a.text_layer.page_texts == b.text_layer.page_texts

    def test_independent_of_other_documents(self):
        config = CorpusConfig(n_documents=10, seed=50, min_pages=3, max_pages=5)
        direct = build_document(4, config)
        in_corpus = build_corpus(config)[4]
        assert direct.ground_truth_text() == in_corpus.ground_truth_text()

    def test_page_counts_within_bounds(self):
        config = CorpusConfig(n_documents=10, seed=1, min_pages=4, max_pages=7)
        for doc in build_corpus(config):
            assert 4 <= doc.n_pages <= 7

    def test_scanned_documents_do_not_have_clean_layers(self):
        config = CorpusConfig(n_documents=40, seed=3, scanned_fraction=0.5)
        for doc in build_corpus(config):
            if doc.image_layer.is_scanned:
                assert doc.text_layer.quality in (
                    TextLayerQuality.OCR_DERIVED,
                    TextLayerQuality.MISSING,
                    TextLayerQuality.SCRAMBLED,
                )


class TestTextLayerConstruction:
    def test_missing_layer_is_empty(self, sample_document, rng):
        layer = build_text_layer(
            sample_document.pages, TextLayerQuality.MISSING, "x", ImageLayer(), rng
        )
        assert all(t == "" for t in layer.page_texts)

    def test_clean_layer_close_to_ground_truth(self, sample_document, rng):
        layer = build_text_layer(
            sample_document.pages, TextLayerQuality.CLEAN, "pdftex", ImageLayer(), rng
        )
        gt_words = set(sample_document.pages[0].ground_truth_text().lower().split())
        layer_words = set(layer.page_texts[0].lower().split())
        # Most ground-truth words survive in a clean embedded layer.
        assert len(gt_words & layer_words) > 0.6 * len(gt_words)

    def test_scrambled_layer_differs_heavily(self, sample_document, rng):
        layer = build_text_layer(
            sample_document.pages, TextLayerQuality.SCRAMBLED, "x", ImageLayer(), rng
        )
        gt = sample_document.pages[0].ground_truth_text()
        scrambled = layer.page_texts[0]
        same = sum(1 for a, b in zip(gt.split(), scrambled.split()) if a == b)
        assert same < 0.5 * len(gt.split())

    def test_quality_sampling_respects_producer(self):
        rng = np.random.default_rng(0)
        scanner = [sample_text_layer_quality("scanner_firmware", rng) for _ in range(200)]
        latex = [sample_text_layer_quality("pdftex", rng) for _ in range(200)]
        assert sum(q is TextLayerQuality.CLEAN for q in latex) > 150
        assert sum(q is TextLayerQuality.OCR_DERIVED for q in scanner) > 80


class TestEmbeddedPageText:
    def test_generator_and_draw_stream_render_alike(self, sample_document):
        for page in sample_document.pages:
            from_generator = embedded_page_text(page, np.random.default_rng(21))
            from_stream = embedded_page_text(page, DrawStream(np.random.default_rng(21)))
            assert from_stream == from_generator

    def test_verbatim_blocks_and_equation_glyphs(self):
        page = PageContent(
            index=0,
            elements=(
                PageElement(kind="heading", text="Results"),
                PageElement(kind="equation", text="x = \\frac{a}{b}", latex="x = \\frac{a}{b}"),
                PageElement(kind="boilerplate", text="Preprint. Under review."),
            ),
        )
        heading, equation, boilerplate = embedded_page_text(page, np.random.default_rng(0)).split("\n")
        assert heading == "Results"
        assert boilerplate == "Preprint. Under review."
        assert not any(c in equation for c in "\\{}")
        assert "a" in equation and "b" in equation

    def test_paragraphs_are_wrapped_at_ninety_columns(self):
        words = " ".join(f"word{i:03d}" for i in range(60))
        page = PageContent(index=0, elements=(PageElement(kind="paragraph", text=words),))
        lines = embedded_page_text(page, np.random.default_rng(0)).split("\n")
        assert len(lines) > 1
        # A hyphenated line may run past the column by the word half it keeps.
        assert all(len(line) <= 90 for line in lines if not line.endswith("-"))
        assert all(len(line) <= 90 + len(" wor-") for line in lines)
        assert " ".join(lines).replace("- ", "") == words


class TestCorpusOperations:
    def test_len_iter_getitem(self, small_corpus):
        assert len(small_corpus) == 12
        assert small_corpus[0].doc_id == next(iter(small_corpus)).doc_id

    def test_by_id(self, small_corpus):
        doc = small_corpus[3]
        assert small_corpus.by_id(doc.doc_id).doc_id == doc.doc_id
        with pytest.raises(KeyError):
            small_corpus.by_id("missing")

    def test_filter_and_subset(self, small_corpus):
        born_digital = small_corpus.filter(lambda d: not d.image_layer.is_scanned)
        assert all(not d.image_layer.is_scanned for d in born_digital)
        subset = small_corpus.subset([0, 2])
        assert len(subset) == 2

    def test_split_fractions(self, small_corpus):
        splits = small_corpus.split({"a": 0.5, "b": 0.5})
        assert len(splits["a"]) + len(splits["b"]) == len(small_corpus)
        all_ids = {d.doc_id for d in splits["a"]} | {d.doc_id for d in splits["b"]}
        assert len(all_ids) == len(small_corpus)

    def test_split_rejects_excess_fractions(self, small_corpus):
        with pytest.raises(ValueError):
            small_corpus.split({"a": 0.9, "b": 0.3})

    def test_benchmark_splits_disjoint(self, small_corpus):
        splits = benchmark_splits(small_corpus)
        ids = [d.doc_id for split in splits.values() for d in split]
        assert len(ids) == len(set(ids)) == len(small_corpus)

    def test_described_summary(self, small_corpus):
        summary = small_corpus.described()
        assert summary["n_documents"] == 12
        assert sum(summary["domains"].values()) == 12
