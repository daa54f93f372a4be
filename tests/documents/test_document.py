"""Tests for the document data model."""

from __future__ import annotations

import pytest

from repro.documents.document import (
    ImageLayer,
    PageContent,
    PageElement,
    SciDocument,
    TextLayer,
    TextLayerQuality,
    total_pages,
)
from repro.documents.metadata import DocumentMetadata


def make_metadata(n_pages: int = 2) -> DocumentMetadata:
    return DocumentMetadata(
        title="A robust analysis of manifolds",
        publisher="arxiv",
        domain="mathematics",
        subcategory="topology",
        year=2022,
        pdf_format="1.7",
        producer="pdftex",
        n_pages=n_pages,
        keywords=("manifold", "topology"),
    )


def make_document(n_pages: int = 2) -> SciDocument:
    pages = [
        PageContent(
            index=i,
            elements=(
                PageElement(kind="heading", text=f"Section {i}"),
                PageElement(kind="paragraph", text="The robust framework demonstrates results."),
                PageElement(kind="equation", text="x = y + 1", latex="x = y + 1"),
            ),
        )
        for i in range(n_pages)
    ]
    layer = TextLayer(
        quality=TextLayerQuality.CLEAN,
        page_texts=[p.ground_truth_text() for p in pages],
        producer="pdftex",
    )
    return SciDocument(
        doc_id="doc-0",
        metadata=make_metadata(n_pages),
        pages=pages,
        text_layer=layer,
        image_layer=ImageLayer(),
        seed=1,
    )


class TestPageElement:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PageElement(kind="poster", text="x")

    def test_word_count(self):
        el = PageElement(kind="paragraph", text="one two three")
        assert el.n_words == 3


class TestPageContent:
    def test_ground_truth_joins_elements(self):
        doc = make_document()
        text = doc.pages[0].ground_truth_text()
        assert "Section 0" in text and "framework" in text

    def test_elements_of_kind(self):
        page = make_document().pages[0]
        assert len(page.elements_of_kind("equation")) == 1
        assert page.elements_of_kind("table") == ()

    def test_equation_fraction(self):
        page = make_document().pages[0]
        assert page.equation_fraction == pytest.approx(1 / 3)


class TestTextLayer:
    def test_usability(self):
        assert TextLayerQuality.CLEAN.is_usable
        assert TextLayerQuality.NOISY.is_usable
        assert not TextLayerQuality.MISSING.is_usable
        assert not TextLayerQuality.SCRAMBLED.is_usable

    def test_first_page_and_character_count(self):
        doc = make_document()
        assert doc.text_layer.page_texts[0].startswith("Section 0")
        assert doc.text_layer.n_characters > 0


class TestImageLayer:
    def test_pristine_has_zero_degradation(self):
        assert ImageLayer().degradation_score() == pytest.approx(0.0, abs=1e-9)

    def test_degradation_monotone_in_blur(self):
        mild = ImageLayer(is_scanned=True, blur_sigma=0.5)
        harsh = ImageLayer(is_scanned=True, blur_sigma=2.5)
        assert harsh.degradation_score() > mild.degradation_score()

    def test_degradation_bounded(self):
        worst = ImageLayer(
            dpi=50, rotation_deg=45, blur_sigma=10, contrast=0.1, noise_level=2.0,
            jpeg_quality=5, is_scanned=True,
        )
        assert 0.0 <= worst.degradation_score() <= 1.0


class TestSciDocument:
    def test_page_count_consistency_enforced(self):
        doc = make_document()
        bad_layer = TextLayer(quality=TextLayerQuality.CLEAN, page_texts=["only one"], producer="x")
        with pytest.raises(ValueError):
            SciDocument(
                doc_id="bad",
                metadata=doc.metadata,
                pages=doc.pages,
                text_layer=bad_layer,
                image_layer=ImageLayer(),
            )

    def test_requires_at_least_one_page(self):
        doc = make_document()
        with pytest.raises(ValueError):
            SciDocument(
                doc_id="bad",
                metadata=doc.metadata,
                pages=[],
                text_layer=TextLayer(TextLayerQuality.CLEAN, [], "x"),
                image_layer=ImageLayer(),
            )

    def test_ground_truth_text_covers_all_pages(self):
        doc = make_document(3)
        text = doc.ground_truth_text()
        assert "Section 0" in text and "Section 2" in text
        assert doc.n_pages == 3
        assert doc.n_words > 0

    def test_with_layers_returns_copies(self):
        doc = make_document()
        scanned = doc.with_image_layer(ImageLayer(is_scanned=True))
        assert scanned.image_layer.is_scanned and not doc.image_layer.is_scanned
        new_layer = TextLayer(TextLayerQuality.MISSING, ["", ""], "x")
        stripped = doc.with_text_layer(new_layer)
        assert stripped.text_layer.quality is TextLayerQuality.MISSING
        assert doc.text_layer.quality is TextLayerQuality.CLEAN

    def test_total_pages_helper(self):
        docs = [make_document(2), make_document(3)]
        assert total_pages(docs) == 5
