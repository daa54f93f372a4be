"""Recognition parsers: Tesseract and GROBID simulators.

OCR-based tools do not rely on the embedded layer: they transcribe the
rendered page images line by line.  They are robust to missing/scrambled text
layers but computationally much more expensive, and their character error rate
tracks the scan quality (Section 3.1.2 of the paper).
"""

from __future__ import annotations

import numpy as np

from repro.documents import noise
from repro.documents.document import PageContent, SciDocument
from repro.documents.rendering import latex_ocr_garble, table_reading_order
from repro.parsers.base import Parser, ParserCost


def _render_page_for_ocr(page: PageContent, severity: float, rng: np.random.Generator) -> str:
    """Ground-truth page as seen by a line-based OCR engine before noise."""
    blocks: list[str] = []
    for element in page.elements:
        if element.kind == "equation" and element.latex is not None:
            blocks.append(latex_ocr_garble(element.latex, severity, rng))
        elif element.kind == "table":
            blocks.append(table_reading_order(element.text, drop_separator_prob=0.7, rng=rng))
        else:
            blocks.append(element.text)
    return "\n".join(blocks)


class TesseractSim(Parser):
    """Simulated Tesseract OCR.

    Line-oriented LSTM OCR: high character accuracy on clean renders, smooth
    degradation with scan quality, garbled math, and a CPU-heavy cost profile
    (no GPU requirement).
    """

    name = "tesseract"
    version = "5.3"
    _fingerprint_formats = ("pdf",)
    cost = ParserCost(
        cpu_seconds_per_page=1.35,
        cpu_memory_mb=650.0,
        per_document_overhead_seconds=0.4,
        model_load_seconds=1.5,
        variability=0.25,
    )

    def _parse_pages(self, document: SciDocument, rng: np.random.Generator) -> list[str]:
        degradation = document.image_layer.degradation_score()
        pages: list[str] = []
        for page in document.pages:
            base_severity = 0.16 + 0.9 * degradation
            rendered = _render_page_for_ocr(page, base_severity, rng)
            out = noise.ocr_channel(rendered, severity=base_severity, rng=rng)
            # Severely degraded scans occasionally defeat layout analysis and a
            # column or paragraph is skipped entirely.
            if degradation > 0.45 and rng.random() < degradation * 0.35:
                out = noise.drop_words(out, rate=0.25 * degradation, rng=rng)
            pages.append(out)
        return pages


class GrobidSim(Parser):
    """Simulated GROBID: ML-assisted *structured* extraction.

    GROBID excels at bibliographic structure but, run as a full-text parser,
    returns only the body text it confidently segments: tables, captions,
    equations and much of the back matter are dropped.  That is why the paper
    reports by far the lowest coverage and BLEU for it while its output is
    still clean at the character level.
    """

    name = "grobid"
    version = "0.8"
    _fingerprint_formats = ("pdf",)
    cost = ParserCost(
        cpu_seconds_per_page=0.55,
        cpu_memory_mb=2200.0,
        per_document_overhead_seconds=0.8,
        model_load_seconds=6.0,
        variability=0.30,
    )

    #: Element kinds GROBID's segmenter keeps in the full-text output.
    _BODY_KINDS = ("paragraph", "citation_block", "heading")

    def _parse_pages(self, document: SciDocument, rng: np.random.Generator) -> list[str]:
        pages: list[str] = []
        usable_layer = document.text_layer.quality.is_usable
        for page_index, page in enumerate(document.pages):
            blocks: list[str] = []
            for element in page.elements:
                if element.kind not in self._BODY_KINDS:
                    # Non-body material is dropped almost always.
                    if rng.random() < 0.95:
                        continue
                if element.kind == "heading" and rng.random() < 0.3:
                    continue
                if element.kind == "citation_block" and rng.random() < 0.45:
                    continue
                if element.kind == "paragraph" and rng.random() < 0.18:
                    # Paragraphs misclassified as headers/footnotes are dropped.
                    continue
                text = element.text
                if not usable_layer:
                    # Without a usable embedded layer GROBID falls back to its
                    # own OCR pass, which is noticeably noisier.
                    severity = 0.3 + 0.5 * document.image_layer.degradation_score()
                    text = noise.ocr_channel(text, severity=severity, rng=rng)
                else:
                    text = noise.substitute_characters(text, rate=0.002, rng=rng)
                blocks.append(text)
            # Segmentation failures on layout-dense pages drop the whole page.
            dense = page.equation_fraction > 0.3 or len(page.elements) > 7
            if dense and rng.random() < 0.25:
                blocks = []
            pages.append("\n".join(blocks))
        return pages
