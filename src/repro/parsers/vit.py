"""Vision-Transformer parsers: Nougat and Marker simulators.

ViT document models decode text (including LaTeX math) end-to-end from page
images.  They are the highest-quality option on difficult documents but are
GPU-bound, orders of magnitude slower than extraction, and exhibit their own
failure modes — most severely, dropping entire pages when decoding degenerates
(Section 3.1.3 and Figure 1(g) of the paper).
"""

from __future__ import annotations

import numpy as np

from repro.documents import noise
from repro.documents.document import PageContent, SciDocument
from repro.documents.rendering import latex_to_prose
from repro.parsers.base import Parser, ParserCost
from repro.parsers.failure_modes import page_drop


def _nougat_page_render(page: PageContent, rng: np.random.Generator, severity: float) -> str:
    """Nougat's decoded markdown-ish text for one page before global noise."""
    blocks: list[str] = []
    for element in page.elements:
        if element.kind == "equation" and element.latex is not None:
            # Nougat is trained to emit LaTeX; small bracket/sub-script slips
            # appear as degradation grows.
            latex = element.latex
            if rng.random() < 0.10 + 0.4 * severity:
                latex = noise.substitute_characters(latex, rate=0.02 + 0.05 * severity, rng=rng)
            blocks.append(latex)
        elif element.kind == "heading":
            blocks.append("# " + element.text if rng.random() < 0.8 else element.text)
        elif element.kind == "table":
            # Tables decode into markdown; cell order is preserved but
            # separators, alignment and some cells differ from the ground truth.
            table = element.text.replace(" | ", " ")
            if rng.random() < 0.5:
                table = noise.drop_words(table, rate=0.08, rng=rng)
            blocks.append(table)
        elif element.kind == "reference_entry":
            # The autoregressive decoder tends to truncate long bibliographies.
            if rng.random() < 0.28 + 0.2 * severity:
                continue
            blocks.append(element.text)
        elif element.kind == "boilerplate":
            # Nougat is trained to skip licensing/front-matter boilerplate.
            if rng.random() < 0.6:
                continue
            blocks.append(element.text)
        else:
            blocks.append(element.text)
    return "\n".join(blocks)


class NougatSim(Parser):
    """Simulated Nougat (Swin-based ViT for academic documents).

    Reads page images at a fixed input resolution, decodes LaTeX faithfully,
    is fairly robust to the scan augmentations it was trained with, but
    occasionally drops entire pages and repeats/hallucinates short spans when
    decoding destabilises.  The cost model reflects ≈1–2 PDF/s on a 4-GPU
    node with a ≈15 s model-load time and a page batch size of 10.
    """

    name = "nougat"
    version = "0.1.17"
    _fingerprint_formats = ("pdf",)
    cost = ParserCost(
        cpu_seconds_per_page=0.04,
        gpu_seconds_per_page=0.45,
        cpu_memory_mb=1200.0,
        gpu_memory_mb=9500.0,
        model_load_seconds=15.0,
        per_document_overhead_seconds=0.25,
        variability=0.20,
    )

    #: Baseline probability of dropping a page on a clean render.
    page_drop_probability: float = 0.055

    def _parse_pages(self, document: SciDocument, rng: np.random.Generator) -> list[str]:
        degradation = document.image_layer.degradation_score()
        # Nougat was trained with scan-like augmentations, so the effective
        # severity grows sub-linearly with the degradation score.
        severity = 0.10 + 0.35 * degradation
        pages: list[str] = []
        for page in document.pages:
            out = _nougat_page_render(page, rng, severity)
            out = noise.substitute_characters(out, rate=0.006 + 0.02 * severity, rng=rng)
            out = noise.substitute_words(out, rate=0.012, rng=rng)
            out = noise.inject_whitespace(out, rate=0.01, rng=rng)
            if rng.random() < 0.15 + 0.3 * severity:
                # Decoder repetition: a short span is duplicated.
                words = out.split(" ")
                if len(words) > 30:
                    start = int(rng.integers(0, len(words) - 20))
                    span = words[start : start + int(rng.integers(5, 15))]
                    words[start:start] = span
                    out = " ".join(words)
            pages.append(out)
        drop_p = self.page_drop_probability + 0.08 * degradation
        return page_drop(pages, rng, drop_probability=drop_p)


class MarkerSim(Parser):
    """Simulated Marker: explicit layout detection followed by per-element OCR.

    Marker's layout stage gives it the highest page coverage of any parser in
    the paper's study, but it converts equations to plain text (failure mode
    (f)) and its per-element pipeline is the slowest and scales worst across
    nodes because of a serialised layout-coordination stage.
    """

    name = "marker"
    version = "0.2"
    _fingerprint_formats = ("pdf",)
    cost = ParserCost(
        cpu_seconds_per_page=0.35,
        gpu_seconds_per_page=0.85,
        cpu_memory_mb=2400.0,
        gpu_memory_mb=11000.0,
        model_load_seconds=22.0,
        per_document_overhead_seconds=1.6,
        variability=0.30,
    )

    def _parse_pages(self, document: SciDocument, rng: np.random.Generator) -> list[str]:
        degradation = document.image_layer.degradation_score()
        severity = 0.12 + 0.5 * degradation
        pages: list[str] = []
        for page in document.pages:
            blocks: list[str] = []
            for element in page.elements:
                if element.kind == "equation" and element.latex is not None:
                    # texify fallback: equations become prose-like plain text.
                    blocks.append(latex_to_prose(element.latex))
                elif element.kind == "table":
                    blocks.append(element.text)
                elif element.kind == "heading":
                    blocks.append("## " + element.text)
                else:
                    blocks.append(element.text)
            out = "\n".join(blocks)
            out = noise.substitute_characters(out, rate=0.006 + 0.03 * severity, rng=rng)
            out = noise.substitute_words(out, rate=0.02, rng=rng)
            out = noise.inject_whitespace(out, rate=0.03, rng=rng)
            if degradation > 0.5 and rng.random() < 0.3:
                out = noise.drop_words(out, rate=0.08, rng=rng)
            pages.append(out)
        # Layout detection almost never loses a page outright.
        return page_drop(pages, rng, drop_probability=0.01 + 0.02 * degradation)
