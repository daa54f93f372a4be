"""Benchmark augmentations (Section 6.2 and Tables 2–3 of the paper).

Two augmentation campaigns are applied to held-out test documents:

* **Image-layer degradation** (Table 2): random rotations, contrast changes,
  Gaussian blur and compression applied to a fraction of documents, emulating
  low-quality scans.  Text extraction is unaffected (the embedded layer is not
  touched); recognition parsers see the degraded images.
* **Text-layer degradation** (Table 3): the embedded text layer of a fraction
  of documents is replaced with the output of a common OCR/structuring tool
  (Tesseract- or GROBID-like output), testing whether AdaParse detects that a
  higher-quality parse is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.documents import noise
from repro.documents.corpus import Corpus, embedded_page_text
from repro.documents.document import ImageLayer, SciDocument, TextLayer, TextLayerQuality
from repro.utils.rng import rng_from


@dataclass(frozen=True)
class AugmentationConfig:
    """Shared knobs of the two augmentation campaigns.

    Attributes
    ----------
    affected_fraction:
        Fraction of documents to augment (the paper uses 15 %).
    seed:
        Root seed of the augmentation streams.
    scan_severity:
        Scale factor in ``[0, 1]`` for how harsh the simulated scans are.
    ocr_tool:
        Which tool's output replaces the text layer in the text-degradation
        campaign (``"tesseract"`` or ``"grobid"``); ``"mixed"`` alternates.
    """

    affected_fraction: float = 0.15
    seed: int = 777
    scan_severity: float = 0.7
    ocr_tool: str = "mixed"

    def __post_init__(self) -> None:
        if not 0.0 <= self.affected_fraction <= 1.0:
            raise ValueError("affected_fraction must lie in [0, 1]")
        if not 0.0 <= self.scan_severity <= 1.0:
            raise ValueError("scan_severity must lie in [0, 1]")
        if self.ocr_tool not in ("tesseract", "grobid", "mixed"):
            raise ValueError(f"unknown ocr_tool {self.ocr_tool!r}")


def _affected_mask(n: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean mask selecting ``round(fraction * n)`` documents."""
    n_affected = int(round(fraction * n))
    mask = np.zeros(n, dtype=bool)
    if n_affected > 0:
        idx = rng.choice(n, size=min(n_affected, n), replace=False)
        mask[idx] = True
    return mask


def degraded_scan_layer(severity: float, rng: np.random.Generator) -> ImageLayer:
    """Sample a degraded scan matching the paper's augmentation recipe."""
    severity = float(np.clip(severity, 0.0, 1.0))
    return ImageLayer(
        dpi=int(rng.choice([110, 150, 200], p=[0.3, 0.5, 0.2])),
        rotation_deg=float(rng.normal(0.0, 1.0 + 3.0 * severity)),
        blur_sigma=float(abs(rng.normal(0.5 + 1.2 * severity, 0.4))),
        contrast=float(np.clip(rng.normal(1.0 - 0.3 * severity, 0.15), 0.3, 1.4)),
        noise_level=float(abs(rng.normal(0.10 + 0.15 * severity, 0.05))),
        jpeg_quality=int(rng.integers(30, 70)),
        is_scanned=True,
    )


def degrade_image_layers(corpus: Corpus, config: AugmentationConfig | None = None) -> Corpus:
    """Apply the image-layer degradation campaign (Table 2).

    The embedded text layer is preserved (the paper notes these changes do not
    affect extraction methods), but the document is flagged as scanned with
    degraded rendering parameters.
    """
    config = config or AugmentationConfig()
    rng = rng_from(config.seed, "augment-image", len(corpus))
    mask = _affected_mask(len(corpus), config.affected_fraction, rng)
    documents: list[SciDocument] = []
    for doc, hit in zip(corpus.documents, mask):
        if not hit:
            documents.append(doc)
            continue
        doc_rng = rng_from(config.seed, "augment-image", doc.doc_id)
        layer = degraded_scan_layer(config.scan_severity, doc_rng)
        documents.append(doc.with_image_layer(layer))
    return Corpus(documents=documents, config=corpus.config)


def _ocr_tool_page_text(
    doc: SciDocument, page_index: int, tool: str, rng: np.random.Generator
) -> str:
    """Synthesize the page text a common tool would have attached."""
    base = embedded_page_text(doc.pages[page_index], rng)
    if tool == "tesseract":
        severity = 0.45 + 0.35 * doc.image_layer.degradation_score() + 0.1 * rng.random()
        return noise.ocr_channel(base, severity=severity, rng=rng)
    # GROBID-like output: structured body text, but whole non-body blocks
    # (captions, tables, references) are dropped and headers duplicated.
    kept_blocks: list[str] = []
    for element in doc.pages[page_index].elements:
        if element.kind in ("table", "figure_caption", "smiles", "reference_entry", "boilerplate"):
            if rng.random() < 0.7:
                continue
        text = element.text
        if element.kind == "equation":
            text = ""
        if text:
            kept_blocks.append(text)
    out = "\n".join(kept_blocks)
    return noise.substitute_characters(out, rate=0.003, rng=rng)


def replace_text_layers_with_ocr(
    corpus: Corpus, config: AugmentationConfig | None = None
) -> Corpus:
    """Apply the text-layer degradation campaign (Table 3).

    A fraction of documents gets its embedded text layer replaced with the
    output of a common tool (Tesseract or GROBID), as the paper does to test
    whether AdaParse notices that the embedded text is no longer trustworthy.
    """
    config = config or AugmentationConfig()
    rng = rng_from(config.seed, "augment-text", len(corpus))
    mask = _affected_mask(len(corpus), config.affected_fraction, rng)
    documents: list[SciDocument] = []
    for i, (doc, hit) in enumerate(zip(corpus.documents, mask)):
        if not hit:
            documents.append(doc)
            continue
        doc_rng = rng_from(config.seed, "augment-text", doc.doc_id)
        if config.ocr_tool == "mixed":
            tool = "tesseract" if (i % 2 == 0) else "grobid"
        else:
            tool = config.ocr_tool
        page_texts = [
            _ocr_tool_page_text(doc, p, tool, doc_rng) for p in range(doc.n_pages)
        ]
        layer = TextLayer(
            quality=TextLayerQuality.OCR_DERIVED,
            page_texts=page_texts,
            producer=f"replaced-{tool}",
        )
        documents.append(doc.with_text_layer(layer))
    return Corpus(documents=documents, config=corpus.config)
