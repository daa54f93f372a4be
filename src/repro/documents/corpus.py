"""Corpus construction: sampling whole documents and benchmark splits.

The corpus builder is the reproduction's stand-in for the paper's 25 000-PDF
benchmark.  Every document is generated from a per-document random stream
derived from ``(seed, doc_index)``, so corpora are reproducible and documents
are independent of generation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.documents import lexicon, noise
from repro.documents.document import (
    ImageLayer,
    PageContent,
    SciDocument,
    TextLayer,
    TextLayerQuality,
)
from repro.documents.metadata import DocumentMetadata, sample_metadata
from repro.documents.rendering import latex_to_embedded_glyphs, table_reading_order
from repro.documents.textgen import ScientificTextGenerator, TextGenConfig
from repro.utils.rng import DrawStream, WeightedTable, replayed, rng_from


@dataclass(frozen=True)
class CorpusConfig:
    """Configuration of a synthetic corpus.

    Attributes
    ----------
    n_documents:
        Number of documents to generate.
    seed:
        Root seed; every document derives its own stream from it.
    min_pages, max_pages:
        Range of page counts per document.
    scanned_fraction:
        Fraction of documents produced by a scanning pipeline irrespective of
        their producer tool (on top of scanner-produced documents).
    textgen:
        Sentence/paragraph generation knobs.
    name:
        Optional human-readable corpus name.
    """

    n_documents: int = 1000
    seed: int = 2025
    min_pages: int = 4
    max_pages: int = 16
    scanned_fraction: float = 0.08
    textgen: TextGenConfig = field(default_factory=TextGenConfig)
    name: str = "synthetic-scientific-corpus"

    def __post_init__(self) -> None:
        if self.n_documents <= 0:
            raise ValueError("n_documents must be positive")
        if self.min_pages < 1 or self.max_pages < self.min_pages:
            raise ValueError("invalid page range")
        if not 0.0 <= self.scanned_fraction <= 1.0:
            raise ValueError("scanned_fraction must lie in [0, 1]")


# --------------------------------------------------------------------------- #
# Layer construction
# --------------------------------------------------------------------------- #

_QUALITY_ORDER = (
    TextLayerQuality.CLEAN,
    TextLayerQuality.NOISY,
    TextLayerQuality.OCR_DERIVED,
    TextLayerQuality.SCRAMBLED,
    TextLayerQuality.MISSING,
)
_PRODUCER_QUALITY = {
    producer: WeightedTable(_QUALITY_ORDER, probs)
    for producer, probs in lexicon.PRODUCER_TEXT_QUALITY.items()
}
_SCAN_DPI = WeightedTable((120, 150, 200, 300), (0.2, 0.35, 0.3, 0.15))


def sample_text_layer_quality(
    producer: str, rng: np.random.Generator | DrawStream
) -> TextLayerQuality:
    """Sample the embedded-text fidelity class implied by a producer tool."""
    table = _PRODUCER_QUALITY.get(producer, _PRODUCER_QUALITY["unknown"])
    with replayed(rng) as draws:
        return draws.weighted(table)


def embedded_page_text(page: PageContent, rng: np.random.Generator | DrawStream) -> str:
    """Render a page's ground truth into the form a text layer stores.

    Equations collapse to glyph runs, tables flatten into reading order, and
    paragraphs get the PDF's visual line wrapping.  Only ``rng.random()`` is
    drawn, so a Generator and a stream over it serve alike.
    """
    blocks: list[str] = []
    for element in page.elements:
        if element.kind == "equation" and element.latex is not None:
            blocks.append(latex_to_embedded_glyphs(element.latex, rng))
        elif element.kind == "table":
            blocks.append(table_reading_order(element.text, drop_separator_prob=0.4, rng=rng))
        elif element.kind in ("paragraph", "citation_block"):
            blocks.append(noise.hard_wrap_lines(element.text, width=90, rng=rng, hyphenate_rate=0.03))
        else:
            blocks.append(element.text)
    return "\n".join(blocks)


def build_text_layer(
    pages: Sequence[PageContent],
    quality: TextLayerQuality,
    producer: str,
    image_layer: ImageLayer,
    rng: np.random.Generator | DrawStream,
) -> TextLayer:
    """Construct the embedded text layer of a document.

    The layer starts from the faithful "embedded rendering" of each page and
    is then pushed through the channel that corresponds to its fidelity class
    (light noise, OCR noise matched to the scan quality, scrambling, or
    removal).  The channels that draw one ``random()`` at a time read the
    stream; the vectorised ones get the Generator handed over.
    """
    page_texts: list[str] = []
    with replayed(rng) as draws:
        for page in pages:
            text = embedded_page_text(page, draws)
            if quality is TextLayerQuality.CLEAN:
                text = noise.break_ligatures(text, rate=0.15, rng=draws)
            elif quality is TextLayerQuality.NOISY:
                text = noise.break_ligatures(text, rate=0.5, rng=draws)
                generator = draws.handover()
                text = noise.inject_whitespace(text, rate=0.03, rng=generator)
                text = noise.substitute_characters(text, rate=0.004, rng=generator)
            elif quality is TextLayerQuality.OCR_DERIVED:
                severity = 0.35 + 0.5 * image_layer.degradation_score() + 0.1 * draws.random()
                text = noise.ocr_channel(text, severity=severity, rng=draws.handover())
            elif quality is TextLayerQuality.SCRAMBLED:
                text = noise.scramble_layer(text, rng=draws.handover())
            elif quality is TextLayerQuality.MISSING:
                text = ""
            page_texts.append(text)
    return TextLayer(quality=quality, page_texts=page_texts, producer=producer)


def build_image_layer(
    producer: str,
    year: int,
    scanned_fraction: float,
    rng: np.random.Generator | DrawStream,
) -> ImageLayer:
    """Construct the image layer (pristine render vs degraded scan)."""
    scanner_produced = producer == "scanner_firmware"
    legacy = producer == "legacy_distiller"
    p_scan = scanned_fraction
    if scanner_produced:
        p_scan = 1.0
    elif legacy:
        p_scan = max(p_scan, 0.5)
    elif year < 2005:
        p_scan = max(p_scan, 0.35)
    with replayed(rng) as draws:
        if draws.random() >= p_scan:
            return ImageLayer(is_scanned=False)
        dpi = draws.weighted(_SCAN_DPI)
        normal = draws.handover().normal
        return ImageLayer(
            dpi=dpi,
            rotation_deg=float(normal(0.0, 1.8)),
            blur_sigma=float(abs(normal(0.6, 0.5))),
            contrast=float(np.clip(normal(0.85, 0.15), 0.3, 1.3)),
            noise_level=float(abs(normal(0.08, 0.08))),
            jpeg_quality=draws.integers(35, 90),
            is_scanned=True,
        )


# --------------------------------------------------------------------------- #
# Document and corpus construction
# --------------------------------------------------------------------------- #


def build_document(doc_index: int, config: CorpusConfig) -> SciDocument:
    """Generate one document from its index and the corpus configuration."""
    # One stream for the whole document; nobody reads the Generator afterwards.
    draws = DrawStream(rng_from(config.seed, "document", doc_index))
    n_pages = draws.integers(config.min_pages, config.max_pages + 1)
    metadata = sample_metadata(draws, n_pages=n_pages)
    generator = ScientificTextGenerator(metadata.domain, draws, config.textgen)
    pages = generator.document_pages(metadata.title, n_pages)
    image_layer = build_image_layer(
        metadata.producer, metadata.year, config.scanned_fraction, draws
    )
    quality = sample_text_layer_quality(metadata.producer, draws)
    if image_layer.is_scanned and quality in (TextLayerQuality.CLEAN, TextLayerQuality.NOISY):
        # A scanned document cannot carry a born-digital text layer: it either
        # has an OCR-derived layer or none at all.
        quality = TextLayerQuality.OCR_DERIVED if draws.random() < 0.75 else TextLayerQuality.MISSING
    text_layer = build_text_layer(pages, quality, metadata.producer, image_layer, draws)
    doc_id = f"{config.name}-{doc_index:06d}"
    return SciDocument(
        doc_id=doc_id,
        metadata=metadata,
        pages=pages,
        text_layer=text_layer,
        image_layer=image_layer,
        seed=config.seed,
    )


@dataclass
class Corpus:
    """A collection of synthetic documents plus the configuration that built it."""

    documents: list[SciDocument]
    config: CorpusConfig

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[SciDocument]:
        return iter(self.documents)

    def __getitem__(self, index: int) -> SciDocument:
        return self.documents[index]

    def by_id(self, doc_id: str) -> SciDocument:
        """Look up a document by its identifier."""
        for doc in self.documents:
            if doc.doc_id == doc_id:
                return doc
        raise KeyError(f"no document with id {doc_id!r}")

    def filter(self, predicate: Callable[[SciDocument], bool]) -> "Corpus":
        """Sub-corpus of documents satisfying ``predicate``."""
        return Corpus(documents=[d for d in self.documents if predicate(d)], config=self.config)

    def subset(self, indices: Iterable[int]) -> "Corpus":
        """Sub-corpus of documents at the given indices."""
        docs = [self.documents[i] for i in indices]
        return Corpus(documents=docs, config=self.config)

    @property
    def total_pages(self) -> int:
        """Total number of pages across all documents."""
        return sum(d.n_pages for d in self.documents)

    def split(
        self,
        fractions: dict[str, float],
        seed: int | None = None,
    ) -> dict[str, "Corpus"]:
        """Randomly partition the corpus into named splits.

        Parameters
        ----------
        fractions:
            Mapping of split name to fraction; fractions must sum to ≤ 1.  Any
            remainder is appended to the last split.
        seed:
            Shuffle seed (defaults to the corpus seed).
        """
        total = sum(fractions.values())
        if total > 1.0 + 1e-9:
            raise ValueError(f"split fractions sum to {total} > 1")
        rng = rng_from(self.config.seed if seed is None else seed, "corpus-split")
        order = rng.permutation(len(self.documents))
        splits: dict[str, Corpus] = {}
        start = 0
        names = list(fractions.keys())
        for i, name in enumerate(names):
            n = int(round(fractions[name] * len(self.documents)))
            if i == len(names) - 1 and abs(total - 1.0) < 1e-9:
                idx = order[start:]
            else:
                idx = order[start : start + n]
            splits[name] = self.subset(int(j) for j in idx)
            start += len(idx)
        return splits

    def described(self) -> dict[str, object]:
        """Summary statistics of the corpus (used by the CLI and examples)."""
        by_domain: dict[str, int] = {}
        by_quality: dict[str, int] = {}
        n_scanned = 0
        for doc in self.documents:
            by_domain[doc.metadata.domain] = by_domain.get(doc.metadata.domain, 0) + 1
            q = doc.text_layer.quality.value
            by_quality[q] = by_quality.get(q, 0) + 1
            n_scanned += int(doc.image_layer.is_scanned)
        return {
            "n_documents": len(self.documents),
            "total_pages": self.total_pages,
            "scanned_documents": n_scanned,
            "domains": dict(sorted(by_domain.items())),
            "text_layer_quality": dict(sorted(by_quality.items())),
        }


def build_corpus(config: CorpusConfig | None = None, **overrides: object) -> Corpus:
    """Build a corpus from a configuration (or keyword overrides).

    Examples
    --------
    >>> corpus = build_corpus(n_documents=10, seed=7)
    >>> len(corpus)
    10
    """
    if config is None:
        config = CorpusConfig()
    if overrides:
        config = replace(config, **overrides)  # type: ignore[arg-type]
    documents = [build_document(i, config) for i in range(config.n_documents)]
    return Corpus(documents=documents, config=config)


def benchmark_splits(corpus: Corpus) -> dict[str, Corpus]:
    """The paper's standard partition: selector training, validation, held-out test."""
    return corpus.split({"train": 0.6, "validation": 0.15, "test": 0.25})
