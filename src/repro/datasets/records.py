"""The per-document record format of an assembled text dataset.

A :class:`ParsedRecord` is what a parsing campaign ultimately produces for
each document: the parsed text, which parser produced it, how much compute it
cost, and — when ground truth or a selector prediction is available — a
quality estimate that downstream filtering can act on.  Records are plain
JSON-serialisable objects so that campaigns can stream them into the sharded
JSONL writer without holding a corpus in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.documents.document import SciDocument
from repro.metrics.bundle import MetricBundle
from repro.metrics.tokenize import word_tokenize
from repro.parsers.base import ParseResult

#: How the ``quality`` field of a record was obtained.
QUALITY_SOURCES = ("reference", "predicted", "unknown")


@dataclass
class ParsedRecord:
    """One parsed document, ready for dataset assembly.

    Attributes
    ----------
    doc_id:
        Identifier of the source document.
    text:
        Parsed document text (concatenated pages).
    parser_name:
        Name of the parser (or AdaParse engine) that produced the text.
    n_pages:
        Number of pages the parse produced.
    n_tokens:
        Word-token count of ``text``.
    quality:
        Quality estimate in ``[0, 1]`` (document BLEU when ground truth is
        available, a selector prediction otherwise), or ``None`` when unknown.
    quality_source:
        One of :data:`QUALITY_SOURCES` — how ``quality`` was obtained.
    cpu_seconds, gpu_seconds:
        Compute charged to this document (used for goodput accounting).
    succeeded:
        Whether the parse completed without error.
    metadata:
        Free-form provenance (publisher, domain, year, ...), JSON-serialisable.
    """

    doc_id: str
    text: str
    parser_name: str
    n_pages: int
    n_tokens: int
    quality: float | None = None
    quality_source: str = "unknown"
    cpu_seconds: float = 0.0
    gpu_seconds: float = 0.0
    succeeded: bool = True
    metadata: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.quality_source not in QUALITY_SOURCES:
            raise ValueError(
                f"quality_source must be one of {QUALITY_SOURCES}, got {self.quality_source!r}"
            )
        if self.quality is not None and not 0.0 <= self.quality <= 1.0:
            raise ValueError(f"quality must lie in [0, 1], got {self.quality}")

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> dict[str, object]:
        """JSON-serialisable dictionary form (one JSONL line)."""
        return {
            "doc_id": self.doc_id,
            "text": self.text,
            "parser_name": self.parser_name,
            "n_pages": self.n_pages,
            "n_tokens": self.n_tokens,
            "quality": self.quality,
            "quality_source": self.quality_source,
            "cpu_seconds": self.cpu_seconds,
            "gpu_seconds": self.gpu_seconds,
            "succeeded": self.succeeded,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "ParsedRecord":
        """Inverse of :meth:`to_json_dict`."""
        return cls(
            doc_id=str(data["doc_id"]),
            text=str(data["text"]),
            parser_name=str(data["parser_name"]),
            n_pages=int(data["n_pages"]),  # type: ignore[arg-type]
            n_tokens=int(data["n_tokens"]),  # type: ignore[arg-type]
            quality=None if data.get("quality") is None else float(data["quality"]),  # type: ignore[arg-type]
            quality_source=str(data.get("quality_source", "unknown")),
            cpu_seconds=float(data.get("cpu_seconds", 0.0)),  # type: ignore[arg-type]
            gpu_seconds=float(data.get("gpu_seconds", 0.0)),  # type: ignore[arg-type]
            succeeded=bool(data.get("succeeded", True)),
            metadata=dict(data.get("metadata", {})),  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def compute_seconds(self) -> float:
        """CPU plus GPU seconds charged to this record."""
        return self.cpu_seconds + self.gpu_seconds


def record_from_parse(
    document: SciDocument,
    result: ParseResult,
    bundle: MetricBundle | None = None,
    predicted_quality: float | None = None,
) -> ParsedRecord:
    """Build a record from a parse of a document.

    Parameters
    ----------
    document:
        The source document (provides provenance metadata).
    result:
        The parser output.
    bundle:
        Reference metrics of the parse; when given, the record's quality is the
        document BLEU with source ``"reference"``.
    predicted_quality:
        Selector-predicted quality; used (with source ``"predicted"``) when no
        reference bundle is available.
    """
    if bundle is not None:
        quality: float | None = float(min(1.0, max(0.0, bundle.bleu)))
        source = "reference"
    elif predicted_quality is not None:
        quality = float(min(1.0, max(0.0, predicted_quality)))
        source = "predicted"
    else:
        quality = None
        source = "unknown"
    text = result.text
    meta = document.metadata
    return ParsedRecord(
        doc_id=document.doc_id,
        text=text,
        parser_name=result.parser_name,
        n_pages=result.n_pages,
        n_tokens=len(word_tokenize(text)),
        quality=quality,
        quality_source=source,
        cpu_seconds=result.usage.cpu_seconds,
        gpu_seconds=result.usage.gpu_seconds,
        succeeded=result.succeeded,
        metadata={
            "publisher": meta.publisher,
            "domain": meta.domain,
            "subcategory": meta.subcategory,
            "year": meta.year,
            "producer": meta.producer,
            "pdf_format": meta.pdf_format,
        },
    )
