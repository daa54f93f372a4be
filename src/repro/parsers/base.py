"""Parser abstraction, parse results, and the resource-cost model.

The cost model is what couples parsing quality to the systems side of the
paper: the AdaParse budget optimiser (Appendix C) reasons about average
per-parser costs, and the HPC simulator charges each task the document's
simulated CPU/GPU seconds.  Costs are calibrated against the paper's relative
throughputs: PyMuPDF ≈ 135× Nougat and ≈ 13× pypdf on a single node, with
Nougat processing roughly 1–2 PDF/s on a 4-GPU node.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.documents.document import SciDocument
from repro.utils.batching import chunked
from repro.utils.rng import rng_from

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports base)
    from repro.core.engine import RoutingDecision


@dataclass(frozen=True)
class ResourceUsage:
    """Resources consumed by one parse task.

    ``cpu_seconds`` are single-core seconds; ``gpu_seconds`` are single-GPU
    seconds.  Memory figures are peak working-set sizes.
    """

    cpu_seconds: float = 0.0
    gpu_seconds: float = 0.0
    cpu_memory_mb: float = 0.0
    gpu_memory_mb: float = 0.0

    def __add__(self, other: "ResourceUsage") -> "ResourceUsage":
        return ResourceUsage(
            cpu_seconds=self.cpu_seconds + other.cpu_seconds,
            gpu_seconds=self.gpu_seconds + other.gpu_seconds,
            cpu_memory_mb=max(self.cpu_memory_mb, other.cpu_memory_mb),
            gpu_memory_mb=max(self.gpu_memory_mb, other.gpu_memory_mb),
        )

    def to_json_dict(self) -> dict[str, float]:
        """JSON view; the one serialisation shared by reports and the cache."""
        return {
            "cpu_seconds": self.cpu_seconds,
            "gpu_seconds": self.gpu_seconds,
            "cpu_memory_mb": self.cpu_memory_mb,
            "gpu_memory_mb": self.gpu_memory_mb,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ResourceUsage":
        return cls(
            cpu_seconds=float(payload.get("cpu_seconds", 0.0)),
            gpu_seconds=float(payload.get("gpu_seconds", 0.0)),
            cpu_memory_mb=float(payload.get("cpu_memory_mb", 0.0)),
            gpu_memory_mb=float(payload.get("gpu_memory_mb", 0.0)),
        )

    @property
    def total_compute_seconds(self) -> float:
        """CPU plus GPU seconds (the scalar the budget constraint uses)."""
        return self.cpu_seconds + self.gpu_seconds


@dataclass(frozen=True)
class ParserCost:
    """Static cost profile of a parser.

    Attributes
    ----------
    cpu_seconds_per_page, gpu_seconds_per_page:
        Mean per-page processing cost on the reference node.
    cpu_memory_mb, gpu_memory_mb:
        Peak memory per worker.
    model_load_seconds:
        One-time model initialisation cost (amortised by warm-started
        workers; paid per task by cold-started ones).
    per_document_overhead_seconds:
        Fixed per-document cost (file open, layout pass, serialisation).
    variability:
        Log-normal sigma of per-document cost noise (content heterogeneity).
    """

    cpu_seconds_per_page: float = 0.0
    gpu_seconds_per_page: float = 0.0
    cpu_memory_mb: float = 256.0
    gpu_memory_mb: float = 0.0
    model_load_seconds: float = 0.0
    per_document_overhead_seconds: float = 0.0
    variability: float = 0.15

    @property
    def uses_gpu(self) -> bool:
        """Whether the parser needs a GPU worker."""
        return self.gpu_seconds_per_page > 0.0 or self.gpu_memory_mb > 0.0

    def expected_document_usage(self, n_pages: int) -> ResourceUsage:
        """Expected resource usage for a document of ``n_pages`` pages."""
        return ResourceUsage(
            cpu_seconds=self.per_document_overhead_seconds + self.cpu_seconds_per_page * n_pages,
            gpu_seconds=self.gpu_seconds_per_page * n_pages,
            cpu_memory_mb=self.cpu_memory_mb,
            gpu_memory_mb=self.gpu_memory_mb,
        )

    def sample_document_usage(
        self, n_pages: int, rng: np.random.Generator, difficulty: float = 0.0
    ) -> ResourceUsage:
        """Sample a document's resource usage.

        ``difficulty`` in ``[0, 1]`` inflates costs for content-heavy documents
        (dense layouts and degraded scans take longer to process).
        """
        expected = self.expected_document_usage(n_pages)
        scale = float(np.exp(rng.normal(0.0, self.variability))) * (1.0 + 0.5 * difficulty)
        return ResourceUsage(
            cpu_seconds=expected.cpu_seconds * scale,
            gpu_seconds=expected.gpu_seconds * scale,
            cpu_memory_mb=expected.cpu_memory_mb,
            gpu_memory_mb=expected.gpu_memory_mb,
        )


@dataclass
class ParseResult:
    """Output of parsing one document with one parser."""

    parser_name: str
    doc_id: str
    page_texts: list[str]
    usage: ResourceUsage = field(default_factory=ResourceUsage)
    succeeded: bool = True
    error: str | None = None

    @property
    def text(self) -> str:
        """Concatenated document text."""
        return "\n".join(self.page_texts)

    @property
    def n_pages(self) -> int:
        return len(self.page_texts)

    @property
    def n_characters(self) -> int:
        return sum(len(t) for t in self.page_texts)

    def to_json_dict(self) -> dict:
        """Full-fidelity JSON view (page texts included; cache entry format)."""
        return {
            "parser_name": self.parser_name,
            "doc_id": self.doc_id,
            "page_texts": list(self.page_texts),
            "usage": self.usage.to_json_dict(),
            "succeeded": self.succeeded,
            "error": self.error,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ParseResult":
        return cls(
            parser_name=payload["parser_name"],
            doc_id=payload["doc_id"],
            page_texts=list(payload.get("page_texts", [])),
            usage=ResourceUsage.from_json_dict(payload.get("usage", {})),
            succeeded=bool(payload.get("succeeded", True)),
            error=payload.get("error"),
        )


class Parser(abc.ABC):
    """Abstract base class of all simulated parsers.

    Subclasses implement :meth:`_parse_pages`, producing per-page text from
    the channel they consume; the base class handles per-document random
    streams, resource accounting, and failure wrapping.
    """

    #: Unique parser name (used by the registry, tables, and seeds).
    name: str = "abstract"
    #: Parser version, part of the cache-key fingerprint: bump it when the
    #: parser's output for identical input changes.
    version: str = "1.0"
    #: Static cost profile.
    cost: ParserCost = ParserCost()
    #: Documents per batch when the caller names no size (engines use their
    #: configured α-budget batch).
    batch_size: int = 64
    #: Frozen input of :meth:`config_fingerprint` and nothing else: the
    #: document formats this class accepted when formats were routed, kept
    #: as literals so fingerprints and cache keys do not move.
    _fingerprint_formats: tuple[str, ...] = ("html", "markdown", "pdf")

    def document_rng(self, document: SciDocument, salt: str = "") -> np.random.Generator:
        """Deterministic random stream for (parser, document)."""
        return rng_from(document.seed, "parser", self.name, document.doc_id, salt)

    # ------------------------------------------------------------------ #
    # Parsing
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _parse_pages(self, document: SciDocument, rng: np.random.Generator) -> list[str]:
        """Produce the per-page text output for a document."""

    def content_difficulty(self, document: SciDocument) -> float:
        """Difficulty proxy in ``[0, 1]`` used to modulate cost (not quality)."""
        difficulty = 0.5 * document.equation_fraction
        difficulty += 0.5 * document.image_layer.degradation_score()
        return float(min(1.0, difficulty))

    def estimate_usage(self, document: SciDocument) -> ResourceUsage:
        """Expected resource usage (used by the budget optimiser and scheduler)."""
        return self.cost.expected_document_usage(document.n_pages)

    def parse(self, document: SciDocument) -> ParseResult:
        """Parse a document, returning text output and simulated resource usage."""
        rng = self.document_rng(document)
        usage = self.cost.sample_document_usage(
            document.n_pages, rng, difficulty=self.content_difficulty(document)
        )
        try:
            pages = self._parse_pages(document, rng)
        except Exception as exc:  # noqa: BLE001 - resilience is part of the design
            return ParseResult(
                parser_name=self.name,
                doc_id=document.doc_id,
                page_texts=["" for _ in range(document.n_pages)],
                usage=usage,
                succeeded=False,
                error=f"{type(exc).__name__}: {exc}",
            )
        return ParseResult(
            parser_name=self.name,
            doc_id=document.doc_id,
            page_texts=pages,
            usage=usage,
            succeeded=True,
        )

    def parse_batch(
        self, batch: list[SciDocument]
    ) -> tuple[list[ParseResult], list["RoutingDecision"]]:
        """Parse one batch: the one polymorphic per-batch entry.

        A base parser parses the batch document by document and makes no
        routing decisions; an AdaParse engine routes it under its α budget.
        Whatever runs a batch (an execution backend's site, the methods
        below) holds the parser and calls this, never a closure built from it.
        """
        return [self.parse(document) for document in batch], []

    def parse_with_telemetry(
        self, documents: Iterable[SciDocument]
    ) -> tuple[list[ParseResult], list["RoutingDecision"]]:
        """Parse a collection in batches of :attr:`batch_size`, returning
        results plus routing telemetry.

        Telemetry is a return value, not instance state: empty for base
        parsers, one :class:`~repro.core.engine.RoutingDecision` per document
        for AdaParse engines.
        """
        results: list[ParseResult] = []
        decisions: list["RoutingDecision"] = []
        for batch in chunked(documents, self.batch_size):
            batch_results, batch_decisions = self.parse_batch(batch)
            results.extend(batch_results)
            decisions.extend(batch_decisions)
        return results, decisions

    def parse_many(self, documents: Iterable[SciDocument]) -> list[ParseResult]:
        """Parse a collection batch by batch (library-level convenience)."""
        return self.parse_with_telemetry(documents)[0]

    def iter_parse(self, documents: Iterable[SciDocument]) -> Iterator[ParseResult]:
        """Stream parse results in document order, one batch at a time.

        Unlike :meth:`parse_many` this never materialises the full result
        list: memory stays bounded by one batch of :attr:`batch_size`.  Every
        parser, base parsers included, parses a whole batch before yielding
        its first result.
        """
        for batch in chunked(documents, self.batch_size):
            yield from self.parse_batch(batch)[0]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def config_fingerprint(self) -> str:
        """Stable fingerprint of everything that shapes this parser's output.

        The parse cache keys entries by ``(document content hash, parser
        config fingerprint)``, so the fingerprint must change whenever the
        parser would produce different output for identical input: class,
        name, :attr:`version`, and the cost model (whose variability drives
        the simulated usage sampling).  Engines extend this with α, batch
        size, and trained model weights.
        """
        from dataclasses import astuple

        from repro.utils.hashing import stable_hash_hex

        return stable_hash_hex(
            "parser-config",
            type(self).__name__,
            self.name,
            self.version,
            *astuple(self.cost),
            *self._fingerprint_formats,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def single_node_throughput(
    cost: ParserCost,
    pages_per_document: float = 10.0,
    cpu_cores: int = 32,
    gpus: int = 4,
) -> float:
    """Ideal single-node throughput (documents/second) implied by a cost model.

    This mirrors the legend of Figure 3: it ignores I/O and scheduling overhead
    and assumes perfect intra-node parallelism over CPU cores or GPUs.
    """
    per_doc_cpu = cost.per_document_overhead_seconds + cost.cpu_seconds_per_page * pages_per_document
    per_doc_gpu = cost.gpu_seconds_per_page * pages_per_document
    rates = []
    if per_doc_cpu > 0:
        rates.append(cpu_cores / per_doc_cpu)
    if per_doc_gpu > 0:
        rates.append(gpus / per_doc_gpu)
    if not rates:
        return float("inf")
    return min(rates)
