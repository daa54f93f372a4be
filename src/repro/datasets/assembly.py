"""End-to-end dataset assembly: parse → filter → dedup → shard.

:class:`DatasetBuilder` is the library-level counterpart of a full parsing
campaign's output stage.  Given a corpus and a parser (or AdaParse engine) it
produces parsed records, pushes them through the quality-filter pipeline and
the near-duplicate detector, writes the survivors as sharded JSONL with a
manifest, and reports what happened at every stage (counts, token accounting,
goodput).

Parsing runs through :class:`repro.pipeline.ParsePipeline`: results stream
in α-budgeted batches (records are built incrementally rather than from a
fully materialised result list) on a configurable execution backend
(``DatasetBuildConfig.backend``: serial, thread, or remote).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.cache import CachePolicy
from repro.cache.stats import CacheStats, CacheStatsRecorder
from repro.datasets.dedup import DedupReport, NearDuplicateDetector
from repro.datasets.jsonl import JsonlShardManifest, ShardedJsonlWriter, iter_jsonl
from repro.datasets.quality import FilterPipeline, FilterReport
from repro.datasets.records import ParsedRecord, record_from_parse
from repro.datasets.tokens import TokenAccount, account_records
from repro.documents.corpus import Corpus
from repro.documents.document import SciDocument
from repro.documents.sources import DocumentSource
from repro.metrics.accepted_tokens import DEFAULT_BLEU_THRESHOLD
from repro.metrics.bundle import evaluate_parse
from repro.parsers.base import Parser
from repro.pipeline.pipeline import ParsePipeline


@dataclass(frozen=True)
class DatasetBuildConfig:
    """Knobs of one dataset build.

    Attributes
    ----------
    output_dir:
        Directory the JSONL shards and manifest are written to; ``None`` skips
        writing (useful for in-memory analyses and tests).
    quality_threshold:
        Acceptance threshold used by the quality filter and token accounting.
    min_tokens:
        Minimum token count a record must have to survive the length filter.
    dedup:
        Whether to run near-duplicate detection.
    dedup_similarity:
        Jaccard similarity above which two records count as duplicates.
    max_records_per_shard, max_mb_per_shard:
        Shard roll-over limits of the JSONL writer.
    evaluate_against_ground_truth:
        When true, each record's quality is the document BLEU against the
        corpus ground truth ("reference"); otherwise records carry no quality
        estimate unless the caller provides predictions.
    backend:
        Execution backend of the parse stage by registry name (``serial``,
        ``thread``, ``remote``), or ``"auto"``.
    backend_options:
        Backend construction options (e.g. ``{"n_jobs": 8}``; with
        ``backend="auto"`` that option resolves to the thread backend).
    cache:
        Cache policy of the parse stage (``off``/``read``/``write``/
        ``readwrite``).  With ``readwrite`` a rebuild over the same corpus
        reuses every cached parse instead of re-running the parsers — the
        cache lives on the builder's :class:`~repro.pipeline.ParsePipeline`.
    """

    output_dir: str | None = None
    quality_threshold: float = DEFAULT_BLEU_THRESHOLD
    min_tokens: int = 50
    dedup: bool = True
    dedup_similarity: float = 0.8
    max_records_per_shard: int = 50_000
    max_mb_per_shard: float = 64.0
    evaluate_against_ground_truth: bool = True
    backend: str = "auto"
    backend_options: dict[str, Any] = field(default_factory=dict)
    cache: str = "off"

    def __post_init__(self) -> None:
        if not 0.0 <= self.quality_threshold <= 1.0:
            raise ValueError("quality_threshold must lie in [0, 1]")
        if self.min_tokens < 0:
            raise ValueError("min_tokens must be non-negative")
        if not 0.0 < self.dedup_similarity <= 1.0:
            raise ValueError("dedup_similarity must lie in (0, 1]")
        from repro.pipeline.backends.base import validate_backend_spec

        validate_backend_spec(self.backend, self.backend_options)
        CachePolicy.coerce(self.cache)  # raises on unknown policies


@dataclass
class DatasetReport:
    """Everything one dataset build produced and measured."""

    parser_name: str
    n_documents: int
    records: list[ParsedRecord] = field(default_factory=list)
    filter_report: FilterReport = field(default_factory=FilterReport)
    dedup_report: DedupReport = field(default_factory=DedupReport)
    final_records: list[ParsedRecord] = field(default_factory=list)
    token_account: TokenAccount = field(default_factory=TokenAccount)
    manifest: JsonlShardManifest | None = None
    cache_stats: CacheStats = field(default_factory=CacheStats)

    @property
    def n_final(self) -> int:
        """Number of records in the assembled dataset."""
        return len(self.final_records)

    @property
    def retention_rate(self) -> float:
        """Fraction of parsed documents that made it into the dataset."""
        if self.n_documents == 0:
            return 0.0
        return self.n_final / self.n_documents

    def summary(self) -> dict[str, object]:
        """Stage-by-stage headline numbers."""
        return {
            "parser": self.parser_name,
            "n_documents": self.n_documents,
            "n_after_filters": self.filter_report.n_accepted,
            "n_after_dedup": self.n_final,
            "retention_rate": round(self.retention_rate, 4),
            "rejections_by_filter": dict(self.filter_report.rejections_by_filter),
            "duplicate_rate": round(self.dedup_report.duplicate_rate, 4),
            "tokens": self.token_account.as_dict(),
            "manifest": None if self.manifest is None else self.manifest.to_json_dict(),
            "cache": self.cache_stats.to_json_dict() if self.cache_stats.any_activity else None,
        }


class DatasetBuilder:
    """Assembles an LLM-training dataset from a corpus and a parser."""

    def __init__(
        self,
        parser: Parser,
        config: DatasetBuildConfig | None = None,
        filter_pipeline: FilterPipeline | None = None,
        deduplicator: NearDuplicateDetector | None = None,
        pipeline: ParsePipeline | None = None,
    ) -> None:
        self.parser = parser
        self.config = config or DatasetBuildConfig()
        self.pipeline = pipeline or ParsePipeline()
        self.filter_pipeline = filter_pipeline or FilterPipeline.default(
            quality_threshold=self.config.quality_threshold,
            min_tokens=self.config.min_tokens,
        )
        self.deduplicator = deduplicator or NearDuplicateDetector(
            similarity_threshold=self.config.dedup_similarity
        )

    # ------------------------------------------------------------------ #
    # Record construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _materialise(corpus: "Corpus | DocumentSource | Iterable[SciDocument]") -> list[SciDocument]:
        """Documents of a corpus, a document source, or a plain iterable."""
        if isinstance(corpus, DocumentSource):
            return list(corpus.iter_documents())
        return list(corpus)

    def _records_from_corpus(
        self,
        corpus: "Corpus | DocumentSource | Iterable[SciDocument]",
        cache_recorder: CacheStatsRecorder,
    ) -> list[ParsedRecord]:
        # Streamed: results arrive one α-budgeted batch at a time, so the
        # full ParseResult list is never materialised alongside the records.
        # The documents are materialised once so one-shot iterables cannot be
        # consumed by the parse stream and the pairing loop interleaved.
        documents = self._materialise(corpus)
        stream = self.pipeline.iter_parse(
            self.parser,
            iter(documents),
            cache_policy=self.config.cache,
            cache_recorder=cache_recorder,
            backend=self.config.backend,
            backend_options=self.config.backend_options,
        )
        records: list[ParsedRecord] = []
        for document, result in zip(documents, stream):
            bundle = None
            if self.config.evaluate_against_ground_truth:
                bundle = evaluate_parse(document.ground_truth_pages(), result.page_texts)
            records.append(record_from_parse(document, result, bundle=bundle))
        return records

    # ------------------------------------------------------------------ #
    # Assembly
    # ------------------------------------------------------------------ #
    def build(
        self, corpus: "Corpus | DocumentSource | Iterable[SciDocument]"
    ) -> DatasetReport:
        """Parse the documents and assemble the dataset.

        Accepts a :class:`~repro.documents.corpus.Corpus`, any
        :class:`~repro.documents.sources.DocumentSource` (a SimPDF
        directory, …), or a plain document iterable.  With
        ``config.cache != "off"`` the parse stage runs through the
        pipeline's content-addressed cache, so rebuilding over an unchanged
        corpus (tweaked filters, different shard sizes, …) skips parsing
        entirely; the report's ``cache_stats`` records the reuse.
        """
        cache_recorder = CacheStatsRecorder()
        records = self._records_from_corpus(corpus, cache_recorder)
        if CachePolicy.coerce(self.config.cache).writes:
            self.pipeline.cache.flush()
        report = self._assemble(records)
        report.cache_stats = cache_recorder.snapshot()
        return report

    def _assemble(self, records: list[ParsedRecord]) -> DatasetReport:
        config = self.config
        report = DatasetReport(parser_name=self.parser.name, n_documents=len(records), records=records)
        report.filter_report = self.filter_pipeline.apply(records)
        surviving = report.filter_report.accepted
        if config.dedup:
            report.dedup_report = self.deduplicator.find_duplicates(surviving)
            surviving = report.dedup_report.kept
        else:
            report.dedup_report = DedupReport(kept=list(surviving))
        report.final_records = surviving
        report.token_account = account_records(surviving, threshold=config.quality_threshold)
        if config.output_dir is not None:
            report.manifest = self._write(surviving)
        return report

    def _write(self, records: list[ParsedRecord]) -> JsonlShardManifest:
        assert self.config.output_dir is not None
        writer = ShardedJsonlWriter(
            Path(self.config.output_dir),
            prefix=f"{self.parser.name}-shard",
            max_records_per_shard=self.config.max_records_per_shard,
            max_mb_per_shard=self.config.max_mb_per_shard,
        )
        with writer:
            for record in records:
                writer.write(record.to_json_dict())
        writer.manifest.extra.update(
            {
                "parser": self.parser.name,
                "quality_threshold": self.config.quality_threshold,
                "n_records": len(records),
            }
        )
        writer.manifest.save()
        return writer.manifest


def load_dataset(directory: str | Path) -> list[ParsedRecord]:
    """Load an assembled dataset back into records (via its manifest)."""
    manifest = JsonlShardManifest.load(directory)
    return [
        ParsedRecord.from_json_dict(payload)
        for shard in manifest.shards
        for payload in iter_jsonl(Path(directory) / shard.path)
    ]
