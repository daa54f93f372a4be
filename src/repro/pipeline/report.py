"""The typed result object of the parsing pipeline.

A :class:`ParseReport` bundles everything one pipeline run produced:
per-document parse results, per-document routing decisions (for engines),
aggregate resource usage, wall time, and throughput.  It replaces the old
pattern of reading telemetry back off mutable engine attributes — the
report *is* the telemetry, so concurrent runs cannot trample each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cache.stats import CacheStats
from repro.core.engine import RoutingDecision, RoutingSummary
from repro.parsers.base import ParseResult, ResourceUsage
from repro.pipeline.backends.base import ExecutionStats
from repro.pipeline.request import ParseRequest


@dataclass
class RehydratedParseResult(ParseResult):
    """A parse result restored from JSON.

    When the dump was written without page texts the true page/character
    counts still travel in the JSON; this subclass serves them instead of
    deriving zeros from the empty ``page_texts`` list.
    """

    stored_n_pages: int | None = None
    stored_n_characters: int | None = None

    @property
    def n_pages(self) -> int:
        if self.page_texts or self.stored_n_pages is None:
            return len(self.page_texts)
        return self.stored_n_pages

    @property
    def n_characters(self) -> int:
        if self.page_texts or self.stored_n_characters is None:
            return sum(len(t) for t in self.page_texts)
        return self.stored_n_characters


@dataclass
class ParseReport:
    """Everything one :class:`~repro.pipeline.ParsePipeline` run produced."""

    request: ParseRequest
    parser_name: str
    n_documents: int
    results: list[ParseResult] = field(default_factory=list)
    decisions: list[RoutingDecision] = field(default_factory=list)
    usage: ResourceUsage = field(default_factory=ResourceUsage)
    wall_time_seconds: float = 0.0
    #: What the parse cache did during this run (all zeros for policy off).
    cache: CacheStats = field(default_factory=CacheStats)
    #: How the run executed: backend name, workers, batches dispatched,
    #: queue-wait/in-flight high-water marks, per-batch latency percentiles.
    execution: ExecutionStats = field(default_factory=ExecutionStats)
    #: Where the time went: phase name → ``{total_s, self_s, cpu_s,
    #: calls, bytes}`` from the run's :class:`~repro.obs.PhaseTimer`
    #: (empty when phase attribution is disabled).  Pool threads record
    #: into it directly and remote shards' tables are merged in, so the
    #: same phase keys appear on every backend.
    phases: dict[str, dict[str, float]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Headline numbers
    # ------------------------------------------------------------------ #
    @property
    def n_succeeded(self) -> int:
        """Number of documents whose parse succeeded."""
        return sum(1 for r in self.results if r.succeeded)

    @property
    def throughput_docs_per_second(self) -> float:
        """Observed wall-clock throughput of the run."""
        if self.wall_time_seconds <= 0.0:
            return 0.0
        return self.n_documents / self.wall_time_seconds

    def routing_summary(self) -> RoutingSummary:
        """The decisions wrapped in the aggregate-statistics helper."""
        return RoutingSummary(decisions=list(self.decisions))

    def fraction_routed(self) -> float:
        """Fraction of documents routed to the high-quality parser."""
        return self.routing_summary().fraction_routed()

    def counts_by_stage(self) -> dict[str, int]:
        """Documents per routing stage (empty for base parsers)."""
        return self.routing_summary().counts_by_stage()

    def phase_summary(self) -> dict[str, dict[str, float]]:
        """The phase table rounded for display, sorted by total seconds."""
        ordered = sorted(
            self.phases.items(), key=lambda kv: (-kv[1].get("total_s", 0.0), kv[0])
        )
        return {
            name: {
                "total_s": round(row.get("total_s", 0.0), 4),
                "self_s": round(row.get("self_s", 0.0), 4),
                "cpu_s": round(row.get("cpu_s", 0.0), 4),
                "calls": int(row.get("calls", 0)),
                "bytes": int(row.get("bytes", 0)),
            }
            for name, row in ordered
        }

    def summary(self) -> dict[str, Any]:
        """Compact dictionary of the run's headline numbers."""
        return {
            "parser": self.parser_name,
            "n_documents": self.n_documents,
            "n_succeeded": self.n_succeeded,
            "wall_time_seconds": round(self.wall_time_seconds, 4),
            "throughput_docs_per_second": round(self.throughput_docs_per_second, 2),
            "cpu_seconds": round(self.usage.cpu_seconds, 4),
            "gpu_seconds": round(self.usage.gpu_seconds, 4),
            "fraction_routed": round(self.fraction_routed(), 4),
            "routing_stages": self.counts_by_stage(),
            "cache": self.cache.to_json_dict() if self.cache.any_activity else None,
            "phases": self.phase_summary(),
            "execution": {
                "backend": self.execution.backend,
                "workers": self.execution.workers,
                "batches_dispatched": self.execution.batches_dispatched,
                "in_flight_high_water": self.execution.in_flight_high_water,
            },
        }

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_json_dict(self, include_text: bool = False) -> dict[str, Any]:
        """JSON-compatible view of the report.

        ``include_text`` controls whether per-page text is embedded (it can
        dominate the payload size); telemetry, usage, and per-document
        outcomes are always included.
        """
        results_payload = []
        for result in self.results:
            entry: dict[str, Any] = {
                "parser_name": result.parser_name,
                "doc_id": result.doc_id,
                "n_pages": result.n_pages,
                "n_characters": result.n_characters,
                "succeeded": result.succeeded,
                "error": result.error,
                "usage": result.usage.to_json_dict(),
            }
            if include_text:
                entry["page_texts"] = list(result.page_texts)
            results_payload.append(entry)
        return {
            "request": self.request.to_json_dict(),
            "parser": self.parser_name,
            "n_documents": self.n_documents,
            "wall_time_seconds": self.wall_time_seconds,
            "usage": self.usage.to_json_dict(),
            "cache": self.cache.to_json_dict(),
            "phases": {name: dict(row) for name, row in self.phases.items()},
            "execution": self.execution.to_json_dict(),
            "summary": self.summary(),
            "decisions": [d.to_json_dict() for d in self.decisions],
            "results": results_payload,
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> "ParseReport":
        """Rebuild a report from :meth:`to_json_dict` output.

        Page texts are restored when the dump was written with
        ``include_text=True``; otherwise results carry empty page lists but
        keep their metadata (ids, success flags, usage).  A request that
        carried explicit documents rebuilds with ``doc_ids`` provenance and
        refuses to replay (the documents themselves were not serialised).
        """
        results: list[ParseResult] = [
            RehydratedParseResult(
                parser_name=entry["parser_name"],
                doc_id=entry["doc_id"],
                page_texts=list(entry.get("page_texts", [])),
                usage=ResourceUsage.from_json_dict(entry.get("usage", {})),
                succeeded=bool(entry.get("succeeded", True)),
                error=entry.get("error"),
                stored_n_pages=entry.get("n_pages"),
                stored_n_characters=entry.get("n_characters"),
            )
            for entry in payload.get("results", [])
        ]
        decisions = [
            RoutingDecision.from_json_dict(entry) for entry in payload.get("decisions", [])
        ]
        return cls(
            request=ParseRequest.from_json_dict(payload["request"]),
            parser_name=payload["parser"],
            n_documents=int(payload["n_documents"]),
            results=results,
            decisions=decisions,
            usage=ResourceUsage.from_json_dict(payload.get("usage", {})),
            wall_time_seconds=float(payload.get("wall_time_seconds", 0.0)),
            cache=CacheStats.from_json_dict(payload.get("cache", {})),
            execution=ExecutionStats.from_json_dict(payload.get("execution", {})),
            phases={
                str(name): {str(k): float(v) for k, v in row.items()}
                for name, row in (payload.get("phases") or {}).items()
            },
        )
