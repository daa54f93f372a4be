"""Quality-evaluation harness.

Runs a set of parsers (including AdaParse engines) over a corpus, computes the
per-document metric bundle for each, simulates the preference tournament for
win rates, and aggregates everything into the row format of the paper's
Tables 1–3.

Parsing runs through :class:`repro.pipeline.ParsePipeline`, so engine routing
telemetry lands in :attr:`EvaluationReport.routing` (one decision list per
engine) instead of being read back off mutable engine attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.engine import RoutingDecision, RoutingSummary
from repro.documents.corpus import Corpus
from repro.documents.document import SciDocument
from repro.metrics.accepted_tokens import accepted_token_rate
from repro.metrics.bundle import MetricBundle, evaluate_parse
from repro.metrics.winrate import PairwiseOutcome, WinRateTally
from repro.parsers.base import Parser, ParseResult
from repro.pipeline.pipeline import ParsePipeline
from repro.preferences.annotators import AnnotatorPanel
from repro.utils.rng import rng_from
from repro.utils.tables import Table


@dataclass(frozen=True)
class HarnessConfig:
    """Evaluation knobs.

    Attributes
    ----------
    accepted_token_threshold:
        Critical BLEU a document parse must reach for its tokens to count as
        accepted (the AT column).
    win_rate_pages_per_document:
        How many pages per document enter the simulated preference tournament.
    win_rate_annotators_per_page:
        How many simulated annotators judge each sampled page.
    car_max_chars:
        Per-page character cap of the CAR computation (cost control).
    seed:
        Seed of the tournament sampling.
    backend:
        Execution backend the parse stage dispatches batches on, by
        registry name (``serial``, ``thread``, ``remote``) or ``"auto"``.
    backend_options:
        Backend construction options (e.g. ``{"n_jobs": 8}``; with
        ``backend="auto"`` that option resolves to the thread backend).
    """

    accepted_token_threshold: float = 0.70
    win_rate_pages_per_document: int = 1
    win_rate_annotators_per_page: int = 1
    car_max_chars: int = 1600
    seed: int = 1234
    backend: str = "auto"
    backend_options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.pipeline.backends.base import validate_backend_spec

        validate_backend_spec(self.backend, self.backend_options)


@dataclass
class ParserAggregate:
    """Aggregate metrics of one parser over a corpus (one table row)."""

    parser_name: str
    coverage: float
    bleu: float
    rouge: float
    car: float
    win_rate: float | None
    accepted_tokens: float
    mean_cpu_seconds: float
    mean_gpu_seconds: float

    def as_row(self, percentages: bool = True) -> dict[str, object]:
        scale = 100.0 if percentages else 1.0
        return {
            "Parser": self.parser_name,
            "Coverage": self.coverage * scale,
            "BLEU": self.bleu * scale,
            "ROUGE": self.rouge * scale,
            "CAR": self.car * scale,
            "WR": None if self.win_rate is None else self.win_rate * scale,
            "AT": self.accepted_tokens * scale,
        }


@dataclass
class EvaluationReport:
    """Full output of one harness run."""

    parser_names: list[str]
    doc_ids: list[str]
    bundles: dict[tuple[str, str], MetricBundle] = field(default_factory=dict)
    results: dict[tuple[str, str], ParseResult] = field(default_factory=dict)
    win_rates: dict[str, float] = field(default_factory=dict)
    aggregates: dict[str, ParserAggregate] = field(default_factory=dict)
    #: Routing telemetry per parser (empty list for non-engine parsers).
    routing: dict[str, list[RoutingDecision]] = field(default_factory=dict)

    def routing_summary(self, parser_name: str) -> RoutingSummary:
        """One parser's routing telemetry with the aggregate-statistics helpers."""
        return RoutingSummary(decisions=list(self.routing.get(parser_name, [])))

    def bundle(self, parser_name: str, doc_id: str) -> MetricBundle:
        """Metric bundle of one (parser, document) pair."""
        return self.bundles[(parser_name, doc_id)]

    def metric_matrix(self, metric: str) -> np.ndarray:
        """Matrix ``[n_docs, n_parsers]`` of one metric (e.g. ``"bleu"``)."""
        matrix = np.zeros((len(self.doc_ids), len(self.parser_names)))
        for j, parser in enumerate(self.parser_names):
            for i, doc_id in enumerate(self.doc_ids):
                matrix[i, j] = getattr(self.bundles[(parser, doc_id)], metric)
        return matrix

    def token_counts(self) -> np.ndarray:
        """Ground-truth token count per document."""
        first_parser = self.parser_names[0]
        return np.asarray(
            [self.bundles[(first_parser, d)].n_ground_truth_tokens for d in self.doc_ids]
        )

    def to_table(self, title: str, parser_order: list[str] | None = None) -> Table:
        """Render the aggregates as a paper-style table."""
        order = parser_order or self.parser_names
        table = Table(title=title, columns=["Parser", "Coverage", "BLEU", "ROUGE", "CAR", "WR", "AT"])
        for name in order:
            if name in self.aggregates:
                table.add_row(self.aggregates[name].as_row())
        return table


class EvaluationHarness:
    """Evaluates parsers and AdaParse engines over a corpus."""

    def __init__(
        self,
        config: HarnessConfig | None = None,
        panel: AnnotatorPanel | None = None,
        pipeline: ParsePipeline | None = None,
    ) -> None:
        self.config = config or HarnessConfig()
        self.panel = panel or AnnotatorPanel()
        self.pipeline = pipeline or ParsePipeline()

    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        corpus: Corpus,
        parsers: list[Parser],
        compute_win_rate: bool = True,
    ) -> EvaluationReport:
        """Run every parser over the corpus and aggregate metrics."""
        from repro.pipeline.backends.base import resolve_execution

        documents: list[SciDocument] = list(corpus)
        parser_names = [p.name for p in parsers]
        report = EvaluationReport(parser_names=parser_names, doc_ids=[d.doc_id for d in documents])
        gt_pages_by_doc = {d.doc_id: d.ground_truth_pages() for d in documents}
        # One backend for the whole evaluation: resolving per parser would
        # spin up (and tear down) a fresh pool N times.
        backend, owned = resolve_execution(
            self.config.backend, self.config.backend_options
        )
        try:
            for parser in parsers:
                results, decisions = self.pipeline.parse_with_telemetry(
                    parser, documents, backend=backend
                )
                report.routing[parser.name] = decisions
                for doc, result in zip(documents, results):
                    report.results[(parser.name, doc.doc_id)] = result
                    report.bundles[(parser.name, doc.doc_id)] = evaluate_parse(
                        gt_pages_by_doc[doc.doc_id],
                        result.page_texts,
                        car_max_chars=self.config.car_max_chars,
                    )
        finally:
            if owned:
                backend.close()
        if compute_win_rate and len(parsers) >= 2:
            report.win_rates = self._tournament_win_rates(documents, parsers, report)
        self._aggregate(documents, parsers, report)
        return report

    # ------------------------------------------------------------------ #
    def _tournament_win_rates(
        self,
        documents: list[SciDocument],
        parsers: list[Parser],
        report: EvaluationReport,
    ) -> dict[str, float]:
        """Round-robin preference tournament over sampled pages."""
        cfg = self.config
        tally = WinRateTally()
        rng = rng_from(cfg.seed, "harness-tournament", len(documents))
        parser_names = [p.name for p in parsers]
        for doc in documents:
            n_pages = doc.n_pages
            pages = rng.choice(
                n_pages, size=min(cfg.win_rate_pages_per_document, n_pages), replace=False
            )
            for page_index in pages:
                page = doc.pages[int(page_index)]
                annotators = self.panel.sample(rng, k=cfg.win_rate_annotators_per_page)
                for annotator in annotators:
                    utilities: dict[str, float] = {}
                    for name in parser_names:
                        result = report.results[(name, doc.doc_id)]
                        text = (
                            result.page_texts[int(page_index)]
                            if int(page_index) < len(result.page_texts)
                            else ""
                        )
                        utilities[name] = annotator.utility(
                            text, page, salt=f"{doc.doc_id}:{page_index}"
                        )
                    for i in range(len(parser_names)):
                        for j in range(i + 1, len(parser_names)):
                            a, b = parser_names[i], parser_names[j]
                            delta = utilities[a] - utilities[b]
                            if abs(delta) < annotator.profile.tie_threshold:
                                winner = None
                            else:
                                winner = a if delta > 0 else b
                            tally.add(
                                PairwiseOutcome(
                                    doc_id=f"{doc.doc_id}#p{page_index}",
                                    parser_a=a,
                                    parser_b=b,
                                    winner=winner,
                                )
                            )
        return {name: tally.win_rate(name) for name in parser_names}

    # ------------------------------------------------------------------ #
    def _aggregate(
        self,
        documents: list[SciDocument],
        parsers: list[Parser],
        report: EvaluationReport,
    ) -> None:
        token_counts = [
            report.bundles[(parsers[0].name, d.doc_id)].n_ground_truth_tokens for d in documents
        ]
        for parser in parsers:
            bundles = [report.bundles[(parser.name, d.doc_id)] for d in documents]
            results = [report.results[(parser.name, d.doc_id)] for d in documents]
            bleu_scores = [b.bleu for b in bundles]
            aggregate = ParserAggregate(
                parser_name=parser.name,
                coverage=float(np.mean([b.coverage for b in bundles])),
                bleu=float(np.mean(bleu_scores)),
                rouge=float(np.mean([b.rouge for b in bundles])),
                car=float(np.mean([b.car for b in bundles])),
                win_rate=report.win_rates.get(parser.name),
                accepted_tokens=accepted_token_rate(
                    bleu_scores, token_counts, threshold=self.config.accepted_token_threshold
                ),
                mean_cpu_seconds=float(np.mean([r.usage.cpu_seconds for r in results])),
                mean_gpu_seconds=float(np.mean([r.usage.gpu_seconds for r in results])),
            )
            report.aggregates[parser.name] = aggregate
