"""The AdaParse engine: adaptive routing of documents across parsers.

Both engine variants follow the architecture of Figure 2:

1. every document is parsed with the cheap default extractor (PyMuPDF);
2. **CLS I** checks the extracted text's validity from aggregate statistics —
   invalid documents are (budget permitting) sent to the high-quality parser;
3. **CLS II / CLS III** estimate, for valid documents, how much a re-parse
   with the high-quality parser would improve the text;
4. the **budget optimiser** routes the top-improvement documents to the
   high-quality parser, capped at an α fraction per batch; everyone else keeps
   the extracted text.

:meth:`AdaParseEngine.route_batch` is the rule, and the only code that
applies it.  ``AdaParseFT`` and ``AdaParseLLM`` are the same engine under
two names: one is built around the fastText selector (skipping LLM inference
entirely), the other around the fine-tuned (and DPO post-trained)
Transformer selector.  Both expose the standard
:class:`repro.parsers.base.Parser` interface, so the evaluation harness and
the pipeline treat them like any other parser: one
:meth:`~repro.parsers.base.Parser.parse_batch` is one α-budgeted
``route_batch``, and the base class's batching methods
(``parse_with_telemetry``, ``parse_many``, ``iter_parse``) chunk documents
by the configured batch size.  ``parse(doc)`` is ``route_batch`` over a
batch of one at α = 1.

Routing telemetry is a *return value* — the decisions ``route_batch``
returns beside its results — so engines hold no mutable routing state and
are safe to share between concurrent callers.  Consume telemetry through
:class:`repro.pipeline.ParsePipeline`, whose ``ParseReport`` carries the
decisions, aggregate resource usage, and throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

import numpy as np

from repro.core.budget import BudgetPlan, select_within_budget
from repro.core.cls1 import ValidationClassifier
from repro.core.cls2 import ImprovementClassifier
from repro.core.cls3 import ParserSelector
from repro.core.config import AdaParseConfig
from repro.documents.document import SciDocument
from repro.obs import profiling as _profiling
from repro.parsers.base import Parser, ParseResult, ParserCost, ResourceUsage
from repro.parsers.registry import ParserRegistry


#: Stages a routing decision can record.
ROUTING_STAGES: tuple[str, ...] = (
    "cls1_invalid",
    "accepted_default",
    "routed_high_quality",
    "budget_exhausted",
)


@dataclass(frozen=True)
class RoutingDecision:
    """Why one document was routed the way it was."""

    doc_id: str
    chosen_parser: str
    stage: str  # one of ROUTING_STAGES
    predicted_improvement: float = 0.0

    def to_json_dict(self) -> dict[str, Any]:
        """JSON view; the one serialisation shared by reports, the cache,
        ``batch_result`` frames and the shard ledger."""
        return {
            "doc_id": self.doc_id,
            "chosen_parser": self.chosen_parser,
            "stage": self.stage,
            "predicted_improvement": self.predicted_improvement,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "RoutingDecision":
        return cls(
            doc_id=str(payload["doc_id"]),
            chosen_parser=str(payload["chosen_parser"]),
            stage=str(payload["stage"]),
            predicted_improvement=float(payload.get("predicted_improvement", 0.0)),
        )


@dataclass
class RoutingSummary:
    """Aggregate routing statistics of one engine run."""

    decisions: list[RoutingDecision] = field(default_factory=list)

    def fraction_routed(self) -> float:
        """Fraction of documents routed to the high-quality parser."""
        if not self.decisions:
            return 0.0
        routed = sum(1 for d in self.decisions if d.stage in ("cls1_invalid", "routed_high_quality"))
        return routed / len(self.decisions)

    def counts_by_stage(self) -> dict[str, int]:
        """Number of documents per routing stage."""
        counts: dict[str, int] = {}
        for decision in self.decisions:
            counts[decision.stage] = counts.get(decision.stage, 0) + 1
        return counts


class AdaParseEngine(Parser):
    """The AdaParse routing engine; the two variants differ only in name and
    in the selector they are trained with."""

    name = "adaparse"

    def __init__(
        self,
        registry: ParserRegistry,
        config: AdaParseConfig | None = None,
        validator: ValidationClassifier | None = None,
        improvement_classifier: ImprovementClassifier | None = None,
        *,
        selector: ParserSelector | None = None,
    ) -> None:
        scores_itself = type(self).improvement_scores is not AdaParseEngine.improvement_scores
        if selector is None and not scores_itself:
            raise TypeError(f"{type(self).__name__}() needs a selector")
        self.registry = registry
        self.config = config or AdaParseConfig()
        self.validator = validator or ValidationClassifier()
        self.improvement_classifier = improvement_classifier
        self.selector = selector
        if self.config.default_parser not in registry:
            raise KeyError(f"default parser {self.config.default_parser!r} not registered")
        if self.config.high_quality_parser not in registry:
            raise KeyError(f"high-quality parser {self.config.high_quality_parser!r} not registered")
        # The engine's *static* cost profile approximates the expected mix:
        # default parse + selection on every document, high-quality parse on an
        # α fraction.  Used by schedulers that need a cost estimate up front.
        default_cost = registry.get(self.config.default_parser).cost
        expensive_cost = registry.get(self.config.high_quality_parser).cost
        alpha = self.config.alpha
        self.cost = ParserCost(
            cpu_seconds_per_page=default_cost.cpu_seconds_per_page
            + alpha * expensive_cost.cpu_seconds_per_page,
            gpu_seconds_per_page=alpha * expensive_cost.gpu_seconds_per_page
            + self.config.selection_gpu_seconds / 10.0,
            cpu_memory_mb=max(default_cost.cpu_memory_mb, expensive_cost.cpu_memory_mb),
            gpu_memory_mb=expensive_cost.gpu_memory_mb,
            model_load_seconds=expensive_cost.model_load_seconds,
            per_document_overhead_seconds=default_cost.per_document_overhead_seconds
            + self.config.selection_cpu_seconds,
            variability=default_cost.variability,
        )

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def improvement_scores(
        self, documents: list[SciDocument], extracted_texts: list[str]
    ) -> np.ndarray:
        """Predicted accuracy gain of the high-quality parser per document
        (CLS III: the selector scores the default parser's first pages)."""
        return self.selector.improvement_scores(
            extracted_texts, self.config.high_quality_parser
        )

    def _selection_usage(self) -> ResourceUsage:
        return ResourceUsage(
            cpu_seconds=self.config.selection_cpu_seconds,
            gpu_seconds=self.config.selection_gpu_seconds,
        )

    def route_batch(
        self, documents: list[SciDocument]
    ) -> tuple[list[ParseResult], list[RoutingDecision]]:
        """Route one batch under the α budget — the engine's stateless core.

        Touches no instance state, so concurrent callers (and the pipeline's
        thread pool) can invoke it on a shared engine; it is also the
        override point subclasses use to customise routing, honoured by both
        the serial and the thread-pooled execution paths.
        """
        cfg = self.config
        default_parser = self.registry.get(cfg.default_parser)
        expensive_parser = self.registry.get(cfg.high_quality_parser)
        with _profiling.phase("parse.default"):
            default_results = [default_parser.parse(doc) for doc in documents]
        extracted_texts = [r.text for r in default_results]
        first_pages = [r.page_texts[0] if r.page_texts else "" for r in default_results]

        with _profiling.phase("route.validate"):
            verdicts = [
                self.validator.validate(text, n_pages=doc.n_pages)
                for text, doc in zip(extracted_texts, documents)
            ]
        with _profiling.phase("route.score"):
            scores = self.improvement_scores(documents, first_pages)
            if self.improvement_classifier is not None:
                likely = self.improvement_classifier.improvement_probability(
                    [doc.metadata for doc in documents]
                )
                scores = scores * likely
            # Invalid extractions take priority for the budgeted slots...
            forced = np.asarray([not v.is_valid for v in verdicts], dtype=bool)
            effective = np.where(forced, np.inf, scores)
            plan: BudgetPlan = select_within_budget(
                effective, cfg.alpha, batch_size=None, margin=cfg.improvement_margin
            )

        results: list[ParseResult] = []
        decisions: list[RoutingDecision] = []
        for i, doc in enumerate(documents):
            selection_usage = default_results[i].usage + self._selection_usage()
            if plan.route_expensive[i]:
                with _profiling.phase("parse.high_quality"):
                    expensive_result = expensive_parser.parse(doc)
                usage = selection_usage + expensive_result.usage
                results.append(
                    ParseResult(
                        parser_name=self.name,
                        doc_id=doc.doc_id,
                        page_texts=expensive_result.page_texts,
                        usage=usage,
                        succeeded=expensive_result.succeeded,
                        error=expensive_result.error,
                    )
                )
                stage = "cls1_invalid" if forced[i] else "routed_high_quality"
                decisions.append(
                    RoutingDecision(
                        doc_id=doc.doc_id,
                        chosen_parser=cfg.high_quality_parser,
                        stage=stage,
                        predicted_improvement=float(scores[i]),
                    )
                )
            else:
                stage = "budget_exhausted" if forced[i] else "accepted_default"
                results.append(
                    ParseResult(
                        parser_name=self.name,
                        doc_id=doc.doc_id,
                        page_texts=default_results[i].page_texts,
                        usage=selection_usage,
                        succeeded=default_results[i].succeeded,
                        error=default_results[i].error,
                    )
                )
                decisions.append(
                    RoutingDecision(
                        doc_id=doc.doc_id,
                        chosen_parser=cfg.default_parser,
                        stage=stage,
                        predicted_improvement=float(scores[i]),
                    )
                )
        return results, decisions

    # ------------------------------------------------------------------ #
    # Fingerprinting
    # ------------------------------------------------------------------ #
    def config_fingerprint(self) -> str:
        """Stable fingerprint of everything that shapes this engine's output.

        Extends the base-parser fingerprint with the routing configuration
        (α, batch size, margin, selection costs), the fingerprints of both
        constituent parsers, the validator thresholds, and — when present —
        the trained selector's model weights.  Cached entries therefore
        invalidate when α changes, when either parser is upgraded, or when
        the selector is retrained.
        """
        from dataclasses import astuple

        from repro.utils.hashing import stable_hash_hex

        cfg = self.config
        if self.selector is None:  # doubles that score documents themselves
            selector_fp = type(self).__name__
        else:
            selector_fp = self.selector.config_fingerprint()
        improvement = self.improvement_classifier
        if improvement is None:
            improvement_fp = "none"
        elif hasattr(improvement, "weights_fingerprint"):
            improvement_fp = improvement.weights_fingerprint()
        else:  # duck-typed doubles without trained weights
            improvement_fp = type(improvement).__name__
        return stable_hash_hex(
            "adaparse-config",
            type(self).__name__,
            self.name,
            self.version,
            cfg.alpha,
            cfg.batch_size,
            cfg.default_parser,
            cfg.high_quality_parser,
            cfg.improvement_margin,
            cfg.selection_cpu_seconds,
            cfg.selection_gpu_seconds,
            cfg.seed,
            self.registry.get(cfg.default_parser).config_fingerprint(),
            self.registry.get(cfg.high_quality_parser).config_fingerprint(),
            *astuple(self.validator.config),
            selector_fp,
            improvement_fp,
        )

    # ------------------------------------------------------------------ #
    # The Parser interface
    # ------------------------------------------------------------------ #
    @property
    def batch_size(self) -> int:  # type: ignore[override]
        """The α budget's batch: the base batching methods chunk by it."""
        return self.config.batch_size

    def parse_batch(
        self, batch: list[SciDocument]
    ) -> tuple[list[ParseResult], list[RoutingDecision]]:
        """One batch is one α-budgeted :meth:`route_batch`."""
        return self.route_batch(batch)

    def parse(self, document: SciDocument) -> ParseResult:
        """Parse one document: :meth:`route_batch` over a batch of one at α = 1.

        One document has one budget slot, so the document is routed to the
        high-quality parser when its extraction is invalid or its predicted
        improvement clears the margin.  Batches — :meth:`parse_with_telemetry`
        or the pipeline — enforce the configured α.
        """
        return self.with_overrides(alpha=1.0).route_batch([document])[0][0]

    def with_overrides(
        self, alpha: float | None = None, batch_size: int | None = None
    ) -> "AdaParseEngine":
        """A sibling engine sharing all trained components, with config tweaks.

        Used by the pipeline to honour per-request α/batch-size overrides
        without retraining or mutating the shared engine.
        """
        if alpha is None and batch_size is None:
            return self
        config = replace(
            self.config,
            alpha=self.config.alpha if alpha is None else alpha,
            batch_size=self.config.batch_size if batch_size is None else batch_size,
        )
        return type(self)(
            registry=self.registry,
            config=config,
            validator=self.validator,
            improvement_classifier=self.improvement_classifier,
            selector=self.selector,
        )

    def _parse_pages(self, document: SciDocument, rng: np.random.Generator) -> list[str]:
        # Unused: the engine parses through route_batch(), never page by page.
        raise NotImplementedError


class AdaParseFT(AdaParseEngine):
    """AdaParse (FT): fastText-scored routing, no LLM inference.

    Implements CLS I and CLS II "within a single routine": the rule-based
    validity check plus a fastText improvement score (optionally gated by the
    metadata classifier) decide directly whether Nougat is triggered.
    """

    name = "adaparse_ft"


class AdaParseLLM(AdaParseEngine):
    """AdaParse (LLM): Transformer-scored routing (SciBERT stand-in + DPO)."""

    name = "adaparse_llm"


def build_default_engine(
    train_corpus=None,
    variant: str = "ft",
    registry: ParserRegistry | None = None,
    config: AdaParseConfig | None = None,
):
    """Convenience constructor: train a small AdaParse engine end to end.

    Parameters
    ----------
    train_corpus:
        Corpus used to label and train the selector.  When ``None`` a small
        synthetic corpus is generated (quickstart-sized; a real campaign should
        pass its own training split).
    variant:
        ``"ft"`` or ``"llm"``.
    registry, config:
        Optional parser registry and engine configuration.
    """
    from repro.core.training import AdaParseTrainer, TrainerSettings
    from repro.documents.corpus import CorpusConfig, build_corpus
    from repro.parsers.registry import default_registry

    if train_corpus is None:
        train_corpus = build_corpus(CorpusConfig(n_documents=80, seed=5, name="default-train"))
    registry = registry or default_registry()
    trainer = AdaParseTrainer(registry=registry, settings=TrainerSettings())
    if variant == "ft":
        return trainer.train_ft(train_corpus, config=config)
    if variant == "llm":
        return trainer.train_llm(train_corpus, config=config)
    raise ValueError(f"unknown AdaParse variant {variant!r}")
