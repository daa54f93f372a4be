"""AdaParse reproduction package.

This package is a from-scratch reproduction of *AdaParse: An Adaptive Parallel
PDF Parsing and Resource Scaling Engine* (MLSys 2025).  It provides:

* :mod:`repro.documents` — a generative substrate of synthetic scientific
  documents with ground-truth text, embedded text layers and rasterised image
  layers (standing in for the paper's 25k-PDF benchmark corpus).
* :mod:`repro.parsers` — simulated PDF parsers (PyMuPDF, pypdf, Tesseract,
  GROBID, Nougat, Marker) with the paper's failure modes and cost models.
* :mod:`repro.metrics` — text quality metrics (BLEU, ROUGE, CAR, coverage,
  accepted tokens, win rate).
* :mod:`repro.ml` — a numpy ML stack (fastText-style embeddings, Transformer
  encoder, LoRA, DPO) used by the parser-selection models.
* :mod:`repro.core` — the AdaParse engine itself: hierarchical classification
  (CLS I/II/III), the α-constrained budget optimiser, and the two engine
  variants AdaParse (FT) and AdaParse (LLM).
* :mod:`repro.preferences` — a simulated human-preference study and the DPO
  preference dataset.
* :mod:`repro.hpc` — a discrete-event simulator of a Polaris-like cluster with
  a Parsl-like executor (plus fault injection), used for the throughput and
  scalability experiments.
* :mod:`repro.datasets` — dataset assembly from parsed documents: quality
  filtering, deduplication, sharded JSONL output, and goodput accounting.
* :mod:`repro.evaluation` — the experiment harness that regenerates every
  table and figure of the paper's evaluation section.
* :mod:`repro.pipeline` — the unified parsing pipeline: a frozen
  :class:`~repro.pipeline.ParseRequest` in, a
  :class:`~repro.pipeline.ParseReport` (results, routing telemetry,
  resource usage, throughput) out.  The CLI, dataset builder, and
  evaluation harness are all built on this facade.
* :mod:`repro.serve` — the long-running parse service: many concurrent
  requests multiplexed onto one shared backend and one shared cache,
  with priority/fair-share admission and streaming progress events.
* :mod:`repro.gateway` — the networked submission frontend: remote
  clients submit requests over TCP (auth tokens, quotas, backpressure)
  onto one shared parse service, streaming progress events back live.
* :mod:`repro.obs` — the observability layer: a process-wide metrics
  registry (Prometheus-style exposition), per-request phase attribution
  (``ParseReport.phases``), one trace id per request across
  gateway/service/backend/worker, and structured logging for the daemons.

The two-line tour::

    import repro
    report = repro.ParsePipeline().run(repro.ParseRequest(parser="pymupdf", source="synthetic:50"))

Top-level names are resolved lazily (PEP 562) so that importing :mod:`repro`
stays cheap and does not pull in the full ML/HPC stacks.
"""

from __future__ import annotations

__version__ = "1.0.0"

#: Public name → "module:attribute" map resolved on first access.
_LAZY_EXPORTS: dict[str, str] = {
    "AdaParseConfig": "repro.core.config:AdaParseConfig",
    "AdaParseFT": "repro.core.engine:AdaParseFT",
    "AdaParseLLM": "repro.core.engine:AdaParseLLM",
    "build_default_engine": "repro.core.engine:build_default_engine",
    "CachePolicy": "repro.cache:CachePolicy",
    "CacheStats": "repro.cache:CacheStats",
    "ParseCache": "repro.cache:ParseCache",
    "CorpusConfig": "repro.documents.corpus:CorpusConfig",
    "build_corpus": "repro.documents.corpus:build_corpus",
    "Corpus": "repro.documents.corpus:Corpus",
    "SciDocument": "repro.documents.document:SciDocument",
    "DatasetBuildConfig": "repro.datasets.assembly:DatasetBuildConfig",
    "DatasetBuilder": "repro.datasets.assembly:DatasetBuilder",
    "EvaluationHarness": "repro.evaluation.harness:EvaluationHarness",
    "ParserRegistry": "repro.parsers.registry:ParserRegistry",
    "default_registry": "repro.parsers.registry:default_registry",
    "ExecutionBackend": "repro.pipeline.backends.base:ExecutionBackend",
    "ExecutionStats": "repro.pipeline.backends.base:ExecutionStats",
    "GatewayClient": "repro.gateway.client:GatewayClient",
    "GatewayServer": "repro.gateway.server:GatewayServer",
    "gateway": "repro.gateway",
    "obs": "repro.obs",
    "ParsePipeline": "repro.pipeline.pipeline:ParsePipeline",
    "ParseReport": "repro.pipeline.report:ParseReport",
    "ParseRequest": "repro.pipeline.request:ParseRequest",
    "ParseService": "repro.serve.service:ParseService",
    "RoutingDecision": "repro.core.engine:RoutingDecision",
    "RoutingSummary": "repro.core.engine:RoutingSummary",
    "ServiceConfig": "repro.serve.service:ServiceConfig",
    "serve": "repro.serve",
}

__all__ = sorted(_LAZY_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    """Resolve lazily exported public names (delegates to repro.utils.lazy)."""
    from repro.utils.lazy import resolve_lazy

    return resolve_lazy(__name__, globals(), _LAZY_EXPORTS, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
