"""The :class:`ParsePipeline` facade: one way to run parsing.

Every entry point of the library — the CLI subcommands, the dataset
builder, the evaluation harness, and user code — funnels through this
facade: a frozen :class:`~repro.pipeline.request.ParseRequest` goes in, a
:class:`~repro.pipeline.report.ParseReport` comes out.  The pipeline

* resolves the parser name against the registry (training an AdaParse
  engine on demand for ``adaparse_ft``/``adaparse_llm``),
* applies per-request α/batch-size overrides without mutating shared
  engines,
* streams *items* — documents, or the
  :class:`~repro.documents.sources.DocumentRef` values a reference-able
  source lists without reading anything — through the parser in α-budgeted
  batches with a bounded in-flight window (``iter_parse`` keeps memory
  O(batch)); a reference is read where its batch is parsed (the backend's
  execution site), so the run itself only ever holds names,
* dispatches batches through a pluggable
  :class:`~repro.pipeline.backends.ExecutionBackend` — serial, thread
  pool, or a worker cluster —
  while preserving document order, which is safe because routing telemetry
  is a return value and engines hold no mutable routing state, and
* consults the content-addressed :class:`repro.cache.ParseCache` when the
  request carries a cache policy: hits are replayed, misses are parsed
  once (single-flighted across workers) and optionally stored, and the
  report's :class:`~repro.cache.CacheStats` block records what happened.
  The cache layer always runs in the parent process (it wraps the
  backend's :meth:`~repro.pipeline.backends.ExecutionBackend.site`, which
  is what crosses the execution boundary), so policies behave identically
  on every backend.  It keys references through its reference index: only
  a reference it has never seen is read in the parent (to be hashed); a
  hit is not read at all and a known miss is read at the site.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.cache import (
    CachePolicy,
    CacheStatsRecorder,
    ParseCache,
    cached_batch_worker,
)
from repro.cache.cache import BatchWorker
from repro.core.engine import AdaParseEngine, RoutingDecision, build_default_engine
from repro.documents.sources import Item
from repro.obs import metrics as _metrics
from repro.obs import profiling as _profiling
from repro.obs import tracing as _tracing
from repro.parsers.base import Parser, ParseResult, ResourceUsage
from repro.parsers.registry import ParserRegistry, default_registry
from repro.pipeline.backends.base import (
    ExecutionBackend,
    create_backend,
    resolve_execution,
)
from repro.pipeline.report import ParseReport
from repro.pipeline.request import ParseRequest
from repro.utils.batching import chunked

#: Batch size of a base parser when the request names none: its
#: :attr:`~repro.parsers.base.Parser.batch_size` (engines use their
#: configured batch size).
DEFAULT_BATCH_SIZE = Parser.batch_size

#: Names the pipeline will train an engine for on first use.
ENGINE_VARIANTS = {"adaparse_ft": "ft", "adaparse_llm": "llm"}

#: One unit of pipeline work: a batch's results plus its routing decisions.
BatchOutput = tuple[list[ParseResult], list[RoutingDecision]]


def _traced_batch_worker(worker: BatchWorker, backend_name: str) -> BatchWorker:
    """Open a ``backend.batch`` span around every batch of a traced run.

    Everything the worker does — cache lookups, remote shard round trips —
    nests under it; the trace itself reaches the batch through the
    backend, which carries the caller's context across its boundary.
    With no active trace the worker is returned unwrapped.
    """
    if _tracing.current_trace() is None or not _tracing.enabled():
        return worker

    def traced(batch: list[Item]) -> BatchOutput:
        attributes = {"backend": backend_name, "n_documents": len(batch)}
        with _tracing.span("backend.batch", attributes=attributes):
            return worker(batch)

    return traced


def _parse_phased_worker(site: BatchWorker) -> BatchWorker:
    """Bracket the execution site in the ``parse`` phase.

    Child phase tables merge *inside* the bracket, so ``parse`` self time
    is what the backend added on top of attributed work — dispatch,
    transfer, queueing — on every backend.
    """

    def phased(batch: list[Item]) -> BatchOutput:
        with _profiling.phase("parse"):
            return site(batch)

    return phased


class ParsePipeline:
    """Facade that turns :class:`ParseRequest` objects into :class:`ParseReport` objects.

    Parameters
    ----------
    registry:
        Parser registry to resolve names against; built lazily from
        :func:`~repro.parsers.registry.default_registry` when omitted.
    engines:
        Pre-built engines by name (e.g. ``{"adaparse_ft": engine}``).
        Unknown ``adaparse_*`` names are trained on demand via
        :func:`~repro.core.engine.build_default_engine` and cached here.
    cache:
        Parse-result cache consulted when a request carries a cache policy.
        Pass a :class:`repro.cache.ParseCache` with a directory for
        cross-process persistence; when omitted, a memory-only cache is
        created on first cached run.
    """

    def __init__(
        self,
        registry: ParserRegistry | None = None,
        engines: dict[str, Parser] | None = None,
        cache: ParseCache | None = None,
    ) -> None:
        self._registry = registry
        self.engines: dict[str, Parser] = dict(engines or {})
        self._cache = cache
        self._resolve_lock = threading.Lock()

    @property
    def registry(self) -> ParserRegistry:
        """The parser registry (constructed on first use)."""
        if self._registry is None:
            self._registry = default_registry()
        return self._registry

    @property
    def cache(self) -> ParseCache:
        """The parse cache (a memory-only one is constructed on first use)."""
        if self._cache is None:
            self._cache = ParseCache()
        return self._cache

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def resolve_parser(self, parser: str | Parser, alpha: float | None = None) -> Parser:
        """Resolve a parser name (or pass through an instance).

        Engine names not present in ``engines`` are trained on demand and
        cached.  An α override produces a sibling engine sharing the trained
        components, leaving the cached engine untouched; batch size is an
        execution argument, not an engine property, so no sibling is needed
        for it.
        """
        if isinstance(parser, Parser):
            resolved = parser
        elif parser in self.engines:
            resolved = self.engines[parser]
        elif parser in self.registry:
            resolved = self.registry.get(parser)
        elif parser in ENGINE_VARIANTS:
            with _profiling.phase("engine.train"):
                resolved = build_default_engine(
                    variant=ENGINE_VARIANTS[parser], registry=self.registry
                )
            self.engines[parser] = resolved
        else:
            known = sorted(set(self.registry.names) | set(self.engines) | set(ENGINE_VARIANTS))
            raise KeyError(f"unknown parser {parser!r}; known: {known}")
        if alpha is not None and isinstance(resolved, AdaParseEngine):
            resolved = resolved.with_overrides(alpha=alpha)
        return resolved

    # ------------------------------------------------------------------ #
    # Streaming execution
    # ------------------------------------------------------------------ #
    def _batch_worker(
        self,
        resolved: Parser,
        backend: ExecutionBackend,
        cache_policy: CachePolicy,
        cache_recorder: CacheStatsRecorder | None,
    ) -> BatchWorker:
        """Compose the per-batch worker: cache ∘ ``parse`` phase ∘ backend site.

        The backend is handed the parser and returns the callable that
        parses a batch of items at its execution site — where references
        are read; the cache wrapper goes around it, so lookups,
        single-flight leases, and write-backs always run in the parent
        process regardless of where parsing happens.
        """
        worker = _parse_phased_worker(backend.site(resolved))
        if cache_policy is CachePolicy.OFF:
            return worker
        return cached_batch_worker(
            self.cache,
            cache_policy,
            resolved.config_fingerprint(),
            worker,
            recorder=cache_recorder,
        )

    def _execute_batches(
        self,
        resolved: Parser,
        documents: Iterable[Item],
        batch_size: int | None,
        backend: ExecutionBackend,
        cache_policy: CachePolicy = CachePolicy.OFF,
        cache_recorder: CacheStatsRecorder | None = None,
    ) -> Iterator[BatchOutput]:
        """Run an already-resolved parser over batched items on a backend."""
        size = batch_size or resolved.batch_size
        worker = self._batch_worker(resolved, backend, cache_policy, cache_recorder)
        worker = _traced_batch_worker(worker, backend.name)
        yield from backend.map_ordered(worker, chunked(documents, size))

    def parse_batches(
        self,
        parser: str | Parser,
        documents: Iterable[Item],
        batch_size: int | None = None,
        cache_policy: CachePolicy | str = CachePolicy.OFF,
        cache_recorder: CacheStatsRecorder | None = None,
        backend: str | ExecutionBackend = "auto",
        backend_options: Mapping[str, object] | None = None,
    ) -> Iterator[BatchOutput]:
        """Stream ``(results, decisions)`` per batch on an execution backend.

        ``documents`` are items — documents, and references the execution
        site reads, freely mixed.  Batches are routed independently (the α
        cap applies within each) and yielded in document order; parallel
        backends keep a bounded window of batches in flight.  ``backend``
        is a registry name (``serial``, ``thread``, ``remote``, or
        ``auto``) configured through
        ``backend_options`` (``{"n_jobs": N}`` makes ``auto`` pick the
        thread backend), or an :class:`~repro.pipeline.backends.
        ExecutionBackend` instance whose lifecycle the caller manages.
        With a cache policy other than ``off``, cached documents are
        replayed and only the misses are parsed (the α cap then applies
        to the sub-batch that actually runs); pass a
        :class:`~repro.cache.CacheStatsRecorder` to observe hits.
        """
        resolved = self.resolve_parser(parser)
        exec_backend, owned = resolve_execution(backend, backend_options)
        try:
            yield from self._execute_batches(
                resolved,
                documents,
                batch_size,
                exec_backend,
                cache_policy=CachePolicy.coerce(cache_policy),
                cache_recorder=cache_recorder,
            )
        finally:
            if owned:
                exec_backend.close()

    def iter_parse(
        self,
        parser: str | Parser,
        documents: Iterable[Item],
        batch_size: int | None = None,
        cache_policy: CachePolicy | str = CachePolicy.OFF,
        cache_recorder: CacheStatsRecorder | None = None,
        backend: str | ExecutionBackend = "auto",
        backend_options: Mapping[str, object] | None = None,
    ) -> Iterator[ParseResult]:
        """Stream parse results in document order with O(batch) memory."""
        for results, _ in self.parse_batches(
            parser,
            documents,
            batch_size,
            cache_policy=cache_policy,
            cache_recorder=cache_recorder,
            backend=backend,
            backend_options=backend_options,
        ):
            yield from results

    def parse_with_telemetry(
        self,
        parser: str | Parser,
        documents: Sequence[Item],
        batch_size: int | None = None,
        cache_policy: CachePolicy | str = CachePolicy.OFF,
        cache_recorder: CacheStatsRecorder | None = None,
        backend: str | ExecutionBackend = "auto",
        backend_options: Mapping[str, object] | None = None,
    ) -> tuple[list[ParseResult], list[RoutingDecision]]:
        """Parse a collection, returning results plus routing telemetry.

        The returned decision list is the authoritative telemetry (the
        engine holds no mutable routing state).  Pass a backend *instance*
        to read its
        :meth:`~repro.pipeline.backends.ExecutionBackend.stats` afterwards.
        """
        resolved = self.resolve_parser(parser)
        results: list[ParseResult] = []
        decisions: list[RoutingDecision] = []
        for batch_results, batch_decisions in self.parse_batches(
            resolved,
            documents,
            batch_size,
            cache_policy=cache_policy,
            cache_recorder=cache_recorder,
            backend=backend,
            backend_options=backend_options,
        ):
            results.extend(batch_results)
            decisions.extend(batch_decisions)
        return results, decisions

    # ------------------------------------------------------------------ #
    # The request → report entry point
    # ------------------------------------------------------------------ #
    def run(self, request: ParseRequest) -> ParseReport:
        """Execute a request end to end on a backend of its own."""
        return self.execute(request)

    def execute(
        self,
        request: ParseRequest,
        backend: ExecutionBackend | None = None,
        on_batch: Callable[[int, int, int, float], None] | None = None,
    ) -> ParseReport:
        """Turn a request into a report: the one run path.

        Without ``backend`` the request's own backend spec is built, owned
        and closed here.  A backend that is passed in (the parse service's)
        is shared: it stays open and the report's ``execution`` block says
        ``shared_backend``, because its counters span every run on it.
        ``on_batch(documents_done, n_documents, batches_done, elapsed_s)``
        is called after each completed batch, in document order.

        Each run executes under a :class:`~repro.obs.tracing.TraceContext`
        — the caller's, when one is active (the parse service propagates
        its ticket's), or a fresh root trace otherwise — so per-batch and
        cache spans always have somewhere to hang, and under its own
        :class:`~repro.obs.profiling.PhaseTimer`, ambient before document
        resolution so source iteration is attributed too.
        """
        timer = _profiling.PhaseTimer() if _profiling.phases_enabled() else None
        span = _tracing.span("pipeline.run", attributes={"parser": str(request.parser)})
        with _tracing.ensure_trace(), span, _profiling.use_timer(timer):
            with self._resolve_lock:
                # Engine training mutates pipeline-level state; serialising
                # it keeps concurrent runs from double-training one engine.
                # Reading sources and parsing run unlocked.
                parser = self.resolve_parser(request.parser, alpha=request.alpha)
            cache_policy = request.cache_policy
            cache_recorder = CacheStatsRecorder()  # stays all-zero under policy off
            owned = backend is None
            if owned:
                backend = create_backend(*request.resolved_backend())
            results: list[ParseResult] = []
            decisions: list[RoutingDecision] = []
            batches_done = 0
            try:
                source = request.resolve_source()
                with _profiling.phase("source.iter"):
                    # A source that can list its documents without reading
                    # them is only listed here: each reference is read where
                    # its batch is parsed (or not at all, on a cache hit).
                    refs = source.refs()
                    documents: list[Item] = list(
                        source.iter_documents() if refs is None else refs
                    )
                started = perf_counter()
                for batch_results, batch_decisions in self._execute_batches(
                    parser,
                    documents,
                    request.batch_size,
                    backend,
                    cache_policy=cache_policy,
                    cache_recorder=cache_recorder,
                ):
                    results.extend(batch_results)
                    decisions.extend(batch_decisions)
                    batches_done += 1
                    if on_batch is not None:
                        # Monotonic progress clock: wall-clock timestamps can
                        # step under NTP; elapsed seconds cannot.
                        on_batch(
                            len(results),
                            len(documents),
                            batches_done,
                            perf_counter() - started,
                        )
                if cache_policy.writes:
                    # Make the run durable before reporting it: buffered shard
                    # writes land with atomic write-then-rename.
                    with _profiling.phase("cache.flush"):
                        self.cache.flush()
                # Stop the clock before stats(): what a backend's snapshot
                # costs must not deflate the reported parse throughput.
                wall_time = perf_counter() - started
                execution = backend.stats()
            finally:
                if owned:
                    backend.close()
        if not owned:
            execution.extra["shared_backend"] = True
        usage = ResourceUsage()
        for result in results:
            usage = usage + result.usage
        report = ParseReport(
            request=request,
            parser_name=parser.name,
            n_documents=len(documents),
            results=results,
            decisions=decisions,
            usage=usage,
            wall_time_seconds=wall_time,
            cache=cache_recorder.snapshot(),
            execution=execution,
        )
        if timer is not None:
            report.phases = timer.snapshot()
            histogram = _profiling.phase_seconds_histogram()
            for name, row in report.phases.items():
                histogram.observe(row["total_s"], phase=name)
        _metrics.counter(
            "repro_pipeline_documents_total",
            "Documents parsed by completed pipeline runs",
        ).inc(report.n_documents)
        return report
