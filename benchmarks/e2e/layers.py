"""The traced run: spans around layer calls, a decomposed replay, layer taxes.

Everything here is measured **from outside**: the harness times calls into
the layers' public functions.  Per workload the traced run makes three
steps over one round's requests —

1. ``untraced``: the real entry point, no spans;
2. ``traced``: the real entry point inside a span per request;
3. ``replay``: the harness itself calls source → key → lookup →
   parse/route → store → flush in the order the pipeline does, one span
   per layer call —

so ``pipeline.self_s`` is what the facade costs beyond the layers it
drives (entry spans minus replay children) and ``trace_overhead_share`` is
step 2's median request over step 1's.  The replay's output doubles as the
reference the traced step's digests are checked against.  Workload-specific
probes (backend rows, obs overhead, the serve/gateway/cluster taxes, the
wire codec) follow the steps.
"""

from __future__ import annotations

import json
import statistics
import threading
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

import numpy as np

from repro.cache import CacheStatsRecorder, parse_cache_key
from repro.core.budget import select_within_budget
from repro.documents.simpdf import document_from_dict, document_to_dict
from repro.obs import metrics as obs_metrics
from repro.obs import profiling as obs_profiling
from repro.obs import tracing as obs_tracing
from repro.pipeline import ParsePipeline, ParseRequest
from repro.utils.wire import encode_message

from benchmarks.e2e.workloads import (
    NULL_TRACER,
    Outcome,
    Pairs,
    Planned,
    SeeOnceLedger,
    SpeedGauge,
    Workload,
    digest_pairs,
    latencies_ms,
    percentile,
    run_requests,
    stop_gateway,
)

#: Spans the replay opens directly under its per-request ``replay`` span;
#: together they should cover >= 90% of the entry-point span.
REPLAY_CHILDREN = (
    "documents.synthetic",
    "documents.simpdf_read",
    "parsers.pymupdf",
    "core.route_batch",
    "cache.key",
    "cache.lookup",
    "cache.store",
    "cache.flush",
)
BACKEND_ROWS = ("serial", "thread", "async", "process")
WIRE_DOCS = 200


class Tracer:
    """In-memory spans: name, start, end, parent, request id, work count."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        #: Counts taken where the work happens (hits by tier, routed documents).
        self.counts: Counter[str] = Counter()
        #: The harness's latest gauge sample; stamped on every span it opens.
        self.slowdown = 1.0
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(
        self, name: str, request: str | None = None, count: int = 0
    ) -> Iterator[dict[str, Any]]:
        parent = getattr(self._local, "current", None)
        record: dict[str, Any] = {
            "name": name,
            "parent": parent["id"] if parent else None,
            "request": request or (parent["request"] if parent else None),
            "count": count,
            "bytes": 0,
            "slowdown": self.slowdown,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        self._local.current = record
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._local.current = parent

    def named(self, name: str, under: str | None = None) -> list[dict[str, Any]]:
        """Spans called ``name`` (whose parent is called ``under``, if given)."""
        return [
            s
            for s in self.spans
            if s["name"] == name
            and (under is None or self._parent_name(s) == under)
        ]

    def _parent_name(self, span: dict[str, Any]) -> str | None:
        return None if span["parent"] is None else self.spans[span["parent"]]["name"]

    @staticmethod
    def seconds(span: dict[str, Any]) -> float:
        """A span's duration at reference speed."""
        return (span["end"] - span["start"]) / span["slowdown"]

    def busy_s(self, name: str, under: str | None = None) -> float:
        return sum(self.seconds(s) for s in self.named(name, under))

    def count(self, name: str, field: str = "count") -> int:
        return sum(s[field] for s in self.named(name))

    def write_jsonl(self, path: Path, workload: str) -> None:
        """Append every span, with its self time, as one JSON line each.

        ``start``/``end`` are raw ``perf_counter`` readings; ``self_s`` is the
        span's duration minus its children's.
        """
        children: Counter[int] = Counter()
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as handle:
            for span in self.spans:
                self_s = span["end"] - span["start"] - children[span["id"]]
                handle.write(json.dumps(dict(span, workload=workload, self_s=self_s)) + "\n")


# ---------------------------------------------------------------------- #
# The decomposed replay
# ---------------------------------------------------------------------- #
def _read_documents(planned: Planned, tracer: Tracer) -> list[Any]:
    source = planned.request.resolve_source()
    name = "documents.synthetic" if source.kind == "synthetic" else "documents.simpdf_read"
    with tracer.span(name) as span:
        documents = list(source.iter_documents())
        span["count"] = len(documents)
        if source.kind != "synthetic":
            span["bytes"] = sum(path.stat().st_size for path in source.paths())
    return documents


def _parse(workload: Workload, documents: list[Any], tracer: Tracer) -> list[Any]:
    """The execution site: the engine's ``route_batch`` or the base parser."""
    engine = workload.engine
    if engine is not None:
        with tracer.span("core.route_batch", count=len(documents)):
            results, decisions = engine.route_batch(documents)
        high_quality = engine.config.high_quality_parser
        tracer.counts["routed"] += sum(1 for d in decisions if d.chosen_parser == high_quality)
        tracer.counts["routable"] += len(documents)
        return results
    parser = workload.pipeline.registry.get(workload.parser)
    with tracer.span(f"parsers.{workload.parser}", count=len(documents)):
        results, _ = parser.parse_with_telemetry(documents)
    return results


def replay_request(workload: Workload, planned: Planned, tracer: Tracer) -> Pairs:
    """One request, layer by layer, as ``ParsePipeline.run`` orders the calls."""
    with tracer.span("replay", request=planned.key):
        documents = _read_documents(planned, tracer)
        if workload.cache_policy == "off":
            results = _parse(workload, documents, tracer)
            return [(r.doc_id, r.text) for r in results]

        cache = workload.cache
        parser = workload.pipeline.resolve_parser(workload.parser)
        fingerprint = parser.config_fingerprint()
        recorder = CacheStatsRecorder()
        with tracer.span("cache.key", count=len(documents)):
            keys = [str(parse_cache_key(d, fingerprint)) for d in documents]
        tracer.counts["memory_hits"] += sum(1 for key in keys if key in cache.memory)
        with tracer.span("cache.lookup", count=len(keys)):
            entries = [cache.lookup(key, recorder) for key in keys]
        missing = [i for i, entry in enumerate(entries) if entry is None]
        if missing:
            started = perf_counter()
            results = _parse(workload, [documents[i] for i in missing], tracer)
            per_doc = (perf_counter() - started) / len(missing)
            with tracer.span("cache.store", count=len(missing)):
                for i, result in zip(missing, results):
                    entries[i] = cache.store(
                        keys[i], result, None, compute_seconds=per_doc, recorder=recorder
                    )
        with tracer.span("cache.flush"):
            cache.flush()
        tracer.counts["cache_hits"] += recorder.snapshot().hits
        tracer.counts["cache_lookups"] += len(keys)
        return [(e.result.doc_id, e.result.text) for e in entries]


def route_parts(workload: Workload, planned: Planned, tracer: Tracer) -> None:
    """``route_batch`` piece by piece: where inside the engine the time goes."""
    engine = workload.engine
    config = engine.config
    registry = engine.registry
    with tracer.span("route_parts", request=planned.key):
        documents = list(planned.request.resolve_source().iter_documents())
        with tracer.span("parsers.pymupdf", count=len(documents)):
            extracted, _ = registry.get(config.default_parser).parse_with_telemetry(documents)
        texts = [r.text for r in extracted]
        first_pages = [r.page_texts[0] if r.page_texts else "" for r in extracted]
        with tracer.span("core.validate", count=len(documents)):
            verdicts = [
                engine.validator.validate(text, n_pages=doc.n_pages)
                for text, doc in zip(texts, documents)
            ]
        with tracer.span("ml.score", count=len(documents)):
            scores = engine.selector.improvement_scores(
                first_pages, config.high_quality_parser
            )
        forced = np.asarray([not v.is_valid for v in verdicts], dtype=bool)
        with tracer.span("core.budget", count=len(documents)):
            plan = select_within_budget(
                np.where(forced, np.inf, scores),
                config.alpha,
                batch_size=None,
                margin=config.improvement_margin,
            )
        chosen = [doc for doc, routed in zip(documents, plan.route_expensive) if routed]
        with tracer.span(f"parsers.{config.high_quality_parser}", count=len(chosen)):
            registry.get(config.high_quality_parser).parse_with_telemetry(chosen)


# ---------------------------------------------------------------------- #
# Probes owned by single workloads
# ---------------------------------------------------------------------- #
def _p50_ms(outcomes: list[Outcome]) -> float:
    return percentile(latencies_ms(outcomes), 0.5)


def backend_rows(
    workload: Workload, step: list[Planned], gauge: SpeedGauge
) -> dict[str, float]:
    """docs/s of the same requests, cache off, on each local backend."""
    rows = {}
    pipeline = ParsePipeline()
    for backend in BACKEND_ROWS:
        options = {} if backend == "serial" else {"n_jobs": 2}
        docs, seconds = 0, 0.0
        for planned in step:
            # Four batches per request, or a pool has nothing to overlap.
            request = ParseRequest(
                parser=workload.parser,
                source=planned.key,
                batch_size=10,
                backend=backend,
                backend_options=options,
            )
            seconds += gauge.timed(lambda: pipeline.run(request))
            docs += workload.docs_per_request
        rows[f"pipeline.backend.{backend}.docs_per_s"] = docs / seconds
    return rows


def obs_overhead(
    workload: Workload, step: list[Planned], gauge: SpeedGauge
) -> dict[str, float]:
    """``pipeline.run`` with repro.obs at its defaults over everything off.

    Requests alternate between the two settings, so drift hits both alike and
    the gauge is not needed; the entries are memory-tier hits by now, the
    cheapest request there is.
    """
    before = (
        obs_profiling.phases_enabled(),
        obs_tracing.enabled(),
        obs_metrics.default_registry().enabled,
    )
    latencies: dict[bool, list[float]] = {True: [], False: []}
    try:
        for repeat in range(4):
            for i, planned in enumerate(step):
                on = (i + repeat) % 2 == 0
                obs_profiling.set_phases_enabled(on and before[0])
                obs_tracing.set_enabled(on and before[1])
                obs_metrics.set_enabled(on and before[2])
                started = perf_counter()
                workload.pipeline.run(planned.request)
                latencies[on].append(perf_counter() - started)
    finally:
        obs_profiling.set_phases_enabled(before[0])
        obs_tracing.set_enabled(before[1])
        obs_metrics.set_enabled(before[2])
    share = statistics.median(latencies[True]) / statistics.median(latencies[False]) - 1
    return {"obs.overhead_share": share}


PROBES = {"backend_rows": backend_rows, "obs_overhead": obs_overhead}


def perimeter_taxes(
    workload: Workload, step: list[Planned], gauge: SpeedGauge
) -> dict[str, float]:
    """What each layer of the perimeter adds to one request, in ms at p50.

    The same requests go through ``ParsePipeline.run`` (serial), a serial
    ``ParseService``, a gateway over that service, and last — so the workers
    see these documents for the first time — the 2-worker remote backend.
    """
    from repro.gateway import GatewayClient, GatewayServer
    from repro.serve import ParseService, ServiceConfig

    pipeline = ParsePipeline()
    admission_ms, events = [], []

    def through_service(service: Any, planned: Planned) -> None:
        ticket = service.submit(planned.request)
        ticket.result()
        stamps = {e.kind: e.timestamp for e in ticket.events(timeout=1.0)}
        admission_ms.append((stamps["started"] - stamps["queued"]) * 1000)
        events.append(ticket.n_events)

    def p50_ms(call: Any) -> float:
        return 1000 * statistics.median(
            gauge.timed(lambda: call(planned)) for planned in step
        )

    direct = p50_ms(lambda planned: pipeline.run(planned.request))
    with ParseService(pipeline, ServiceConfig(backend="serial", max_active=2)) as service:
        served = p50_ms(lambda planned: through_service(service, planned))
        server = GatewayServer(service, port=0).start()
        try:
            with GatewayClient("127.0.0.1", server.port, client="probe") as client:
                through_gateway = p50_ms(
                    lambda planned: client.result(
                        client.submit(planned.request), include_text=True
                    )
                )
        finally:
            stop_gateway(server)
    options = {"workers": ",".join(workload.worker_addresses)}
    remote = p50_ms(
        lambda planned: pipeline.run(
            ParseRequest(
                parser=workload.parser,
                source=planned.key,
                batch_size=10,
                backend="remote",
                backend_options=options,
            )
        )
    )
    return {
        "serve.tax_ms_per_request": served - direct,
        "serve.admission_wait_ms": statistics.median(admission_ms),
        "serve.events_per_request": statistics.fmean(events),
        "gateway.tax_ms_per_request": through_gateway - served,
        "cluster.tax_ms_per_request": remote - direct,
    }


def wire_codec(step: list[Planned]) -> dict[str, float]:
    """Encode and decode pool documents the way a shard frame carries them."""
    documents: list[Any] = []
    for planned in step:
        documents.extend(planned.request.resolve_source().iter_documents())
    documents = documents[:WIRE_DOCS]
    encode_s = decode_s = 0.0
    total_bytes = 0
    for first in range(0, len(documents), 10):
        shard = documents[first : first + 10]
        started = perf_counter()
        frame = encode_message(
            {"type": "shard", "documents": [document_to_dict(d) for d in shard]}
        )
        encode_s += perf_counter() - started
        total_bytes += len(frame)
        body = frame.split(b"\n", 1)[1]
        started = perf_counter()
        for payload in json.loads(body)["documents"]:
            document_from_dict(payload)
        decode_s += perf_counter() - started
    return {
        "wire.encode.busy_s": encode_s,
        "wire.decode.busy_s": decode_s,
        "wire.bytes_per_doc": total_bytes / len(documents),
    }


# ---------------------------------------------------------------------- #
# The traced run
# ---------------------------------------------------------------------- #
def traced_run(
    workload: Workload, ledger: SeeOnceLedger, spans_path: Path
) -> dict[str, Any]:
    """Run the three steps and the workload's probes; returns layer values."""
    tracer = Tracer()
    gauge = SpeedGauge()
    plan = workload.trace_plan()
    direct = workload.clients == 1
    problems: list[str] = []

    def step(name: str, with_tracer: Any) -> list[Outcome]:
        per_client = plan[name]
        keys = [p.key for client in per_client for p in client]
        # A traced run of a direct workload re-reads one round by design.
        ledger.open_region(f"{workload.name}:{name}", keys, rereads=direct)
        workload.reset_for_step()
        outcomes = run_requests(workload, per_client, gauge, tracer=with_tracer).outcomes
        problems.extend(o.error for o in outcomes if o.error is not None)
        problems.extend(workload.check_counts([o for o in outcomes if o.error is None]))
        return outcomes

    untraced = step("untraced", NULL_TRACER)
    traced = step("traced", tracer)
    failed = sum(1 for o in untraced + traced if o.error is not None)

    values: dict[str, float] = {
        "trace_overhead_share": _p50_ms(traced) / _p50_ms(untraced) - 1
    }
    if direct:
        workload.reset_for_step()
        replayed = []
        for planned in plan["traced"][0]:
            tracer.slowdown = gauge.sample()
            replayed.append(digest_pairs(replay_request(workload, planned, tracer)))
        mismatched = sum(
            1 for outcome, digest in zip(traced, replayed) if outcome.digest != digest
        )
        if mismatched:
            failed += mismatched
            problems.append(f"{mismatched} traced requests differ from their replay")
        if workload.engine is not None:
            for planned in plan["traced"][0]:
                tracer.slowdown = gauge.sample()
                route_parts(workload, planned, tracer)
        entry_s = tracer.busy_s("pipeline.run")
        children_s = sum(tracer.busy_s(name, under="replay") for name in REPLAY_CHILDREN)
        attributed = sum(o.facts["phases_self_s"] / o.slowdown for o in traced)
        values.update(
            {
                "pipeline.run.busy_s": entry_s,
                "pipeline.self_s": entry_s - children_s,
                "pipeline.unattributed_share": 1 - attributed / entry_s,
                "pipeline.replay_coverage_share": children_s / entry_s,
            }
        )
    else:
        fetches = [tracer.seconds(s) for s in tracer.named("gateway.fetch_result")]
        stats = workload.gateway_clients[0].stats()
        cluster = workload.cluster_counters()
        shipped = cluster.get("cluster_doc_payloads_sent", 0)
        skipped = cluster.get("cluster_doc_payloads_skipped", 0)
        values.update(
            {
                "gateway.fetch_result_ms": statistics.median(fetches) * 1000,
                "gateway.bytes_in": stats["bytes_in"],
                "gateway.bytes_out": stats["bytes_out"],
                "gateway.rejected": stats["rejected"],
                "cluster.bytes_sent": cluster.get("cluster_bytes_sent", 0),
                "cluster.payloads_sent": shipped,
                "cluster.docs_reused_share": skipped / max(1, shipped + skipped),
                "cluster.shards_reassigned": cluster.get("cluster_shards_reassigned", 0),
            }
        )
        probe = plan["probe"][0]
        ledger.open_region(f"{workload.name}:probe", [p.key for p in probe], rereads=False)
        values.update(perimeter_taxes(workload, probe, gauge))
        values.update(wire_codec(probe))

    for name in ("documents.synthetic", "documents.simpdf_read", "parsers.pymupdf",
                 "parsers.nougat", "ml.score"):  # fmt: skip
        values[f"{name}.busy_s"] = tracer.busy_s(name)
        values[f"{name}.docs"] = tracer.count(name)
    values["documents.simpdf_read.bytes"] = tracer.count("documents.simpdf_read", "bytes")
    for name in ("core.route_batch", "core.validate", "core.budget",
                 "cache.key", "cache.lookup", "cache.store", "cache.flush"):  # fmt: skip
        values[f"{name}.busy_s"] = tracer.busy_s(name)
    if tracer.counts["routable"]:
        values["core.routed_share"] = tracer.counts["routed"] / tracer.counts["routable"]
    values["core.train.busy_s"] = workload.train_s
    if workload.cache_policy != "off":
        hits = sum(o.facts["hits"] for o in traced if o.error is None)
        lookups = hits + sum(o.facts["misses"] for o in traced if o.error is None)
        values["cache.hit_share"] = hits / max(1, lookups)
        values["cache.hit_share_memory"] = tracer.counts["memory_hits"] / max(
            1, tracer.counts["cache_lookups"]
        )
        values["cache.bytes_written"] = sum(o.facts["bytes_written"] for o in traced)
        values["cache.bytes_read"] = sum(o.facts["bytes_read"] for o in traced)
        if tracer.counts["cache_hits"] != hits:
            problems.append(
                f"replay saw {tracer.counts['cache_hits']} cache hits, the pipeline {hits}"
            )
    if workload.probe is not None:
        values.update(PROBES[workload.probe](workload, plan["traced"][0], gauge))

    tracer.write_jsonl(spans_path, workload.name)
    attempted = len(untraced) + len(traced)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems[:5],
        "per_layer": values,
        "info": {"spans": len(tracer.spans), "requests_per_step": len(traced)},
    }
