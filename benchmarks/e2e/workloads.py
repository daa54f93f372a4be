"""The five workloads and the untraced measurement of one of them.

Every workload is a closed loop of *requests* — one
:class:`~repro.pipeline.ParseRequest` over 40 documents (16 for
``synthetic_ingest``) — issued from this one process: the caller waits for
its report before it sends the next request.  Request counts are fixed by
``--seconds`` (``5 * seconds`` per client and pass), never by a clock, so
the exact-count checks repeat run to run.

The layers are driven from outside, through the functions a user of the
library calls: ``ParsePipeline.run`` for the four direct workloads and
``GatewayClient.submit``/``result`` for ``gateway_cluster``.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
import zlib
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Sequence

from repro.cache import ParseCache
from repro.metrics.bleu import bleu_score
from repro.pipeline import ParsePipeline, ParseRequest, request_for_documents

from benchmarks.e2e import corpus

#: The timed region is split into this many equal rounds; ``docs_per_s`` is
#: the median of their rates.
ROUNDS = 5
#: Requests per client, pass and second of ``--seconds`` (100 at 20 s).
REQUESTS_PER_SECOND = 5
#: Documents ``quality_bleu`` averages over at ``--seconds`` >= 10.
BLEU_DOCS = 200

Pairs = list[tuple[str, str]]


@dataclass(frozen=True)
class Scale:
    """What one invocation fixes for every workload."""

    seed: int
    seconds: int
    smoke: bool
    pool: Path
    work: Path

    @property
    def requests(self) -> int:
        return REQUESTS_PER_SECOND * self.seconds

    @property
    def bleu_docs(self) -> int:
        return min(BLEU_DOCS, 20 * self.seconds)


@dataclass(frozen=True)
class Planned:
    """One request of a plan; ``key`` names what it reads (see-once ledger)."""

    key: str
    request: ParseRequest


@dataclass
class Output:
    """What one request returned: ordered ``(doc_id, text)`` plus exact counts."""

    pairs: Pairs
    facts: dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    """One attempted request as the harness saw it."""

    key: str
    latency_s: float
    digest: str | None
    n_docs: int
    facts: dict[str, float]
    pairs: Pairs | None = None
    error: str | None = None
    #: Machine slowdown around this request (see :class:`SpeedGauge`).
    slowdown: float = 1.0
    cpu_s: float = 0.0


class NullTracer:
    """Tracing off: ``span`` costs one ``nullcontext``."""

    slowdown = 1.0

    def span(self, name: str, **_: Any):
        return nullcontext({})


NULL_TRACER = NullTracer()


def digest_pairs(pairs: Pairs) -> str:
    """sha256 over the ordered ``(doc_id, text)`` of one request's output."""
    digest = hashlib.sha256()
    for doc_id, text in pairs:
        digest.update(doc_id.encode("utf-8"))
        digest.update(b"\0")
        digest.update(text.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def report_output(report: Any) -> Output:
    """The comparable content and the exact counts of a ``ParseReport``."""
    stages = report.counts_by_stage()
    return Output(
        pairs=[(r.doc_id, r.text) for r in report.results],
        facts={
            "hits": report.cache.hits,
            "misses": report.cache.misses,
            "bytes_read": report.cache.bytes_read,
            "bytes_written": report.cache.bytes_written,
            "routed": stages.get("routed_high_quality", 0) + stages.get("cls1_invalid", 0),
            "phases_self_s": sum(row["self_s"] for row in report.phases.values()),
        },
    )


class SeeOnceLedger:
    """Refuses a timed region whose inputs this process has already read.

    A document read twice can be served by something that remembered it —
    the content-hash memo, the parse cache, a worker's document store — and
    the region would then time the memory, not the work.
    """

    def __init__(self) -> None:
        self._read: set[str] = set()

    def open_region(self, name: str, keys: Sequence[str], rereads: bool) -> None:
        if not rereads:
            again = [k for k, n in Counter(keys).items() if n > 1 or k in self._read]
            if again:
                raise RuntimeError(
                    f"see-once rule: region {name!r} would re-read {len(again)} "
                    f"inputs, first {again[0]!r}"
                )
        self._read.update(keys)


# ---------------------------------------------------------------------- #
# The workloads
# ---------------------------------------------------------------------- #
class Workload:
    """Set-up, the request plan, one call, and the reference for one workload."""

    name = "abstract"
    parser = "pymupdf"
    cache_policy = "off"
    docs_per_request = corpus.DOCS_PER_REQUEST
    clients = 1
    #: Times set-up runs; ``setup_s`` reports the median.  Set-ups that take
    #: seconds (training, cache warm-up) run once: they are their own average.
    setup_repeats = 3
    #: Share of requests whose output is recomputed after the clock stops.
    verify_share = 1.0
    #: Only ``cache_warm`` reads a document more than once, by design.
    rereads = False
    #: Name of the layer probe (in ``layers.PROBES``) this workload's traced
    #: run owns, if any.
    probe: str | None = None
    #: The trained engine and its training time, for the workload that routes.
    engine: Any = None
    train_s = 0.0

    def __init__(self, scale: Scale) -> None:
        self.scale = scale
        self.pipeline: ParsePipeline | None = None

    # -- inputs --------------------------------------------------------- #
    @classmethod
    def pool_dirs(cls, requests: int) -> range:
        """Request directories of the pool this workload reads."""
        return range(0)

    def _pool_request(self, index: int, **overrides: Any) -> Planned:
        source = corpus.request_source(self.scale.pool, index)
        options = {"backend": "serial", "cache": self.cache_policy, **overrides}
        return Planned(source, ParseRequest(parser=self.parser, source=source, **options))

    def plan(self) -> list[list[Planned]]:
        """The timed region's requests, one ordered list per client."""
        dirs = self.pool_dirs(self.scale.requests)
        return [[self._pool_request(i) for i in dirs]]

    def trace_plan(self) -> dict[str, list[list[Planned]]]:
        """Requests of the traced run's steps: one round's worth each.

        Direct workloads run the *same* requests untraced, traced and
        replayed — every read makes fresh objects and nothing below the
        parse cache (reset per step) remembers them — so the three steps
        differ only in who drives the layers.
        """
        step = [client[: self.scale.seconds] for client in self.plan()]
        return {"untraced": step, "traced": step}

    # -- lifecycle ------------------------------------------------------ #
    def set_up(self) -> None:
        self.pipeline = ParsePipeline()
        self._warm_lazy_imports(self.pipeline)

    def _warm_lazy_imports(self, pipeline: ParsePipeline) -> None:
        # One throwaway two-document run, so module imports and registry
        # construction land in set-up and not in the first timed request.
        pipeline.run(
            ParseRequest(
                parser=self.parser,
                source="synthetic:2?seed=0",
                backend="serial",
                cache=self.cache_policy,
            )
        )

    def tear_down(self) -> None:
        self.pipeline = None

    def reset_for_step(self) -> None:
        """Bring mutable state back to the start-of-region state (traced run)."""

    def cpu_seconds(self) -> float:
        """CPU seconds (user+sys) spent so far by everything this workload runs."""
        return time.process_time()

    # -- the call and its reference ------------------------------------- #
    def call(self, client: int, planned: Planned, tracer: Any = NULL_TRACER) -> Output:
        with tracer.span("pipeline.run", request=planned.key):
            report = self.pipeline.run(planned.request)
        return report_output(report)

    def reference(self, planned: Planned) -> tuple[Pairs, list[Any]]:
        """Recompute one request by calling the parser directly (no pipeline)."""
        documents = list(planned.request.resolve_source().iter_documents())
        results, _ = self.pipeline.registry.get(self.parser).parse_with_telemetry(
            documents
        )
        return [(r.doc_id, r.text) for r in results], documents

    def check_counts(self, outcomes: list[Outcome]) -> list[str]:
        """Exact-count invariants of the region; returns violations."""
        return []

    def extra_layers(self) -> dict[str, float]:
        """Layer metrics only known after tear-down (traced run)."""
        return {}


class SyntheticIngest(Workload):
    name = "synthetic_ingest"
    docs_per_request = 16
    # Regenerating documents is the workload itself (~12 ms each), so the
    # reference is a sample; a quarter keeps ~200 documents for BLEU.
    verify_share = 0.25

    def plan(self) -> list[list[Planned]]:
        planned = []
        for i in range(self.scale.requests):
            source = f"synthetic:{self.docs_per_request}?seed={self.scale.seed * 1000 + i}"
            request = ParseRequest(
                parser=self.parser, source=source, backend="serial", cache="off"
            )
            planned.append(Planned(source, request))
        return [planned]


class AdaparseRoute(Workload):
    name = "adaparse_route"
    parser = "adaparse_ft"
    setup_repeats = 1
    verify_share = 0.1

    @classmethod
    def pool_dirs(cls, requests: int) -> range:
        return range(requests)

    def set_up(self) -> None:
        from repro.core.engine import build_default_engine

        started = perf_counter()
        if self.scale.smoke:
            self.engine = self._smoke_engine()
        else:
            self.engine = build_default_engine(variant="ft")
        self.train_s = perf_counter() - started
        self.pipeline = ParsePipeline(engines={self.parser: self.engine})
        self._warm_lazy_imports(self.pipeline)

    @staticmethod
    def _smoke_engine() -> Any:
        # Same trainer, a corpus and epoch count that fit the 20 s smoke test.
        from repro.core.training import AdaParseTrainer, TrainerSettings
        from repro.documents.corpus import CorpusConfig, build_corpus
        from repro.ml.fasttext import FastTextConfig
        from repro.parsers.registry import default_registry

        settings = TrainerSettings(fasttext_config=FastTextConfig(n_epochs=1))
        train = build_corpus(CorpusConfig(n_documents=8, seed=5, name="smoke-train"))
        return AdaParseTrainer(registry=default_registry(), settings=settings).train_ft(
            train
        )

    def tear_down(self) -> None:
        self.pipeline = self.engine = None

    def reference(self, planned: Planned) -> tuple[Pairs, list[Any]]:
        documents = list(planned.request.resolve_source().iter_documents())
        results, _ = self.engine.route_batch(documents)
        return [(r.doc_id, r.text) for r in results], documents

    def check_counts(self, outcomes: list[Outcome]) -> list[str]:
        # The budget is a cap: a request routes fewer when fewer documents
        # clear the improvement margin (about one request in twenty-five).
        budget = math.floor(self.engine.config.alpha * self.docs_per_request)
        over = [o.key for o in outcomes if not 0 <= o.facts["routed"] <= budget]
        return [f"{len(over)} requests routed more than {budget}"] if over else []


class CacheCold(Workload):
    name = "cache_cold"
    cache_policy = "readwrite"
    probe = "backend_rows"

    def __init__(self, scale: Scale) -> None:
        super().__init__(scale)
        self.cache: ParseCache | None = None
        self._generation = 0

    @classmethod
    def pool_dirs(cls, requests: int) -> range:
        return range(requests, 2 * requests)

    def set_up(self) -> None:
        self._warm_lazy_imports(ParsePipeline())
        self.reset_for_step()

    def reset_for_step(self) -> None:
        # One fresh on-disk cache per region: it grows for the whole region,
        # because that is what a campaign's cache does.
        self._generation += 1
        directory = self.scale.work / f"{self.name}-{self._generation}"
        self.cache = ParseCache(directory)
        self.pipeline = ParsePipeline(cache=self.cache)

    def tear_down(self) -> None:
        self.pipeline = self.cache = None

    def check_counts(self, outcomes: list[Outcome]) -> list[str]:
        docs = sum(o.n_docs for o in outcomes)
        misses = sum(o.facts.get("misses", 0) for o in outcomes)
        hits = sum(o.facts.get("hits", 0) for o in outcomes)
        if misses != docs or hits:
            return [f"expected {docs} misses and no hit, saw {misses} and {hits}"]
        return []


class CacheWarm(Workload):
    name = "cache_warm"
    cache_policy = "readwrite"
    setup_repeats = 1
    rereads = True
    passes = 4
    probe = "obs_overhead"

    def __init__(self, scale: Scale) -> None:
        super().__init__(scale)
        self.cache: ParseCache | None = None
        self._directory = scale.work / self.name

    @classmethod
    def pool_dirs(cls, requests: int) -> range:
        return range(requests)

    def plan(self) -> list[list[Planned]]:
        one_pass = super().plan()[0]
        return [one_pass * self.passes]

    def trace_plan(self) -> dict[str, list[list[Planned]]]:
        # Two passes over one round's requests: the first is served by the
        # disk tier, the second by the memory tier.
        step = [super().plan()[0][: self.scale.seconds] * 2]
        return {"untraced": step, "traced": step}

    def set_up(self) -> None:
        # Warm with one ``cache="write"`` run over every document: one flush.
        shutil.rmtree(self._directory, ignore_errors=True)
        documents = [
            document
            for planned in super().plan()[0]
            for document in planned.request.resolve_source().iter_documents()
        ]
        warming = ParsePipeline(cache=ParseCache(self._directory))
        warming.run(
            request_for_documents(
                self.parser, documents, backend="serial", cache="write"
            )
        )
        self.reset_for_step()

    def reset_for_step(self) -> None:
        # Re-open from disk: an empty memory tier over the warmed shards.
        self.cache = ParseCache(self._directory)
        self.pipeline = ParsePipeline(cache=self.cache)

    def tear_down(self) -> None:
        self.pipeline = self.cache = None

    def check_counts(self, outcomes: list[Outcome]) -> list[str]:
        docs = sum(o.n_docs for o in outcomes)
        hits = sum(o.facts.get("hits", 0) for o in outcomes)
        misses = sum(o.facts.get("misses", 0) for o in outcomes)
        if hits != docs or misses:
            return [f"expected {docs} hits and no parse, saw {hits} and {misses} misses"]
        return []


class GatewayCluster(Workload):
    name = "gateway_cluster"
    clients = 2
    n_workers = 2

    def __init__(self, scale: Scale) -> None:
        super().__init__(scale)
        self.workers: list[subprocess.Popen] = []
        self.worker_addresses: list[str] = []
        self.worker_logs: list[Path] = []
        self.service: Any = None
        self.server: Any = None
        self.gateway_clients: list[Any] = []
        atexit.register(self._kill_workers)

    @classmethod
    def pool_dirs(cls, requests: int) -> range:
        return range(2 * requests)

    def _pool_request(self, index: int, **overrides: Any) -> Planned:
        # The service's shared backend supersedes the request's own.
        return super()._pool_request(index, batch_size=10, **overrides)

    def plan(self) -> list[list[Planned]]:
        requests = self.scale.requests
        return [
            [self._pool_request(i) for i in range(c * requests, (c + 1) * requests)]
            for c in range(self.clients)
        ]

    def trace_plan(self) -> dict[str, list[list[Planned]]]:
        # The workers' document store remembers content, so every step reads
        # documents no earlier step has sent over the wire.
        r = self.scale.seconds
        plan = self.plan()
        return {
            "untraced": [client[:r] for client in plan],
            "traced": [client[r : 2 * r] for client in plan],
            "probe": [plan[0][2 * r : 3 * r]],
        }

    def set_up(self) -> None:
        from repro.gateway import GatewayClient, GatewayServer
        from repro.serve import ParseService, ServiceConfig

        self.pipeline = ParsePipeline()
        self._warm_lazy_imports(self.pipeline)
        self._spawn_workers()
        self.service = ParseService(
            self.pipeline,
            ServiceConfig(
                backend="remote",
                backend_options={"workers": ",".join(self.worker_addresses)},
                max_active=self.clients,
            ),
        )
        self.server = GatewayServer(self.service, port=0).start()
        self.gateway_clients = [
            GatewayClient("127.0.0.1", self.server.port, client=f"bench-{c}").connect()
            for c in range(self.clients)
        ]
        # One request through the whole perimeter, alone.  The remote backend
        # dials its workers on first use, without a lock: two first requests
        # at once each build a coordinator and the loser's monitor thread is
        # never stopped.  The handshakes are set-up in any case.
        source = "synthetic:2?seed=0"
        warm_up = ParseRequest(parser=self.parser, source=source, backend="serial", cache="off")
        self.call(0, Planned(source, warm_up))

    def _spawn_workers(self) -> None:
        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        command = [
            sys.executable, "-m", "repro.cli", "worker",
            "--port", "0", "--backend", "serial", "--log-json",
        ]  # fmt: skip
        for _ in range(self.n_workers):
            # stderr goes to a file: a pipe nobody drains would block the
            # daemon, and its last line is the worker's own document count.
            log = self.scale.work / f"worker-{len(self.worker_logs)}.log"
            self.worker_logs.append(log)
            with log.open("w") as stderr:
                self.workers.append(
                    subprocess.Popen(
                        command, env=env, stdout=subprocess.PIPE, stderr=stderr, text=True
                    )
                )
        for worker in self.workers:
            ready = json.loads(worker.stdout.readline())
            self.worker_addresses.append(str(ready["address"]))

    def tear_down(self) -> None:
        for client in self.gateway_clients:
            client.close()
        if self.server is not None:
            stop_gateway(self.server)
        if self.service is not None:
            self.service.close()
        self.gateway_clients, self.server, self.service = [], None, None
        for worker in self.workers:
            worker.send_signal(signal.SIGTERM)
        for worker in self.workers:
            try:
                worker.wait(timeout=20)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
            worker.stdout.close()
        self.workers, self.worker_addresses = [], []

    def _kill_workers(self) -> None:
        # Backstop for exits that skip tear_down (atexit, after a signal).
        for worker in self.workers:
            if worker.poll() is None:
                worker.kill()
                worker.wait()

    def cpu_seconds(self) -> float:
        return time.process_time() + sum(_proc_cpu_seconds(w.pid) for w in self.workers)

    def call(self, client: int, planned: Planned, tracer: Any = NULL_TRACER) -> Output:
        gateway = self.gateway_clients[client]
        with tracer.span("gateway.submit", request=planned.key):
            ticket = gateway.submit(planned.request)
        with tracer.span("gateway.wait", request=planned.key):
            terminal = ticket.wait()
        with tracer.span("gateway.fetch_result", request=planned.key):
            payload = gateway.result(ticket, include_text=True)
        pairs = [(r["doc_id"], "\n".join(r["page_texts"])) for r in payload["results"]]
        return Output(pairs, {"events": terminal.seq + 1})

    def check_counts(self, outcomes: list[Outcome]) -> list[str]:
        problems = []
        rejected = self.gateway_clients[0].stats()["rejected"]
        if rejected:
            problems.append(f"gateway rejected {rejected} submissions")
        cluster = self.cluster_counters()
        for counter in ("shards_reassigned", "doc_payloads_skipped", "shards_failed"):
            if cluster.get(f"cluster_{counter}"):
                problems.append(f"cluster_{counter} = {cluster[f'cluster_{counter}']}")
        return problems

    def cluster_counters(self) -> dict[str, Any]:
        return dict(self.service.describe()["backend"].get("extra", {}))

    def extra_layers(self) -> dict[str, float]:
        # Each daemon logs its own document count when it stops.
        docs = [_worker_docs_parsed(log) for log in self.worker_logs[-self.n_workers :]]
        if len(docs) < self.n_workers or not min(docs):
            return {}
        return {"cluster.worker_docs_skew": max(docs) / min(docs)}


def stop_gateway(server: Any) -> None:
    """``GatewayServer.stop()``, then wake the accept thread it leaves behind.

    ``stop()`` closes the listener without ``shutdown()``, so the accept
    thread stays blocked in ``accept()`` (the ROADMAP's "one server loop"
    item).  One throwaway connection lets it see the stop flag and end, which
    keeps the harness's no-thread-left check meaningful for everything else.
    """
    port = server.port
    server.stop()
    try:
        socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
    except OSError:
        pass  # nobody is listening any more: nothing to wake


def _proc_cpu_seconds(pid: int) -> float:
    """user+sys CPU seconds of a live process, from ``/proc/<pid>/stat``."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _worker_docs_parsed(log: Path) -> int:
    """``docs_parsed`` from the worker daemon's final ``stopped`` log line."""
    for line in reversed(log.read_text().splitlines()):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if record.get("event") == "stopped":
            return int(record.get("docs_parsed", 0))
    return 0


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (SyntheticIngest, AdaparseRoute, CacheCold, CacheWarm, GatewayCluster)
}


# ---------------------------------------------------------------------- #
# Running requests
# ---------------------------------------------------------------------- #
class SpeedGauge:
    """How slow the machine is *right now*, from a fixed kernel of stdlib work.

    This sandbox's two vCPUs swing by +-25% over seconds (the same pure-Python
    loop takes 0.125 s or 0.16 s depending on when it runs), which is more
    than any bound worth gating.  So the harness times a small, fixed,
    repo-independent kernel — bytecode loop, json, zlib, sha256, numpy, about
    4 ms — whenever nothing is in flight, and divides the neighbouring
    request's latency and CPU time by the kernel's slowdown against
    ``REFERENCE_S``.  The time-based metrics of the single-client workloads
    are therefore "at reference speed" (run-to-run spread 3-7% instead of
    8-23%); the raw wall-clock rate is printed beside them.  Nothing the
    repo ships runs inside the kernel, so a change to the repo cannot move it.
    """

    REFERENCE_S = 0.004

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._blob = json.dumps({"k": [f"word{i}" * 3 for i in range(400)]}).encode()
        self._array = np.arange(4096, dtype=np.float64)

    def sample(self) -> float:
        """Kernel time now over ``REFERENCE_S`` (> 1: the machine is slow)."""
        started = perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i % 7
        for _ in range(9):
            json.dumps(json.loads(self._blob))
            zlib.decompress(zlib.compress(self._blob, 6))
            hashlib.sha256(self._blob).digest()
            (self._array * 1.0001).sum()
            self._np.prod(self._array[:8])
        return (perf_counter() - started) / self.REFERENCE_S

    def timed(self, call: Any) -> float:
        """Seconds ``call()`` takes at reference speed."""
        before = self.sample()
        started = perf_counter()
        call()
        elapsed = perf_counter() - started
        return elapsed / ((before + self.sample()) / 2)


@dataclass
class Batch:
    """Requests run back to back; times as :func:`run_requests` describes."""

    outcomes: list[Outcome]
    busy_s: float  # time the clients spent waiting for their requests
    cpu_s: float
    wall_s: float  # raw wall clock, gauge samples included


def _attempt(
    workload: Workload, client: int, planned: Planned, keep: frozenset[str], tracer: Any
) -> Outcome:
    started = perf_counter()
    try:
        output = workload.call(client, planned, tracer)
    except Exception:  # noqa: BLE001 - a failed request is a result, not a crash
        return Outcome(
            planned.key, perf_counter() - started, None, 0, {},
            error=traceback.format_exc(limit=6),
        )  # fmt: skip
    return Outcome(
        planned.key,
        perf_counter() - started,
        digest_pairs(output.pairs),
        len(output.pairs),
        output.facts,
        pairs=output.pairs if planned.key in keep else None,
    )


def run_requests(
    workload: Workload,
    per_client: list[list[Planned]],
    gauge: SpeedGauge,
    keep: frozenset[str] = frozenset(),
    tracer: Any = NULL_TRACER,
) -> Batch:
    """Run each client's requests in order, clients in parallel threads.

    A single client samples the gauge between its requests and reports
    reference-speed times.  Several clients are never all idle inside the
    batch, and the work spreads over processes and cores one kernel cannot
    see, so their times stay raw wall clock (slowdown 1).  ``keep`` names the
    requests whose output text is retained (for BLEU); the rest keep only
    their digest.
    """
    started = perf_counter()
    if len(per_client) == 1:
        outcomes = []
        tracer.slowdown = slowdown = gauge.sample()
        for planned in per_client[0]:
            cpu_before = workload.cpu_seconds()
            outcome = _attempt(workload, 0, planned, keep, tracer)
            outcome.cpu_s = workload.cpu_seconds() - cpu_before
            after = gauge.sample()
            outcome.slowdown = (slowdown + after) / 2
            tracer.slowdown = slowdown = after
            outcomes.append(outcome)
        busy_s = sum(o.latency_s / o.slowdown for o in outcomes)
        cpu_s = sum(o.cpu_s / o.slowdown for o in outcomes)
    else:
        results: list[list[Outcome]] = [[] for _ in per_client]

        def client_loop(client: int) -> None:
            for planned in per_client[client]:
                results[client].append(_attempt(workload, client, planned, keep, tracer))

        threads = [
            threading.Thread(target=client_loop, args=(c,)) for c in range(len(per_client))
        ]
        cpu_before = workload.cpu_seconds()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        busy_s = perf_counter() - started
        cpu_s = workload.cpu_seconds() - cpu_before
        outcomes = [outcome for client in results for outcome in client]
    return Batch(outcomes, busy_s, cpu_s, perf_counter() - started)


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(share * len(ordered)) - 1))]


def latencies_ms(outcomes: list[Outcome]) -> list[float]:
    """Latencies of the requests that returned, at reference speed."""
    return [1000 * o.latency_s / o.slowdown for o in outcomes if o.error is None]


def measure(workload: Workload, ledger: SeeOnceLedger, setup_s: float) -> dict[str, Any]:
    """The untraced run: the timed region, then the output check."""
    scale = workload.scale
    gauge = SpeedGauge()
    plan = workload.plan()
    by_key = {p.key: p for client in plan for p in client}
    n_checked = max(1, math.ceil(workload.verify_share * len(by_key)))
    checked = sorted(random.Random(scale.seed).sample(range(len(by_key)), n_checked))
    checked_keys = [list(by_key)[i] for i in checked]
    bleu_requests = math.ceil(scale.bleu_docs / workload.docs_per_request)
    keep = frozenset(checked_keys[:bleu_requests])

    ledger.open_region(
        workload.name, [p.key for client in plan for p in client], workload.rereads
    )
    outcomes: list[Outcome] = []
    rates: list[float] = []
    cpu_costs: list[float] = []
    region_wall = 0.0
    for index in range(ROUNDS):
        chunk = [
            client[index * len(client) // ROUNDS : (index + 1) * len(client) // ROUNDS]
            for client in plan
        ]
        batch = run_requests(workload, chunk, gauge, keep)
        round_docs = sum(o.n_docs for o in batch.outcomes)
        rates.append(round_docs / batch.busy_s)
        cpu_costs.append(1000 * batch.cpu_s / max(1, round_docs))
        region_wall += batch.wall_s
        outcomes.extend(batch.outcomes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # The clock has stopped: everything below is the harness checking itself.
    good = [o for o in outcomes if o.error is None]
    problems = workload.check_counts(good)
    failed = len(outcomes) - len(good)
    bleu: list[float] = []
    for key in checked_keys:
        reference_pairs, documents = workload.reference(by_key[key])
        reference_digest = digest_pairs(reference_pairs)
        truths = {d.doc_id: d.ground_truth_text() for d in documents}
        for outcome in good:
            if outcome.key != key:
                continue
            failed += outcome.digest != reference_digest
            if outcome.pairs is not None:
                room = scale.bleu_docs - len(bleu)
                bleu.extend(bleu_score(text, truths[i]) for i, text in outcome.pairs[:room])
                outcome.pairs = None

    docs = sum(o.n_docs for o in good)
    latencies = latencies_ms(outcomes)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems + [o.error for o in outcomes if o.error is not None][:3],
        "end_to_end": {
            "docs_per_s": statistics.median(rates),
            "request_p50_ms": percentile(latencies, 0.5) if good else 0.0,
            "request_p90_ms": percentile(latencies, 0.9) if good else 0.0,
            "cpu_s_per_kdoc": statistics.median(cpu_costs),
            "quality_bleu": statistics.fmean(bleu) if bleu else 0.0,
            "failed_share": failed / len(outcomes),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "info": {
            "requests": len(outcomes),
            "latency_samples": len(latencies),
            "documents": docs,
            "timed_region_s": region_wall,
            "raw_docs_per_s": docs / region_wall,
            "slowdown_median": statistics.median(o.slowdown for o in outcomes),
            "requests_checked": sum(1 for o in good if o.key in set(checked_keys)),
            "bleu_documents": len(bleu),
        },
    }
