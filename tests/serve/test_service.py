"""Tests of the parse service: admission, events, cross-request dedup.

Covers the fair-share admission policy (pure-function unit tests), the
ticket lifecycle and event-stream contract, the concurrency hammer (N
concurrent requests sharing one cache, with single-flight asserted via
the coalesced/miss counters), priorities, cancellation, failure
reporting, and ``submit`` against an in-process gateway.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass

import pytest

from repro.cache import ParseCache
from repro.documents.corpus import CorpusConfig, build_corpus
from repro.parsers.base import Parser, ParserCost
from repro.parsers.registry import ParserRegistry
from repro.pipeline import ParsePipeline, ParseRequest, request_for_documents
from repro.serve import (
    FairShareAdmission,
    ParseService,
    ServiceConfig,
    ServiceError,
    TicketState,
)


class SnailParser(Parser):
    """Deterministic parser double slow enough for requests to overlap."""

    name = "snail"
    version = "1.0"
    cost = ParserCost(cpu_seconds_per_page=0.01)

    def __init__(self, sleep_seconds: float = 0.03) -> None:
        self.sleep_seconds = sleep_seconds

    def _parse_pages(self, document, rng):
        time.sleep(self.sleep_seconds)
        return [f"{document.doc_id}:p{i}" for i in range(document.n_pages)]


@pytest.fixture()
def snail_pipeline():
    registry = ParserRegistry()
    registry.register(SnailParser())
    return ParsePipeline(registry=registry, cache=ParseCache())


@pytest.fixture(scope="module")
def corpus_16():
    return build_corpus(CorpusConfig(n_documents=16, seed=5, min_pages=1, max_pages=2))


# ---------------------------------------------------------------------- #
# Admission policy (pure units)
# ---------------------------------------------------------------------- #
@dataclass
class FakeTicket:
    priority: int
    client: str
    seq: int


class TestFairShareAdmission:
    def test_priority_wins(self):
        policy = FairShareAdmission()
        queued = [FakeTicket(0, "a", 0), FakeTicket(5, "b", 1), FakeTicket(1, "c", 2)]
        assert policy.select(queued, {}, {}).client == "b"

    def test_fifo_within_a_client(self):
        policy = FairShareAdmission()
        queued = [FakeTicket(0, "a", 3), FakeTicket(0, "a", 1), FakeTicket(0, "a", 2)]
        assert policy.select(queued, {}, {}).seq == 1

    def test_least_active_client_first(self):
        policy = FairShareAdmission()
        queued = [FakeTicket(0, "busy", 0), FakeTicket(0, "idle", 1)]
        assert policy.select(queued, {"busy": 2}, {}).client == "idle"

    def test_least_served_breaks_active_ties(self):
        policy = FairShareAdmission()
        queued = [FakeTicket(0, "chatty", 0), FakeTicket(0, "quiet", 1)]
        assert policy.select(queued, {}, {"chatty": 10, "quiet": 1}).client == "quiet"

    def test_order_interleaves_clients(self):
        # One chatty client queues four, a quiet one queues two: the full
        # admission order alternates rather than draining the burst first.
        policy = FairShareAdmission()
        queued = [FakeTicket(0, "a", i) for i in range(4)] + [
            FakeTicket(0, "b", 10),
            FakeTicket(0, "b", 11),
        ]
        order = [t.client for t in policy.order(queued)]
        assert order[:4] == ["a", "b", "a", "b"]

    def test_empty_queue_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            FairShareAdmission().select([], {}, {})


# ---------------------------------------------------------------------- #
# Ticket lifecycle and events
# ---------------------------------------------------------------------- #
class TestTicketLifecycle:
    def test_event_stream_shape(self, snail_pipeline, corpus_16):
        documents = list(corpus_16)
        with ParseService(
            pipeline=snail_pipeline,
            config=ServiceConfig(backend_options={"n_jobs": 2}),
        ) as service:
            ticket = service.submit(
                request_for_documents("snail", documents, batch_size=4)
            )
            report = ticket.result(timeout=60)
        kinds = [event.kind for event in ticket.events(timeout=1)]
        assert kinds[0] == "queued"
        assert kinds[1] == "started"
        assert kinds[-1] == "completed"
        assert kinds.count("batch") == 4  # 16 docs / batch_size 4
        # batch events carry monotonically growing progress
        batches = [e for e in ticket.events(timeout=1) if e.kind == "batch"]
        done = [e.payload["documents_done"] for e in batches]
        assert done == sorted(done) and done[-1] == len(documents)
        # events replay identically for a second consumer, with gapless seq
        seqs = [e.seq for e in ticket.events(timeout=1)]
        assert seqs == list(range(len(seqs)))
        assert ticket.state is TicketState.COMPLETED
        assert report.n_documents == len(documents)
        assert report.execution.extra.get("shared_backend") is True

    def test_event_json_round_trip(self, snail_pipeline, corpus_16):
        from repro.serve import ProgressEvent

        with ParseService(pipeline=snail_pipeline) as service:
            ticket = service.submit(
                request_for_documents("snail", list(corpus_16)[:4], batch_size=2)
            )
            ticket.result(timeout=60)
        for event in ticket.events(timeout=1):
            rebuilt = ProgressEvent.from_json_dict(
                json.loads(json.dumps(event.to_json_dict()))
            )
            assert rebuilt == event

    def test_events_after_the_terminal_seq_end_at_once(self, snail_pipeline, corpus_16):
        with ParseService(pipeline=snail_pipeline) as service:
            ticket = service.submit(request_for_documents("snail", list(corpus_16)[:2]))
            ticket.result(timeout=60)
        last = ticket.n_events - 1
        assert [e.kind for e in ticket.events(timeout=5, after_seq=last - 1)] == ["completed"]
        # A consumer already at (or past) the terminal event gets an empty
        # stream, not a wait that no event will ever end.
        assert list(ticket.events(timeout=5, after_seq=last)) == []
        assert list(ticket.events(timeout=5, after_seq=last + 3)) == []
        assert ticket.terminal_event.seq == last

    def test_failure_is_reported_not_swallowed(self, snail_pipeline, corpus_16):
        # A request rehydrated from JSON that referenced explicit documents
        # refuses to replay (the documents were not serialised): the service
        # must surface that as a FAILED ticket, not hang or swallow it.
        original = request_for_documents("snail", list(corpus_16)[:4])
        rehydrated = ParseRequest.from_json_dict(original.to_json_dict())
        with ParseService(pipeline=snail_pipeline) as service:
            ticket = service.submit(rehydrated)
            with pytest.raises(ValueError, match="not serialised"):
                ticket.result(timeout=60)
        assert ticket.state is TicketState.FAILED
        terminal = list(ticket.events(timeout=1))[-1]
        assert terminal.kind == "failed"
        assert "not serialised" in terminal.payload["error"]
        assert service.describe()["failed"] == 1

    def test_cancel_queued_ticket(self, snail_pipeline, corpus_16):
        documents = list(corpus_16)
        # One slot: the second submission waits in the queue and can be
        # withdrawn before it starts.
        with ParseService(
            pipeline=snail_pipeline, config=ServiceConfig(max_active=1)
        ) as service:
            first = service.submit(request_for_documents("snail", documents))
            second = service.submit(request_for_documents("snail", documents))
            assert service.cancel(second) is True
            assert service.cancel(second) is False  # already gone
            first.result(timeout=60)
        assert second.state is TicketState.CANCELLED
        with pytest.raises(ServiceError, match="cancelled"):
            second.result(timeout=1)
        assert [e.kind for e in second.events(timeout=1)] == ["queued", "cancelled"]

    def test_closed_service_refuses_submissions(self, snail_pipeline):
        service = ParseService(pipeline=snail_pipeline)
        service.close()
        with pytest.raises(ServiceError, match="closed"):
            service.submit(ParseRequest(parser="pymupdf", source="synthetic:2"))
        service.close()  # idempotent: the second close is a no-op

    def test_raising_event_sink_does_not_break_the_lifecycle(
        self, snail_pipeline, corpus_16
    ):
        """A broken sink (e.g. the CLI's stdout pipe closed by `| head`)
        must not strand tickets in RUNNING or wedge close()/drain()."""

        def broken_sink(event) -> None:
            raise BrokenPipeError("stdout went away")

        with ParseService(pipeline=snail_pipeline, event_sink=broken_sink) as service:
            ticket = service.submit(
                request_for_documents("snail", list(corpus_16)[:4], batch_size=2)
            )
            report = ticket.result(timeout=60)
        assert ticket.state is TicketState.COMPLETED
        assert report.n_documents == 4
        # The internal event stream is intact even though the sink failed.
        assert [e.kind for e in ticket.events(timeout=1)][-1] == "completed"

    def test_reentrant_event_sink_does_not_deadlock(self, snail_pipeline, corpus_16):
        """The sink runs outside the service lock, so it may call back into
        the service (describe) without deadlocking."""
        observed: list[int] = []

        def nosy_sink(event) -> None:
            observed.append(service.describe()["submitted"])

        service = ParseService(pipeline=snail_pipeline, event_sink=nosy_sink)
        with service:
            ticket = service.submit(
                request_for_documents("snail", list(corpus_16)[:4], batch_size=2)
            )
            ticket.result(timeout=60)
        assert observed and all(n >= 1 for n in observed)


# ---------------------------------------------------------------------- #
# The concurrency hammer: shared cache, cross-request single-flight
# ---------------------------------------------------------------------- #
class TestConcurrencyHammer:
    N_REQUESTS = 6

    def test_hammer_shared_cache_single_flight(self, snail_pipeline, corpus_16):
        """N concurrent requests over one corpus parse each document
        exactly once between them; everyone else is served by a cache hit
        or a coalesced wait on the in-progress parse."""
        documents = list(corpus_16)
        config = ServiceConfig(
            max_active=self.N_REQUESTS, backend_options={"n_jobs": 4}
        )
        with ParseService(pipeline=snail_pipeline, config=config) as service:
            tickets = [
                service.submit(
                    request_for_documents(
                        "snail", documents, batch_size=4, cache="readwrite"
                    ),
                    client=f"client-{i}",
                )
                for i in range(self.N_REQUESTS)
            ]
            reports = [ticket.result(timeout=120) for ticket in tickets]

        # Exactly-once parsing across ALL requests (the cross-request
        # single-flight acceptance criterion).
        assert sum(r.cache.misses for r in reports) == len(documents)
        assert sum(r.cache.stores for r in reports) == len(documents)
        served_without_parsing = sum(r.cache.hits + r.cache.coalesced for r in reports)
        assert served_without_parsing == (self.N_REQUESTS - 1) * len(documents)
        # With a slow parser and every slot active, at least some lookups
        # must have coalesced onto another request's in-progress parse.
        assert sum(r.cache.coalesced for r in reports) > 0
        # Byte-identical output for every client.
        baseline = [r.text for r in reports[0].results]
        for report in reports[1:]:
            assert [r.text for r in report.results] == baseline
        counters = service.describe()
        assert counters["completed"] == self.N_REQUESTS
        assert counters["failed"] == 0

    def test_hammer_events_and_fair_share_accounting(self, snail_pipeline, corpus_16):
        documents = list(corpus_16)
        events: list = []
        lock = threading.Lock()

        def sink(event) -> None:
            with lock:
                events.append(event)

        config = ServiceConfig(max_active=2, backend_options={"n_jobs": 2})
        with ParseService(
            pipeline=snail_pipeline, config=config, event_sink=sink
        ) as service:
            tickets = [
                service.submit(
                    request_for_documents("snail", documents, batch_size=8),
                    client=f"c{i % 2}",
                )
                for i in range(4)
            ]
            for ticket in tickets:
                ticket.result(timeout=120)
        by_kind: dict[str, int] = {}
        for event in events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        assert by_kind["queued"] == by_kind["started"] == by_kind["completed"] == 4
        assert by_kind["batch"] == 4 * 2  # 16 docs / batch 8, per ticket
        served = service.describe()["served_by_client"]
        assert served == {"c0": 2, "c1": 2}

    def test_priorities_order_admission(self, snail_pipeline, corpus_16):
        """With one execution slot, the queued backlog admits strictly by
        priority regardless of submission order."""
        documents = list(corpus_16)[:8]
        order: list[str] = []
        lock = threading.Lock()

        def sink(event) -> None:
            if event.kind == "started":
                with lock:
                    order.append(event.ticket_id)
        config = ServiceConfig(max_active=1, backend_options={"n_jobs": 2})
        with ParseService(
            pipeline=snail_pipeline, config=config, event_sink=sink
        ) as service:
            # The first ticket occupies the slot; the rest queue.
            head = service.submit(request_for_documents("snail", documents))
            low = service.submit(request_for_documents("snail", documents), priority=1)
            high = service.submit(request_for_documents("snail", documents), priority=9)
            for ticket in (head, low, high):
                ticket.result(timeout=120)
        assert order == [head.id, high.id, low.id]


class TestServedRunOverADiskCache:
    """Identical requests through one service over one on-disk cache."""

    def test_identical_requests_parse_once_and_every_ticket_flushes(self, tmp_path):
        """A served request runs the pipeline's one run path: with a writing
        policy every ticket's phases have ``cache.flush``, and the three
        requests parse each document once between them."""
        n_documents, n_requests = 8, 3
        events: list = []
        lock = threading.Lock()

        def sink(event) -> None:
            with lock:
                events.append(event)

        pipeline = ParsePipeline(cache=ParseCache(tmp_path / "cache"))
        config = ServiceConfig(backend_options={"n_jobs": 2})
        with ParseService(pipeline=pipeline, config=config, event_sink=sink) as service:
            tickets = [
                service.submit(
                    ParseRequest(
                        parser="pymupdf",
                        source=f"synthetic:{n_documents}?seed=3",
                        batch_size=4,
                        cache="readwrite",
                    ),
                    client=f"client-{i}",
                )
                for i in range(n_requests)
            ]
            reports = [ticket.result(timeout=120) for ticket in tickets]
            described = service.describe()
        for ticket, report in zip(tickets, reports):
            assert "cache.flush" in report.phases, (ticket.id, sorted(report.phases))
        assert sum(r.cache.misses for r in reports) == n_documents
        assert sum(r.cache.hits + r.cache.coalesced for r in reports) == (
            (n_requests - 1) * n_documents
        )
        assert described["completed"] == n_requests
        assert described["backend"]["backend"] == "thread"
        assert {event.kind for event in events} >= {"queued", "started", "completed"}


@pytest.fixture()
def gateway():
    from repro.gateway import GatewayServer

    with ParseService(pipeline=ParsePipeline()) as service:
        with GatewayServer(service, port=0) as server:
            yield server


def gateway_address(server) -> list[str]:
    return ["--host", "127.0.0.1", "--port", str(server.port)]


# ---------------------------------------------------------------------- #
# CLI smoke
# ---------------------------------------------------------------------- #
class TestServeFrontends:
    def test_cli_submit_smoke(self, gateway, capsys):
        from repro.cli import main

        exit_code = main(
            [
                "submit", *gateway_address(gateway),
                "--documents", "5", "--seed", "3", "--priority", "2",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        kinds = [
            json.loads(line)["kind"] for line in out.splitlines() if line.startswith('{"kind"')
        ]
        assert kinds[0] == "queued" and kinds[-1] == "completed"
        assert "started" in kinds
        summary = json.loads(out[out.index('{\n  "parser"'):])
        assert summary["n_documents"] == summary["n_succeeded"] == 5
        assert "throughput_docs_per_second" in summary

    def test_cli_submit_request_file(self, gateway, tmp_path, capsys):
        from repro.cli import main

        request_path = tmp_path / "request.json"
        request_path.write_text(
            json.dumps(ParseRequest(parser="pypdf", source="synthetic:4?seed=9").to_json_dict()),
            encoding="utf-8",
        )
        output = tmp_path / "report.json"
        exit_code = main(
            [
                "submit", *gateway_address(gateway),
                "--request-file", str(request_path),
                "--quiet",
                "--output", str(output),
            ]
        )
        assert exit_code == 0
        payload = json.loads(output.read_text(encoding="utf-8"))
        assert payload["parser"] == "pypdf"
        assert payload["n_documents"] == 4
        out = capsys.readouterr().out
        assert "wrote ParseReport" in out
        assert '{"kind"' not in out

    def test_cli_submit_bad_request_file_exits_cleanly(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(SystemExit, match="invalid request"):
            main(["submit", "--host", "127.0.0.1", "--port", "9", "--request-file", str(bad)])


# ---------------------------------------------------------------------- #
# Abandoned tickets must always settle (regression: close/dispatch race)
# ---------------------------------------------------------------------- #
class TestAbandonedTicketsSettle:
    def test_close_without_drain_terminates_blocked_event_consumers(
        self, snail_pipeline, corpus_16
    ):
        """A consumer blocked in events() on a queued-then-abandoned ticket
        must receive a terminal cancelled event, not hang forever."""
        documents = list(corpus_16)
        service = ParseService(
            pipeline=snail_pipeline, config=ServiceConfig(max_active=1)
        )
        first = service.submit(request_for_documents("snail", documents))
        second = service.submit(request_for_documents("snail", documents))
        seen: list[str] = []
        consumed = threading.Event()

        def consume() -> None:
            for event in second.events():  # no timeout: would hang pre-fix
                seen.append(event.kind)
            consumed.set()

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        service.close(drain=False)
        assert consumed.wait(10), "events() consumer hung on the abandoned ticket"
        assert seen == ["queued", "cancelled"]
        assert second.state is TicketState.CANCELLED
        first.result(timeout=60)  # running work always completes

    def test_dispatch_racing_a_closed_pool_settles_the_ticket(self, snail_pipeline):
        """If close() shuts the runner pool down between a ticket leaving
        the queue and reaching the pool, the ticket must settle as
        cancelled (terminal event + counters) instead of sitting in
        _active forever with consumers hung in events()/result()."""
        service = ParseService(
            pipeline=snail_pipeline, config=ServiceConfig(max_active=1)
        )
        # Force the race deterministically: the pool is already shut down
        # when submit()'s dispatch tries to hand the ticket over.
        service._runners.shutdown(wait=True)
        ticket = service.submit(ParseRequest(parser="snail", source="synthetic:2?seed=1"))
        assert [e.kind for e in ticket.events(timeout=5)] == ["queued", "cancelled"]
        assert ticket.state is TicketState.CANCELLED
        with pytest.raises(ServiceError, match="cancelled"):
            ticket.result(timeout=5)
        description = service.describe()
        assert description["active"] == 0
        assert description["cancelled"] == 1
        service.drain(timeout=5)  # nothing stranded in _active
        service.close(drain=False)
