"""Tests of the gateway: handshake, streaming, backpressure, resume, e2e.

The acceptance centrepiece is the 50-client hammer: many
:class:`GatewayClient` processes' worth of concurrent submissions over
one shared corpus must come back byte-identical, with exactly-once cache
misses across *all* clients (cross-request single-flight holding over
the network boundary) and a gapless per-ticket event sequence.
Saturation must answer ``rejected`` immediately — never hang.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.cache import ParseCache
from repro.gateway import (
    AuthRegistry,
    ClientQuota,
    GatewayClient,
    GatewayError,
    GatewayRejected,
    GatewayServer,
)
from repro.gateway import protocol
from repro.gateway.protocol import MessageChannel
from repro.parsers.base import Parser, ParserCost
from repro.parsers.registry import ParserRegistry
from repro.pipeline import ParsePipeline, ParseRequest
from repro.serve import ParseService, ServiceConfig


class SnailParser(Parser):
    """Deterministic slow parser so requests overlap on the service."""

    name = "snail"
    version = "1.0"
    cost = ParserCost(cpu_seconds_per_page=0.01)

    def __init__(self, sleep_seconds: float = 0.02) -> None:
        self.sleep_seconds = sleep_seconds

    def _parse_pages(self, document, rng):
        time.sleep(self.sleep_seconds)
        return [f"{document.doc_id}:p{i}" for i in range(document.n_pages)]


def make_service(max_active: int = 4, sleep_seconds: float = 0.02) -> ParseService:
    registry = ParserRegistry()
    registry.register(SnailParser(sleep_seconds))
    pipeline = ParsePipeline(registry=registry, cache=ParseCache())
    config = ServiceConfig(max_active=max_active, backend_options={"n_jobs": 4})
    return ParseService(pipeline=pipeline, config=config)


def snail_request(n_documents: int = 8, seed: int = 7, **overrides) -> ParseRequest:
    options = {"parser": "snail", "source": f"synthetic:{n_documents}?seed={seed}"}
    options.update(overrides)
    return ParseRequest(**options)


@pytest.fixture()
def gateway():
    with make_service() as service:
        server = GatewayServer(service, port=0, max_queue_depth=16)
        with server:
            yield server


def connect(server: GatewayServer, **kwargs) -> GatewayClient:
    return GatewayClient("127.0.0.1", server.port, **kwargs).connect()


# ---------------------------------------------------------------------- #
# Handshake
# ---------------------------------------------------------------------- #
class TestHandshake:
    def raw_channel(self, server: GatewayServer) -> MessageChannel:
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        return MessageChannel(sock)

    def test_ack_carries_identity_quota_and_limits(self, gateway):
        with connect(gateway, client="walk-in") as client:
            assert client.client_id == "walk-in"
            assert client.quota["max_active"] >= 1
            assert client.quota["max_request_bytes"] > 0

    @pytest.mark.parametrize("version", [999, 1, 2, 3, 4])
    def test_version_mismatch_is_refused(self, gateway, version):
        channel = self.raw_channel(gateway)
        try:
            channel.send({"type": protocol.HELLO, "protocol": version})
            reply = channel.recv()
            assert reply["type"] == protocol.ERROR
            assert "version" in reply["message"]
            assert channel.recv() is None  # gateway hung up
        finally:
            channel.close()

    @pytest.mark.parametrize("kind", ["profile", "trace"])
    def test_removed_request_is_an_unexpected_message_type(self, gateway, kind):
        channel = self.raw_channel(gateway)
        try:
            channel.send(
                {"type": protocol.HELLO, "protocol": protocol.GATEWAY_PROTOCOL_VERSION}
            )
            assert channel.recv()["type"] == protocol.HELLO_ACK
            channel.send({"type": kind, "ticket_id": "t0001"})
            reply = channel.recv()
            assert reply["type"] == protocol.ERROR
            assert reply["message"] == f"unexpected message type '{kind}'"
            assert channel.recv() is None  # gateway hung up
        finally:
            channel.close()

    def test_non_hello_first_message_is_refused(self, gateway):
        channel = self.raw_channel(gateway)
        try:
            channel.send({"type": protocol.STATS})
            reply = channel.recv()
            assert reply["type"] == protocol.ERROR
            assert "hello" in reply["message"]
        finally:
            channel.close()

    def test_bad_token_is_refused(self):
        auth = AuthRegistry(allow_anonymous=False)
        auth.register("s3cret", "alice")
        with make_service() as service:
            with GatewayServer(service, port=0, auth=auth) as server:
                with pytest.raises(GatewayError, match="unknown"):
                    connect(server, token="wrong")
                with pytest.raises(GatewayError, match="required"):
                    connect(server)  # anonymous lane disabled
                with connect(server, token="s3cret", client="mallory") as client:
                    assert client.client_id == "alice"  # token wins over claim

    def test_anonymous_hello_cannot_impersonate_token_client(self):
        # With the anonymous lane OPEN (the default), a token-less hello
        # claiming a token-registered id must be refused at handshake —
        # otherwise it could resume/fetch that client's tickets and
        # pollute its quota and fair-share accounting.
        auth = AuthRegistry()  # allow_anonymous=True
        auth.register("s3cret", "alice")
        with make_service() as service:
            with GatewayServer(service, port=0, auth=auth) as server:
                with connect(server, token="s3cret") as alice:
                    ticket = alice.submit(snail_request(n_documents=2))
                    alice.result(ticket, timeout=30)
                with pytest.raises(GatewayError, match="registered to a token"):
                    connect(server, client="alice")
                # Non-colliding anonymous names are still welcome.
                with connect(server, client="bob") as bob:
                    assert bob.client_id == "bob"

    def test_wrong_typed_hello_fields_get_an_error_reply(self, gateway):
        # protocol: null is valid JSON but int() on it raises TypeError —
        # the client must still get an error frame, not a silent close.
        channel = self.raw_channel(gateway)
        try:
            channel.send({"type": protocol.HELLO, "protocol": None})
            reply = channel.recv()
            assert reply["type"] == protocol.ERROR
            assert channel.recv() is None  # gateway hung up afterwards
        finally:
            channel.close()


# ---------------------------------------------------------------------- #
# Submission and event streaming
# ---------------------------------------------------------------------- #
class TestSubmitAndStream:
    def test_submit_streams_gapless_events_to_completion(self, gateway):
        with connect(gateway) as client:
            ticket = client.submit(snail_request(batch_size=4))
            events = list(ticket.events(timeout=30))
            assert [e.kind for e in events[:2]] == ["queued", "started"]
            assert events[-1].kind == "completed"
            assert [e.seq for e in events] == list(range(len(events)))
            sent = client._channel.bytes_sent
            report = client.result(ticket, timeout=30)
            assert client._channel.bytes_sent == sent  # it came with `completed`
            assert report["n_documents"] == 8
            assert report["summary"]["n_succeeded"] == 8
            assert all("page_texts" not in r for r in report["results"])

    def test_remote_report_matches_the_in_process_run(self, gateway):
        request = snail_request(cache="off")
        with connect(gateway) as client:
            remote = client.result(client.submit(request), timeout=30, include_text=True)
        registry = ParserRegistry()
        registry.register(SnailParser())
        local = ParsePipeline(registry=registry).run(request)
        local_payload = local.to_json_dict(include_text=True)
        assert [r["page_texts"] for r in remote["results"]] == [
            r["page_texts"] for r in local_payload["results"]
        ]

    def test_report_over_the_frame_limit_comes_without_page_texts(
        self, gateway, monkeypatch
    ):
        # The terminal frame must still go out, or the stream never ends.
        from repro.utils import wire

        request = snail_request(n_documents=16, cache="off")
        with connect(gateway) as client:
            first = client.submit(request)
            full = client.result(first, timeout=30, include_text=True)
            lean = dict(full, results=[
                {k: v for k, v in r.items() if k != "page_texts"} for r in full["results"]
            ])
            terminal = first.terminal_event.to_json_dict()
            sizes = [
                len(wire.encode_message(protocol.event_message(terminal, report)))
                for report in (lean, full)
            ]
            assert sizes[1] - sizes[0] > 1000  # room for other digits to differ
            monkeypatch.setattr(wire, "MAX_MESSAGE_BYTES", sum(sizes) // 2)
            ticket = client.submit(request)
            assert client.result(ticket, timeout=30)["n_documents"] == 16
            with pytest.raises(GatewayError, match="frame limit"):
                client.result(ticket.id, timeout=30, include_text=True)

    def test_invalid_request_is_rejected_bad_request(self, gateway):
        with connect(gateway) as client:
            with pytest.raises(GatewayRejected) as exc_info:
                client.submit({"parser": "snail", "source": "synthetic:-5"})
            assert exc_info.value.reason == protocol.REJECT_BAD_REQUEST

    def test_request_failure_surfaces_not_hangs(self, gateway):
        # An unknown parser fails at run time: the ticket must end in a
        # `failed` terminal event and result() must raise, remotely too.
        with connect(gateway) as client:
            ticket = client.submit({"parser": "no-such-parser", "source": "synthetic:2"})
            events = list(ticket.events(timeout=30))
            assert events[-1].kind == "failed"
            with pytest.raises(GatewayError, match="failed"):
                client.result(ticket, timeout=5)

    def test_stats_round_trip_shape(self, gateway):
        with connect(gateway, client="c1") as client:
            client.result(client.submit(snail_request(n_documents=2)), timeout=30)
            stats = client.stats()
        assert stats["submitted"] == 1
        assert stats["rejected"] == 0
        assert stats["per_client"]["c1"]["submitted"] == 1
        assert stats["bytes_in"] > 0 and stats["bytes_out"] > 0
        assert stats["event_backlog_high_water"] >= 0
        assert stats["service"]["max_active"] == 4


# ---------------------------------------------------------------------- #
# Backpressure and quotas
# ---------------------------------------------------------------------- #
class TestBackpressure:
    def test_saturation_rejects_immediately_with_retry_after(self):
        with make_service(max_active=1, sleep_seconds=0.05) as service:
            with GatewayServer(
                service, port=0, max_queue_depth=0, retry_after=2.5
            ) as server:
                quota = ClientQuota(max_active=100)
                server.auth.default_quota = quota
                with connect(server) as client:
                    started = time.monotonic()
                    first = client.submit(snail_request(n_documents=4))
                    with pytest.raises(GatewayRejected) as exc_info:
                        client.submit(snail_request(n_documents=4, seed=99))
                    elapsed = time.monotonic() - started
                    assert exc_info.value.reason == protocol.REJECT_SATURATED
                    assert exc_info.value.retry_after == pytest.approx(2.5)
                    assert elapsed < 5.0  # rejected, not queued behind the parse
                    client.result(first, timeout=30)
                    # Capacity freed: the same submission is admitted now.
                    second = client.submit(snail_request(n_documents=4, seed=99))
                    client.result(second, timeout=30)

    def test_per_client_active_quota_rejects_the_burst(self, gateway):
        gateway.auth.default_quota = ClientQuota(max_active=1)
        with connect(gateway, client="greedy") as client:
            first = client.submit(snail_request(n_documents=8))
            with pytest.raises(GatewayRejected) as exc_info:
                client.submit(snail_request(n_documents=8, seed=2))
            assert exc_info.value.reason == protocol.REJECT_QUOTA_EXCEEDED
            client.result(first, timeout=30)

    def test_rate_limit_rejects_with_retry_after(self, gateway):
        gateway.auth.default_quota = ClientQuota(
            max_active=10, rate_per_second=0.01, burst=1
        )
        with connect(gateway, client="chatty") as client:
            first = client.submit(snail_request(n_documents=2))
            with pytest.raises(GatewayRejected) as exc_info:
                client.submit(snail_request(n_documents=2, seed=2))
            assert exc_info.value.reason == protocol.REJECT_RATE_LIMITED
            assert exc_info.value.retry_after > 0
            client.result(first, timeout=30)

    def test_oversized_request_refused_without_killing_the_connection(self, gateway):
        gateway.auth.default_quota = ClientQuota(max_request_bytes=512)
        with connect(gateway, client="bulky") as client:
            with pytest.raises(GatewayRejected) as exc_info:
                client.submit({"parser": "snail" + "x" * 2000, "source": "synthetic:2"})
            assert exc_info.value.reason == protocol.REJECT_TOO_LARGE
            # The connection survived: a sane submission still works.
            ticket = client.submit(snail_request(n_documents=2))
            client.result(ticket, timeout=30)

    def test_wrong_typed_request_fields_error_not_silent_close(self, gateway):
        # A submit whose priority is null (valid JSON, wrong type) must
        # produce an error reply rather than an unhandled reader-thread
        # traceback that closes the connection with no explanation.
        sock = socket.create_connection(("127.0.0.1", gateway.port), timeout=5)
        channel = MessageChannel(sock)
        try:
            channel.send(protocol.hello_message())
            assert channel.recv()["type"] == protocol.HELLO_ACK
            channel.send(
                {
                    "type": protocol.SUBMIT,
                    "request": {"parser": "snail", "source": "synthetic:2"},
                    "priority": None,
                }
            )
            reply = channel.recv()
            assert reply["type"] == protocol.ERROR
        finally:
            channel.close()

    def test_concurrent_submits_cannot_over_admit(self):
        # The admission decision must be atomic: N submissions racing on
        # separate connections may not all pass the same capacity
        # snapshot and exceed max_active + max_queue_depth.
        n_racers = 12
        with make_service(max_active=1, sleep_seconds=0.5) as service:
            with GatewayServer(service, port=0, max_queue_depth=2) as server:
                server.auth.default_quota = ClientQuota(max_active=100)
                capacity = 1 + 2
                barrier = threading.Barrier(n_racers)
                admitted: list[str] = []
                rejected: list[int] = []
                errors: list[BaseException] = []
                lock = threading.Lock()

                def race(i: int) -> None:
                    try:
                        with connect(server, client=f"racer-{i}") as client:
                            barrier.wait(timeout=10)
                            try:
                                ticket = client.submit(
                                    snail_request(n_documents=4, seed=100 + i)
                                )
                                with lock:
                                    admitted.append(ticket.id)
                            except GatewayRejected as exc:
                                assert exc.reason == protocol.REJECT_SATURATED
                                with lock:
                                    rejected.append(i)
                    except BaseException as exc:  # noqa: BLE001 - collected
                        with lock:
                            errors.append(exc)

                threads = [
                    threading.Thread(target=race, args=(i,), daemon=True)
                    for i in range(n_racers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not errors, errors[:3]
                assert len(admitted) + len(rejected) == n_racers
                assert len(admitted) <= capacity
                assert server.stats()["submitted"] == len(admitted)

    def test_rejections_are_counted_in_stats(self, gateway):
        gateway.auth.default_quota = ClientQuota(max_active=1)
        with connect(gateway, client="counted") as client:
            first = client.submit(snail_request(n_documents=8))
            with pytest.raises(GatewayRejected):
                client.submit(snail_request(n_documents=8, seed=2))
            stats = client.stats()
            client.result(first, timeout=30)
        assert stats["rejected"] == 1
        assert stats["rejected_by_reason"] == {protocol.REJECT_QUOTA_EXCEEDED: 1}
        assert stats["per_client"]["counted"]["rejected"] == 1


# ---------------------------------------------------------------------- #
# Reconnect and resume
# ---------------------------------------------------------------------- #
class TestReconnectResume:
    def test_disconnect_does_not_cancel_and_resume_is_gapless(self):
        with make_service(max_active=2, sleep_seconds=0.05) as service:
            with GatewayServer(service, port=0) as server:
                first = connect(server, token=None, client="roamer")
                ticket = first.submit(snail_request(n_documents=16, batch_size=2))
                stream = ticket.events(timeout=30)
                seen = [next(stream), next(stream)]  # queued, started
                first.close()  # drop mid-run; the ticket keeps running

                with connect(server, client="roamer") as second:
                    resumed = second.resume(ticket.id, after_seq=ticket.last_seq)
                    rest = list(resumed.events(timeout=30))
                    report = second.result(resumed, timeout=30)
                seqs = [e.seq for e in seen] + [e.seq for e in rest]
                assert seqs == list(range(len(seqs)))  # gapless, no duplicates
                assert rest[-1].kind == "completed"
                assert report["n_documents"] == 16

    def test_resume_after_completion_replays_the_full_stream(self, gateway):
        with connect(gateway, client="replayer") as client:
            ticket = client.submit(snail_request(n_documents=4))
            full = list(ticket.events(timeout=30))
        with connect(gateway, client="replayer") as later:
            replay = list(later.resume(ticket.id).events(timeout=30))
            report = later.result(ticket.id, timeout=30)
        assert [e.to_json_dict() for e in replay] == [e.to_json_dict() for e in full]
        assert report["n_documents"] == 4
        assert report["summary"]["n_succeeded"] == 4

    def test_resume_at_the_terminal_seq_resends_the_terminal_frame(self):
        # A stream resumed at its terminal seq still ends, with the report,
        # and frees its streamer thread: stop() spends no join timeout.
        with make_service() as service:
            with GatewayServer(service, port=0) as server:
                with connect(server, client="late") as client:
                    ticket = client.submit(snail_request(n_documents=2))
                    client.result(ticket, timeout=30)
                with connect(server, client="late") as later:
                    resumed = later.resume(ticket.id, after_seq=ticket.last_seq)
                    replay = list(resumed.events(timeout=5))
                    report = later.result(resumed, timeout=5)
                started = time.monotonic()
                server.stop()
                stop_seconds = time.monotonic() - started
        assert [(e.seq, e.kind) for e in replay] == [(ticket.last_seq, "completed")]
        assert report["n_documents"] == 2
        assert stop_seconds < 2.0
        assert not [
            t.name for t in threading.enumerate() if t.name.startswith("repro-gateway-stream")
        ]

    def test_resume_unknown_ticket_errors(self, gateway):
        with connect(gateway) as client:
            with pytest.raises(GatewayError, match="no ticket"):
                client.resume("t9999")

    def test_resume_someone_elses_ticket_is_forbidden(self, gateway):
        with connect(gateway, client="owner") as owner:
            ticket = owner.submit(snail_request(n_documents=4))
            owner.result(ticket, timeout=30)
        with connect(gateway, client="intruder") as intruder:
            with pytest.raises(GatewayError, match="another client"):
                intruder.resume(ticket.id)
            with pytest.raises(GatewayError, match="another client"):
                intruder.result(ticket.id, timeout=5)


# ---------------------------------------------------------------------- #
# The acceptance hammer: many clients, one service, exactly-once parsing
# ---------------------------------------------------------------------- #
class TestManyClientsE2E:
    N_CLIENTS = 50

    def test_fifty_concurrent_clients_share_one_parse(self):
        # The parse phase must dominate the per-ticket corpus synthesis,
        # or the first ticket finishes parsing before its peers reach the
        # cache and nothing coalesces — hence the deliberately slow snail.
        # Two batches a ticket, so the first ticket cannot fill the shared
        # four-thread pool by itself: with four, its peers' batches queued
        # behind it and coalesced only when they met its last one by a
        # millisecond (about one run in three did not, on two cores).
        request = snail_request(n_documents=16, seed=11, batch_size=8, cache="readwrite")
        outcomes: dict[int, dict] = {}
        failures: list[BaseException] = []
        lock = threading.Lock()

        with make_service(max_active=8, sleep_seconds=0.1) as service:
            with GatewayServer(service, port=0, max_queue_depth=64) as server:
                barrier = threading.Barrier(self.N_CLIENTS)

                def run_client(i: int) -> None:
                    try:
                        with connect(server, client=f"client-{i}") as client:
                            barrier.wait(timeout=30)
                            ticket = client.submit(request)
                            events = list(ticket.events(timeout=60))
                            report = client.result(
                                ticket, timeout=60, include_text=True
                            )
                        with lock:
                            outcomes[i] = {"events": events, "report": report}
                    except BaseException as exc:  # noqa: BLE001 - collected
                        with lock:
                            failures.append(exc)

                threads = [
                    threading.Thread(target=run_client, args=(i,), daemon=True)
                    for i in range(self.N_CLIENTS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                stats = server.stats()
        assert not failures, failures[:3]
        assert len(outcomes) == self.N_CLIENTS

        # Byte-identical reports for every client.
        baseline = outcomes[0]["report"]["results"]
        for i in range(1, self.N_CLIENTS):
            assert outcomes[i]["report"]["results"] == baseline

        # Exactly-once parsing ACROSS the whole fleet: total misses equal
        # the corpus size; everyone else hit the cache or coalesced onto
        # an in-flight parse (and overlap did happen: coalesced > 0).
        cache_counters = [o["report"]["cache"] for o in outcomes.values()]
        assert sum(c["misses"] for c in cache_counters) == 16
        assert sum(c["coalesced"] for c in cache_counters) > 0
        assert sum(c["hits"] + c["coalesced"] for c in cache_counters) == (
            (self.N_CLIENTS - 1) * 16
        )

        # Gapless per-ticket event sequences, each ending terminally.
        for outcome in outcomes.values():
            seqs = [e.seq for e in outcome["events"]]
            assert seqs == list(range(len(seqs)))
            assert outcome["events"][-1].kind == "completed"

        assert stats["submitted"] == self.N_CLIENTS
        assert stats["rejected"] == 0
        assert len(stats["per_client"]) == self.N_CLIENTS
        assert service.describe()["completed"] == self.N_CLIENTS


# ---------------------------------------------------------------------- #
# Client robustness against a misbehaving gateway
# ---------------------------------------------------------------------- #
class TestClientRobustness:
    def test_connect_times_out_when_server_never_answers_hello(self):
        # A server that accepts TCP but never speaks must not hang
        # connect() forever: the configured timeout covers the handshake.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)  # SYN queue completes the connect; we never accept
        port = listener.getsockname()[1]
        try:
            client = GatewayClient("127.0.0.1", port, timeout=0.5)
            started = time.monotonic()
            with pytest.raises(GatewayError, match="handshake"):
                client.connect()
            assert time.monotonic() - started < 5.0
        finally:
            listener.close()

    def test_unsolicited_error_frame_is_not_mistaken_for_a_reply(self):
        # A connection-level error frame arriving with no RPC in flight
        # must be dropped — not enqueued as the "reply" to the next
        # unrelated request.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def serve() -> None:
            sock, _ = listener.accept()
            channel = MessageChannel(sock)
            assert channel.recv()["type"] == protocol.HELLO
            channel.send(
                {
                    "type": protocol.HELLO_ACK,
                    "protocol": protocol.GATEWAY_PROTOCOL_VERSION,
                    "client_id": "c",
                    "quota": {},
                }
            )
            # Unsolicited: nothing is awaiting a reply yet.
            channel.send(
                {"type": protocol.ERROR, "message": "background failure"}
            )
            request = channel.recv()
            assert request["type"] == protocol.STATS
            channel.send({"type": protocol.STATS, "submitted": 0})
            channel.recv()  # wait for bye/close

        server_thread = threading.Thread(target=serve, daemon=True)
        server_thread.start()
        try:
            with GatewayClient("127.0.0.1", port, timeout=5) as client:
                time.sleep(0.3)  # let the unsolicited frame arrive (and drop)
                stats = client.stats()
                assert stats["submitted"] == 0  # the real reply, not the error
        finally:
            listener.close()
            server_thread.join(timeout=5)


# ---------------------------------------------------------------------- #
# Message builders
# ---------------------------------------------------------------------- #
class TestMessageBuilders:
    def test_hello_names_the_version_and_omits_absent_credentials(self):
        assert protocol.hello_message() == {"type": protocol.HELLO, "protocol": protocol.GATEWAY_PROTOCOL_VERSION}
        assert protocol.hello_message(token="t", client="c")["token"] == "t"
        assert protocol.hello_message(token="t", client="c")["client"] == "c"

    def test_submit_copies_the_request_and_sends_a_trace_only_when_given(self):
        request = {"parser": "pymupdf"}
        message = protocol.submit_message(request, priority=2)
        request["parser"] = "nougat"
        assert message == {"type": protocol.SUBMIT, "request": {"parser": "pymupdf"}, "priority": 2}
        traced = protocol.submit_message({}, trace={"trace_id": "abc"})
        assert traced["trace"] == {"trace_id": "abc"}

    def test_rejection_rounds_retry_after_and_omits_empty_fields(self):
        assert protocol.rejected_message(protocol.REJECT_SATURATED) == {
            "type": protocol.REJECTED,
            "reason": protocol.REJECT_SATURATED,
        }
        message = protocol.rejected_message(protocol.REJECT_RATE_LIMITED, retry_after=0.123456, detail="slow down")
        assert message["retry_after"] == 0.1235
        assert message["detail"] == "slow down"

    def test_event_takes_the_ticket_from_the_payload_and_a_report_only_when_given(self):
        payload = {"ticket_id": "t1", "seq": 3, "state": "running"}
        message = protocol.event_message(payload)
        assert message == {"type": protocol.EVENT, "ticket_id": "t1", "event": payload}
        assert protocol.event_message(payload, report={"n": 1})["report"] == {"n": 1}

    def test_resume_defaults_to_the_whole_stream(self):
        assert protocol.resume_message("t1") == {"type": protocol.RESUME, "ticket_id": "t1", "after_seq": -1}
        assert protocol.resume_message("t1", after_seq=4)["after_seq"] == 4

    def test_every_builder_round_trips_through_one_frame(self):
        messages = [
            protocol.hello_message(token="t"),
            protocol.submit_message({"parser": "pymupdf"}),
            protocol.metrics_message("prometheus"),
            protocol.rejected_message(protocol.REJECT_TOO_LARGE, detail="big"),
            protocol.event_message({"ticket_id": "t1"}),
            protocol.resume_message("t1", 2),
        ]
        for message in messages:
            length, body = protocol.encode_message(message).split(b"\n", 1)
            assert int(length) == len(body)
            assert json.loads(body) == message


# ---------------------------------------------------------------------- #
# Import hygiene
# ---------------------------------------------------------------------- #
class TestImportHygiene:
    def test_import_repro_does_not_import_gateway(self):
        code = (
            "import sys, repro\n"
            "from repro.pipeline import ParseRequest\n"
            "ParseRequest()\n"
            "bad = [m for m in sys.modules if m.startswith('repro.gateway')]\n"
            "assert not bad, f'gateway imported eagerly: {bad}'\n"
            "assert repro.GatewayServer.__name__ == 'GatewayServer'\n"
            "assert 'repro.gateway.server' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=_subprocess_env())

    def test_importing_gateway_opens_no_sockets_and_stays_light(self):
        code = (
            "import sys, repro.gateway\n"
            "assert 'repro.serve.service' not in sys.modules\n"
            "from repro.gateway import GATEWAY_PROTOCOL_VERSION\n"
            "assert GATEWAY_PROTOCOL_VERSION == 5\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=_subprocess_env())


def _subprocess_env():
    import os
    from pathlib import Path

    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env
