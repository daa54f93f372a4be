"""Tests of the cluster wire protocol: framing, specs, and placement."""

from __future__ import annotations

import socket

import pytest

from repro.cluster import protocol
from repro.cluster.protocol import (
    MessageChannel,
    ProtocolError,
    WorkerSpec,
    encode_message,
    rank_workers,
    shard_placement_key,
)
from repro.core.engine import RoutingDecision
from repro.obs.profiling import PhaseTimer
from repro.parsers.base import ParseResult


@pytest.fixture()
def channel_pair():
    left_sock, right_sock = socket.socketpair()
    left = MessageChannel(left_sock)
    right = MessageChannel(right_sock)
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_round_trip(self, channel_pair):
        left, right = channel_pair
        message = {"type": "hello", "protocol": 1, "payload": {"α": "ünïcode"}}
        left.send(message)
        assert right.recv() == message

    def test_many_messages_in_order(self, channel_pair):
        left, right = channel_pair
        for i in range(50):
            left.send({"type": "heartbeat", "seq": i})
        received = [right.recv()["seq"] for _ in range(50)]
        assert received == list(range(50))

    def test_byte_counters_match(self, channel_pair):
        left, right = channel_pair
        left.send({"type": "hello"})
        right.recv()
        assert left.bytes_sent == right.bytes_received > 0

    def test_clean_eof_returns_none(self, channel_pair):
        left, right = channel_pair
        left.close()
        assert right.recv() is None

    def test_bad_length_prefix_raises(self, channel_pair):
        left, right = channel_pair
        left._sock.sendall(b"not-a-number\n{}\n")
        with pytest.raises(ProtocolError, match="length prefix"):
            right.recv()

    def test_truncated_body_raises(self, channel_pair):
        left, right = channel_pair
        frame = encode_message({"type": "hello", "blob": "x" * 100})
        left._sock.sendall(frame[:-30])
        left.close()
        with pytest.raises(ProtocolError, match="truncated"):
            right.recv()

    def test_oversized_length_rejected(self, channel_pair):
        left, right = channel_pair
        left._sock.sendall(b"999999999999\n")
        with pytest.raises(ProtocolError, match="out of bounds"):
            right.recv()

    def test_non_object_body_rejected(self, channel_pair):
        left, right = channel_pair
        body = b"[1, 2, 3]\n"
        left._sock.sendall(str(len(body)).encode() + b"\n" + body)
        with pytest.raises(ProtocolError, match="JSON object"):
            right.recv()

    def test_send_after_close_raises(self, channel_pair):
        left, _ = channel_pair
        left.close()
        with pytest.raises(ProtocolError, match="closed"):
            left.send({"type": "hello"})

    def test_oversized_message_refused_at_send_time(self, channel_pair, monkeypatch):
        from repro.cluster.protocol import MessageTooLarge
        from repro.utils import wire

        # The framing lives in repro.utils.wire (cluster.protocol re-exports
        # it); channels read the module default at call time, so patch there.
        monkeypatch.setattr(wire, "MAX_MESSAGE_BYTES", 256)
        left, right = channel_pair
        with pytest.raises(MessageTooLarge, match="smaller batch_size"):
            left.send({"type": "submit_shard", "blob": "x" * 300})
        # Nothing hit the wire: the connection is still usable.
        left.send({"type": "heartbeat"})
        assert right.recv() == {"type": "heartbeat"}


class TestSpecAndResults:
    def test_worker_spec_round_trip(self):
        spec = WorkerSpec(parser="nougat", fingerprint="abc123", alpha=0.07, cache="read")
        assert WorkerSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_worker_spec_none_alpha_survives(self):
        spec = WorkerSpec(parser="pymupdf", fingerprint="f")
        rebuilt = WorkerSpec.from_json_dict(spec.to_json_dict())
        assert rebuilt.alpha is None

    def test_batch_result_round_trip(self):
        results = [
            ParseResult(parser_name="pymupdf", doc_id="d1", page_texts=["a", "b"]),
            ParseResult(
                parser_name="nougat",
                doc_id="d2",
                page_texts=[""],
                succeeded=False,
                error="boom",
            ),
        ]
        decisions = [
            RoutingDecision(
                doc_id="d2",
                chosen_parser="nougat",
                stage="routed_high_quality",
                predicted_improvement=0.4,
            )
        ]
        message = protocol.batch_result_message(
            "s000001", results, decisions, worker_id="w", elapsed_seconds=0.5
        )
        batch = protocol.parse_batch_result(message)
        assert [r.to_json_dict() for r in batch.results] == [
            r.to_json_dict() for r in results
        ]
        assert batch.decisions == decisions
        assert (batch.cache_hits, batch.cache_misses) == (0, 0)
        assert batch.phases is None


    def test_absent_and_legacy_scores_cross_the_wire(self, channel_pair):
        # A batch whose CLS I rejects fill the budget is never scored: its
        # decisions carry no score, sent as JSON null.  Floats, as every
        # older worker sent them, still read as floats.
        left, right = channel_pair
        decisions = [
            RoutingDecision("d1", "nougat", "cls1_invalid"),
            RoutingDecision("d2", "pymupdf", "accepted_default", predicted_improvement=0.25),
        ]
        message = protocol.batch_result_message(
            "s000001", [], decisions, worker_id="w", elapsed_seconds=0.5
        )
        message["decisions"].append(
            {"doc_id": "d3", "chosen_parser": "pymupdf", "stage": "accepted_default",
             "predicted_improvement": 0}  # fmt: skip
        )
        left.send(message)
        received = right.recv()
        assert received["decisions"][0]["predicted_improvement"] is None
        batch = protocol.parse_batch_result(received)
        assert [d.predicted_improvement for d in batch.decisions] == [None, 0.25, 0.0]
        assert isinstance(batch.decisions[2].predicted_improvement, float)
        assert batch.decisions[:2] == decisions


def _batch_frame(**fields):
    message = protocol.batch_result_message(
        "s000001",
        [ParseResult(parser_name="pymupdf", doc_id="d1", page_texts=["a"])],
        [],
        worker_id="w",
        elapsed_seconds=0.5,
    )
    message.update(fields)
    return message


class TestBatchResultValidation:
    def test_telemetry_fields_survive_the_round_trip(self):
        timer = PhaseTimer()
        timer.record("parse.default", 0.25, cpu_seconds=0.2, calls=2, n_bytes=64)
        message = protocol.batch_result_message(
            "s000001",
            [],
            [],
            worker_id="w",
            elapsed_seconds=0.5,
            cache_hits=3,
            cache_misses=4,
            phases=timer.snapshot(),
        )
        batch = protocol.parse_batch_result(message)
        assert (batch.cache_hits, batch.cache_misses) == (3, 4)
        assert batch.phases == timer.snapshot()

    def test_frame_without_telemetry_reads_as_zero_counters(self):
        message = _batch_frame()
        del message["cache_hits"], message["cache_misses"]
        batch = protocol.parse_batch_result(message)
        assert (batch.cache_hits, batch.cache_misses) == (0, 0)
        assert batch.phases is None

    def test_an_older_workers_spans_field_is_ignored(self):
        # A worker from before spans were deleted (protocol 2 as well) still
        # sends them; like any field the coordinator does not read, it is
        # neither checked nor kept.
        batch = protocol.parse_batch_result(_batch_frame(spans={"name": "worker.batch"}))
        assert not hasattr(batch, "spans")
        assert [r.doc_id for r in batch.results] == ["d1"]

    def test_empty_phase_table_reads_as_none(self):
        assert protocol.parse_batch_result(_batch_frame(phases={})).phases is None

    def test_accepted_phase_table_merges_into_a_timer(self):
        row = {"total_s": 2.0, "self_s": 1.5, "cpu_s": 1.0, "calls": 3, "bytes": 7}
        batch = protocol.parse_batch_result(_batch_frame(phases={"parse.default": row}))
        timer = PhaseTimer()
        timer.merge_table(batch.phases)
        assert timer.snapshot() == {"parse.default": row}

    @pytest.mark.parametrize(
        "fields",
        [
            {"cache_hits": -1},
            {"cache_misses": True},
            {"cache_hits": 1.5},
            {"cache_misses": "3"},
            {"phases": [["parse", 1.0]]},
            {"phases": {"parse": "fast"}},
            {"phases": {"parse": {"self_s": -0.1}}},
            {"phases": {"parse": {"total_s": float("inf")}}},
            {"phases": {"parse": {"calls": False}}},
        ],
        ids=[
            "counter-negative",
            "counter-bool",
            "counter-float",
            "counter-string",
            "phases-not-a-table",
            "row-a-string",
            "row-negative",
            "row-inf",
            "row-bool",
        ],
    )
    def test_malformed_field_is_refused(self, fields):
        with pytest.raises(ValueError):
            protocol.parse_batch_result(_batch_frame(**fields))


class TestPlacement:
    def test_placement_key_is_stable_and_order_sensitive(self):
        key = shard_placement_key(["h1", "h2", "h3"])
        assert key == shard_placement_key(["h1", "h2", "h3"])
        assert key != shard_placement_key(["h3", "h2", "h1"])

    def test_rank_workers_deterministic(self):
        workers = ["alpha", "beta", "gamma"]
        key = shard_placement_key(["h1"])
        assert rank_workers(key, workers) == rank_workers(key, list(reversed(workers)))

    def test_rank_workers_spreads_shards(self):
        workers = ["alpha", "beta", "gamma", "delta"]
        tops = {
            rank_workers(shard_placement_key([f"hash-{i}"]), workers)[0]
            for i in range(64)
        }
        assert tops == set(workers)  # no worker is systematically ignored

    def test_removing_a_worker_only_moves_its_own_shards(self):
        # The rendezvous property the coordinator's cache affinity relies
        # on: shards whose preferred worker survives keep it.
        workers = ["alpha", "beta", "gamma", "delta"]
        survivors = [worker for worker in workers if worker != "delta"]
        for i in range(64):
            key = shard_placement_key([f"hash-{i}"])
            before = rank_workers(key, workers)[0]
            after = rank_workers(key, survivors)[0]
            if before != "delta":
                assert after == before
