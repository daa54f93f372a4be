"""What crosses the cluster and gateway wires, pinned byte for byte.

Two pins that a change to the framing must hold:

* a frame that carries no page text is exactly the bytes listed here
  (hello frames apart from their protocol number, which each wire bumps on
  an incompatible change);
* the page texts a gateway client reads back over a two-worker cluster
  digest to :data:`POOL_TEXT_DIGEST`, the digest of the in-process run.
"""

from __future__ import annotations

import hashlib
import json
import socket

import pytest

from repro.cluster import protocol as cluster_protocol
from repro.cluster.worker import WorkerDaemon
from repro.documents.corpus import CorpusConfig, build_corpus
from repro.documents.simpdf import SimPdfWriter
from repro.gateway import GatewayClient, GatewayServer
from repro.gateway import protocol as gateway_protocol
from repro.pipeline import ParsePipeline, ParseRequest
from repro.serve import ParseService, ServiceConfig
from repro.utils.wire import MessageChannel, encode_message

CLUSTER_VERSION = cluster_protocol.PROTOCOL_VERSION
GATEWAY_VERSION = gateway_protocol.GATEWAY_PROTOCOL_VERSION

#: (name, message, its frame), one row per text-free message shape.
TEXT_FREE_FRAMES = [
    (
        "cluster-hello",
        {"type": "hello", "protocol": CLUSTER_VERSION, "heartbeat_interval": 0.5},
        b'55\n{"type":"hello","protocol":%d,"heartbeat_interval":0.5}\n' % CLUSTER_VERSION,
    ),
    (
        "gateway-hello",
        gateway_protocol.hello_message(token="t0k", client="café"),
        b'65\n{"type":"hello","protocol":%d,"token":"t0k","client":"caf\\u00e9"}\n'
        % GATEWAY_VERSION,
    ),
    (
        "heartbeat",
        {"type": "heartbeat", "worker_id": "w-1", "in_flight": 2},
        b'53\n{"type":"heartbeat","worker_id":"w-1","in_flight":2}\n',
    ),
    (
        "submit_shard",
        {
            "type": "submit_shard",
            "shard_id": "s000001",
            "spec": {"parser": "pymupdf", "fingerprint": "ab12", "alpha": None,
                     "cache": "off"},
            "docs": [{"content_hash": "cafe", "ref": {"locator": "dé.simpdf"}}],
        },
        b'189\n{"type":"submit_shard","shard_id":"s000001","spec":{"parser":"pymupdf",'
        b'"fingerprint":"ab12","alpha":null,"cache":"off"},"docs":[{"content_hash":'
        b'"cafe","ref":{"locator":"d\\u00e9.simpdf"}}]}\n',
    ),
    (
        "submit",
        gateway_protocol.submit_message(
            {"parser": "pymupdf", "source": "simpdf-dir:/pöol"}, priority=1,
            trace={"trace_id": "7f"},
        ),
        b'121\n{"type":"submit","request":{"parser":"pymupdf","source":'
        b'"simpdf-dir:/p\\u00f6ol"},"priority":1,"trace":{"trace_id":"7f"}}\n',
    ),
    (
        "event",
        gateway_protocol.event_message(
            {"ticket_id": "t0001", "seq": 2, "kind": "batch", "payload": {"done": 10}}
        ),
        b'112\n{"type":"event","ticket_id":"t0001","event":{"ticket_id":"t0001",'
        b'"seq":2,"kind":"batch","payload":{"done":10}}}\n',
    ),
    (
        "event-with-a-lean-report",
        gateway_protocol.event_message(
            {"ticket_id": "t0001", "seq": 3, "kind": "completed"},
            {"n_documents": 1, "results": [{"doc_id": "d0", "n_pages": 2}]},
        ),
        b'161\n{"type":"event","ticket_id":"t0001","event":{"ticket_id":"t0001",'
        b'"seq":3,"kind":"completed"},"report":{"n_documents":1,"results":'
        b'[{"doc_id":"d0","n_pages":2}]}}\n',
    ),
    (
        "stats",
        {"type": "stats"},
        b'17\n{"type":"stats"}\n',
    ),
    (
        "stats-reply",
        {"type": "stats", "tickets_open": 0, "bytes_in": 512, "bytes_out": 4096},
        b'66\n{"type":"stats","tickets_open":0,"bytes_in":512,"bytes_out":4096}\n',
    ),
    (
        "join",
        {"type": "join", "protocol": CLUSTER_VERSION, "address": "127.0.0.1:9"},
        b'53\n{"type":"join","protocol":%d,"address":"127.0.0.1:9"}\n' % CLUSTER_VERSION,
    ),
    (
        "join_ack",
        {"type": "join_ack", "accepted": True, "worker_id": "w-1"},
        b'54\n{"type":"join_ack","accepted":true,"worker_id":"w-1"}\n',
    ),
    (
        "leave",
        {"type": "leave", "worker_id": "w-1"},
        b'35\n{"type":"leave","worker_id":"w-1"}\n',
    ),
    (
        "status_result",
        {"type": "status_result", "counters": {"joined": 1},
         "workers": [{"worker_id": "w-1", "state": "alive", "tags": []}]},
        b'107\n{"type":"status_result","counters":{"joined":1},"workers":'
        b'[{"worker_id":"w-1","state":"alive","tags":[]}]}\n',
    ),
    (
        "bye",
        {"type": "bye", "reason": "drained"},
        b'34\n{"type":"bye","reason":"drained"}\n',
    ),
]


class TestTextFreeFrames:
    @pytest.mark.parametrize(
        ("message", "frame"),
        [row[1:] for row in TEXT_FREE_FRAMES],
        ids=[row[0] for row in TEXT_FREE_FRAMES],
    )
    def test_the_frame_is_these_bytes(self, message, frame):
        assert encode_message(message) == frame

    def test_a_channel_writes_exactly_the_encoded_frames(self):
        left_sock, right_sock = socket.socketpair()
        left = MessageChannel(left_sock)
        try:
            expected = b"".join(frame for _, _, frame in TEXT_FREE_FRAMES)
            for _, message, _ in TEXT_FREE_FRAMES:
                left.send(message)
            assert left.bytes_sent == len(expected)
            received = b""
            while len(received) < len(expected):
                received += right_sock.recv(65536)
            assert received == expected
        finally:
            left.close()
            right_sock.close()


#: The 40-document pool of ``tests/documents/test_simpdf_pins.py``.
POOL_CONFIG = CorpusConfig(n_documents=40, seed=47)
#: sha256 of the ``[doc_id, page_texts]`` pairs of a ``pymupdf`` run over
#: the pool (:func:`text_digest`).
POOL_TEXT_DIGEST = "ccad4c5a6aa44ab0916ea57569baad7a957e609e13748dd2904179f88f3765bb"


def text_digest(pairs) -> str:
    """sha256 over ``[[doc_id, page_texts], ...]`` as UTF-8 JSON (surrogates passed)."""
    body = json.dumps([list(pair) for pair in pairs], ensure_ascii=False)
    return hashlib.sha256(body.encode("utf-8", "surrogatepass")).hexdigest()


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    directory = tmp_path_factory.mktemp("wire-pool")
    writer = SimPdfWriter(directory)
    for document in build_corpus(POOL_CONFIG):
        writer.write(document)
    return directory


def _request(pool) -> ParseRequest:
    return ParseRequest(parser="pymupdf", source=f"simpdf-dir:{pool}", batch_size=10)


class TestPageTextsOverBothWires:
    def test_the_in_process_run_digests_to_the_pin(self, pool):
        report = ParsePipeline().run(_request(pool))
        assert text_digest((r.doc_id, r.page_texts) for r in report.results) == (
            POOL_TEXT_DIGEST
        )

    def test_a_gateway_client_over_two_workers_reads_the_pin(self, pool):
        workers = [WorkerDaemon(name=f"pin-{i}").start() for i in range(2)]
        config = ServiceConfig(
            backend="remote",
            backend_options={"workers": ",".join(w.address for w in workers)},
        )
        try:
            with ParseService(ParsePipeline(), config) as service:
                with GatewayServer(service, port=0) as server:
                    with GatewayClient("127.0.0.1", server.port).connect() as client:
                        ticket = client.submit(_request(pool))
                        report = client.result(ticket, timeout=60, include_text=True)
        finally:
            for worker in workers:
                worker.stop()
        assert report["n_documents"] == POOL_CONFIG.n_documents
        assert report["execution"]["backend"] == "remote"
        pairs = [(entry["doc_id"], entry["page_texts"]) for entry in report["results"]]
        assert text_digest(pairs) == POOL_TEXT_DIGEST
