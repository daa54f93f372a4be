"""Integration tests of repro.cluster: daemons, coordinator, remote backend.

Workers run in-process (each :class:`WorkerDaemon` owns a real TCP
listener on localhost), so the full wire protocol is exercised without
subprocess spawn latency — and a "killed" worker is just a daemon whose
sockets are severed abruptly, which the coordinator sees exactly as a
SIGKILLed process.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cache import ParseCache, document_content_hash, parse_cache_key
from repro.cache.keys import CONTENT_HASH_SCHEME
from repro.cluster.backend import RemoteBackend
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.protocol import PROTOCOL_VERSION, MessageChannel, WorkerSpec
from repro.cluster.worker import WorkerDaemon
from repro.documents.corpus import CorpusConfig, build_corpus
from repro.documents.simpdf import SimPdfWriter, document_to_dict
from repro.documents.sources import ExplicitSource, SourceSpec, create_source
from repro.parsers.base import Parser, ParserCost
from repro.parsers.registry import default_registry
from repro.pipeline import ParsePipeline, ParseRequest, request_for_documents
from repro.pipeline.backends import BackendError, create_backend, normalize_backend_spec


class TortoiseParser(Parser):
    """Deterministic, slow-enough-to-interrupt parser double."""

    name = "tortoise"
    version = "1.0"
    cost = ParserCost(cpu_seconds_per_page=0.001)

    def __init__(
        self, sleep_seconds: float = 0.03, started: threading.Event | None = None
    ) -> None:
        self.sleep_seconds = sleep_seconds
        #: Set when the first document starts parsing (mid-shard).
        self.started = started

    def _parse_pages(self, document, rng):
        if self.started is not None:
            self.started.set()
        time.sleep(self.sleep_seconds)
        return [f"{document.doc_id}:p{i}" for i in range(document.n_pages)]


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def corpus_30():
    return build_corpus(CorpusConfig(n_documents=30, seed=11, min_pages=1, max_pages=2))


def start_workers(n: int, **kwargs) -> list[WorkerDaemon]:
    return [
        WorkerDaemon(name=f"test-worker-{i}", **kwargs).start() for i in range(n)
    ]


def addresses_of(workers: list[WorkerDaemon]) -> str:
    return ",".join(worker.address for worker in workers)


def tortoise_pipeline(
    registry, sleep_seconds: float = 0.03, started: threading.Event | None = None
) -> ParsePipeline:
    pipeline = ParsePipeline(registry)
    pipeline.engines["tortoise"] = TortoiseParser(sleep_seconds, started)
    return pipeline


# ---------------------------------------------------------------------- #
# Registry / resolution / laziness
# ---------------------------------------------------------------------- #
class TestRemoteRegistration:
    def test_resolves_through_create_backend(self):
        backend = create_backend("remote", {"workers": "127.0.0.1:9101"})
        assert isinstance(backend, RemoteBackend)
        assert backend.addresses == ["127.0.0.1:9101"]
        backend.close()  # never connected; must not raise

    def test_normalize_passes_remote_through(self):
        name, options = normalize_backend_spec(
            "remote", {"workers": "127.0.0.1:9101,127.0.0.1:9102", "window": 3}
        )
        assert name == "remote"
        assert options["window"] == 3

    def test_request_validates_remote_spec_eagerly(self):
        from repro.pipeline import ParseRequest

        request = ParseRequest(
            backend="remote", backend_options={"workers": "127.0.0.1:9101"}
        )
        assert request.resolved_backend()[0] == "remote"

    @pytest.mark.parametrize(
        "options,match",
        [
            ({}, "worker addresses"),
            ({"workers": ""}, "at least one"),
            ({"workers": "no-port"}, "host:port"),
            ({"workers": "127.0.0.1:9101", "window": 0}, "window"),
            ({"workers": "127.0.0.1:9101", "placement": "modulo"}, "placement"),
        ],
    )
    def test_bad_options_fail_at_construction(self, options, match):
        with pytest.raises(ValueError, match=match):
            create_backend("remote", options)

    def test_import_repro_does_not_import_cluster(self):
        code = (
            "import sys, repro, repro.pipeline\n"
            "from repro.pipeline import ParseRequest\n"
            "ParseRequest()\n"
            "from repro.pipeline.backends import backend_names\n"
            "assert 'remote' in backend_names()\n"
            "bad = [m for m in sys.modules if m.startswith('repro.cluster')]\n"
            "assert not bad, f'cluster imported on the serial path: {bad}'\n"
        )
        subprocess.run(
            [sys.executable, "-c", code], check=True, env=_subprocess_env()
        )

    def test_racing_first_requests_dial_one_coordinator(self, monkeypatch):
        """Concurrent first requests share one coordinator; the unlocked dial
        connected one per caller and never closed the losers, whose monitor
        threads outlived the backend."""
        import repro.cluster.backend as backend_module
        from repro.cluster.coordinator import COORDINATOR_THREAD_PREFIX

        monitor_name = f"{COORDINATOR_THREAD_PREFIX}-monitor-stub"
        built = []

        class CountingCoordinator:
            def __init__(self, addresses, **options):
                built.append(self)
                self._stop = threading.Event()

            def connect(self):
                time.sleep(0.05)  # hold the dial open so every racer arrives
                self._monitor = threading.Thread(
                    target=self._stop.wait, name=monitor_name, daemon=True
                )
                self._monitor.start()

            def close(self):
                self._stop.set()
                self._monitor.join(timeout=5)

        monkeypatch.setattr(backend_module, "ClusterCoordinator", CountingCoordinator)
        backend = create_backend("remote", {"workers": "127.0.0.1:9101"})
        n_racers = 8
        barrier = threading.Barrier(n_racers)
        seen = []

        def first_request():
            barrier.wait(timeout=5)
            seen.append(backend._ensure_coordinator())

        racers = [threading.Thread(target=first_request) for _ in range(n_racers)]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join(timeout=10)
        assert not any(racer.is_alive() for racer in racers)
        backend.close()
        assert len(built) == 1
        assert seen == built * n_racers
        assert not [t for t in threading.enumerate() if t.name == monitor_name]

    def test_close_during_first_dial_leaves_no_coordinator_open(self, monkeypatch):
        """close() racing a slow first dial waits for it and closes what it
        connected; unguarded, close() saw no coordinator yet and the dial
        then published one that nobody would ever close."""
        import repro.cluster.backend as backend_module

        dialling = threading.Event()
        built = []

        class SlowCoordinator:
            def __init__(self, addresses, **options):
                built.append(self)
                self.open = False

            def connect(self):
                dialling.set()
                time.sleep(0.1)  # close() arrives while the dial is in flight
                self.open = True

            def close(self):
                self.open = False

        monkeypatch.setattr(backend_module, "ClusterCoordinator", SlowCoordinator)
        backend = create_backend("remote", {"workers": "127.0.0.1:9101"})
        dialler = threading.Thread(target=backend._ensure_coordinator)
        dialler.start()
        assert dialling.wait(timeout=5)
        backend.close()
        dialler.join(timeout=5)
        assert not dialler.is_alive()
        assert [coordinator.open for coordinator in built] == [False]
        with pytest.raises(BackendError, match="closed"):
            backend._ensure_coordinator()


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


# ---------------------------------------------------------------------- #
# Worker daemon protocol behaviour (raw channel)
# ---------------------------------------------------------------------- #
def dial(daemon: WorkerDaemon) -> MessageChannel:
    sock = socket.create_connection(("127.0.0.1", daemon.port), timeout=5)
    return MessageChannel(sock)


def handshake(channel: MessageChannel) -> dict:
    channel.send(
        {"type": "hello", "protocol": PROTOCOL_VERSION, "heartbeat_interval": 30.0}
    )
    ack = channel.recv()
    assert ack is not None and ack["type"] == "hello_ack"
    return ack


def recv_skipping_heartbeats(channel: MessageChannel) -> dict:
    while True:
        message = channel.recv()
        assert message is not None, "worker closed the connection unexpectedly"
        if message["type"] != "heartbeat":
            return message


class TestWorkerDaemon:
    def test_hello_ack_carries_identity_and_capabilities(self, registry):
        with WorkerDaemon(name="wd-1", pipeline=ParsePipeline(registry)) as daemon:
            channel = dial(daemon)
            ack = handshake(channel)
            assert ack["worker_id"] == "wd-1"
            assert ack["protocol"] == PROTOCOL_VERSION
            assert ack["capabilities"]["cache"] is False
            channel.close()

    @pytest.mark.parametrize("gpu,tags", [(False, {}), (True, {"gpu": True})])
    def test_capabilities_are_slots_cache_and_the_gpu_tag(self, registry, gpu, tags):
        with WorkerDaemon(pipeline=ParsePipeline(registry), slots=2, gpu=gpu) as daemon:
            channel = dial(daemon)
            ack = handshake(channel)
            channel.close()
        assert ack["capabilities"] == {"slots": 2, "cache": False, "tags": tags}

    @pytest.mark.parametrize("slots", [0, -1])
    def test_a_worker_without_a_slot_is_refused(self, slots):
        # A worker with no slot thread would take shards and heartbeat
        # forever without running one.
        with pytest.raises(ValueError, match="slots must be a positive integer"):
            WorkerDaemon(slots=slots)

    def test_protocol_version_mismatch_refused(self, registry):
        with WorkerDaemon(pipeline=ParsePipeline(registry)) as daemon:
            channel = dial(daemon)
            channel.send({"type": "hello", "protocol": 999})
            reply = channel.recv()
            assert reply["type"] == "error"
            assert "version mismatch" in reply["message"]
            channel.close()

    def test_version_1_hello_is_refused(self, registry):
        """Version 2 removed message kinds a version-1 coordinator relies on,
        so the handshake refuses one."""
        assert PROTOCOL_VERSION == 3
        with WorkerDaemon(pipeline=ParsePipeline(registry)) as daemon:
            channel = dial(daemon)
            channel.send({"type": "hello", "protocol": 1})
            reply = channel.recv()
            channel.close()
        assert reply["type"] == "error"
        assert "version mismatch" in reply["message"]

    def test_version_2_hello_is_refused(self, registry):
        """Version 3 moved page texts out of the JSON, so a version-2
        coordinator could not read a ``batch_result``; the worker refuses it."""
        with WorkerDaemon(pipeline=ParsePipeline(registry)) as daemon:
            channel = dial(daemon)
            channel.send({"type": "hello", "protocol": 2})
            reply = channel.recv()
            channel.close()
        assert reply["type"] == "error"
        assert "version mismatch" in reply["message"]

    def test_non_hello_first_message_refused(self, registry):
        with WorkerDaemon(pipeline=ParsePipeline(registry)) as daemon:
            channel = dial(daemon)
            channel.send({"type": "submit_shard", "shard_id": "s0"})
            reply = channel.recv()
            assert reply["type"] == "error"
            channel.close()

    def test_unknown_parser_yields_shard_error(self, registry, corpus_30):
        from repro.cluster.coordinator import _Shard  # reuse hash computation

        with WorkerDaemon(pipeline=ParsePipeline(registry)) as daemon:
            channel = dial(daemon)
            handshake(channel)
            spec = WorkerSpec(parser="no-such-parser", fingerprint="f")
            shard = _Shard("s0", spec, [corpus_30.documents[0]])
            channel.send(_submit_message(shard, with_payloads=True))
            reply = recv_skipping_heartbeats(channel)
            assert reply["type"] == "shard_error"
            assert reply["code"] == "unknown_parser"
            channel.close()

    def test_fingerprint_mismatch_refused(self, registry, corpus_30):
        from repro.cluster.coordinator import _Shard

        with WorkerDaemon(pipeline=ParsePipeline(registry)) as daemon:
            channel = dial(daemon)
            handshake(channel)
            spec = WorkerSpec(parser="pymupdf", fingerprint="definitely-wrong")
            shard = _Shard("s0", spec, [corpus_30.documents[0]])
            channel.send(_submit_message(shard, with_payloads=True))
            reply = recv_skipping_heartbeats(channel)
            assert reply["type"] == "shard_error"
            assert reply["code"] == "fingerprint_mismatch"
            channel.close()

    def test_descriptor_without_payload_or_ref_is_a_shard_error(self, registry, corpus_30):
        """A hash-only descriptor names content the worker was never sent."""
        from repro.cluster.coordinator import _Shard

        parser = registry.get("pymupdf")
        spec = WorkerSpec(parser="pymupdf", fingerprint=parser.config_fingerprint())
        with WorkerDaemon(pipeline=ParsePipeline(registry), cache=ParseCache()) as daemon:
            channel = dial(daemon)
            handshake(channel)
            shard = _Shard("s7", spec, list(corpus_30.documents[:3]))
            channel.send(_submit_message(shard, with_payloads=False))
            reply = recv_skipping_heartbeats(channel)
            channel.close()
            assert daemon.counters["shards_failed"] == 1
        assert (reply["type"], reply["shard_id"], reply["code"]) == (
            "shard_error", "s7", "bad_descriptor",
        )


class CountingTortoise(TortoiseParser):
    """A tortoise that records each parse and signals when the first began."""

    def __init__(self, sleep_seconds: float) -> None:
        super().__init__(sleep_seconds)
        self.parsed: list[str] = []
        self.started = threading.Event()

    def _parse_pages(self, document, rng):
        self.parsed.append(document.doc_id)
        self.started.set()
        return super()._parse_pages(document, rng)


class TestWorkerExactlyOnce:
    """The worker's shards meet its cache in ``run_cached_batch``, so the
    parent-side contract — a key is parsed once, later askers coalesce —
    holds across a worker's slots and inside one shard too."""

    @staticmethod
    def _setup(registry, document, sleep_seconds):
        from repro.cache import document_content_hash
        from repro.documents.simpdf import document_to_dict

        parser = CountingTortoise(sleep_seconds)
        daemon = WorkerDaemon(
            pipeline=ParsePipeline(registry, engines={"tortoise": parser}),
            cache=ParseCache(),
            slots=2,
        )
        spec = WorkerSpec(parser="tortoise", fingerprint=parser.config_fingerprint())
        descriptor = {
            "doc_id": document.doc_id,
            "content_hash": document_content_hash(document),
            "payload": document_to_dict(document),
        }
        return parser, daemon, spec, descriptor

    def test_overlapping_shards_parse_a_shared_document_once(self, registry, corpus_30):
        document = corpus_30.documents[0]
        parser, daemon, spec, descriptor = self._setup(registry, document, 0.3)
        outcomes = []
        with daemon:
            first = threading.Thread(
                target=lambda: outcomes.append(daemon.run_shard(spec, [descriptor]))
            )
            first.start()
            assert parser.started.wait(10)
            # The first shard is mid-parse: nothing is stored yet, so only
            # the single-flight lease can keep this one from parsing again.
            second = daemon.run_shard(spec, [descriptor])
            first.join(10)
        assert parser.parsed == [document.doc_id]
        assert second[2:] == (1, 0)  # a coalesced hit, no miss
        assert outcomes[0][2:] == (0, 1)
        assert second[0][0].page_texts == outcomes[0][0][0].page_texts
        assert daemon.counters["docs_parsed"] == 1
        assert daemon.counters["docs_from_cache"] == 1

    def test_one_hash_twice_in_a_shard_parses_once(self, registry, corpus_30):
        document = corpus_30.documents[1]
        parser, daemon, spec, descriptor = self._setup(registry, document, 0.0)
        with daemon:
            results, _, hits, misses = daemon.run_shard(spec, [descriptor, descriptor])
        assert parser.parsed == [document.doc_id]
        assert (hits, misses) == (1, 1)
        assert [r.doc_id for r in results] == [document.doc_id] * 2
        assert results[0].page_texts == results[1].page_texts


def _submit_message(shard, with_payloads: bool) -> dict:
    from repro.documents.simpdf import document_to_dict

    docs = []
    for document, content_hash in zip(shard.items, shard.content_hashes):
        descriptor = {"doc_id": document.doc_id, "content_hash": content_hash}
        if with_payloads:
            descriptor["payload"] = document_to_dict(document)
        docs.append(descriptor)
    return {
        "type": "submit_shard",
        "shard_id": shard.shard_id,
        "spec": shard.spec.to_json_dict(),
        "docs": docs,
    }


# ---------------------------------------------------------------------- #
# End-to-end execution on the remote backend
# ---------------------------------------------------------------------- #
class TestRemoteExecution:
    def test_matches_serial_and_reports_cluster_telemetry(self, registry, corpus_30):
        documents = list(corpus_30)
        workers = start_workers(2, pipeline=ParsePipeline(registry))
        try:
            remote = ParsePipeline(registry).run(
                request_for_documents(
                    "pymupdf",
                    documents,
                    batch_size=5,
                    backend="remote",
                    backend_options={"workers": addresses_of(workers)},
                )
            )
        finally:
            for worker in workers:
                worker.stop()
        serial = ParsePipeline(registry).run(
            request_for_documents("pymupdf", documents, batch_size=5)
        )
        assert [r.to_json_dict() for r in remote.results] == [
            r.to_json_dict() for r in serial.results
        ]
        execution = remote.execution
        assert execution.backend == "remote"
        assert execution.workers == 2
        assert execution.batches_completed == execution.batches_dispatched == 6
        extra = execution.extra
        assert extra["cluster_workers_seen"] == 2
        assert extra["cluster_workers_lost"] == 0
        assert extra["cluster_shards_reassigned"] == 0
        assert extra["cluster_bytes_sent"] > 0
        assert extra["cluster_bytes_received"] > 0

    def test_warm_worker_caches_skip_reparse(self, registry, corpus_30):
        documents = list(corpus_30)
        workers = start_workers(
            2, pipeline=ParsePipeline(registry), cache=ParseCache()
        )
        try:
            def run():
                return ParsePipeline(registry).run(
                    request_for_documents(
                        "pymupdf",
                        documents,
                        batch_size=5,
                        backend="remote",
                        backend_options={"workers": addresses_of(workers)},
                    )
                )

            cold = run()
            warm = run()
        finally:
            for worker in workers:
                worker.stop()
        cold_extra, warm_extra = cold.execution.extra, warm.execution.extra
        assert cold_extra["cluster_remote_cache_misses"] == len(documents)
        # Second run: the payloads cross again, and every document is
        # served from the workers' caches, by content hash.
        assert warm_extra["cluster_remote_cache_hits"] == len(documents)
        assert warm_extra["cluster_doc_payloads_sent"] == len(documents)
        assert sum(worker.counters["docs_parsed"] for worker in workers) == len(documents)
        serial = ParsePipeline(registry).run(
            request_for_documents("pymupdf", documents, batch_size=5)
        )
        assert result_dicts(cold) == result_dicts(warm) == result_dicts(serial)

    def test_rendezvous_placement_is_stable_across_runs(self, registry, corpus_30):
        documents = list(corpus_30)
        workers = start_workers(2, pipeline=ParsePipeline(registry))
        try:
            def run():
                return ParsePipeline(registry).run(
                    request_for_documents(
                        "pymupdf",
                        documents,
                        batch_size=5,
                        backend="remote",
                        backend_options={"workers": addresses_of(workers)},
                    )
                )

            run()
            first = [worker.counters["docs_parsed"] for worker in workers]
            assert sum(first) == len(documents)
            run()
            second = [
                worker.counters["docs_parsed"] - parsed
                for worker, parsed in zip(workers, first)
            ]
        finally:
            for worker in workers:
                worker.stop()
        # Same corpus, same batches, same worker identities → every shard
        # lands on the same worker again.
        assert second == first

    def test_balanced_placement_completes(self, registry, corpus_30):
        documents = list(corpus_30)
        workers = start_workers(2, pipeline=ParsePipeline(registry))
        try:
            report = ParsePipeline(registry).run(
                request_for_documents(
                    "pymupdf",
                    documents,
                    batch_size=5,
                    backend="remote",
                    backend_options={
                        "workers": addresses_of(workers),
                        "placement": "balanced",
                    },
                )
            )
        finally:
            for worker in workers:
                worker.stop()
        assert report.n_succeeded == len(documents)
        assert report.execution.extra["cluster_placement"] == "balanced"

    def test_oversized_shard_fails_alone_without_killing_workers(
        self, registry, corpus_30, monkeypatch
    ):
        from repro.cluster import protocol

        from repro.utils import wire

        monkeypatch.setattr(wire, "MAX_MESSAGE_BYTES", 64 * 1024)
        workers = start_workers(2, pipeline=ParsePipeline(registry))
        backend = create_backend("remote", {"workers": addresses_of(workers)})
        try:
            stub = backend.site(registry.get("pymupdf"))
            with pytest.raises(BackendError, match="protocol limit"):
                stub(list(corpus_30)[:20])  # one shard too fat for the wire
            # The refusal happened before any bytes were written: the
            # cluster survives and a reasonable shard still runs.
            results, _ = stub(list(corpus_30)[:1])
            assert len(results) == 1
            stats = backend.stats()
            assert stats.extra["cluster_workers_lost"] == 0
            assert stats.extra["cluster_shards_failed"] == 1
        finally:
            backend.close()
            for worker in workers:
                worker.stop()

    def test_no_reachable_workers_raises_backend_error(self, registry, corpus_30):
        # A port from the dynamic range with nothing listening on it.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(BackendError, match="no cluster workers reachable"):
            ParsePipeline(registry).run(
                request_for_documents(
                    "pymupdf",
                    list(corpus_30)[:4],
                    backend="remote",
                    backend_options={
                        "workers": f"127.0.0.1:{free_port}",
                        "connect_timeout": 1.0,
                    },
                )
            )

    def test_listen_on_a_busy_port_raises_backend_error_and_dials_again(
        self, registry, corpus_30
    ):
        from repro.cluster.coordinator import COORDINATOR_THREAD_PREFIX

        def coordinator_threads():
            return [
                thread.name
                for thread in threading.enumerate()
                if thread.name.startswith(COORDINATOR_THREAD_PREFIX)
            ]

        busy = socket.socket()
        busy.bind(("127.0.0.1", 0))
        busy.listen(1)
        port = busy.getsockname()[1]
        workers = start_workers(1, pipeline=ParsePipeline(registry))
        backend = create_backend(
            "remote", {"workers": addresses_of(workers), "listen": port}
        )
        try:
            with pytest.raises(BackendError, match=f"port {port}"):
                ParsePipeline(registry).execute(
                    request_for_documents("pymupdf", list(corpus_30)[:4]),
                    backend=backend,
                )
            assert coordinator_threads() == []
            # Nothing half-dialled was kept: once the port is free, the
            # next request dials again and its listener binds it.
            busy.close()
            report = ParsePipeline(registry).execute(
                request_for_documents("pymupdf", list(corpus_30)[:4]),
                backend=backend,
            )
            assert report.n_succeeded == 4
            assert backend._listener.port == port
        finally:
            busy.close()
            backend.close()
            for worker in workers:
                worker.stop()
        assert coordinator_threads() == []

    def test_duplicate_worker_names_rejected(self, registry, corpus_30):
        workers = [
            WorkerDaemon(name="twin", pipeline=ParsePipeline(registry)).start()
            for _ in range(2)
        ]
        try:
            backend = create_backend(
                "remote", {"workers": addresses_of(workers), "connect_timeout": 2.0}
            )
            coordinator = ClusterCoordinator(
                backend.addresses, connect_timeout=2.0
            ).connect()
            try:
                assert len(coordinator._links) == 1  # the twin was refused
            finally:
                coordinator.close()
                backend.close()
        finally:
            for worker in workers:
                worker.stop()


# ---------------------------------------------------------------------- #
# Fault tolerance
# ---------------------------------------------------------------------- #
class TestFaultTolerance:
    def test_killed_worker_mid_run_loses_and_duplicates_nothing(
        self, registry, corpus_30
    ):
        """The acceptance scenario: kill one worker mid-run.

        The run must complete on the survivor with exactly-once results
        (no lost documents, no duplicates, input order preserved) and
        ``completed + cancelled == dispatched`` accounting.  Not timing
        sensitive: the kill waits until the victim has work in hand, and
        death is detected by socket EOF, not by heartbeat expiry.
        """
        documents = list(corpus_30)
        workers = start_workers(2, pipeline=tortoise_pipeline(registry))
        pipeline = tortoise_pipeline(registry)
        request = request_for_documents(
            "tortoise",
            documents,
            batch_size=3,
            backend="remote",
            backend_options={"workers": addresses_of(workers)},
        )
        outcome: dict = {}

        def run():
            outcome["report"] = pipeline.run(request)

        thread = threading.Thread(target=run)
        thread.start()
        victim = workers[1]
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if victim.counters["docs_received"] or victim.counters["shards_completed"]:
                break
            time.sleep(0.005)
        else:
            pytest.fail("the victim worker never received a shard")
        victim.kill()
        thread.join(timeout=60)
        assert not thread.is_alive(), "run hung after the worker was killed"
        workers[0].stop()
        report = outcome["report"]
        assert report.n_succeeded == len(documents)
        assert [r.doc_id for r in report.results] == [d.doc_id for d in documents]
        execution = report.execution
        assert (
            execution.batches_completed + execution.batches_cancelled
            == execution.batches_dispatched
        )
        extra = execution.extra
        assert extra["cluster_workers_lost"] == 1
        assert extra["cluster_shards_reassigned"] >= 1
        # Exactly-once: every shard completed exactly one time from the
        # caller's point of view (late duplicates, if any, were dropped).
        assert extra["cluster_shards_completed"] == execution.batches_dispatched

    def test_death_detected_twice_requeues_once(self, registry, corpus_30):
        """Regression: a worker dying *between* heartbeat timeout and EOF.

        Both detection paths call ``_on_worker_death``; the ``link.alive``
        flip inside ``_reap_link_locked`` must make the second (and any
        later, e.g. the reader's EOF) a no-op — the orphaned shards are
        re-placed exactly once, never double-requeued.
        """
        pipeline = tortoise_pipeline(registry, 0.05)
        workers = start_workers(2, pipeline=tortoise_pipeline(registry, 0.05))
        spec = WorkerSpec.for_parser(pipeline.engines["tortoise"])
        coordinator = ClusterCoordinator(
            [w.address for w in workers], window=1
        ).connect()
        try:
            documents = list(corpus_30)[:16]
            futures = [
                coordinator.submit(spec, documents[i : i + 2])
                for i in range(0, len(documents), 2)
            ]
            victim_link = next(
                link
                for link in coordinator._links
                if link.backlog  # it holds shards to orphan
            )
            # Simulate the race: heartbeat-timeout path fires, then the
            # EOF path lands for the same link a moment later.
            coordinator._on_worker_death(victim_link, "no heartbeat for 15.0s")
            after_first = coordinator.counters["shards_reassigned"]
            assert after_first >= 1
            coordinator._on_worker_death(victim_link, "connection closed by worker")
            assert coordinator.counters["shards_reassigned"] == after_first
            assert coordinator.counters["workers_lost"] == 1
            # Every future still resolves exactly once on the survivor.
            outputs = [future.result(timeout=60) for future in futures]
            assert all(len(results) == 2 for results, _ in outputs)
            assert (
                coordinator.counters["shards_completed"]
                == coordinator.counters["shards_submitted"]
            )
        finally:
            coordinator.close()
            for worker in workers:
                worker.stop()

    def test_losing_every_worker_fails_the_run_not_hangs(self, registry, corpus_30):
        documents = list(corpus_30)[:12]
        workers = start_workers(1, pipeline=tortoise_pipeline(registry, 0.05))
        pipeline = tortoise_pipeline(registry, 0.05)
        request = request_for_documents(
            "tortoise",
            documents,
            batch_size=3,
            backend="remote",
            backend_options={"workers": addresses_of(workers)},
        )
        outcome: dict = {}

        def run():
            try:
                pipeline.run(request)
            except BaseException as exc:  # noqa: BLE001 - recorded for asserts
                outcome["error"] = exc

        thread = threading.Thread(target=run)
        thread.start()
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if workers[0].counters["docs_received"]:
                break
            time.sleep(0.005)
        workers[0].kill()
        thread.join(timeout=60)
        assert not thread.is_alive(), "run hung after the last worker died"
        assert isinstance(outcome.get("error"), BackendError)
        assert "no alive cluster workers" in str(outcome["error"])


# ---------------------------------------------------------------------- #
# Shared cache directories
# ---------------------------------------------------------------------- #
class TestSharedCacheDir:
    def test_workers_sharing_one_cache_dir_merge_additively(
        self, registry, corpus_30, tmp_path
    ):
        """Several workers on one ``--cache-dir`` are safe (merge-on-flush).

        Two workers parse disjoint halves of the corpus into caches backed
        by the *same* directory; both flush.  If a flush clobbered the
        other writer's entries, the warm re-run below would miss — instead
        every document must hit, from fresh worker processes with fresh
        cache instances over the same directory.
        """
        shared = tmp_path / "shared-cache"
        documents = list(corpus_30)

        def run(workers):
            return ParsePipeline(registry).run(
                request_for_documents(
                    "pymupdf",
                    documents,
                    batch_size=5,
                    backend="remote",
                    backend_options={"workers": addresses_of(workers)},
                )
            )

        cold_caches = [ParseCache(shared) for _ in range(2)]
        workers = [
            WorkerDaemon(
                name=f"shared-{i}", pipeline=ParsePipeline(registry), cache=cache
            ).start()
            for i, cache in enumerate(cold_caches)
        ]
        try:
            cold = run(workers)
        finally:
            for worker in workers:
                worker.stop()
        # Both parsed a share of the corpus...
        parsed = [worker.counters["docs_parsed"] for worker in workers]
        assert sum(parsed) == len(documents)
        assert all(count > 0 for count in parsed)
        # ...and both flush into the same directory without clobbering.
        for cache in cold_caches:
            cache.flush()

        warm_caches = [ParseCache(shared) for _ in range(2)]
        workers = [
            WorkerDaemon(
                name=f"shared-{i}", pipeline=ParsePipeline(registry), cache=cache
            ).start()
            for i, cache in enumerate(warm_caches)
        ]
        try:
            warm = run(workers)
        finally:
            for worker in workers:
                worker.stop()
        assert warm.execution.extra["cluster_remote_cache_hits"] == len(documents)
        assert warm.execution.extra["cluster_remote_cache_misses"] == 0
        assert [r.to_json_dict() for r in warm.results] == [
            r.to_json_dict() for r in cold.results
        ]


class TestWorkerState:
    """What a daemon keeps, and what of it survives the daemon."""

    def test_acknowledged_writing_shard_is_durable_before_the_worker_dies(
        self, registry, corpus_30, tmp_path
    ):
        source = write_pool(tmp_path / "pool", list(corpus_30)[:5])
        age_files(tmp_path / "pool")
        workers = start_workers(
            1, pipeline=ParsePipeline(registry), cache=ParseCache(tmp_path / "cache")
        )
        try:
            report = run_remote(registry, workers, source=source)
            assert report.n_succeeded == 5
            assert report.phases["cache.flush"]["calls"] == 1  # one shard, flushed there
        finally:
            workers[0].kill()  # no drain, no goodbye, no shutdown flush
        reopened = ParseCache(tmp_path / "cache")
        assert reopened.describe()["entries"] == 5
        assert len(reopened.refs) == 5
        assert len((tmp_path / "cache" / f"refs-v{CONTENT_HASH_SCHEME}.jsonl").read_bytes().splitlines()) == 5

    def test_stop_flushes_what_a_reading_shard_learned(self, registry, corpus_30, tmp_path):
        """An embedded daemon owes its cache directory what the CLI's
        shutdown used to: index lines staged under a policy that writes no
        entries reach disk when the daemon stops."""
        source = write_pool(tmp_path / "pool", list(corpus_30)[:5])
        age_files(tmp_path / "pool")
        workers = start_workers(
            1, pipeline=ParsePipeline(registry), cache=ParseCache(tmp_path / "cache")
        )
        try:
            run_remote(registry, workers, source=source, backend_options={"worker_cache": "read"})
            assert not (tmp_path / "cache" / f"refs-v{CONTENT_HASH_SCHEME}.jsonl").exists()
        finally:
            workers[0].stop()
        assert len(ParseCache(tmp_path / "cache").refs) == 5


# ---------------------------------------------------------------------- #
# The service and the CLI on top of the cluster
# ---------------------------------------------------------------------- #
class TestServiceAndCli:
    def test_parse_service_runs_on_a_remote_backend(self, registry, corpus_30):
        from repro.serve import ParseService, ServiceConfig

        documents = tuple(corpus_30)
        workers = start_workers(2, pipeline=ParsePipeline(registry))
        try:
            config = ServiceConfig(
                backend="remote",
                backend_options={"workers": addresses_of(workers)},
                max_active=3,
            )
            with ParseService(
                pipeline=ParsePipeline(registry, cache=ParseCache()), config=config
            ) as service:
                tickets = [
                    service.submit(
                        request_for_documents(
                            "pymupdf", documents, batch_size=5, cache="readwrite"
                        ),
                        client=f"client-{i}",
                    )
                    for i in range(3)
                ]
                reports = [ticket.result(timeout=120) for ticket in tickets]
        finally:
            for worker in workers:
                worker.stop()
        baseline = [
            r.to_json_dict() for r in reports[0].results
        ]
        for report in reports:
            assert report.n_succeeded == len(documents)
            assert [r.to_json_dict() for r in report.results] == baseline
            assert report.execution.backend == "remote"
        # One shared cache in front of one shared cluster: the corpus is
        # parsed once, later requests hit or coalesce.
        assert sum(r.cache.misses for r in reports) == len(documents)

    def test_cli_cluster_joins_existing_workers(self, registry, capsys):
        import json

        from repro.cli import main

        workers = start_workers(2, pipeline=ParsePipeline(registry))
        try:
            exit_code = main(
                [
                    "cluster",
                    "--workers-at",
                    addresses_of(workers),
                    "--documents",
                    "12",
                    "--batch-size",
                    "4",
                    "--seed",
                    "9",
                ]
            )
        finally:
            for worker in workers:
                worker.stop()
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_succeeded"] == 12
        assert payload["cluster"]["workers_seen"] == 2
        assert payload["cluster"]["shards_reassigned"] == 0

    def test_cli_cluster_unreachable_workers_exit_cleanly(self, capsys):
        from repro.cli import main

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(SystemExit, match="no cluster workers reachable"):
            main(
                [
                    "cluster",
                    "--workers-at",
                    f"127.0.0.1:{free_port}",
                    "--documents",
                    "4",
                ]
            )


# ---------------------------------------------------------------------- #
# By-reference execution: the worker reads its own documents
# ---------------------------------------------------------------------- #
def write_pool(directory, documents) -> str:
    """``documents`` as a SimPDF directory; returns its ``--source`` string."""
    writer = SimPdfWriter(directory)
    for document in documents:
        writer.write(document)
    return f"simpdf-dir:{directory}"


def age_files(directory, seconds: float = 60.0) -> None:
    """Backdate every file: the reference index trusts no stamp younger than 2 s."""
    then = time.time_ns() - int(seconds * 1e9)
    for path in Path(directory).iterdir():
        os.utime(path, ns=(then, then))


def record_frames(monkeypatch) -> list[dict]:
    """Every message any in-process channel sends from here on, in order."""
    frames: list[dict] = []
    send = MessageChannel.send

    def recording(self, message):
        frames.append(dict(message))
        return send(self, message)

    monkeypatch.setattr(MessageChannel, "send", recording)
    return frames


def of_type(frames: list[dict], kind: str) -> list[dict]:
    return [frame for frame in frames if frame.get("type") == kind]


def run_remote(registry, workers, pipeline=None, **request):
    request.setdefault("parser", "pymupdf")
    request.setdefault("batch_size", 5)
    options = {"workers": addresses_of(workers), **request.pop("backend_options", {})}
    return (pipeline or ParsePipeline(registry)).run(
        ParseRequest(backend="remote", backend_options=options, **request)
    )


def result_dicts(report) -> list[dict]:
    return [result.to_json_dict() for result in report.results]


class TestWorkerSpecFromParser:
    """The remote site is handed the parser and names it; nothing about the
    spec is recovered from a callable."""

    @pytest.mark.parametrize(
        "name,alpha", [("pymupdf", None), ("adaparse_ft", None), ("adaparse_ft", 0.2)]
    )
    def test_spec_from_a_parser_is_the_spec_the_parent_ships(
        self, registry, default_ft_engine, monkeypatch, name, alpha
    ):
        engines = {"adaparse_ft": default_ft_engine}
        pipeline = ParsePipeline(registry, engines=dict(engines))
        parser = pipeline.resolve_parser(name, alpha=alpha)
        spec = WorkerSpec.for_parser(parser, cache="read")
        assert spec == WorkerSpec(
            parser=name,
            fingerprint=parser.config_fingerprint(),
            alpha=None if name == "pymupdf" else (alpha or default_ft_engine.config.alpha),
            cache="read",
        )
        frames = record_frames(monkeypatch)
        workers = start_workers(1, pipeline=ParsePipeline(registry, engines=dict(engines)))
        try:
            report = run_remote(
                registry, workers, pipeline=pipeline, parser=name, alpha=alpha,
                source="synthetic:6?seed=3&min_pages=1&max_pages=1",
                backend_options={"worker_cache": "read"},
            )
        finally:
            for worker in workers:
                worker.stop()
        assert report.n_succeeded == 6
        shipped = [frame["spec"] for frame in of_type(frames, "submit_shard")]
        assert len(shipped) == 2 and all(s == spec.to_json_dict() for s in shipped)

    def test_parser_the_worker_cannot_name_fails_there_with_unknown_parser(
        self, registry, corpus_30
    ):
        workers = start_workers(1, pipeline=ParsePipeline(registry))
        backend = create_backend("remote", {"workers": addresses_of(workers)})
        try:
            stub = backend.site(TortoiseParser(0.0))  # on nobody's registry
            with pytest.raises(BackendError, match=r"\[unknown_parser\]"):
                stub(list(corpus_30)[:1])
            assert backend.stats().extra["cluster_shards_failed"] == 1
        finally:
            backend.close()
            for worker in workers:
                worker.stop()


class TestByReference:
    def test_reference_frames_carry_no_document(self, registry, monkeypatch):
        source = "synthetic:10?seed=3&min_pages=1&max_pages=1"
        frames = record_frames(monkeypatch)
        workers = start_workers(2, pipeline=ParsePipeline(registry))
        try:
            report = run_remote(registry, workers, source=source)
        finally:
            for worker in workers:
                worker.stop()
        refs = list(ParseRequest(source=source).resolve_source().refs())
        descriptors = [
            descriptor
            for frame in of_type(frames, "submit_shard")
            for descriptor in frame["docs"]
        ]
        assert sorted(descriptors, key=lambda d: int(d["ref"]["locator"])) == [
            {"content_hash": ref.key(), "ref": ref.to_json_dict()} for ref in refs
        ]
        assert not of_type(frames, "shard_error")
        assert report.n_succeeded == 10

    @pytest.mark.parametrize(
        "fields",
        [
            {"cache": "readwrite"},
            {"source": "explicit"},
        ],
        ids=["parent-cache", "explicit"],
    )
    def test_requests_that_are_not_referenceable_get_todays_frames(
        self, registry, corpus_30, monkeypatch, fields
    ):
        fields = {"source": "synthetic:6?seed=3&min_pages=1&max_pages=1", **fields}
        if fields["source"] == "explicit":
            fields["source"] = ExplicitSource(list(corpus_30)[:6])
        frames = record_frames(monkeypatch)
        workers = start_workers(1, pipeline=ParsePipeline(registry))
        try:
            report = run_remote(
                registry, workers, pipeline=ParsePipeline(registry, cache=ParseCache()),
                **fields,
            )
        finally:
            workers[0].stop()
        descriptors = [d for frame in of_type(frames, "submit_shard") for d in frame["docs"]]
        assert len(descriptors) == report.n_documents > 0
        assert all(set(d) == {"doc_id", "content_hash", "payload"} for d in descriptors)
        extra = report.execution.extra
        assert extra["cluster_doc_refs_sent"] == 0
        assert extra["cluster_doc_payloads_sent"] == report.n_documents
        # A cached request over a reference-able source reads its misses in
        # the parent (and ships them inline); nothing else loads by reference.
        assert ("source.load" in report.phases) == (report.request.cache == "readwrite")

    def test_worker_that_cannot_see_the_directory_falls_back_once(
        self, registry, corpus_30, tmp_path, monkeypatch
    ):
        """The daemon's host has no such directory: its first shard bounces
        once (``unresolved_reference``) and is re-sent with payloads, and from
        then on the link is sent documents — no probe, no second bounce."""
        import repro.documents.sources as sources_module

        def not_mounted_here(spec):
            return create_source(
                SourceSpec(spec.kind, {**spec.options, "path": str(tmp_path / "not-mounted")})
            )

        # Where a worker reads (`load_items`); the coordinator's fallback
        # read holds its own name for `create_source` and still sees the pool.
        source = write_pool(tmp_path / "pool", list(corpus_30)[:15])
        serial = ParsePipeline(registry).run(ParseRequest(source=source, batch_size=5))
        monkeypatch.setattr(sources_module, "create_source", not_mounted_here)
        frames = record_frames(monkeypatch)
        workers = start_workers(1, pipeline=ParsePipeline(registry))
        try:
            report = run_remote(
                registry, workers, source=source, backend_options={"window": 1}
            )
        finally:
            workers[0].stop()
        assert result_dicts(report) == result_dicts(serial)
        first, *later = of_type(frames, "submit_shard")
        assert all("ref" in d and "payload" not in d for d in first["docs"])
        (bounce,) = of_type(frames, "shard_error")
        assert bounce["shard_id"] == first["shard_id"]
        assert bounce["code"] == "unresolved_reference"
        assert later[0]["shard_id"] == first["shard_id"]
        assert len(later) == 3
        assert all("payload" in d and "ref" not in d for s in later for d in s["docs"])
        # Five references crossed once; all fifteen documents then went inline.
        extra = report.execution.extra
        assert (extra["cluster_doc_refs_sent"], extra["cluster_doc_payloads_sent"]) == (5, 15)
        assert (extra["cluster_shards_failed"], extra["cluster_shards_reassigned"]) == (0, 0)
        assert workers[0].counters["docs_loaded"] == 0
        assert workers[0].counters["docs_received"] == 15
        assert workers[0].counters["shards_failed"] == 0

    def test_file_rewritten_after_planning_takes_the_same_fallback(
        self, registry, corpus_30, tmp_path
    ):
        documents = list(corpus_30)[:4]
        source = ParseRequest(source=write_pool(tmp_path / "pool", documents)).source
        refs = list(source.refs())
        # Between planning and loading, one file is replaced by another document.
        replacement = dataclasses.replace(corpus_30.documents[20], doc_id=documents[2].doc_id)
        SimPdfWriter(tmp_path / "pool").write(replacement)
        current = list(source.iter_documents())
        assert current[2] == replacement and current != documents

        parser = registry.get("pymupdf")
        workers = start_workers(1, pipeline=ParsePipeline(registry))
        coordinator = ClusterCoordinator([workers[0].address]).connect()
        try:
            spec = WorkerSpec.for_parser(parser)
            results, _ = coordinator.submit(spec, refs).result(timeout=60)
            counters = dict(coordinator.counters)
            (link,) = coordinator._links
            assert link.takes_refs is False
        finally:
            coordinator.close()
            workers[0].stop()
        # The shard bounced and was re-sent with what the files hold now.
        assert [r.to_json_dict() for r in results] == [
            r.to_json_dict() for r in parser.parse_many(current)
        ]
        assert (counters["doc_refs_sent"], counters["doc_payloads_sent"]) == (4, 4)
        assert (counters["shards_failed"], counters["shards_reassigned"]) == (0, 0)
        assert workers[0].counters["docs_received"] == 4

    def test_a_second_bounce_fails_the_shard(self, registry, monkeypatch):
        """A shard the link already re-sent with payloads cannot go back for
        payloads again: a second ``unresolved_reference`` fails it."""
        from repro.cluster.coordinator import ClusterError
        from repro.cluster.worker import SpecError

        def never_resolves(self, spec, descriptors):
            raise SpecError("unresolved_reference", "nothing resolves here")

        monkeypatch.setattr(WorkerDaemon, "run_shard", never_resolves)
        frames = record_frames(monkeypatch)
        refs = list(ParseRequest(source="synthetic:2?seed=3").resolve_source().refs())
        workers = start_workers(1, pipeline=ParsePipeline(registry))
        coordinator = ClusterCoordinator([workers[0].address]).connect()
        try:
            future = coordinator.submit(WorkerSpec.for_parser(registry.get("pymupdf")), refs)
            with pytest.raises(ClusterError, match=r"\[unresolved_reference\]"):
                future.result(timeout=60)
            counters = dict(coordinator.counters)
        finally:
            coordinator.close()
            workers[0].stop()
        assert len(of_type(frames, "submit_shard")) == len(of_type(frames, "shard_error")) == 2
        assert (counters["doc_refs_sent"], counters["doc_payloads_sent"]) == (2, 2)
        assert (counters["shards_failed"], counters["shards_reassigned"]) == (1, 0)

    @pytest.mark.parametrize(
        "broken,message",
        [
            ({"locator": "../outside.simpdf"}, "does not name a file under"),
            ({"locator": "/etc/hostname"}, "does not name a file under"),
            ({"source": {"kind": "pickle-file", "options": {}}}, "unknown document source"),
            (
                {"source": {"kind": "simpdf-dir", "options": {"path": ".", "follow": True}}},
                "unknown option 'follow'",
            ),
        ],
    )
    def test_bad_reference_is_a_shard_error_not_a_read(
        self, registry, corpus_30, tmp_path, broken, message
    ):
        source = ParseRequest(
            source=write_pool(tmp_path / "root" / "pool", list(corpus_30)[:1])
        ).source
        write_pool(tmp_path / "root", [corpus_30.documents[1]])  # readable, and outside
        (tmp_path / "root" / f"{corpus_30.documents[1].doc_id}.simpdf").rename(
            tmp_path / "root" / "outside.simpdf"
        )
        (ref,) = source.refs()
        parser = registry.get("pymupdf")
        with WorkerDaemon(pipeline=ParsePipeline(registry)) as daemon:
            channel = dial(daemon)
            handshake(channel)
            channel.send(
                {
                    "type": "submit_shard",
                    "shard_id": "s0",
                    "spec": WorkerSpec("pymupdf", parser.config_fingerprint()).to_json_dict(),
                    "docs": [{"content_hash": "k", "ref": {**ref.to_json_dict(), **broken}}],
                }
            )
            reply = recv_skipping_heartbeats(channel)
            channel.close()
            assert daemon.counters["docs_loaded"] == 0
        assert (reply["type"], reply["code"]) == ("shard_error", "bad_reference")
        assert message in reply["error"]

    def test_cache_carrying_worker_reads_a_reference_once(
        self, registry, corpus_30, tmp_path
    ):
        documents = list(corpus_30)[:10]
        source = write_pool(tmp_path / "pool", documents)
        age_files(tmp_path / "pool")
        workers = start_workers(1, pipeline=ParsePipeline(registry), cache=ParseCache())
        try:
            cold = run_remote(registry, workers, source=source)
            warm = run_remote(registry, workers, source=source)
            inline = run_remote(registry, workers, source=ExplicitSource(documents))
        finally:
            workers[0].stop()
        assert cold.execution.extra["cluster_remote_cache_misses"] == 10
        assert warm.execution.extra["cluster_remote_cache_hits"] == 10
        # The cache saved the parses and, through its reference index, the
        # reads: the warm shards resolved every reference without its file ...
        assert workers[0].counters["docs_parsed"] == 10
        assert workers[0].counters["docs_loaded"] == 10
        assert "source.load" in cold.phases and "source.load" not in warm.phases
        # ... and it is keyed by content, not by reference: the same documents
        # sent inline hit the entries the references made.
        assert inline.execution.extra["cluster_remote_cache_hits"] == 10
        assert workers[0].counters["docs_parsed"] == 10
        assert result_dicts(inline) == result_dicts(cold) == result_dicts(warm)

    def test_cache_carrying_worker_rereads_a_file_too_young_to_trust(
        self, registry, corpus_30, tmp_path
    ):
        """Files written a moment ago are racily clean: the worker's index
        does not remember them, so the warm run reads (and hits) again."""
        source = write_pool(tmp_path / "pool", list(corpus_30)[:6])
        workers = start_workers(1, pipeline=ParsePipeline(registry), cache=ParseCache())
        try:
            run_remote(registry, workers, source=source)
            warm = run_remote(registry, workers, source=source)
        finally:
            workers[0].stop()
        assert warm.execution.extra["cluster_remote_cache_hits"] == 6
        assert workers[0].counters["docs_loaded"] == 12
        assert len(workers[0].cache.refs) == 0

    def test_known_reference_whose_entry_is_gone_is_read_on_demand_or_asked_for(
        self, registry, corpus_30, tmp_path
    ):
        """The index answers, the entry is gone: the worker reads just that
        file again — and when the file is gone too, bounces the shard."""
        from repro.cluster.worker import SpecError

        source = write_pool(tmp_path / "pool", list(corpus_30)[:5])
        age_files(tmp_path / "pool")
        refs = list(ParseRequest(source=source).resolve_source().refs())
        descriptors = [{"content_hash": ref.key(), "ref": ref.to_json_dict()} for ref in refs]
        spec = WorkerSpec.for_parser(registry.get("pymupdf"))
        cache = ParseCache()
        with WorkerDaemon(pipeline=ParsePipeline(registry), cache=cache) as daemon:
            cold, _, hits, misses = daemon.run_shard(spec, descriptors)
            assert (hits, misses, daemon.counters["docs_loaded"]) == (0, 5, 5)
            cache.memory.discard(str(parse_cache_key(list(corpus_30)[2], spec.fingerprint)))
            again, _, hits, misses = daemon.run_shard(spec, descriptors)
            assert (hits, misses, daemon.counters["docs_loaded"]) == (4, 1, 6)
            cache.memory.clear()
            (tmp_path / "pool" / refs[3].locator).unlink()
            with pytest.raises(SpecError, match=refs[3].locator) as caught:
                daemon.run_shard(spec, descriptors)
            assert caught.value.code == "unresolved_reference"
            # Nothing is left half-done: the next shard does not wait on a
            # flight the failed one opened.
            assert cache.flights.in_flight() == 0
        assert [r.to_json_dict() for r in again] == [r.to_json_dict() for r in cold]

    @pytest.mark.parametrize("with_cache", [False, True])
    def test_a_shard_may_mix_payloads_and_references(
        self, registry, corpus_30, tmp_path, with_cache
    ):
        """Each descriptor is decoded on its own: a shard holding both kinds
        loads only the references and answers in descriptor order."""
        documents = list(corpus_30)[:4]
        source = write_pool(tmp_path / "pool", documents)
        refs = list(ParseRequest(source=source).resolve_source().refs())
        descriptors = [
            {"content_hash": ref.key(), "ref": ref.to_json_dict()}
            if i % 2
            else {
                "doc_id": document.doc_id,
                "content_hash": document_content_hash(document),
                "payload": document_to_dict(document),
            }
            for i, (document, ref) in enumerate(zip(documents, refs))
        ]
        parser = registry.get("pymupdf")
        cache = ParseCache() if with_cache else None
        with WorkerDaemon(pipeline=ParsePipeline(registry), cache=cache) as daemon:
            results, _, hits, misses = daemon.run_shard(
                WorkerSpec.for_parser(parser), descriptors
            )
            counters = dict(daemon.counters)
        assert [r.to_json_dict() for r in results] == [
            r.to_json_dict() for r in parser.parse_many(documents)
        ]
        assert (hits, misses) == (0, 4)
        assert (counters["docs_received"], counters["docs_loaded"]) == (2, 2)

    def test_killed_worker_mid_run_replaces_reference_shards_exactly_once(
        self, registry
    ):
        source = "synthetic:30?seed=11&min_pages=1&max_pages=2"
        started = threading.Event()
        workers = [
            WorkerDaemon(name="test-worker-0", pipeline=tortoise_pipeline(registry)).start(),
            WorkerDaemon(
                name="test-worker-1", pipeline=tortoise_pipeline(registry, started=started)
            ).start(),
        ]
        outcome: dict = {}

        def run():
            outcome["report"] = run_remote(
                registry, workers, pipeline=tortoise_pipeline(registry),
                parser="tortoise", source=source, batch_size=3,
            )

        thread = threading.Thread(target=run)
        thread.start()
        victim = workers[1]
        # `docs_loaded` moves when a shard's reads are known to have
        # succeeded; mid-shard is when the victim's parser has started.
        if not started.wait(20):
            pytest.fail("the victim worker never started a by-reference shard")
        # A shard takes 90 ms: let the first window's sends (≈1 ms) all land,
        # as they had by the time the old signal — a document loaded — fired.
        time.sleep(0.02)
        victim.kill()
        thread.join(timeout=60)
        assert not thread.is_alive(), "run hung after the worker was killed"
        workers[0].stop()
        report = outcome["report"]
        serial = tortoise_pipeline(registry, 0.0).run(
            ParseRequest(parser="tortoise", source=source, batch_size=3)
        )
        assert [r.page_texts for r in report.results] == [
            r.page_texts for r in serial.results
        ]
        execution = report.execution
        assert (
            execution.batches_completed + execution.batches_cancelled
            == execution.batches_dispatched
        )
        extra = execution.extra
        assert extra["cluster_workers_lost"] == 1
        assert extra["cluster_shards_reassigned"] >= 1
        assert extra["cluster_shards_completed"] == execution.batches_dispatched
        # Re-placed shards went out as references again, never as payloads.
        assert extra["cluster_doc_payloads_sent"] == 0
        assert extra["cluster_doc_refs_sent"] >= 30 + 3 * extra["cluster_shards_reassigned"]

    def test_ledger_resume_replays_reference_shards_and_redispatches_a_changed_one(
        self, registry, corpus_30, tmp_path
    ):
        source = write_pool(tmp_path / "pool", list(corpus_30)[:12])
        options = {"ledger_dir": str(tmp_path / "ledger")}
        workers = start_workers(2, pipeline=ParsePipeline(registry))
        try:
            def run():
                report = run_remote(
                    registry, workers, source=source, batch_size=4, backend_options=options
                )
                extra = report.execution.extra
                return report, extra["cluster_shards_replayed"], extra["cluster_doc_refs_sent"]

            first, replayed, refs_sent = run()
            assert (replayed, refs_sent) == (0, 12)
            resumed, replayed, refs_sent = run()
            assert (replayed, refs_sent) == (3, 0)
            # Touch one file: same bytes, new stamp — its shard (and only its
            # shard) is no longer the shard the ledger recorded.
            path = sorted((tmp_path / "pool").glob("*.simpdf"))[5]
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
            touched, replayed, refs_sent = run()
            assert (replayed, refs_sent) == (2, 4)
        finally:
            for worker in workers:
                worker.stop()
        assert result_dicts(first) == result_dicts(resumed) == result_dicts(touched)

    def test_submit_hashes_outside_the_coordinator_lock(
        self, registry, corpus_30, monkeypatch
    ):
        """Every reader thread's result handling takes the lock; building a
        shard hashes each inline document and must not hold it meanwhile."""
        import repro.cluster.coordinator as coordinator_module

        workers = start_workers(1, pipeline=ParsePipeline(registry))
        coordinator = ClusterCoordinator([workers[0].address]).connect()
        held = []

        def watched_hash(document):
            held.append(coordinator._lock.locked())
            return document_content_hash(document)

        monkeypatch.setattr(coordinator_module, "document_content_hash", watched_hash)
        try:
            spec = WorkerSpec.for_parser(registry.get("pymupdf"))
            coordinator.submit(spec, list(corpus_30)[:3]).result(timeout=60)
        finally:
            coordinator.close()
            workers[0].stop()
        assert held == [False, False, False]


# ---------------------------------------------------------------------- #
# Trace ids on the wire: the run's id out, nothing span-shaped back
# ---------------------------------------------------------------------- #
class TestTraceIdOnFrames:
    def test_shard_frames_carry_the_callers_trace_id_alone(
        self, registry, monkeypatch
    ):
        from repro.obs import tracing
        from repro.obs.tracing import TraceContext

        frames = record_frames(monkeypatch)
        workers = start_workers(2, pipeline=ParsePipeline(registry))
        context = TraceContext.new()
        try:
            with tracing.activate(context):
                report = run_remote(
                    registry,
                    workers,
                    source="synthetic:10?seed=3&min_pages=1&max_pages=1",
                )
        finally:
            for worker in workers:
                worker.stop()
        assert report.n_succeeded == 10
        shards = of_type(frames, "submit_shard")
        assert len(shards) == 2
        assert all(frame["trace"] == context.to_json_dict() for frame in shards)
        results = of_type(frames, "batch_result")
        assert len(results) == 2 and not any("spans" in frame for frame in results)

    def test_disabled_stamping_sends_no_trace_field(self, registry, monkeypatch):
        from repro.obs import tracing

        frames = record_frames(monkeypatch)
        workers = start_workers(1, pipeline=ParsePipeline(registry))
        tracing.set_enabled(False)
        try:
            report = run_remote(
                registry, workers, source="synthetic:5?seed=3&min_pages=1&max_pages=1"
            )
        finally:
            tracing.set_enabled(True)
            for worker in workers:
                worker.stop()
        assert report.n_succeeded == 5
        (shard,) = of_type(frames, "submit_shard")
        assert "trace" not in shard
