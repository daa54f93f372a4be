"""Membership tests: worker states, and live join/leave on a real coordinator."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.cluster import protocol
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.membership import MembershipListener
from repro.cluster.protocol import MessageChannel
from repro.cluster.worker import WorkerDaemon
from repro.parsers.registry import default_registry
from repro.pipeline import ParsePipeline
from tests.cluster.test_constrained_placement import GateParser


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def _announce(address: str, message: dict) -> dict:
    host, _, port = address.rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=5.0)
    channel = MessageChannel(sock)
    try:
        channel.send(message)
        reply = channel.recv()
    finally:
        channel.close()
    assert reply is not None
    return reply


def _wait_for(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    pytest.fail(f"timed out waiting for {message}")


def _states(coordinator) -> dict[str, str]:
    return {w["worker_id"]: w["state"] for w in coordinator.workers()}


class TestWorkerStates:
    """``workers()[].state`` follows each link: alive, draining, left, dead."""

    def test_drain_then_leave(self, registry):
        from repro.cluster.protocol import WorkerSpec
        from repro.documents.corpus import CorpusConfig, build_corpus

        gate = threading.Event()
        pipeline = ParsePipeline(registry)
        pipeline.engines["gate"] = GateParser(gate)
        workers = [
            WorkerDaemon(name=f"s-{i}", pipeline=pipeline).start() for i in range(2)
        ]
        documents = list(build_corpus(CorpusConfig(n_documents=1, seed=2, min_pages=1, max_pages=1)))
        spec = WorkerSpec.for_parser(pipeline.engines["gate"])
        coordinator = ClusterCoordinator([w.address for w in workers]).connect()
        try:
            future = coordinator.submit(spec, documents)
            busy = next(w["worker_id"] for w in coordinator.workers() if w["in_flight"])
            idle = "s-1" if busy == "s-0" else "s-0"
            assert _states(coordinator) == {"s-0": "alive", "s-1": "alive"}
            coordinator.remove_worker(busy)
            # Its in-flight shard holds the goodbye back: still draining.
            assert _states(coordinator) == {busy: "draining", idle: "alive"}
            gate.set()
            future.result(timeout=30)
            _wait_for(lambda: _states(coordinator)[busy] == "left", message="leave")
            assert _states(coordinator) == {busy: "left", idle: "alive"}
            assert coordinator.counters["workers_left"] == 1
            assert coordinator.counters["workers_lost"] == 0
        finally:
            gate.set()
            coordinator.close()
            for worker in workers:
                worker.stop()

    def test_death_is_recorded_once(self, registry):
        from repro.cluster.coordinator import ClusterError

        workers = [
            WorkerDaemon(name=f"d-{i}", pipeline=ParsePipeline(registry)).start()
            for i in range(2)
        ]
        coordinator = ClusterCoordinator([w.address for w in workers]).connect()
        try:
            workers[1].kill()
            _wait_for(lambda: _states(coordinator)["d-1"] == "dead", message="death")
            link = next(link for link in coordinator._links if link.worker_id == "d-1")
            coordinator._on_worker_death(link, "second detection path")
            with pytest.raises(ClusterError, match="no alive worker"):
                coordinator.remove_worker("d-1")  # a dead worker cannot also leave
            assert _states(coordinator) == {"d-0": "alive", "d-1": "dead"}
            assert coordinator.counters["workers_lost"] == 1
            assert coordinator.counters["workers_left"] == 0
        finally:
            coordinator.close()
            for worker in workers:
                worker.stop()

    def test_every_admitted_worker_stays_listed(self, registry):
        fixed = WorkerDaemon(name="l-0", pipeline=ParsePipeline(registry)).start()
        joiner = WorkerDaemon(name="l-1", pipeline=ParsePipeline(registry),
                              slots=2).start()
        coordinator = ClusterCoordinator([fixed.address]).connect()
        try:
            coordinator.add_worker(joiner.address)
            joiner.kill()
            _wait_for(lambda: _states(coordinator)["l-1"] == "dead", message="death")
            workers = {w["worker_id"]: w for w in coordinator.workers()}
            assert workers["l-0"]["source"] == "fixed"
            assert workers["l-1"]["source"] == "join"
            assert workers["l-1"]["capabilities"]["slots"] == 2
            assert workers["l-1"]["address"] == joiner.address
            assert _states(coordinator) == {"l-0": "alive", "l-1": "dead"}
        finally:
            coordinator.close()
            fixed.stop()
            joiner.stop()


class TestMembershipListener:
    def test_worker_joins_a_running_coordinator(self, registry, monkeypatch):
        from repro.utils import rpc

        fixed = WorkerDaemon(name="fixed-0", pipeline=ParsePipeline(registry)).start()
        joiner = WorkerDaemon(name="joiner-0", pipeline=ParsePipeline(registry),
                              gpu=True).start()
        coordinator = ClusterCoordinator([fixed.address]).connect()
        listener = MembershipListener(coordinator).start()
        call, sent = rpc.call, []
        monkeypatch.setattr(rpc, "call", lambda address, message, timeout: (
            sent.append(message) or call(address, message, timeout)
        ))
        try:
            worker_id = joiner.join(listener.address, retries=3)
            assert worker_id == "joiner-0"
            workers = {w["worker_id"]: w for w in coordinator.workers()}
            assert workers["joiner-0"]["alive"]
            assert workers["joiner-0"]["state"] == "alive"
            assert workers["joiner-0"]["source"] == "join"
            # Identity and capabilities arrive by the dial-back hello_ack, not
            # the join.
            assert workers["joiner-0"]["capabilities"]["tags"] == {"gpu": True}
            assert [sorted(message) for message in sent] == [["address", "protocol", "type"]]
            assert coordinator.counters["workers_seen"] == 2
        finally:
            listener.stop()
            coordinator.close()
            fixed.stop()
            joiner.stop()

    def test_leave_drains_gracefully_not_as_a_death(self, registry):
        workers = [
            WorkerDaemon(name=f"m-{i}", pipeline=ParsePipeline(registry)).start()
            for i in range(2)
        ]
        coordinator = ClusterCoordinator([w.address for w in workers]).connect()
        listener = MembershipListener(coordinator).start()
        try:
            assert workers[1].leave(listener.address)
            # The leave lands when the drained worker's goodbye is read.
            _wait_for(
                lambda: _states(coordinator)["m-1"] == "left",
                message="graceful leave to be recorded",
            )
            assert coordinator.counters["workers_left"] == 1
            assert coordinator.counters["workers_lost"] == 0
            assert coordinator.stats()["workers_alive"] == 1
        finally:
            listener.stop()
            coordinator.close()
            for worker in workers:
                worker.stop()

    def test_join_with_wrong_protocol_version_refused(self, registry):
        fixed = WorkerDaemon(pipeline=ParsePipeline(registry)).start()
        coordinator = ClusterCoordinator([fixed.address]).connect()
        listener = MembershipListener(coordinator).start()
        try:
            reply = _announce(
                listener.address,
                {"type": protocol.JOIN, "protocol": 999, "address": "127.0.0.1:1"},
            )
            assert reply["type"] == protocol.JOIN_ACK
            assert reply["accepted"] is False
            assert "version mismatch" in reply["message"]
        finally:
            listener.stop()
            coordinator.close()
            fixed.stop()

    def test_join_with_unreachable_worker_refused(self, registry):
        fixed = WorkerDaemon(pipeline=ParsePipeline(registry)).start()
        coordinator = ClusterCoordinator(
            [fixed.address], connect_timeout=1.0
        ).connect()
        listener = MembershipListener(coordinator).start()
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        try:
            reply = _announce(
                listener.address,
                {
                    "type": protocol.JOIN,
                    "protocol": protocol.PROTOCOL_VERSION,
                    "address": f"127.0.0.1:{free_port}",
                },
            )
            assert reply["accepted"] is False
            assert coordinator.counters["workers_seen"] == 1
        finally:
            listener.stop()
            coordinator.close()
            fixed.stop()

    def test_join_that_races_close_is_refused_and_leaks_no_link(
        self, registry, monkeypatch
    ):
        # add_worker dials outside the coordinator lock; a close() that
        # lands during the handshake must not let the link in afterwards.
        from repro.cluster.coordinator import COORDINATOR_THREAD_PREFIX, ClusterError
        from repro.utils import rpc

        fixed = WorkerDaemon(name="w0", pipeline=ParsePipeline(registry)).start()
        joiner = WorkerDaemon(name="w1", pipeline=ParsePipeline(registry)).start()
        coordinator = ClusterCoordinator([fixed.address]).connect()
        handshake = rpc.handshake
        channels = []

        def handshake_then_close(channel, *args, **kwargs):
            ack = handshake(channel, *args, **kwargs)
            channels.append(channel)
            coordinator.close()
            return ack

        monkeypatch.setattr(rpc, "handshake", handshake_then_close)
        try:
            with pytest.raises(ClusterError, match="coordinator is closed"):
                coordinator.add_worker(joiner.address)
            (channel,) = channels
            assert channel.closed
            assert [link.worker_id for link in coordinator._links] == ["w0"]
            assert list(_states(coordinator)) == ["w0"]
            reader = f"{COORDINATOR_THREAD_PREFIX}-reader-w1"
            assert reader not in {thread.name for thread in threading.enumerate()}
        finally:
            coordinator.close()
            fixed.stop()
            joiner.stop()

    def test_join_after_close_is_refused_without_dialling(
        self, registry, monkeypatch
    ):
        from repro.cluster.coordinator import ClusterError
        from repro.utils import rpc

        fixed = WorkerDaemon(name="w0", pipeline=ParsePipeline(registry)).start()
        joiner = WorkerDaemon(name="w1", pipeline=ParsePipeline(registry)).start()
        coordinator = ClusterCoordinator([fixed.address]).connect()
        coordinator.close()
        dialled = []
        monkeypatch.setattr(rpc, "dial", lambda *args: dialled.append(args))
        try:
            with pytest.raises(ClusterError, match="coordinator is closed"):
                coordinator.add_worker(joiner.address)
            assert dialled == []
            assert list(_states(coordinator)) == ["w0"]
        finally:
            fixed.stop()
            joiner.stop()

    def test_join_announced_after_close_is_answered_not_accepted(self, registry):
        fixed = WorkerDaemon(name="w0", pipeline=ParsePipeline(registry)).start()
        joiner = WorkerDaemon(name="w1", pipeline=ParsePipeline(registry)).start()
        coordinator = ClusterCoordinator([fixed.address]).connect()
        listener = MembershipListener(coordinator).start()
        try:
            coordinator.close()
            reply = _announce(
                listener.address,
                {
                    "type": protocol.JOIN,
                    "protocol": protocol.PROTOCOL_VERSION,
                    "address": joiner.address,
                },
            )
            assert reply["type"] == protocol.JOIN_ACK
            assert reply["accepted"] is False
            assert "coordinator is closed" in reply["message"]
            assert coordinator.counters["workers_seen"] == 1
        finally:
            listener.stop()
            coordinator.close()
            fixed.stop()
            joiner.stop()

    def test_leave_of_unknown_worker_refused(self, registry):
        fixed = WorkerDaemon(pipeline=ParsePipeline(registry)).start()
        coordinator = ClusterCoordinator([fixed.address]).connect()
        listener = MembershipListener(coordinator).start()
        try:
            reply = _announce(
                listener.address, {"type": protocol.LEAVE, "worker_id": "nobody"}
            )
            assert reply["type"] == protocol.LEAVE_ACK
            assert reply["accepted"] is False
        finally:
            listener.stop()
            coordinator.close()
            fixed.stop()

    def test_status_reports_counters_and_worker_states(self, registry):
        fixed = WorkerDaemon(name="st-0", pipeline=ParsePipeline(registry)).start()
        coordinator = ClusterCoordinator([fixed.address]).connect()
        listener = MembershipListener(coordinator).start()
        try:
            reply = _announce(listener.address, {"type": protocol.STATUS})
            assert reply["type"] == protocol.STATUS_RESULT
            assert reply["counters"]["workers_seen"] == 1
            assert reply["workers"][0]["worker_id"] == "st-0"
            assert reply["workers"][0]["state"] == "alive"
            assert sorted(reply) == ["counters", "type", "workers"]
        finally:
            listener.stop()
            coordinator.close()
            fixed.stop()

    def test_unknown_message_type_answered_with_error(self, registry):
        fixed = WorkerDaemon(pipeline=ParsePipeline(registry)).start()
        coordinator = ClusterCoordinator([fixed.address]).connect()
        listener = MembershipListener(coordinator).start()
        try:
            reply = _announce(listener.address, {"type": "nonsense"})
            assert reply["type"] == protocol.ERROR
        finally:
            listener.stop()
            coordinator.close()
            fixed.stop()

    def test_join_before_listener_exists_retries_then_errors(self, registry):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        joiner = WorkerDaemon(pipeline=ParsePipeline(registry)).start()
        try:
            from repro.cluster.protocol import ProtocolError

            with pytest.raises(ProtocolError, match="could not announce"):
                joiner.join(
                    f"127.0.0.1:{free_port}", retries=2, retry_delay=0.05
                )
        finally:
            joiner.stop()

    def test_join_requires_started_worker(self, registry):
        daemon = WorkerDaemon(pipeline=ParsePipeline(registry))
        with pytest.raises(RuntimeError, match="start the worker"):
            daemon.join("127.0.0.1:1")
