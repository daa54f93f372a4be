"""Membership tests: the registry, and live join/leave on a real coordinator."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.cluster import protocol
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.protocol import MessageChannel
from repro.cluster.worker import WorkerDaemon
from repro.elastic.membership import MembershipListener, MembershipRegistry
from repro.parsers.registry import default_registry
from repro.pipeline import ParsePipeline


@pytest.fixture(scope="module")
def registry():
    return default_registry()


class TestMembershipRegistry:
    def test_join_then_leave_lifecycle(self):
        members = MembershipRegistry()
        record = members.record_join(
            "w0", "127.0.0.1:9101", source="join", tags={"gpu": True}
        )
        assert record.state == "alive"
        members.mark_draining("w0")
        assert members.get("w0").state == "draining"
        members.record_leave("w0")
        assert members.get("w0").state == "left"
        assert members.get("w0").ended_at is not None
        assert members.counters == {"joined": 1, "left": 1, "died": 0}

    def test_death_recorded_once(self):
        members = MembershipRegistry()
        members.record_join("w0", "a:1")
        members.record_death("w0")
        members.record_death("w0")  # second detection path: no double count
        members.record_leave("w0")  # a dead worker cannot also leave
        assert members.counters == {"joined": 1, "left": 0, "died": 1}
        assert members.get("w0").state == "dead"

    def test_snapshot_and_states(self):
        members = MembershipRegistry()
        members.record_join("w0", "a:1", source="fixed")
        members.record_join("w1", "a:2", source="join", tags={"slots": 2})
        members.record_death("w1")
        snapshot = {record["worker_id"]: record for record in members.snapshot()}
        assert snapshot["w1"]["source"] == "join"
        assert snapshot["w1"]["tags"] == {"slots": 2}
        assert members.states() == {"alive": 1, "draining": 0, "left": 0, "dead": 1}

    def test_tags_of_unknown_worker_is_empty(self):
        assert MembershipRegistry().tags_of("nobody") == {}


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


class TestMembershipListener:
    def test_worker_joins_a_running_coordinator(self, registry):
        fixed = WorkerDaemon(name="fixed-0", pipeline=ParsePipeline(registry)).start()
        joiner = WorkerDaemon(name="joiner-0", pipeline=ParsePipeline(registry),
                              tags={"gpu": "true"}).start()
        coordinator = ClusterCoordinator([fixed.address]).connect()
        listener = MembershipListener(coordinator).start()
        try:
            worker_id = joiner.join(listener.address, retries=3)
            assert worker_id == "joiner-0"
            workers = {w["worker_id"]: w for w in coordinator.workers()}
            assert workers["joiner-0"]["alive"]
            assert workers["joiner-0"]["source"] == "join"
            assert workers["joiner-0"]["tags"]["gpu"] is True
            assert coordinator.membership.get("joiner-0").source == "join"
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
            # The membership record lands after the counter, outside the
            # coordinator lock: wait for the later of the two.
            _wait_for(
                lambda: coordinator.membership.get("m-1").state == "left",
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
            assert coordinator.membership.get("w1") is None
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
            assert coordinator.membership.get("w1") is None
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

    def test_status_reports_counters_workers_membership(self, registry):
        fixed = WorkerDaemon(name="st-0", pipeline=ParsePipeline(registry)).start()
        coordinator = ClusterCoordinator([fixed.address]).connect()
        listener = MembershipListener(coordinator).start()
        try:
            reply = _announce(listener.address, {"type": protocol.STATUS})
            assert reply["type"] == protocol.STATUS_RESULT
            assert reply["counters"]["workers_seen"] == 1
            assert reply["workers"][0]["worker_id"] == "st-0"
            assert reply["membership"][0]["state"] == "alive"
            assert reply["membership_counters"]["joined"] == 1
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
