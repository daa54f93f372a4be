"""Tests of the shared framing module (repro.utils.wire).

The framing behaviour itself is exhaustively covered through the cluster
protocol suite (tests/cluster/test_protocol.py); this file pins the
extraction contract: cluster.protocol re-exports the *same* objects, and
per-channel frame limits work standalone.  It also covers the shared
:class:`~repro.utils.wire.Listener` and its three users' ``stop()``.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.utils import wire
from repro.utils.wire import MessageChannel, MessageTooLarge, ProtocolError


class TestSharedFraming:
    def test_cluster_protocol_reexports_are_the_same_objects(self):
        from repro.cluster import protocol

        assert protocol.MessageChannel is wire.MessageChannel
        assert protocol.ProtocolError is wire.ProtocolError
        assert protocol.MessageTooLarge is wire.MessageTooLarge
        assert protocol.encode_message is wire.encode_message
        assert protocol.MAX_MESSAGE_BYTES == wire.MAX_MESSAGE_BYTES

    def test_gateway_protocol_shares_the_framing(self):
        from repro.gateway import protocol as gateway_protocol

        assert gateway_protocol.MessageChannel is wire.MessageChannel
        assert gateway_protocol.ProtocolError is wire.ProtocolError

    def test_per_channel_limit_overrides_the_module_default(self):
        left_sock, right_sock = socket.socketpair()
        left = MessageChannel(left_sock, max_message_bytes=128)
        right = MessageChannel(right_sock)
        try:
            with pytest.raises(MessageTooLarge):
                left.send({"type": "blob", "data": "x" * 200})
            # The module default still applies to the unrestricted side.
            right.send({"type": "blob", "data": "x" * 200})
        finally:
            left.close()
            right.close()

    def test_last_frame_bytes_tracks_the_received_frame(self):
        left_sock, right_sock = socket.socketpair()
        left = MessageChannel(left_sock)
        right = MessageChannel(right_sock)
        try:
            small = left.send({"type": "a"})
            assert right.recv() == {"type": "a"}
            assert right.last_frame_bytes == small
            big = left.send({"type": "b", "blob": "y" * 500})
            assert right.recv()["type"] == "b"
            assert right.last_frame_bytes == big
            assert right.bytes_received == small + big
        finally:
            left.close()
            right.close()

    def test_closed_channel_refuses_sends(self):
        left_sock, right_sock = socket.socketpair()
        left = MessageChannel(left_sock)
        right = MessageChannel(right_sock)
        left.close()
        try:
            with pytest.raises(ProtocolError, match="closed"):
                left.send({"type": "a"})
            assert right.recv() is None
        finally:
            right.close()

    def test_recv_after_local_close_is_a_clean_eof(self):
        # A reader thread that races its own side's close() must see EOF,
        # not the ValueError of a readline on the released buffer.
        left_sock, right_sock = socket.socketpair()
        left = MessageChannel(left_sock)
        right = MessageChannel(right_sock)
        try:
            right.send({"type": "a"})
            left.close()
            assert left.recv() is None
            assert left.recv() is None
        finally:
            right.close()

    def test_value_error_on_an_open_channel_still_propagates(self):
        left_sock, right_sock = socket.socketpair()
        left = MessageChannel(left_sock)
        right = MessageChannel(right_sock)
        try:
            left._reader.close()  # the buffer is gone, the channel is not closed
            with pytest.raises(ValueError):
                left.recv()
        finally:
            left.close()
            right.close()


def _accept_threads(port: int) -> list[str]:
    suffix = f"-accept-{port}"
    return [t.name for t in threading.enumerate() if t.name.endswith(suffix)]


def _gateway():
    from repro.gateway import GatewayServer
    from repro.serve import ParseService

    return GatewayServer(ParseService(), port=0)


def _worker():
    from repro.cluster.worker import WorkerDaemon

    return WorkerDaemon(port=0)


def _membership():
    from repro.elastic.membership import MembershipListener

    # Announcements are the only thing that touches the coordinator.
    return MembershipListener(coordinator=None, port=0)


class TestListener:
    def test_hands_over_connections_and_stop_joins_the_accept_thread(self):
        accepted: list[socket.socket] = []
        listener = wire.Listener("127.0.0.1", 0, accepted.append, "repro-test")
        listener.start()
        assert _accept_threads(listener.port) == [f"repro-test-accept-{listener.port}"]
        client = socket.create_connection(("127.0.0.1", listener.port), timeout=5)
        try:
            deadline = time.monotonic() + 5
            while not accepted and time.monotonic() < deadline:
                time.sleep(0.005)
            assert len(accepted) == 1
            assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            client.close()
            for sock in accepted:
                sock.close()
        listener.stop()
        listener.stop()  # idempotent
        assert _accept_threads(listener.port) == []
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", listener.port), timeout=1)

    def test_a_busy_port_raises_and_closes_its_socket(self, monkeypatch):
        busy = wire.Listener("127.0.0.1", 0, lambda sock: sock.close(), "repro-test")
        busy.start()
        created: list[socket.socket] = []
        real_socket = socket.socket

        def recording_socket(*args, **kwargs):
            created.append(real_socket(*args, **kwargs))
            return created[-1]

        monkeypatch.setattr(wire.socket, "socket", recording_socket)
        try:
            with pytest.raises(OSError):
                wire.Listener("127.0.0.1", busy.port, lambda sock: None, "repro-test")
            (sock,) = created
            assert sock.fileno() == -1
            assert len(_accept_threads(busy.port)) == 1  # only the first one's
        finally:
            busy.stop()

    @pytest.mark.parametrize("make", [_gateway, _worker, _membership])
    def test_no_accept_thread_survives_stop(self, make):
        """close() alone does not wake a thread blocked in accept(); only
        the membership listener used to shutdown() first, so the gateway's
        and the worker's accept threads outlived stop()."""
        server = make().start()
        port = server.port
        assert len(_accept_threads(port)) == 1
        server.stop()
        assert _accept_threads(port) == []
