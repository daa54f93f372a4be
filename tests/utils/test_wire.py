"""Tests of the shared framing module (repro.utils.wire).

The framing behaviour itself is exhaustively covered through the cluster
protocol suite (tests/cluster/test_protocol.py); this file pins the
extraction contract: cluster.protocol re-exports the *same* objects, and
per-channel frame limits work standalone.  It also covers the shared
:class:`~repro.utils.wire.Listener` and its three users' ``stop()``, and
the text section a frame carrying :class:`~repro.utils.wire.PageTexts` has.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    from repro.cluster.membership import MembershipListener

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


# ---------------------------------------------------------------------- #
# The text section
# ---------------------------------------------------------------------- #
@pytest.fixture()
def channel_pair():
    left_sock, right_sock = socket.socketpair()
    left = MessageChannel(left_sock)
    right = MessageChannel(right_sock)
    yield left, right
    left.close()
    right.close()


def _text_message(*lists):
    return {
        "type": "batch_result",
        "results": [{"doc_id": f"d{i}", "page_texts": wire.PageTexts(texts)}
                    for i, texts in enumerate(lists)],
    }


#: Any code point, lone surrogates included.
_TEXTS = st.lists(st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=0x10FFFF)))


class TestTextSection:
    def test_the_frame_layout(self):
        frame = wire.encode_message(_text_message(["ab", ""], ["é\n"]))
        body = (
            b'{"type":"batch_result","results":[{"doc_id":"d0","page_texts":[2,0]},'
            b'{"doc_id":"d1","page_texts":[3]}]}\n'
        )
        section = "abé\n".encode("utf-8")
        assert frame == b"%d %d\n" % (len(body), len(section)) + body + section

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_TEXTS, max_size=4))
    @example([["\U0010ffff" * 40_000, "\ud800"], ["é" * 70_000]])
    def test_texts_come_back_code_point_for_code_point(self, lists):
        # The reader runs on its own thread, so a frame larger than the socket
        # pair's buffers (shrunk to a few KB here) streams through.
        left_sock, right_sock = socket.socketpair()
        for sock in (left_sock, right_sock):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        left, right = MessageChannel(left_sock), MessageChannel(right_sock)
        received: dict = {}
        reader = threading.Thread(target=lambda: received.update(message=right.recv()))
        reader.start()
        try:
            sent = left.send(_text_message(*lists))
            reader.join(timeout=30)
        finally:
            left.close()
            right.close()
            reader.join(timeout=30)
        assert [r["page_texts"] for r in received["message"]["results"]] == lists
        assert right.last_frame_bytes == right.bytes_received == sent

    @pytest.mark.parametrize(
        "texts",
        [[], [""], ["\ud800"], ["\udc00\ud800"], ["\ud800\udc00"], ["a\ud800", "\udc00b"],
         ["\U00010000", "\U0010ffff"]],
        ids=["no-pages", "empty-page", "lone-high", "reversed-pair", "split-pair",
             "pair-across-pages", "astral"],
    )
    def test_edge_texts_come_back_as_sent(self, channel_pair, texts):
        left, right = channel_pair
        left.send(_text_message(texts, ["tail"]))
        received = right.recv()
        assert [r["page_texts"] for r in received["results"]] == [texts, ["tail"]]

    def test_text_free_frames_after_a_text_frame_read_as_before(self, channel_pair):
        left, right = channel_pair
        left.send(_text_message(["x" * 100]))
        left.send({"type": "heartbeat"})
        assert right.recv()["results"][0]["page_texts"] == ["x" * 100]
        assert right.recv() == {"type": "heartbeat"}

    def test_the_limit_counts_both_parts(self):
        left_sock, right_sock = socket.socketpair()
        left = MessageChannel(left_sock, max_message_bytes=200)
        right = MessageChannel(right_sock, max_message_bytes=200)
        try:
            # The JSON alone is well under the limit; with its texts it is not.
            assert len(wire.encode_message(_text_message([]))) < 100
            with pytest.raises(MessageTooLarge):
                left.send(_text_message(["y" * 150]))
            # A frame whose JSON and text lengths add up past the limit is refused.
            left_sock.sendall(b"100 101\n")
            with pytest.raises(ProtocolError, match="out of bounds"):
                right.recv()
        finally:
            left.close()
            right.close()

    def test_a_truncated_text_section_raises(self, channel_pair):
        left, right = channel_pair
        frame = wire.encode_message(_text_message(["z" * 50]))
        left._sock.sendall(frame[:-10])
        left.close()
        with pytest.raises(ProtocolError, match="truncated text section"):
            right.recv()

    @pytest.mark.parametrize(
        "prefix",
        [b"5 0 0\n", b"0x5\n", b"1_0\n", b"+5\n", b"5 -1\n", b" 5\n", b"5 \n", b"5\r\n"],
        ids=["three-numbers", "hex", "underscore", "plus", "negative", "leading-space",
             "trailing-space", "carriage-return"],
    )
    def test_a_prefix_that_is_not_one_or_two_decimals_raises(self, channel_pair, prefix):
        left, right = channel_pair
        left._sock.sendall(prefix + b'{"type":"a"}\n')
        with pytest.raises(ProtocolError, match="bad length prefix"):
            right.recv()

    @pytest.mark.parametrize(
        ("body", "section"),
        [
            (b'{"type":"a","page_texts":[1,1]}\n', b"abc"),
            (b'{"type":"a","page_texts":[4]}\n', b"abc"),
            (b'{"type":"a","page_texts":["abc"]}\n', b"abc"),
            (b'{"type":"a","page_texts":[1.5]}\n', b"abc"),
            (b'{"type":"a","page_texts":"abc"}\n', b"abc"),
            (b'{"type":"a","page_texts":[3]}\n', b"\xff\xfe\xfd"),
        ],
        ids=["short", "over", "strings", "float", "not-a-list", "not-utf8"],
    )
    def test_lengths_that_do_not_fit_the_section_raise(self, channel_pair, body, section):
        left, right = channel_pair
        left._sock.sendall(b"%d %d\n" % (len(body), len(section)) + body + section)
        with pytest.raises(ProtocolError):
            right.recv()

    def test_a_page_texts_value_outside_a_frame_iterates_as_its_texts(self):
        assert list(wire.PageTexts(["a", "b"])) == ["a", "b"]

    def test_other_unserialisable_values_still_raise_type_error(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            wire.encode_message({"type": "a", "value": object()})
