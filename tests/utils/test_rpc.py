"""Tests of the shared connection lifecycle (repro.utils.rpc).

The handshake matrix, the stop race and the one-shot ``call`` run against
a toy server over socketpairs; the last class holds the daemons (gateway,
cluster worker, membership listener) to the same contract: one exception
policy for malformed frames, and no daemon thread left after ``stop()``.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import pytest

from repro.cluster.protocol import PROTOCOL_VERSION
from repro.gateway.protocol import GATEWAY_PROTOCOL_VERSION
from repro.utils import rpc
from repro.utils.wire import MessageChannel, ProtocolError
from tests.utils.test_wire import _gateway, _membership, _worker

VERSION = 3
PREFIX = "repro-test-rpc"


class EchoSession(rpc.Session):
    def on_hello(self, hello):
        if hello.get("token") == "bad":
            raise rpc.HandshakeRefused("unknown token", code="unauthorized")
        return {"motd": "welcome"}

    def _on_echo(self, message):
        self.channel.send({"type": "echoed", "text": message["text"]})

    def _on_slow(self, message):
        self.spawn("slow", self.server.release.wait, 30)

    handlers = {"echo": _on_echo, "slow": _on_slow}


class EchoServer(rpc.Server):
    role = "echo server"
    thread_prefix = PREFIX
    protocol_version = VERSION

    def __init__(self):
        super().__init__("127.0.0.1", 0)
        self.release = threading.Event()
        self.ended = 0

    def new_session(self, channel):
        return EchoSession(self, channel)

    def drain(self, timeout):
        self.release.set()

    def on_session_end(self, session):
        self.ended += 1


def hello(version=VERSION, **extra):
    return {"type": rpc.HELLO, "protocol": version, **extra}


def census(prefix):
    return sorted(t.name for t in threading.enumerate() if t.name.startswith(prefix))


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


@pytest.fixture()
def server():
    server = EchoServer()
    yield server
    server.release.set()
    for session in server.sessions():
        session.close()
    assert wait_until(lambda: census(PREFIX) == [])


def accepted_pair(server, timeout=5.0):
    """A channel whose far end ``server`` has accepted (no listener needed)."""
    ours, theirs = socket.socketpair()
    ours.settimeout(timeout)
    server._on_connection(theirs)
    return MessageChannel(ours)


def scripted_peer(*replies, close=True):
    """A channel whose far end answers the first message with ``replies``."""
    ours, theirs = socket.socketpair()
    ours.settimeout(5.0)

    def serve():
        peer = MessageChannel(theirs)
        peer.recv()
        for reply in replies:
            peer.send(reply)
        if close:
            peer.close()

    threading.Thread(target=serve, daemon=True).start()
    return MessageChannel(ours)


class TestParseAddress:
    @pytest.mark.parametrize("address", ["host", ":9", "host:x", "", "host:"])
    def test_rejects_what_is_not_host_port(self, address):
        with pytest.raises(ValueError, match="host:port"):
            rpc.parse_address(address)

    def test_splits_on_the_last_colon(self):
        assert rpc.parse_address("127.0.0.1:9100") == ("127.0.0.1", 9100)
        assert rpc.parse_address("::1:9100") == ("::1", 9100)


class TestHandshake:
    def test_ack_carries_the_version_and_the_subclass_fields(self, server):
        channel = accepted_pair(server)
        ack = rpc.handshake(channel, hello(), VERSION)
        assert ack == {"type": rpc.HELLO_ACK, "protocol": VERSION, "motd": "welcome"}
        assert channel._sock.gettimeout() is None  # established: blocking
        channel.send({"type": "echo", "text": "hi"})
        assert channel.recv() == {"type": "echoed", "text": "hi"}
        channel.send({"type": rpc.BYE})
        assert channel.recv() is None

    def test_wrong_first_message_is_refused(self, server):
        channel = accepted_pair(server)
        channel.send({"type": "echo", "text": "hi"})
        assert channel.recv() == {"type": rpc.ERROR, "message": "expected hello first"}
        assert channel.recv() is None

    def test_accepting_side_refuses_a_version_mismatch(self, server):
        channel = accepted_pair(server)
        with pytest.raises(rpc.HandshakeRefused, match="echo server speaks 3") as info:
            rpc.handshake(channel, hello(version=999), 999)
        assert info.value.code is None
        assert channel.closed

    def test_dialling_side_refuses_a_version_mismatch(self):
        channel = scripted_peer({"type": rpc.HELLO_ACK, "protocol": 4})
        with pytest.raises(rpc.HandshakeRefused, match="version mismatch"):
            rpc.handshake(channel, hello(), VERSION)
        assert channel.closed

    def test_refusal_raised_by_on_hello_carries_its_code(self, server):
        channel = accepted_pair(server)
        with pytest.raises(rpc.HandshakeRefused, match="unknown token") as info:
            rpc.handshake(channel, hello(token="bad"), VERSION)
        assert (info.value.message, info.value.code) == ("unknown token", "unauthorized")
        assert isinstance(info.value, ProtocolError)

    def test_eof_during_the_handshake(self):
        channel = scripted_peer()
        with pytest.raises(rpc.HandshakeRefused, match="closed during handshake"):
            rpc.handshake(channel, hello(), VERSION)

    def test_silence_is_bounded_by_the_dial_timeout(self):
        ours, theirs = socket.socketpair()
        ours.settimeout(0.2)
        channel = MessageChannel(ours)
        try:
            started = time.monotonic()
            with pytest.raises(rpc.HandshakeRefused, match="no handshake reply"):
                rpc.handshake(channel, hello(), VERSION)
            assert time.monotonic() - started < 5.0
            assert channel.closed
        finally:
            theirs.close()

    @pytest.mark.parametrize(
        "reply,match",
        [
            ({"type": "stats"}, "handshake refused"),
            ({"type": rpc.HELLO_ACK, "protocol": None}, "malformed handshake reply"),
        ],
    )
    def test_an_ack_of_the_wrong_type_is_a_refusal(self, reply, match):
        channel = scripted_peer(reply)
        with pytest.raises(rpc.HandshakeRefused, match=match):
            rpc.handshake(channel, hello(), VERSION)


class TestHelpers:
    def test_a_message_without_a_protocol_field_is_refused_as_version_minus_one(self):
        expected = f"the toy server speaks {VERSION}, the peer sent -1"
        with pytest.raises(rpc.HandshakeRefused, match=expected):
            rpc.check_version({"type": rpc.HELLO}, VERSION, "the toy server")

    def test_send_safely_reports_a_dead_peer_instead_of_raising(self):
        ours, theirs = socket.socketpair()
        channel, peer = MessageChannel(ours), MessageChannel(theirs)
        assert rpc.send_safely(channel, {"type": "ping"}) is True
        assert peer.recv() == {"type": "ping"}
        channel.close()
        peer.close()
        assert rpc.send_safely(channel, {"type": "ping"}) is False


class TestSession:
    def established(self, server):
        channel = accepted_pair(server)
        rpc.handshake(channel, hello(), VERSION)
        return channel

    @pytest.mark.parametrize(
        "frame,match",
        [
            ({"type": "nonsense"}, "unexpected message type 'nonsense'"),
            ({"type": "echo"}, "missing required field 'text'"),
            ({"type": rpc.HELLO, "protocol": None}, "int()"),
        ],
    )
    def test_one_error_reply_then_a_clean_close(self, server, frame, match):
        first_is_hello = frame["type"] == rpc.HELLO
        channel = accepted_pair(server) if first_is_hello else self.established(server)
        channel.send(frame)
        reply = channel.recv()
        assert reply["type"] == rpc.ERROR and match in reply["message"]
        assert channel.recv() is None
        assert wait_until(lambda: server.sessions() == [])

    def test_a_garbage_frame_gets_the_same_treatment(self, server):
        channel = self.established(server)
        channel._sock.sendall(b"not-a-length\n")
        assert channel.recv()["type"] == rpc.ERROR
        assert channel.recv() is None

    def test_only_live_threads_are_tracked_and_the_last_one_retires(self, server):
        channel = self.established(server)
        (session,) = server.sessions()
        for _ in range(20):
            channel.send({"type": "slow"})
        assert wait_until(lambda: len(session._threads) == 21)
        server.release.set()
        assert wait_until(lambda: len(session._threads) == 1)  # the reader
        assert server.ended == 0
        channel.close()
        assert wait_until(lambda: server.sessions() == [])
        assert (session._threads, server.ended) == ([], 1)


class TestServer:
    def test_stop_says_bye_and_joins_every_session_thread(self):
        server = EchoServer().start()
        channel = rpc.dial(server.address, 5.0)
        rpc.handshake(channel, hello(), VERSION)
        channel.send({"type": "slow"})  # a spawned thread only drain() releases
        assert wait_until(lambda: f"{PREFIX}-slow" in census(PREFIX))
        assert census(PREFIX) == [
            f"{PREFIX}-accept-{server.port}",
            f"{PREFIX}-reader",
            f"{PREFIX}-slow",
        ]
        server.stop()
        assert census(PREFIX) == []  # no sleep: stop() joined them
        assert channel.recv() == {"type": rpc.BYE, "reason": "echo server stopping"}
        assert channel.recv() is None
        assert server.address.endswith(f":{server.port}")  # still answers
        server.stop()  # idempotent
        channel.close()

    def test_a_connection_accepted_after_stop_began_is_closed_not_registered(self):
        server = EchoServer().start()
        server.stop()
        channel = accepted_pair(server)
        assert channel.recv() is None
        assert server.sessions() == []
        assert census(PREFIX) == []
        channel.close()

    def test_lifecycle_guards(self):
        server = EchoServer()
        with pytest.raises(RuntimeError, match="echo server is not started"):
            server.port
        server.stop()  # never started: a no-op that must not poison a later start
        with server:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
        assert census(PREFIX) == []

    def test_sessions_opening_and_closing_under_a_stop(self):
        """More dialling threads than cores, a short switch interval: the
        registry must come out empty and every thread joined."""
        server = EchoServer().start()
        failures: list[BaseException] = []

        def churn():
            for _ in range(5):
                try:
                    channel = rpc.dial(server.address, 5.0)
                    rpc.handshake(channel, hello(), VERSION)
                    channel.send({"type": "echo", "text": "x"})
                    assert channel.recv()["type"] == "echoed"
                    channel.send({"type": "slow"})
                    channel.close()
                except BaseException as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=churn) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            server.stop()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert server.sessions() == []
        assert census(PREFIX) == []
        assert server.ended == 80


class TestCall:
    def serve_once(self, behave):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def serve():
            sock, _ = listener.accept()
            with sock:
                behave(sock)
            listener.close()

        threading.Thread(target=serve, daemon=True).start()
        return f"127.0.0.1:{listener.getsockname()[1]}"

    def test_round_trip(self):
        def behave(sock):
            channel = MessageChannel(sock)
            assert channel.recv() == {"type": "status"}
            channel.send({"type": "status_result", "ok": True})

        reply = rpc.call(self.serve_once(behave), {"type": "status"}, timeout=5.0)
        assert reply == {"type": "status_result", "ok": True}

    def test_peer_that_closes_without_replying(self):
        address = self.serve_once(lambda sock: MessageChannel(sock).recv())
        with pytest.raises(ProtocolError, match="closed the connection before replying"):
            rpc.call(address, {"type": "status"}, timeout=5.0)

    def test_peer_that_closes_mid_reply(self):
        def behave(sock):
            MessageChannel(sock).recv()
            sock.sendall(b'100\n{"type": "status_res')

        with pytest.raises(ProtocolError, match="truncated"):
            rpc.call(self.serve_once(behave), {"type": "status"}, timeout=5.0)

    def test_nobody_listening(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        address = f"127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        with pytest.raises(OSError):
            rpc.call(address, {"type": "status"}, timeout=1.0)


# ---------------------------------------------------------------------- #
# The three daemons, held to the one lifecycle
# ---------------------------------------------------------------------- #
def _stop(daemon):
    daemon.stop()
    service = getattr(daemon, "service", None)
    if service is not None:
        service.close()


HELLO_GATEWAY = {"type": "hello", "protocol": GATEWAY_PROTOCOL_VERSION}
HELLO_WORKER = {"type": "hello", "protocol": PROTOCOL_VERSION}


class TestDaemonsShareTheLifecycle:
    @pytest.mark.parametrize(
        "make,frames",
        [
            (_gateway, [{"type": "hello", "protocol": None}]),
            (_gateway, [HELLO_GATEWAY, {"type": "submit", "request": {}, "priority": None}]),
            (_worker, [{"type": "hello", "protocol": None}]),
            (_worker, [HELLO_WORKER, {"type": "submit_shard"}]),
            (_worker, [HELLO_WORKER, {"type": "doc_data", "docs": []}]),
            (_membership, [{"type": "join", "protocol": None, "address": "127.0.0.1:1"}]),
        ],
    )
    def test_wrong_typed_or_incomplete_frame_gets_an_error_and_a_clean_close(
        self, make, frames, monkeypatch
    ):
        """Valid JSON, wrong type or missing key: an ``error`` reply and a
        close on every daemon — never an uncaught exception killing the
        reader (which the peer would see as a bare EOF, and a joining
        worker would retry against)."""
        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        daemon = make().start()
        try:
            channel = rpc.dial(daemon.address, 5.0)
            for frame in frames[:-1]:
                channel.send(frame)
                assert channel.recv()["type"] == "hello_ack"
            channel.send(frames[-1])
            while (reply := channel.recv())["type"] == "heartbeat":
                pass
            assert reply["type"] == "error" and reply["message"]
            assert channel.recv() is None
            channel.close()
        finally:
            _stop(daemon)
        assert crashes == []

    def test_fifty_tickets_leave_no_thread_objects_behind(self):
        from repro.gateway import GatewayClient

        gateway = _gateway().start()
        try:
            with GatewayClient("127.0.0.1", gateway.port) as client:
                for seed in range(50):
                    ticket = client.submit(
                        {"parser": "pymupdf", "source": f"synthetic:1?seed={seed}"}
                    )
                    client.result(ticket, timeout=30)
                assert client._tickets == {}  # no finished ticket is still routed
                (session,) = gateway.sessions()
                assert wait_until(lambda: len(session._threads) == 1)
                assert [t.name for t in session._threads] == ["repro-gateway-reader"]
                assert gateway.stats()["submitted"] == 50
        finally:
            _stop(gateway)

    @pytest.mark.parametrize(
        "make,prefix,frames",
        [
            (
                _gateway,
                "repro-gateway",
                [HELLO_GATEWAY, {"type": "submit", "request": {"source": "synthetic:4"}}],
            ),
            (_worker, "repro-cluster-worker", [HELLO_WORKER]),
            (_membership, "repro-elastic-membership", []),
        ],
    )
    def test_no_daemon_thread_survives_stop(self, make, prefix, frames):
        daemon = make().start()
        channel = rpc.dial(daemon.address, 5.0)
        try:
            for frame in frames:
                channel.send(frame)
                channel.recv()
            assert wait_until(lambda: len(census(prefix)) >= 2)  # accept + reader
            daemon.stop()
            assert census(prefix) == []  # no sleep, no grace period
            assert daemon.address.endswith(f":{daemon.port}")
        finally:
            channel.close()
            _stop(daemon)
