"""The connection lifecycle every repro peer shares, written once.

:mod:`repro.utils.wire` frames messages; this module says how two peers
*meet, fail and part* on top of that framing.  The gateway, the cluster
worker and the membership listener are :class:`Server`/:class:`Session`
subclasses; the coordinator, the gateway client, ``worker --join`` and
``cluster status`` are callers of :func:`dial`, :func:`handshake` and
:func:`call`.  The two ``protocol.py`` modules only add vocabularies
(message types and builders) on top.

Who speaks first
    The dialling side.  On a handshaking wire (gateway, cluster) its
    first message is ``hello`` carrying ``"protocol": <version>``; the
    accepting side checks the type, then the version, then runs the
    subclass's :meth:`Session.on_hello` (auth, capabilities) and answers
    ``hello_ack`` with its own version.  :func:`handshake` checks that
    version too, so a mismatch is refused from either end.  The connect
    timeout stays on the socket until the ack arrives — a peer that
    accepts TCP but never speaks cannot hang a client — and is lifted
    afterwards.  A wire without a handshake (the membership listener:
    one announcement, one reply) sets ``Session.expects_hello = False``
    and goes straight to dispatch.

What a refusal looks like
    ``{"type": "error", "message": ..., "code": ...}`` followed by a
    close (``code`` only when there is one, e.g. ``"unauthorized"``).
    On the dialling side it surfaces as :class:`HandshakeRefused` with
    the peer's ``message`` and ``code`` preserved; EOF, a timeout or a
    reply of the wrong type during the handshake raise the same error.

Which exceptions become an ``error`` reply
    :data:`REPLY_ERRORS` — a malformed frame, a dead socket, or a frame
    that is valid JSON but wrong-typed or missing a required key
    (``ValueError``/``TypeError``/``KeyError``).  The reader answers with
    one ``error`` message (best effort) and closes; anything else is a
    bug and is left to kill the reader thread loudly (the ``finally``
    still closes and retires the connection).

How a server stops
    :meth:`Server.stop`: stop accepting (a connection accepted after
    this point is closed, never registered) → the subclass's
    :meth:`Server.drain` hook, when draining was asked for → ``bye`` to
    and close of every session → join of every session thread.  No
    thread named after the server's ``thread_prefix`` survives it.
    ``port``/``address`` keep answering afterwards.

Which threads exist per connection
    One reader, ``<prefix>-<Session.reader_name>``: it runs the
    handshake and then dispatches messages sequentially, so a wire needs
    no request ids.  Everything else is started through
    :meth:`Session.spawn` (the gateway's per-ticket event streamers, the
    worker's slot pool and heartbeat) and is tracked only while alive; a
    session leaves its server's registry when its last thread ends.
"""

from __future__ import annotations

import socket
import threading
from time import monotonic
from typing import Any, Callable, ClassVar, Mapping

from repro.utils.wire import Listener, MessageChannel, ProtocolError

# The lifecycle's own message types; both protocol vocabularies re-export them.
HELLO = "hello"
HELLO_ACK = "hello_ack"
ERROR = "error"
BYE = "bye"

#: What a session's reader answers with an ``error`` message (see the
#: module docstring); everything else is a bug.
REPLY_ERRORS = (ProtocolError, OSError, ValueError, TypeError, KeyError)


class HandshakeRefused(ProtocolError):
    """The peer (or its silence) ended the handshake; carries its reason."""

    def __init__(self, message: str, code: str | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.code = code


def parse_address(address: str) -> tuple[str, int]:
    """Split ``"host:port"``; ``ValueError`` for anything else."""
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must be host:port, got {address!r}")
    return host, int(port)


def dial(address: str, timeout: float | None) -> MessageChannel:
    """Connect to ``"host:port"``; the timeout stays on the socket."""
    sock = socket.create_connection(parse_address(address), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return MessageChannel(sock)


def call(address: str, message: Mapping[str, Any], timeout: float | None) -> dict[str, Any]:
    """One-shot request/reply on a fresh connection (no handshake)."""
    channel = dial(address, timeout)
    try:
        channel.send(message)
        reply = channel.recv()
    finally:
        channel.close()
    if reply is None:
        raise ProtocolError(f"{address} closed the connection before replying")
    return reply


def send_safely(channel: MessageChannel, message: Mapping[str, Any]) -> bool:
    """Send, swallowing connection failures (the reader notices the death)."""
    try:
        channel.send(message)
        return True
    except (ProtocolError, OSError):
        return False


def check_version(message: Mapping[str, Any], version: int, speaker: str) -> None:
    """Refuse a ``message`` whose ``protocol`` field is not ``version``."""
    sent = int(message.get("protocol", -1))
    if sent != version:
        raise HandshakeRefused(
            f"protocol version mismatch: {speaker} speaks {version}, the peer sent {sent}"
        )


def handshake(
    channel: MessageChannel, hello: Mapping[str, Any], version: int
) -> dict[str, Any]:
    """Introduce ourselves on a dialled channel; returns the peer's ack.

    Any failure closes the channel.  A refusal, EOF, silence past the
    dial timeout or an ack of the wrong type or version raises
    :class:`HandshakeRefused`; on success the channel goes blocking.
    """
    try:
        channel.send(hello)
        ack = channel.recv()
        if ack is None:
            raise HandshakeRefused("connection closed during handshake")
        if ack.get("type") != HELLO_ACK:
            raise HandshakeRefused(
                str(ack.get("message", f"handshake refused: {ack!r}")), ack.get("code")
            )
        check_version(ack, version, "this side")
    except TimeoutError:
        channel.close()
        raise HandshakeRefused("no handshake reply within the connect timeout") from None
    except (TypeError, ValueError) as exc:  # a non-integer "protocol" in the ack
        channel.close()
        raise HandshakeRefused(f"malformed handshake reply: {exc}") from None
    except BaseException:
        channel.close()
        raise
    channel.settimeout(None)
    return ack


class Session:
    """One accepted connection: its reader thread and what it spawned.

    Subclasses give ``handlers`` (message type → ``handler(session,
    message)``; ``bye`` is handled here) and, on a handshaking wire,
    :meth:`on_hello`; :meth:`on_open` runs once the conversation is
    established.  Handlers run on the reader thread, one at a time, and
    end the conversation by calling :meth:`close`.
    """

    #: Suffix of the reader thread's name.
    reader_name: ClassVar[str] = "reader"
    #: Whether the peer must introduce itself with ``hello`` first.
    expects_hello: ClassVar[bool] = True
    handlers: ClassVar[Mapping[str, Callable[[Any, dict[str, Any]], None]]] = {}

    def __init__(self, server: "Server", channel: MessageChannel) -> None:
        self.server = server
        self.channel = channel
        self._closed = threading.Event()
        #: Live threads only (guarded by the server's lock); each removes
        #: itself as it ends.
        self._threads: list[threading.Thread] = []

    def start(self) -> None:
        self.spawn(self.reader_name, self._read_loop)

    def spawn(self, name: str, target: Callable[..., None], *args: Any) -> None:
        """Run ``target(*args)`` on a session thread ``<prefix>-<name>``.

        Call it from a session thread (the reader, or one it spawned):
        the session retires when its last thread ends.
        """
        thread = threading.Thread(
            target=self._run,
            args=(target, *args),
            name=f"{self.server.thread_prefix}-{name}",
            daemon=True,
        )
        with self.server._lock:
            self._threads.append(thread)
        thread.start()

    def _run(self, target: Callable[..., None], *args: Any) -> None:
        try:
            target(*args)
        finally:
            self.server._thread_ended(self)

    # -- subclass hooks ------------------------------------------------ #
    def on_hello(self, hello: dict[str, Any]) -> dict[str, Any]:
        """Admit the peer: return the ack's extra fields, or raise
        :class:`HandshakeRefused`."""
        return {}

    def on_open(self) -> None:
        """The conversation is established (the ack, if any, is sent)."""

    # -- the reader ---------------------------------------------------- #
    def _read_loop(self) -> None:
        try:
            if self.expects_hello:
                hello = self.channel.recv()
                if hello is None:
                    return
                if hello.get("type") != HELLO:
                    raise HandshakeRefused("expected hello first")
                version = self.server.protocol_version
                check_version(hello, version, self.server.role)
                ack = {"type": HELLO_ACK, "protocol": version, **self.on_hello(hello)}
                self.channel.send(ack)
            self.on_open()
            while not self._closed.is_set():
                message = self.channel.recv()
                if message is None:
                    return
                self.dispatch(message)
        except REPLY_ERRORS as exc:
            text = f"missing required field {exc}" if isinstance(exc, KeyError) else str(exc)
            reply = {"type": ERROR, "message": text}
            if isinstance(exc, HandshakeRefused) and exc.code:
                reply["code"] = exc.code
            self.send_safely(reply)
        finally:
            self.close()

    def dispatch(self, message: dict[str, Any]) -> None:
        kind = message.get("type")
        if kind == BYE:
            self.close()
            return
        handler = self.handlers.get(kind)
        if handler is None:
            raise ProtocolError(f"unexpected message type {kind!r}")
        handler(self, message)

    # -- sending and leaving ------------------------------------------- #
    def send_safely(self, message: Mapping[str, Any]) -> bool:
        return send_safely(self.channel, message)

    def say_bye(self, reason: str) -> None:
        self.send_safely({"type": BYE, "reason": reason})

    def close(self) -> None:
        """End the conversation (idempotent; unblocks the reader)."""
        self._closed.set()
        self.channel.close()

    def join(self, deadline: float) -> None:
        """Wait until ``monotonic() == deadline`` for this session's threads."""
        with self.server._lock:
            threads = list(self._threads)
        for thread in threads:
            if thread is not threading.current_thread():
                thread.join(timeout=max(0.0, deadline - monotonic()))


class Server:
    """A listening daemon: accept, one :class:`Session` each, orderly stop.

    Subclasses set ``role`` (used in messages), ``thread_prefix`` and, on
    a handshaking wire, ``protocol_version``, and build their sessions in
    :meth:`new_session`.
    ``_lock`` guards the session registry; a subclass may guard its own
    counters with it, and :meth:`on_session_end` runs with it held.
    """

    role: ClassVar[str]
    thread_prefix: ClassVar[str]
    protocol_version: ClassVar[int]

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._requested_port = port
        self._listener: Listener | None = None
        self._lock = threading.Lock()
        self._sessions: list[Session] = []
        self._stopped = threading.Event()

    @property
    def port(self) -> int:
        if self._listener is None:
            raise RuntimeError(f"{self.role} is not started")
        return self._listener.port

    @property
    def address(self) -> str:
        return f"{self._host}:{self.port}"

    def start(self):
        """Bind (``port=0`` picks a free port) and begin accepting."""
        if self._listener is not None:
            raise RuntimeError(f"{self.role} already started")
        self._listener = Listener(
            self._host, self._requested_port, self._on_connection, self.thread_prefix
        )
        self._listener.start()
        return self

    def _on_connection(self, sock: socket.socket) -> None:
        session = self.new_session(MessageChannel(sock))
        with self._lock:
            if self._stopped.is_set():
                # Accepted while stop() was shutting the listener down.
                session.channel.close()
                return
            self._sessions.append(session)
        session.start()

    def _thread_ended(self, session: Session) -> None:
        with self._lock:
            session._threads.remove(threading.current_thread())
            if not session._threads:
                self._sessions.remove(session)
                self.on_session_end(session)

    def sessions(self) -> list[Session]:
        with self._lock:
            return list(self._sessions)

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (the CLI daemon mode).

        Waits in short slices: a SIGTERM the kernel hands to another thread
        runs its Python handler only once the main thread wakes, so one
        unbounded wait could sleep through it.
        """
        if self._listener is None:
            self.start()
        while not self._stopped.wait(0.5):
            pass

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop accepting, drain if asked, say goodbye, join every thread.

        ``drain``/``timeout`` reach :meth:`drain`; a server without that
        hook ignores them.
        """
        if self._listener is None or self._stopped.is_set():
            return
        self._stop_accepting()
        if drain:
            self.drain(timeout)
        self._end_sessions(f"{self.role} stopping")

    def _stop_accepting(self) -> None:
        self._stopped.set()
        if self._listener is not None:
            self._listener.stop()

    def _end_sessions(self, bye_reason: str | None) -> None:
        sessions = self.sessions()
        for session in sessions:
            if bye_reason is not None:
                session.say_bye(bye_reason)
            session.close()
        # One budget for all of them, like the accept thread's: a streamer
        # parked on an undrained ticket must not hold stop() for long.
        deadline = monotonic() + 5.0
        for session in sessions:
            session.join(deadline)

    # -- subclass hooks ------------------------------------------------ #
    def new_session(self, channel: MessageChannel) -> Session:
        raise NotImplementedError

    def drain(self, timeout: float | None) -> None:
        """Let open work settle before the sessions are told goodbye."""

    def on_session_end(self, session: Session) -> None:
        """A session's last thread ended (called with ``_lock`` held)."""

    def __enter__(self):
        return self.start() if self._listener is None else self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
