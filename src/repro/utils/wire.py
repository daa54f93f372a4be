"""Length-prefixed NDJSON framing shared by the cluster and gateway wires.

Every message on a repro network connection is one JSON object, encoded
as a single ASCII line (``\\u`` escapes for everything else) and framed
by an ASCII decimal byte-length prefix::

    <decimal length of body>\\n
    {"type": "...", ...}\\n

A message that carries page texts (a :class:`PageTexts` value) sends them
after the JSON line instead of inside it, as one UTF-8 text section, and
its prefix gives the section's length too::

    <length of body> <length of text section>\\n
    {"type": "...", ..., "page_texts": [12, 0, 7], ...}\\n
    <the texts, concatenated, UTF-8 with surrogates passed through>

Inside the JSON each text list is its texts' encoded lengths in bytes, in
the order the texts follow; :meth:`MessageChannel.recv` puts the lists of
``str`` back, so a reader sees the message it was sent.  Each text is
encoded and decoded on its own: most pages are ASCII, which UTF-8 copies,
and one non-ASCII page then does not widen every other.  A frame without
texts is the one-number form, byte for byte.

The prefix makes framing robust (a reader never has to guess where a
message ends, even mid-recovery), while the NDJSON body keeps the stream
greppable — ``nc`` into a daemon and you can read the conversation.

This module is the single home of the framing machinery:
:func:`encode_message`, :class:`MessageChannel` (thread-safe framed
sends, single-reader receives, byte counters in both directions), and
the oversized-frame refusal (:class:`MessageTooLarge` at send time,
:class:`ProtocolError` at receive time).  :mod:`repro.cluster.protocol`
and :mod:`repro.gateway.protocol` both build their message vocabularies
on top of it, so the two wires cannot drift apart on framing.  The body
codec under the framing, :func:`encode_body` and :func:`decode_body`, is
also the parse cache's disk record format (:mod:`repro.cache.disk`).
:class:`Listener` is the accepting side every daemon shares (gateway,
cluster worker, membership listener): bind, a named accept thread, and a
stop that actually wakes it.  What happens on a connection once it is
accepted (or dialled) — handshake, read loop, error reply, goodbye — is
:mod:`repro.utils.rpc`.
"""

from __future__ import annotations

import json
import socket
import threading
from itertools import chain
from typing import Any, Callable, Iterator, Mapping, Sequence

#: Upper bound on one message body (a guard against garbage prefixes, not
#: a practical limit: a 64 MiB shard would be ~1000 dense documents).
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


class ProtocolError(RuntimeError):
    """The peer sent something that is not a valid framed message."""


class MessageTooLarge(ProtocolError):
    """A message exceeds the channel's frame limit.

    Raised at *send* time, before any bytes hit the socket, so the caller
    can fail just the offending message — the receiving side would
    otherwise reject the frame and tear the whole connection down.
    """


#: The JSON member a :class:`PageTexts` value must be put under; in a
#: frame with a text section, every such member holds text lengths.
TEXTS_KEY = "page_texts"


class PageTexts:
    """Page texts that cross in the frame's text section, not its JSON.

    Put one as the value of a :data:`TEXTS_KEY` member of a message; the
    peer's :meth:`MessageChannel.recv` reads that member back as the list
    of ``str``.  The receiver takes the texts in the order the objects
    holding them close, so no object holding one may hold another.
    Outside a frame it iterates as its texts.
    """

    __slots__ = ("texts",)

    def __init__(self, texts: Sequence[str]) -> None:
        self.texts = texts

    def __iter__(self) -> Iterator[str]:
        return iter(self.texts)


def encode_body(
    message: Mapping[str, Any], ensure_ascii: bool = True
) -> tuple[bytes, list[bytes] | None]:
    """A message's JSON body (newline included) and its lifted texts.

    Every :class:`PageTexts` value becomes its texts' byte lengths in the
    JSON; the texts, each encoded UTF-8 with surrogates passed through, are
    returned in section order (``None`` when the message holds no
    :class:`PageTexts`).  The body is ASCII by default; ``ensure_ascii=False``
    writes JSON strings as UTF-8 with surrogates passed through instead, so
    a split surrogate pair in a JSON field survives too (the parse cache's
    disk records).  :func:`decode_body` is the inverse.
    """
    lifted: list[list[bytes]] = []

    def lift(value: Any) -> list[int]:
        if not isinstance(value, PageTexts):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        encoded = [text.encode("utf-8", "surrogatepass") for text in value.texts]
        lifted.append(encoded)
        return [len(text) for text in encoded]

    text = json.dumps(message, separators=(",", ":"), ensure_ascii=ensure_ascii, default=lift)
    body = text.encode("utf-8", "surrogatepass") + b"\n"
    return body, (list(chain.from_iterable(lifted)) if lifted else None)


def encode_message(message: Mapping[str, Any]) -> bytes:
    """Frame one message: length prefix + NDJSON body (+ text section).

    The body is ASCII, every other character ``\\u``-escaped: that encodes
    faster than UTF-8 output, and the peer decodes a string back exactly,
    a lone surrogate (which strict UTF-8 cannot encode) included.  One
    exception, in JSON fields only: a high surrogate followed by a low one,
    sent as two code points, escapes like the astral character they pair
    into, so ``chr(0xD800) + chr(0xDC00)`` decodes as the one character
    U+10000.  Page texts (:class:`PageTexts`) cross as UTF-8 with
    surrogates passed through, so they come back code point for code point.
    """
    body, texts = encode_body(message)
    if texts is None:
        return str(len(body)).encode("ascii") + b"\n" + body
    prefix = b"%d %d\n" % (len(body), sum(map(len, texts)))
    return b"".join([prefix, body, *texts])


def decode_body(body: str, section: bytes) -> Any:
    """The message a body and its text section encode, texts put back.

    Every object holding a :data:`TEXTS_KEY` list of byte lengths gets the
    texts those lengths cut from ``section``, in order; the lengths must
    add up to the whole section.  Raises :class:`ProtocolError` when they
    do not, and :class:`ValueError` on invalid JSON or UTF-8.
    """
    end = 0

    def restore(member: dict[str, Any]) -> dict[str, Any]:
        nonlocal end
        lengths = member.get(TEXTS_KEY)
        if lengths is None:
            return member
        if not isinstance(lengths, list):
            raise ProtocolError(f"{TEXTS_KEY} must be a list of byte lengths")
        pages = []
        for length in lengths:
            if type(length) is not int or length < 0:
                raise ProtocolError(f"{TEXTS_KEY} must be a list of byte lengths")
            pages.append(section[end : end + length].decode("utf-8", "surrogatepass"))
            end += length
        member[TEXTS_KEY] = pages
        return member

    message = json.loads(body, object_hook=restore)
    if end != len(section):
        raise ProtocolError(
            f"text lengths add up to {end} bytes, the text section holds {len(section)}"
        )
    return message


class MessageChannel:
    """One framed connection: thread-safe sends, single-reader receives.

    Sends may come from several threads (result slots, heartbeat timers,
    event streamers) and are serialised under a lock; receives must stay
    on one reader thread.  The channel counts bytes in both directions —
    that is the ``*_bytes_*`` telemetry the cluster backend and the
    gateway's ``STATS`` message report.

    ``max_message_bytes`` defaults to the module-level
    :data:`MAX_MESSAGE_BYTES` **at call time** (so tests may patch the
    module global); pass an explicit limit to pin a channel down.
    """

    def __init__(self, sock: socket.socket, max_message_bytes: int | None = None) -> None:
        self._sock = sock
        self._reader = sock.makefile("rb")
        self._send_lock = threading.Lock()
        self._closed = False
        self._max_message_bytes = max_message_bytes
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Framed size of the most recently received message; lets a
        #: server enforce per-request size quotas without re-encoding.
        self.last_frame_bytes = 0

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def max_message_bytes(self) -> int:
        if self._max_message_bytes is not None:
            return self._max_message_bytes
        return MAX_MESSAGE_BYTES

    def settimeout(self, timeout: float | None) -> None:
        """Bound every later socket operation (``None`` = block forever)."""
        self._sock.settimeout(timeout)

    def send(self, message: Mapping[str, Any]) -> int:
        """Send one message; returns the framed byte count.

        Raises :class:`MessageTooLarge` — before writing anything — for a
        frame the peer's :meth:`recv` would refuse.
        """
        frame = encode_message(message)
        if len(frame) > self.max_message_bytes:
            raise MessageTooLarge(
                f"{message.get('type', 'message')} frame is {len(frame)} bytes, "
                f"over the {self.max_message_bytes}-byte protocol limit; use a "
                f"smaller batch_size"
            )
        with self._send_lock:
            if self._closed:
                raise ProtocolError("channel is closed")
            self._sock.sendall(frame)
            self.bytes_sent += len(frame)
        return len(frame)

    def recv(self) -> dict[str, Any] | None:
        """Read one message; ``None`` on a clean EOF.

        A channel this side has closed reads as a clean EOF too, also when
        :meth:`close` races a reader between the prefix and the body.
        Raises :class:`ProtocolError` on a malformed frame (bad length
        prefix, truncated body or text section, invalid JSON or UTF-8,
        text lengths that do not match the section, or a non-object payload).
        """
        try:
            prefix = self._reader.readline(32)
            if not prefix:
                return None
            if not prefix.endswith(b"\n"):
                raise ProtocolError(f"unterminated length prefix {prefix!r}")
            lengths = prefix[:-1].split(b" ")
            if len(lengths) > 2 or not all(part.isdigit() for part in lengths):
                raise ProtocolError(f"bad length prefix {prefix!r}")
            length = int(lengths[0])
            text_length = int(lengths[1]) if len(lengths) == 2 else 0
            if not 0 < length <= self.max_message_bytes - text_length:
                raise ProtocolError(f"message length {length} + {text_length} out of bounds")
            body = self._reader.read(length)
            section = self._reader.read(text_length) if text_length else b""
        except ValueError:  # I/O on the buffer close() released
            if not self._closed:
                raise
            return None
        if len(body) != length:
            raise ProtocolError(f"truncated message: expected {length} bytes, got {len(body)}")
        if len(section) != text_length:
            raise ProtocolError(
                f"truncated text section: expected {text_length} bytes, got {len(section)}"
            )
        self.last_frame_bytes = len(prefix) + length + text_length
        self.bytes_received += self.last_frame_bytes
        try:
            if len(lengths) == 1:
                message = json.loads(body.decode("utf-8"))
            else:
                message = decode_body(body.decode("utf-8"), section)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"message is not valid JSON or UTF-8: {exc}") from exc
        if not isinstance(message, dict) or "type" not in message:
            raise ProtocolError("message must be a JSON object with a 'type'")
        return message

    def close(self) -> None:
        """Close the underlying socket (idempotent; unblocks the reader)."""
        with self._send_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


class Listener:
    """One bound TCP listening socket and the thread that accepts on it.

    Binding happens at construction (``port=0`` picks a free port; read
    :attr:`port` back), accepting begins with :meth:`start`.  Every accepted
    connection gets ``TCP_NODELAY`` and is handed to ``on_connection(sock)``
    on the accept thread, named ``<thread_prefix>-accept-<port>`` — the
    handshake and the read loop are :class:`repro.utils.rpc.Server`'s.
    """

    def __init__(
        self,
        host: str,
        port: int,
        on_connection: Callable[[socket.socket], None],
        thread_prefix: str,
    ) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            sock.listen(128)
        except OSError:
            sock.close()  # a busy port must not leak the socket
            raise
        self._sock = sock
        self.port: int = sock.getsockname()[1]
        self._on_connection = on_connection
        self._stopped = threading.Event()
        self._thread = threading.Thread(
            target=self._accept_loop,
            name=f"{thread_prefix}-accept-{self.port}",
            daemon=True,
        )

    def start(self) -> None:
        self._thread.start()

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                sock, _ = self._sock.accept()
            except OSError:
                return  # the listening socket was shut down by stop()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._on_connection(sock)

    def stop(self) -> None:
        """Stop accepting and join the accept thread (idempotent)."""
        self._stopped.set()
        # shutdown() before close(): closing a listening socket does not
        # wake a thread blocked in accept() on Linux, shutdown does (the
        # accept fails immediately with EINVAL).
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)
