"""The gateway client SDK: submit, stream, resume — from another process.

:class:`GatewayClient` is the programmatic mirror of the in-process
:class:`~repro.serve.ParseService` surface, spoken over the gateway
wire: ``submit()`` returns a :class:`RemoteTicket`, ``ticket.events()``
iterates the live progress stream, ``result()`` returns the finished
:class:`~repro.pipeline.report.ParseReport` JSON, which arrives on the
frame of the ``completed`` event (since gateway protocol 2), so it sends
nothing.  One background reader thread demultiplexes the connection:
``event`` frames fan out to their ticket's local buffer, everything else
answers the single in-flight request (requests/replies are strictly
ordered per connection, so no correlation ids are needed).  A ticket is
routed from its ``submitted`` reply to its terminal frame, no longer.

Failure semantics are explicit:

* an admission refusal raises :class:`GatewayRejected` with the
  machine-checkable ``reason`` and the server's ``retry_after`` hint;
* a dropped connection raises :class:`GatewayConnectionLost` from any
  blocked ``events()``/``wait()`` — but the server-side ticket keeps
  running, so a *new* client connects and calls
  ``resume(ticket_id, after_seq=ticket.last_seq)`` to pick the stream
  back up without duplicates (per-ticket ``seq`` is gapless).
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Iterator, Mapping

from repro.gateway import protocol
from repro.gateway.protocol import MessageChannel, ProtocolError
from repro.obs import tracing as _tracing
from repro.serve.events import ProgressEvent
from repro.utils import rpc


class GatewayError(RuntimeError):
    """A gateway request failed (error reply, timeout, or protocol fault)."""


class GatewayRejected(GatewayError):
    """Admission refused — the wire's 429.

    Attributes
    ----------
    reason:
        One of the ``REJECT_*`` constants in :mod:`repro.gateway.protocol`.
    retry_after:
        Server backoff hint in seconds, when retrying can help.
    """

    def __init__(
        self, reason: str, retry_after: float | None = None, detail: str = ""
    ) -> None:
        hint = f" (retry after {retry_after}s)" if retry_after is not None else ""
        super().__init__(f"submission rejected: {reason}{hint}"
                         + (f" — {detail}" if detail else ""))
        self.reason = reason
        self.retry_after = retry_after
        self.detail = detail


class GatewayConnectionLost(GatewayError):
    """The connection dropped mid-stream; resume by ticket id to continue."""


class RemoteTicket:
    """Client-side handle to one gateway ticket: a buffered event stream.

    The reader thread appends events as they arrive; ``events()`` replays
    the buffer then blocks for more, ending at the terminal event exactly
    like the in-process :meth:`ParseTicket.events`.
    """

    def __init__(self, ticket_id: str, trace_id: str | None = None) -> None:
        self.id = ticket_id
        #: Trace id the gateway assigned (``None`` against a gateway
        #: predating tracing); also present in every event payload.
        self.trace_id = trace_id
        self._cond = threading.Condition()
        self._events: list[ProgressEvent] = []
        #: The report that came with the ``completed`` frame, until
        #: :meth:`GatewayClient.result` takes it.
        self._report: dict[str, Any] | None = None
        self._lost = False

    # -- reader-thread side -------------------------------------------- #
    def _deliver(self, event: ProgressEvent, report: dict[str, Any] | None) -> None:
        with self._cond:
            # Resume replays may overlap events already buffered locally;
            # seq makes the dedup exact.
            if self._events and event.seq <= self._events[-1].seq:
                return
            self._events.append(event)
            self._report = report
            self._cond.notify_all()

    def _mark_lost(self) -> None:
        with self._cond:
            self._lost = True
            self._cond.notify_all()

    # -- consumer side -------------------------------------------------- #
    @property
    def last_seq(self) -> int:
        """Highest event seq seen so far (``-1`` before any event) — the
        value to hand ``resume(after_seq=...)`` after a reconnect."""
        with self._cond:
            return self._events[-1].seq if self._events else -1

    @property
    def terminal_event(self) -> ProgressEvent | None:
        with self._cond:
            if self._events and self._events[-1].terminal:
                return self._events[-1]
            return None

    @property
    def done(self) -> bool:
        return self.terminal_event is not None

    def events(self, timeout: float | None = None) -> Iterator[ProgressEvent]:
        """Yield events in order, ending at the terminal one.

        Raises :class:`GatewayConnectionLost` if the connection dies
        before the stream finishes, and :class:`TimeoutError` when no
        event arrives within ``timeout`` (per event, not per stream).
        """
        index = 0
        while True:
            with self._cond:
                while index >= len(self._events):
                    if self._lost:
                        raise GatewayConnectionLost(
                            f"connection lost while streaming ticket {self.id}"
                        )
                    if not self._cond.wait(timeout):
                        raise TimeoutError(
                            f"no event within {timeout}s for ticket {self.id}"
                        )
                event = self._events[index]
            index += 1
            yield event
            if event.terminal:
                return

    def wait(self, timeout: float | None = None) -> ProgressEvent:
        """Block until the ticket ends; return its terminal event."""
        deadline_left = timeout
        for event in self.events(timeout=deadline_left):
            if event.terminal:
                return event
        raise GatewayError(f"ticket {self.id} stream ended without a terminal event")

    def _take_report(self) -> dict[str, Any] | None:
        with self._cond:
            report, self._report = self._report, None
            return report


class GatewayClient:
    """One connection to a :class:`~repro.gateway.server.GatewayServer`.

    Usage::

        with GatewayClient("10.0.0.5", 9100, token="s3cret") as client:
            ticket = client.submit(request)
            for event in ticket.events():
                print(event.kind, event.payload)
            report = client.result(ticket)

    The client is thread-safe: many threads may submit and stream
    concurrently over the one connection (requests are serialized, event
    streams are demultiplexed by ticket id).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        token: str | None = None,
        client: str | None = None,
        timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.token = token
        self.requested_client = client
        self.timeout = timeout
        self.client_id = ""
        self.quota: dict[str, Any] = {}
        self._channel: MessageChannel | None = None
        self._reader: threading.Thread | None = None
        self._replies: "queue.Queue[dict[str, Any] | None]" = queue.Queue()
        self._rpc_lock = threading.Lock()
        #: True while one request awaits its reply.  The reader uses it to
        #: tell a reply apart from an unsolicited server frame (e.g. a
        #: connection-level ``error`` with no RPC in flight) — enqueueing
        #: the latter would misattribute it to the *next* request.
        self._rpc_pending = False
        self._pending_lock = threading.Lock()
        self._route_lock = threading.Lock()
        #: Tickets whose stream is open on this connection, by id.
        self._tickets: dict[str, RemoteTicket] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # Connection lifecycle
    # ------------------------------------------------------------------ #
    def connect(self) -> "GatewayClient":
        """Dial, handshake, and start the demultiplexing reader."""
        if self._channel is not None:
            return self
        # The timeout covers the handshake too (a server that accepts TCP
        # but never answers the hello must not hang connect() forever);
        # the established, event-streaming connection is blocking.
        channel = rpc.dial(f"{self.host}:{self.port}", self.timeout)
        try:
            ack = rpc.handshake(
                channel,
                protocol.hello_message(self.token, self.requested_client),
                protocol.GATEWAY_PROTOCOL_VERSION,
            )
        except ProtocolError as exc:
            raise GatewayError(str(exc)) from None
        self.client_id = str(ack.get("client_id", ""))
        self.quota = dict(ack.get("quota") or {})
        self._channel = channel
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-gateway-client-reader", daemon=True
        )
        self._reader.start()
        return self

    def close(self) -> None:
        """Say goodbye and drop the connection (tickets keep running)."""
        if self._closed:
            return
        self._closed = True
        if self._channel is not None:
            rpc.send_safely(self._channel, {"type": protocol.BYE})
            self._channel.close()

    def __enter__(self) -> "GatewayClient":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Reader thread: demultiplex events vs request replies
    # ------------------------------------------------------------------ #
    def _read_loop(self) -> None:
        assert self._channel is not None
        try:
            while True:
                message = self._channel.recv()
                if message is None:
                    return
                kind = message.get("type")
                if kind == protocol.EVENT:
                    self._route_event(message)
                elif kind == protocol.BYE:
                    return
                else:
                    with self._pending_lock:
                        pending = self._rpc_pending
                    if pending:
                        if kind == protocol.SUBMITTED:
                            # Route the ticket before the next frame, its
                            # first event, is read.
                            message["handle"] = self._register(message)
                        self._replies.put(message)
                    # else: an unsolicited frame (connection-level error)
                    # with no request awaiting it — drop rather than hand
                    # it to the next unrelated _rpc() as its "reply".
        except (ProtocolError, OSError):
            return
        finally:
            self._on_connection_end()

    def _route_event(self, message: dict[str, Any]) -> None:
        event = ProgressEvent.from_json_dict(dict(message.get("event") or {}))
        with self._route_lock:
            if event.terminal:
                # The stream ends here; the caller's handle keeps its buffer.
                ticket = self._tickets.pop(event.ticket_id, None)
            else:
                ticket = self._tickets.get(event.ticket_id)
        if ticket is not None:  # else a second stream's copy of an ended one
            ticket._deliver(event, message.get("report"))

    def _register(self, reply: dict[str, Any]) -> RemoteTicket:
        ticket_id = str(reply["ticket_id"])
        with self._route_lock:
            ticket = self._tickets.get(ticket_id)
            if ticket is None:
                trace_id = reply.get("trace_id")
                ticket = self._tickets[ticket_id] = RemoteTicket(
                    ticket_id, trace_id=str(trace_id) if trace_id is not None else None
                )
            return ticket

    def _on_connection_end(self) -> None:
        with self._route_lock:
            tickets = list(self._tickets.values())
        for ticket in tickets:
            ticket._mark_lost()
        self._replies.put(None)  # unblock any in-flight request

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #
    def _rpc(self, message: Mapping[str, Any]) -> dict[str, Any]:
        if self._channel is None:
            raise GatewayError("client is not connected (call connect())")
        with self._rpc_lock:
            with self._pending_lock:
                self._rpc_pending = True
            try:
                try:
                    self._channel.send(message)
                except (ProtocolError, OSError) as exc:
                    raise GatewayConnectionLost(str(exc)) from exc
                try:
                    reply = self._replies.get(timeout=self.timeout)
                except queue.Empty:
                    raise GatewayError(
                        f"no reply from gateway within {self.timeout}s"
                    ) from None
            finally:
                with self._pending_lock:
                    self._rpc_pending = False
        if reply is None:
            raise GatewayConnectionLost("connection lost awaiting a reply")
        return reply

    def submit(
        self,
        request: Mapping[str, Any] | Any,
        priority: int = 0,
    ) -> RemoteTicket:
        """Submit one request; returns the live :class:`RemoteTicket`.

        ``request`` is a :class:`~repro.pipeline.request.ParseRequest` or
        its JSON dict.  Raises :class:`GatewayRejected` on refusal.
        """
        payload = (
            request.to_json_dict()
            if hasattr(request, "to_json_dict")
            else dict(request)
        )
        # Propagate the caller's active trace (if any) so the gateway
        # continues it instead of minting a new trace id; old gateways
        # ignore the field.
        current = _tracing.current_trace()
        trace = current.to_json_dict() if current is not None else None
        reply = self._rpc(protocol.submit_message(payload, priority, trace=trace))
        return self._accept_ticket(reply)

    def resume(self, ticket_id: str, after_seq: int = -1) -> RemoteTicket:
        """Re-attach to a ticket after a reconnect, replaying events
        after ``after_seq`` (use the old handle's ``last_seq``)."""
        reply = self._rpc(protocol.resume_message(ticket_id, after_seq))
        return self._accept_ticket(reply)

    def _accept_ticket(self, reply: dict[str, Any]) -> RemoteTicket:
        kind = reply.get("type")
        if kind == protocol.SUBMITTED:
            return reply["handle"]
        if kind == protocol.REJECTED:
            raise GatewayRejected(
                str(reply.get("reason", "unknown")),
                reply.get("retry_after"),
                str(reply.get("detail", "")),
            )
        raise GatewayError(str(reply.get("message", f"unexpected reply: {reply!r}")))

    def result(
        self,
        ticket: RemoteTicket | str,
        timeout: float | None = None,
        include_text: bool = False,
    ) -> dict[str, Any]:
        """Wait for a ticket to finish and return its report JSON.

        The report arrives on the ``completed`` event's frame, so a handle
        that streamed to the end sends nothing.  A ticket id is resumed
        first (a finished ticket re-sends its terminal frame).  A handle
        gives its report up once; a second call on it resumes by id.
        ``include_text=False`` drops the page texts.

        Raises :class:`GatewayError` when the ticket failed or was
        cancelled (the terminal event's payload is in the message), or
        is unknown or another client's.
        """
        handle = ticket if isinstance(ticket, RemoteTicket) else self.resume(ticket)
        terminal = handle.wait(timeout=timeout)
        if terminal.kind != "completed":
            raise GatewayError(
                f"ticket {handle.id} ended {terminal.kind}: "
                f"{terminal.payload.get('error', '')}"
            )
        report = handle._take_report()
        if report is None:
            if handle is not ticket:
                raise GatewayError(f"ticket {handle.id} completed without a report")
            return self.result(handle.id, timeout, include_text)
        if not include_text:
            for entry in report["results"]:
                entry.pop("page_texts", None)
        elif any("page_texts" not in entry for entry in report["results"]):
            raise GatewayError(
                f"ticket {handle.id}'s page texts are over the gateway's frame limit"
            )
        return report

    def stats(self) -> dict[str, Any]:
        """Fetch the gateway's metrics snapshot (``stats`` round trip)."""
        reply = self._rpc({"type": protocol.STATS})
        if reply.get("type") != protocol.STATS:
            raise GatewayError(
                str(reply.get("message", f"unexpected reply: {reply!r}"))
            )
        reply.pop("type", None)
        return reply

    def metrics(self, format: str = "json") -> dict[str, Any] | str:
        """Scrape the gateway's metrics registry.

        ``format="json"`` returns the snapshot dict; ``format="text"``
        returns the Prometheus exposition string.
        """
        reply = self._rpc(protocol.metrics_message(format))
        if reply.get("type") != protocol.METRICS_RESULT:
            raise GatewayError(
                str(reply.get("message", f"unexpected reply: {reply!r}"))
            )
        if format == "text":
            return str(reply.get("text", ""))
        return dict(reply.get("metrics") or {})
