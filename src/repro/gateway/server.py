"""The gateway daemon: many remote clients, one shared :class:`ParseService`.

:class:`GatewayServer` is the network submission frontend the ROADMAP's
millions-of-users surface asks for.  It listens on a TCP port, speaks
:mod:`repro.gateway.protocol`, and multiplexes every authenticated
client's :class:`~repro.pipeline.request.ParseRequest` onto **one**
:class:`~repro.serve.ParseService` — which is where the serving stack's
guarantees compose for free: cross-request single-flight on the shared
cache (two clients submitting overlapping corpora parse each document
exactly once), fair-share admission keyed by the *authenticated* client
id, and one shared execution backend (which may itself be
``backend="remote"`` over a worker cluster — submission tier and
execution tier stack).

On top of the raw transport the gateway enforces the production
concerns the in-process service never needed:

* **auth** — bearer tokens resolve to stable client ids and quotas
  (:mod:`repro.gateway.auth`); the client id is what fair-share slots
  are split by, so one tenant cannot starve another;
* **backpressure** — when the service's ``max_active`` plus the
  gateway's queue depth are exhausted, submissions get an immediate
  429-style ``rejected`` reply with a ``retry_after`` hint instead of
  unbounded queueing; per-client rate limits (token bucket) and active
  -ticket caps reject the same way;
* **size limits** — a ``submit`` frame over the client's byte quota is
  refused without tearing the connection down;
* **observability** — a ``stats`` message reports per-client
  active/queued/rejected counts, bytes in/out, and the event-backlog
  high-water mark.

Event streams survive disconnects: a dropped connection does not cancel
its tickets, and a reconnecting client resumes any of its tickets by id
with a gapless replay from the last sequence number it saw.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.gateway import protocol
from repro.gateway.auth import AuthError, AuthRegistry, ClientQuota, TokenBucket
from repro.gateway.protocol import MessageChannel, MessageTooLarge, ProtocolError
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.obs.logging import get_logger, log_event
from repro.obs.tracing import TraceContext
from repro.serve.events import EventKind
from repro.serve.service import ParseService, ParseTicket, ServiceError
from repro.utils.rpc import HandshakeRefused, Server, Session

#: Thread-name prefix of gateway-owned threads (accept/reader/streamers).
GATEWAY_THREAD_PREFIX = "repro-gateway"

#: Terminal tickets kept resumable/fetchable before the oldest are evicted
#: (bounds gateway memory under sustained traffic).
FINISHED_RETENTION = 256

_LOG = get_logger("gateway")

_GW_SUBMITTED = _metrics.counter(
    "repro_gateway_submitted_total", "Submissions admitted by the gateway."
)
_GW_REJECTED = _metrics.counter(
    "repro_gateway_rejected_total",
    "Submissions refused by the gateway, by rejection reason.",
    ("reason",),
)


class _TicketRecord:
    """One submitted ticket and the identity that owns it."""

    __slots__ = ("ticket", "client_id", "trace_id")

    def __init__(self, ticket: ParseTicket, client_id: str) -> None:
        self.ticket = ticket
        self.client_id = client_id
        self.trace_id = ticket.trace_id


class GatewayServer(Server):
    """Serve remote parse submissions over TCP (see the module docstring).

    The connection lifecycle (accept, handshake, error replies, stop) is
    :class:`repro.utils.rpc.Server`'s; this class adds admission.

    Parameters
    ----------
    service:
        The shared :class:`~repro.serve.ParseService` every admitted
        request runs on.  Its lifecycle stays with the caller (close the
        service after stopping the gateway).
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    auth:
        Token registry and quotas; the default allows anonymous clients
        under :class:`~repro.gateway.auth.ClientQuota` defaults.
    max_queue_depth:
        Tickets allowed to *wait* beyond the service's ``max_active``
        before submissions are rejected ``saturated``.
    retry_after:
        The backoff hint (seconds) attached to ``saturated`` and
        ``quota_exceeded`` rejections.
    """

    role = "gateway"
    thread_prefix = GATEWAY_THREAD_PREFIX
    protocol_version = protocol.GATEWAY_PROTOCOL_VERSION

    def __init__(
        self,
        service: ParseService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        auth: AuthRegistry | None = None,
        max_queue_depth: int = 16,
        retry_after: float = 1.0,
    ) -> None:
        if max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        super().__init__(host, port)
        self.service = service
        self.auth = auth or AuthRegistry()
        self.max_queue_depth = max_queue_depth
        self.retry_after = retry_after
        #: Serializes the admission decision (quota/capacity checks →
        #: submit → record insertion) so concurrent submits on separate
        #: connections cannot all pass the same snapshot and over-admit.
        #: Always acquired before ``_lock``, never the other way around.
        self._admission_lock = threading.Lock()
        #: ticket id → record, insertion-ordered (retention evicts oldest
        #: terminal records first).
        self._records: dict[str, _TicketRecord] = {}
        self._buckets: dict[str, TokenBucket] = {}
        self._submitted_by_client: dict[str, int] = {}
        self._rejected_by_client: dict[str, int] = {}
        self._rejected_by_reason: dict[str, int] = {}
        self._backlog_high_water = 0
        #: Byte counters of sessions that already ended; live ones are
        #: summed on demand.
        self._retired_bytes_in = 0
        self._retired_bytes_out = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "GatewayServer":
        """Bind and begin accepting client connections."""
        super().start()
        log_event(_LOG, "info", "listening", host=self._host, port=self.port)
        return self

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop accepting; ``drain`` waits for open tickets to settle.

        The shared service stays with its owner: stopping the gateway
        never closes the service or its backend.
        """
        super().stop(drain, timeout)
        log_event(_LOG, "info", "stopping", drained=drain)

    def new_session(self, channel: MessageChannel) -> "_ClientConnection":
        return _ClientConnection(self, channel)

    def drain(self, timeout: float | None) -> None:
        for record in self._open_records():
            try:
                record.ticket.result(timeout=timeout)
            except Exception:
                pass  # failed/cancelled tickets are settled too

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def _open_records(self) -> list[_TicketRecord]:
        with self._lock:
            records = list(self._records.values())
        return [r for r in records if not r.ticket.state.terminal]

    def _bucket_for(self, client_id: str, quota: ClientQuota) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(client_id)
            if bucket is None:
                bucket = TokenBucket(quota.rate_per_second, quota.burst)
                self._buckets[client_id] = bucket
            return bucket

    def _reject(
        self, client_id: str, reason: str, retry_after: float | None, detail: str = ""
    ) -> dict[str, Any]:
        with self._lock:
            self._rejected_by_client[client_id] = (
                self._rejected_by_client.get(client_id, 0) + 1
            )
            self._rejected_by_reason[reason] = (
                self._rejected_by_reason.get(reason, 0) + 1
            )
        _GW_REJECTED.inc(reason=reason)
        log_event(
            _LOG, "warning", "submit_rejected",
            client=client_id, reason=reason, detail=detail,
        )
        return protocol.rejected_message(reason, retry_after, detail)

    def _admit(
        self,
        connection: "_ClientConnection",
        message: dict[str, Any],
        frame_bytes: int,
    ) -> tuple[dict[str, Any], _TicketRecord | None]:
        """Decide one ``submit``: a reply message plus the record if admitted.

        The whole decision runs under the submission's trace: the client's
        ``trace`` field (when sent) is adopted, otherwise a fresh trace
        starts here — either way ``service.submit`` inherits it, so the
        ticket's events, logs and shard frames carry one trace id.
        """
        if not _tracing.enabled():
            return self._admit_inner(connection, message, frame_bytes)
        root = TraceContext.from_wire(message.get("trace")) or TraceContext.new()
        with _tracing.activate(root):
            return self._admit_inner(connection, message, frame_bytes)

    def _admit_inner(
        self,
        connection: "_ClientConnection",
        message: dict[str, Any],
        frame_bytes: int,
    ) -> tuple[dict[str, Any], _TicketRecord | None]:
        client_id = connection.client_id
        quota = connection.quota
        if frame_bytes > quota.max_request_bytes:
            return (
                self._reject(
                    client_id,
                    protocol.REJECT_TOO_LARGE,
                    None,
                    f"submit frame is {frame_bytes} bytes; the quota is "
                    f"{quota.max_request_bytes}",
                ),
                None,
            )
        acquired, retry_after = self._bucket_for(client_id, quota).try_acquire()
        if not acquired:
            return (
                self._reject(
                    client_id, protocol.REJECT_RATE_LIMITED, retry_after
                ),
                None,
            )
        from repro.pipeline.request import ParseRequest

        try:
            request = ParseRequest.from_json_dict(dict(message.get("request") or {}))
        except Exception as exc:  # noqa: BLE001 - any bad payload is the client's
            return (
                self._reject(
                    client_id, protocol.REJECT_BAD_REQUEST, None, str(exc)
                ),
                None,
            )
        priority = int(message.get("priority", 0))
        # One lock spans the capacity snapshot, the submit, and the record
        # insertion: without it, N concurrent submits could all read the
        # same snapshot, all pass, and exceed the documented caps.
        # ``service.submit`` returns immediately (it only enqueues), so
        # serializing it here costs nothing.
        with self._admission_lock:
            open_records = self._open_records()
            open_for_client = sum(
                1 for r in open_records if r.client_id == client_id
            )
            if open_for_client >= quota.max_active:
                return (
                    self._reject(
                        client_id,
                        protocol.REJECT_QUOTA_EXCEEDED,
                        self.retry_after,
                        f"{open_for_client} tickets already open (quota "
                        f"{quota.max_active})",
                    ),
                    None,
                )
            capacity = self.service.config.max_active + self.max_queue_depth
            if len(open_records) >= capacity:
                return (
                    self._reject(
                        client_id,
                        protocol.REJECT_SATURATED,
                        self.retry_after,
                        f"{len(open_records)} tickets in flight "
                        f"(capacity {capacity})",
                    ),
                    None,
                )
            try:
                ticket = self.service.submit(
                    request, priority=priority, client=client_id
                )
            except ServiceError as exc:
                return (
                    {
                        "type": protocol.ERROR,
                        "code": "service_closed",
                        "message": str(exc),
                    },
                    None,
                )
            record = _TicketRecord(ticket, client_id)
            with self._lock:
                self._records[ticket.id] = record
                self._submitted_by_client[client_id] = (
                    self._submitted_by_client.get(client_id, 0) + 1
                )
        self._evict_finished()
        _GW_SUBMITTED.inc()
        log_event(
            _LOG, "info", "submit_admitted",
            client=client_id, ticket_id=ticket.id, priority=priority,
            trace_id=record.trace_id,
        )
        reply = {
            "type": protocol.SUBMITTED,
            "ticket_id": ticket.id,
            "state": ticket.state.value,
        }
        if record.trace_id is not None:
            reply["trace_id"] = record.trace_id
        return reply, record

    def _evict_finished(self) -> None:
        """Drop the oldest terminal records beyond the retention bound."""
        with self._lock:
            terminal = [
                ticket_id
                for ticket_id, record in self._records.items()
                if record.ticket.state.terminal
            ]
            for ticket_id in terminal[: max(0, len(terminal) - FINISHED_RETENTION)]:
                del self._records[ticket_id]

    def lookup(self, ticket_id: str) -> _TicketRecord | None:
        with self._lock:
            return self._records.get(ticket_id)

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def _note_backlog(self, backlog: int) -> None:
        if backlog <= 0:
            return
        with self._lock:
            if backlog > self._backlog_high_water:
                self._backlog_high_water = backlog

    def on_session_end(self, session: Session) -> None:
        self._retired_bytes_in += session.channel.bytes_received
        self._retired_bytes_out += session.channel.bytes_sent

    def stats(self) -> dict[str, Any]:
        """The ``stats`` reply: gateway-level counters, JSON-trivial."""
        open_records = self._open_records()
        with self._lock:
            bytes_in = self._retired_bytes_in
            bytes_out = self._retired_bytes_out
            for session in self._sessions:
                bytes_in += session.channel.bytes_received
                bytes_out += session.channel.bytes_sent
            clients = sorted(
                set(self._submitted_by_client) | set(self._rejected_by_client)
            )
            per_client = {
                client_id: {
                    "submitted": self._submitted_by_client.get(client_id, 0),
                    "rejected": self._rejected_by_client.get(client_id, 0),
                    "active": sum(
                        1 for r in open_records if r.client_id == client_id
                    ),
                }
                for client_id in clients
            }
            payload = {
                "tickets_open": len(open_records),
                "tickets_retained": len(self._records),
                "submitted": sum(self._submitted_by_client.values()),
                "rejected": sum(self._rejected_by_client.values()),
                "rejected_by_reason": dict(sorted(self._rejected_by_reason.items())),
                "per_client": per_client,
                "bytes_in": bytes_in,
                "bytes_out": bytes_out,
                "event_backlog_high_water": self._backlog_high_water,
                "connections": sum(1 for s in self._sessions if not s.channel.closed),
            }
        service = self.service.describe()
        payload["service"] = {
            "active": service["active"],
            "queued": service["queued"],
            "max_active": service["max_active"],
            "max_queue_depth": self.max_queue_depth,
        }
        return payload

    def describe(self) -> dict[str, Any]:
        """Inventory for CLI logging (stats plus the bind address)."""
        description = self.stats()
        description["address"] = (
            self.address if self._listener is not None else None
        )
        return description


class _ClientConnection(Session):
    """One remote client: auth at hello, sequential requests, event streamers."""

    def __init__(self, server: GatewayServer, channel: MessageChannel) -> None:
        super().__init__(server, channel)
        self.client_id = ""
        self.quota = ClientQuota()

    def on_hello(self, hello: dict[str, Any]) -> dict[str, Any]:
        try:
            authenticated = self.server.auth.authenticate(
                hello.get("token"), hello.get("client")
            )
        except AuthError as exc:
            raise HandshakeRefused(str(exc), code="unauthorized") from exc
        self.client_id = authenticated.client_id
        self.quota = authenticated.quota
        log_event(_LOG, "debug", "client_connected", client=self.client_id)
        return {
            "client_id": self.client_id,
            "quota": self.quota.to_json_dict(),
            "server": {
                "max_active": self.server.service.config.max_active,
                "max_queue_depth": self.server.max_queue_depth,
            },
        }

    # ------------------------------------------------------------------ #
    # Requests (reader thread)
    # ------------------------------------------------------------------ #
    def _on_submit(self, message: dict[str, Any]) -> None:
        reply, record = self.server._admit(self, message, self.channel.last_frame_bytes)
        self.channel.send(reply)
        if record is not None:
            self._start_streamer(record, after_seq=-1)

    def _on_stats(self, message: dict[str, Any]) -> None:
        self.channel.send({"type": protocol.STATS, **self.server.stats()})

    def _on_metrics(self, message: dict[str, Any]) -> None:
        """Dump the gateway process's metrics registry (text or JSON)."""
        format = str(message.get("format", "json"))
        reply: dict[str, Any] = {"type": protocol.METRICS_RESULT, "format": format}
        if format == "text":
            reply["text"] = _metrics.render_text()
        else:
            reply["format"] = "json"
            reply["metrics"] = _metrics.snapshot()
        self.channel.send(reply)

    def _owned_record(self, message: dict[str, Any]) -> "_TicketRecord | None":
        """Resolve a ticket id to a record this client owns, else reply error."""
        ticket_id = str(message.get("ticket_id", ""))
        record = self.server.lookup(ticket_id)
        if record is None:
            self.channel.send(
                {
                    "type": protocol.ERROR,
                    "code": "unknown_ticket",
                    "ticket_id": ticket_id,
                    "message": f"no ticket {ticket_id!r} (expired or never submitted)",
                }
            )
            return None
        if record.client_id != self.client_id:
            self.channel.send(
                {
                    "type": protocol.ERROR,
                    "code": "forbidden",
                    "ticket_id": ticket_id,
                    "message": f"ticket {ticket_id!r} belongs to another client",
                }
            )
            return None
        return record

    def _on_resume(self, message: dict[str, Any]) -> None:
        record = self._owned_record(message)
        if record is None:
            return
        after_seq = int(message.get("after_seq", -1))
        terminal = record.ticket.terminal_event
        if terminal is not None:
            # A finished ticket always re-sends its terminal frame: the
            # report rides on it, and the client drops the duplicate seq.
            after_seq = min(after_seq, terminal.seq - 1)
        self.channel.send(
            {
                "type": protocol.SUBMITTED,
                "ticket_id": record.ticket.id,
                "state": record.ticket.state.value,
                "resumed": True,
            }
        )
        self._start_streamer(record, after_seq=after_seq)

    # ------------------------------------------------------------------ #
    # Event streaming
    # ------------------------------------------------------------------ #
    def _start_streamer(self, record: "_TicketRecord", after_seq: int) -> None:
        self.spawn(
            f"stream-{record.ticket.id}", self._stream_events, record, after_seq
        )

    def _stream_events(self, record: "_TicketRecord", after_seq: int) -> None:
        ticket = record.ticket
        try:
            for event in ticket.events(after_seq=after_seq):
                # Backlog: events already emitted by the service but not
                # yet on the wire for this consumer.  The high-water mark
                # is the STATS signal that a slow client (or a flooded
                # event stream) is falling behind live progress.
                self.server._note_backlog(ticket.n_events - (event.seq + 1))
                if event.kind != EventKind.COMPLETED.value:
                    self.channel.send(protocol.event_message(event.to_json_dict()))
                    continue
                report = ticket.result()
                try:
                    self.channel.send(
                        protocol.event_message(
                            event.to_json_dict(), report.to_json_dict(include_text=True)
                        )
                    )
                except MessageTooLarge:
                    # Page texts over the frame limit: the stream still ends,
                    # and result(include_text=True) says why it has no texts.
                    self.channel.send(
                        protocol.event_message(event.to_json_dict(), report.to_json_dict())
                    )
        except (ProtocolError, OSError):
            # Connection died mid-stream.  The ticket keeps running; the
            # client reconnects and resumes from its last seen seq.
            return

    handlers = {
        protocol.SUBMIT: _on_submit,
        protocol.RESUME: _on_resume,
        protocol.STATS: _on_stats,
        protocol.METRICS: _on_metrics,
    }
