"""The gateway wire's vocabulary: submission and event streaming.

The gateway speaks the same framing (:mod:`repro.utils.wire`) and the
same connection lifecycle (:mod:`repro.utils.rpc`: who speaks first,
refusals, ``error`` replies, goodbye) as the cluster wire; its
vocabulary is the *submission* surface: remote clients file
:class:`~repro.pipeline.request.ParseRequest` JSON and consume live
:class:`~repro.serve.events.ProgressEvent` streams, while parsing itself
stays behind one shared :class:`~repro.serve.ParseService`.

Message types
-------------
``hello`` / ``hello_ack``
    The :mod:`repro.utils.rpc` handshake.  The client's ``hello`` adds an
    optional auth token and an optional requested client name; the
    gateway's ack adds the resolved client id and its quota.  A bad token
    is refused with ``error`` (``code: "unauthorized"``).
``submit``
    One :class:`ParseRequest` as JSON plus an admission priority.  The
    gateway answers ``submitted`` (ticket id, queue position, trace id) and
    starts streaming the ticket's events on this connection — or
    ``rejected``.  The ticket's trace id is on every event too; where its
    time went is the report's ``phases`` table.
``rejected``
    The 429 of this wire: admission refused *without* queueing.  Carries
    a machine-checkable ``reason`` (``saturated``, ``rate_limited``,
    ``quota_exceeded``, ``too_large``, ``bad_request``) and a
    ``retry_after`` hint in seconds where retrying can help.
``event``
    One ticket lifecycle event (``queued`` → ``started`` → ``batch``* →
    terminal), exactly the :meth:`ProgressEvent.to_json_dict` schema the
    in-process service emits — per-ticket ``seq`` is gapless, so clients
    detect missed events and resume without duplicates.  The frame of a
    ``completed`` event also carries ``report``, the ticket's full
    :class:`ParseReport` JSON with page texts, next to ``event``: a result
    crosses the wire once, with no request for it.  The page texts ride the
    frame's UTF-8 text section (:class:`~repro.utils.wire.PageTexts`).  A
    report whose page texts would put the frame over the size limit comes
    without them.
``resume``
    Reconnect-and-resume: re-attach to a ticket by id after a dropped
    connection, replaying events after ``after_seq``.  Tickets belong to
    the client id that submitted them; the gateway refuses to resume
    someone else's ticket.  A finished ticket always re-sends its terminal
    frame, whatever ``after_seq`` says, so a resume is also how a new
    connection gets a finished ticket's report.
``stats``
    Gateway-level metrics: active/queued/rejected per client, bytes
    in/out, and the event-backlog high-water mark.  Sent as a request
    (no extra fields) and answered with the counters filled in.
``metrics`` / ``metrics_result``
    Dump the gateway process's metrics registry — ``format`` selects
    Prometheus text exposition (``"text"``) or the JSON snapshot
    (``"json"``).  This is how ``repro obs metrics --host …`` scrapes a
    live gateway.
``error``
    A failed request/reply exchange (unknown ticket, unauthorized
    resume) or a fatal connection-level failure.
``bye``
    Clean goodbye in either direction.  Closing the connection does
    **not** cancel the client's running tickets — that is what makes
    reconnect-and-resume useful.
"""

from __future__ import annotations

from typing import Any, Mapping

# The lifecycle's message types and the framing are shared with the
# cluster wire — one implementation of each.
from repro.utils.rpc import BYE, ERROR, HELLO, HELLO_ACK  # noqa: F401
from repro.utils.wire import (  # noqa: F401  (re-exports)
    MAX_MESSAGE_BYTES,
    TEXTS_KEY,
    MessageChannel,
    MessageTooLarge,
    PageTexts,
    ProtocolError,
    encode_message,
)

#: Gateway wire version.  Bump on any incompatible message change; both
#: sides refuse to talk across versions (the handshake checks it).  Version
#: 2 removed the result request and its reply: the report rides the frame
#: of the ``completed`` event.  Version 3 removed the ``profile`` request and
#: its reply; version 4 removed the ``trace`` request and its reply.
#: Version 5 sends a report's page texts in the frame's UTF-8 text section.
GATEWAY_PROTOCOL_VERSION = 5

# ---------------------------------------------------------------------- #
# Message type names (hello / hello_ack / error / bye come from rpc)
# ---------------------------------------------------------------------- #
SUBMIT = "submit"
SUBMITTED = "submitted"
REJECTED = "rejected"
EVENT = "event"
RESUME = "resume"
STATS = "stats"
METRICS = "metrics"
METRICS_RESULT = "metrics_result"

# ---------------------------------------------------------------------- #
# Rejection reasons (the ``rejected`` message's ``reason`` field)
# ---------------------------------------------------------------------- #
REJECT_SATURATED = "saturated"  # max_active + queue depth exhausted
REJECT_RATE_LIMITED = "rate_limited"  # per-client request rate exceeded
REJECT_QUOTA_EXCEEDED = "quota_exceeded"  # per-client active-ticket cap hit
REJECT_TOO_LARGE = "too_large"  # request frame over the client's size quota
REJECT_BAD_REQUEST = "bad_request"  # unparseable / invalid ParseRequest


# ---------------------------------------------------------------------- #
# Message builders (keep both sides on one schema)
# ---------------------------------------------------------------------- #
def hello_message(
    token: str | None = None, client: str | None = None
) -> dict[str, Any]:
    message: dict[str, Any] = {
        "type": HELLO,
        "protocol": GATEWAY_PROTOCOL_VERSION,
    }
    if token is not None:
        message["token"] = token
    if client is not None:
        message["client"] = client
    return message


def submit_message(
    request_payload: Mapping[str, Any],
    priority: int = 0,
    trace: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """``trace`` optionally carries the submitter's :class:`TraceContext`
    as JSON (``trace_id``) so the gateway continues the caller's trace
    instead of starting its own.  The field is
    version-tolerant: old gateways simply ignore it."""
    message: dict[str, Any] = {
        "type": SUBMIT,
        "request": dict(request_payload),
        "priority": priority,
    }
    if trace is not None:
        message["trace"] = dict(trace)
    return message


def metrics_message(format: str = "json") -> dict[str, Any]:
    return {"type": METRICS, "format": format}


def rejected_message(
    reason: str, retry_after: float | None = None, detail: str = ""
) -> dict[str, Any]:
    message: dict[str, Any] = {"type": REJECTED, "reason": reason}
    if retry_after is not None:
        message["retry_after"] = round(float(retry_after), 4)
    if detail:
        message["detail"] = detail
    return message


def event_message(
    event_payload: Mapping[str, Any], report: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """``report`` is the ticket's report JSON, sent with a ``completed`` event;
    its results' page texts ride the frame's text section."""
    message: dict[str, Any] = {
        "type": EVENT,
        "ticket_id": event_payload.get("ticket_id"),
        "event": dict(event_payload),
    }
    if report is not None:
        results = report.get("results")
        if results:
            report = {**report, "results": [_lift_texts(entry) for entry in results]}
        message["report"] = report
    return message


def _lift_texts(entry: Mapping[str, Any]) -> Mapping[str, Any]:
    if TEXTS_KEY not in entry:
        return entry
    return {**entry, TEXTS_KEY: PageTexts(entry[TEXTS_KEY])}


def resume_message(ticket_id: str, after_seq: int = -1) -> dict[str, Any]:
    return {"type": RESUME, "ticket_id": ticket_id, "after_seq": int(after_seq)}
