"""The long-running parse service: many requests, one backend, one cache.

:class:`ParseService` is the request multiplexer the ROADMAP's serving
north-star asks for.  Where :meth:`repro.pipeline.ParsePipeline.run`
executes one request on a private backend, the service accepts **many
concurrent** :class:`~repro.pipeline.request.ParseRequest` submissions
and multiplexes them onto

* **one shared execution backend** (``thread`` by default — every
  request's runner thread drives its own ordered window over the same
  executor pool), and
* **one shared :class:`~repro.cache.ParseCache`** — so single-flight
  deduplication works *across requests*, not just across one request's
  workers: two clients submitting overlapping corpora parse each
  document exactly once, with the second request's lookups coalescing
  onto the first's in-progress parses.

Submissions are admitted under a priority + fair-share policy
(:class:`~repro.serve.admission.FairShareAdmission`) with at most
``max_active`` requests executing at once, and every ticket streams
incremental :class:`~repro.serve.events.ProgressEvent` values
(``queued`` → ``started`` → per-batch ``batch`` → terminal) while the
final :class:`~repro.pipeline.report.ParseReport` is delivered through
:meth:`ParseTicket.result`.
"""

from __future__ import annotations

import enum
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator

from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.obs.tracing import TraceContext
from repro.pipeline.backends.base import ExecutionBackend, resolve_execution
from repro.pipeline.pipeline import ParsePipeline
from repro.pipeline.report import ParseReport
from repro.pipeline.request import ParseRequest
from repro.serve.admission import FairShareAdmission
from repro.serve.events import EventKind, ProgressEvent

#: Thread-name prefix of the service's request-runner threads.
SERVE_THREAD_PREFIX = "repro-serve"

_TICKETS = _metrics.counter(
    "repro_service_tickets_total",
    "Ticket lifecycle transitions (submitted/completed/failed/cancelled).",
    ("state",),
)
_QUEUE_DEPTH = _metrics.gauge(
    "repro_service_queue_depth", "Tickets waiting for an execution slot."
)
_ACTIVE = _metrics.gauge(
    "repro_service_active", "Tickets currently executing."
)
_ADMISSION_WAIT = _metrics.histogram(
    "repro_service_admission_wait_seconds",
    "Time a ticket waited between submission and starting to run.",
)


class ServiceError(RuntimeError):
    """The parse service could not accept or complete a submission."""


class TicketState(str, enum.Enum):
    """Lifecycle state of one submission."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (TicketState.COMPLETED, TicketState.FAILED, TicketState.CANCELLED)


@dataclass(frozen=True)
class ServiceConfig:
    """Construction knobs of a :class:`ParseService`.

    Attributes
    ----------
    backend:
        Registry name of the shared execution backend (default
        ``"thread"``); every admitted request executes on this one
        instance, so its worker pool is the service's parse capacity.
    backend_options:
        Construction options for the shared backend (e.g. ``{"n_jobs":
        8, "window": 32}``).
    max_active:
        Requests executing concurrently; submissions beyond this wait in
        the admission queue.
    """

    backend: str = "thread"
    backend_options: dict[str, Any] = field(default_factory=dict)
    max_active: int = 4


class ParseTicket:
    """Handle to one submitted request: progress events plus the report.

    Tickets are created by :meth:`ParseService.submit`; user code only
    reads them.  ``events()`` streams the lifecycle (it can be called by
    several consumers, each sees the full ordered stream), ``result()``
    blocks for the final :class:`ParseReport`, and ``cancel()`` withdraws
    a ticket that has not started running.
    """

    def __init__(
        self,
        ticket_id: str,
        request: ParseRequest,
        priority: int,
        client: str,
        seq: int,
        sink: Callable[[ProgressEvent], None] | None = None,
        trace: TraceContext | None = None,
    ) -> None:
        self.id = ticket_id
        self.request = request
        self.priority = priority
        self.client = client
        self.seq = seq
        self.state = TicketState.QUEUED
        #: The trace this ticket runs under; every event payload carries
        #: its trace id so remote consumers can correlate.
        self.trace = trace
        #: Monotonic submission instant (admission-wait measurement).
        self.queued_at = perf_counter()
        self._started_at: float | None = None
        self._cond = threading.Condition()
        self._events: list[ProgressEvent] = []
        self._next_event_seq = 0
        self._report: ParseReport | None = None
        self._error: BaseException | None = None
        self._sink = sink

    @property
    def trace_id(self) -> str | None:
        return self.trace.trace_id if self.trace is not None else None

    def _elapsed_s(self) -> float:
        """Monotonic seconds since this ticket started running (falls back
        to time since submission for tickets cancelled before starting)."""
        origin = self._started_at if self._started_at is not None else self.queued_at
        return perf_counter() - origin

    # ------------------------------------------------------------------ #
    # Service-side transitions
    # ------------------------------------------------------------------ #
    def _emit(self, kind: EventKind, payload: dict[str, Any]) -> ProgressEvent:
        if self.trace is not None:
            payload = dict(payload)
            payload.setdefault("trace_id", self.trace.trace_id)
        with self._cond:
            event = ProgressEvent(
                kind=kind.value,
                ticket_id=self.id,
                seq=self._next_event_seq,
                payload=payload,
            )
            self._next_event_seq += 1
            self._events.append(event)
            self._cond.notify_all()
        if self._sink is not None:
            # Outside the condition: a slow or re-entrant sink must not
            # block consumers of events()/result().  A *raising* sink must
            # not break the ticket lifecycle either (a closed stdout pipe
            # on the CLI's NDJSON stream would otherwise leave the ticket
            # RUNNING forever) — telemetry failures are swallowed.
            try:
                self._sink(event)
            except Exception:
                pass
        return event

    def _set_state(
        self,
        state: TicketState,
        report: ParseReport | None = None,
        error: BaseException | None = None,
    ) -> None:
        with self._cond:
            self.state = state
            if report is not None:
                self._report = report
            if error is not None:
                self._error = error
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # Consumer API
    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        return self.state.terminal

    @property
    def n_events(self) -> int:
        """Events emitted so far (streamers use this for backlog telemetry)."""
        with self._cond:
            return len(self._events)

    @property
    def terminal_event(self) -> ProgressEvent | None:
        """The terminal event once it is emitted, else ``None``."""
        with self._cond:
            if self._events and self._events[-1].terminal:
                return self._events[-1]
            return None

    def events(
        self, timeout: float | None = None, after_seq: int = -1
    ) -> Iterator[ProgressEvent]:
        """Yield this ticket's events in order, ending at the terminal one.

        Events already emitted are replayed first, so subscribing after
        completion still sees the full stream.  ``after_seq`` skips the
        replay up to and including that sequence number (reconnecting
        consumers resume without duplicates); at or past the terminal
        event's seq the stream is empty.  ``timeout`` bounds each wait for
        the *next* event, not the whole stream.
        """
        index = max(0, after_seq + 1)
        while True:
            with self._cond:
                while index >= len(self._events):
                    if self.terminal_event is not None:
                        return
                    if not self._cond.wait(timeout):
                        raise TimeoutError(
                            f"no event within {timeout}s for ticket {self.id}"
                        )
                event = self._events[index]
            index += 1
            yield event
            if event.terminal:
                return

    def result(self, timeout: float | None = None) -> ParseReport:
        """Block until the request finishes; return (or re-raise) its outcome."""
        with self._cond:
            if not self._cond.wait_for(lambda: self.state.terminal, timeout):
                raise TimeoutError(f"ticket {self.id} not done within {timeout}s")
            if self.state is TicketState.FAILED:
                assert self._error is not None
                raise self._error
            if self.state is TicketState.CANCELLED:
                raise ServiceError(f"ticket {self.id} was cancelled")
            assert self._report is not None
            return self._report


class ParseService:
    """Multiplex concurrent parse requests onto one backend and one cache.

    Parameters
    ----------
    pipeline:
        The :class:`~repro.pipeline.ParsePipeline` to execute on.  Its
        cache is the service's shared cache; pass a pipeline built with
        ``ParsePipeline(cache=ParseCache(directory))`` for persistence.
    config:
        Service knobs (shared backend spec, ``max_active``).
    backend:
        An already-constructed :class:`ExecutionBackend` instance to
        share (its lifecycle stays with the caller); by default the
        service constructs — and owns — one from ``config``.

    The service is a context manager; leaving the block drains queued
    and running work, then releases the backend.
    """

    def __init__(
        self,
        pipeline: ParsePipeline | None = None,
        config: ServiceConfig | None = None,
        backend: ExecutionBackend | None = None,
        event_sink: Callable[[ProgressEvent], None] | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        if self.config.max_active < 1:
            raise ValueError("max_active must be positive")
        self.pipeline = pipeline or ParsePipeline()
        self._backend, self._owns_backend = resolve_execution(
            backend if backend is not None else self.config.backend,
            None if backend is not None else self.config.backend_options,
        )
        self._policy = FairShareAdmission()
        self._sink = event_sink
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._queued: list[ParseTicket] = []
        self._active: dict[str, ParseTicket] = {}
        self._active_by_client: dict[str, int] = {}
        self._served_by_client: dict[str, int] = {}
        self._counters = {"submitted": 0, "completed": 0, "failed": 0, "cancelled": 0}
        self._next_seq = 0
        self._closed = False
        self._torn_down = False
        self._runners = ThreadPoolExecutor(
            max_workers=self.config.max_active,
            thread_name_prefix=SERVE_THREAD_PREFIX,
        )

    # ------------------------------------------------------------------ #
    # Submission and admission
    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> ExecutionBackend:
        """The shared execution backend every admitted request runs on."""
        return self._backend

    def submit(
        self,
        request: ParseRequest,
        *,
        priority: int = 0,
        client: str = "default",
        trace: TraceContext | None = None,
    ) -> ParseTicket:
        """Queue a request; returns immediately with its ticket.

        ``priority`` ranks admission (higher first); ``client`` is the
        fair-share identity — concurrent clients split the service's
        ``max_active`` slots evenly at equal priority.  The request's own
        ``backend`` spec is superseded by the service's shared backend
        (that is the point of a service); its cache policy is honoured.

        ``trace`` carries an upstream :class:`TraceContext`; by default the
        caller's active trace is adopted (the gateway activates its
        client's), or a fresh root trace is started, so every ticket's
        events, logs and shard frames share one trace id end to end.
        """
        if trace is None and _tracing.enabled():
            trace = _tracing.current_trace() or TraceContext.new()
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed to new submissions")
            seq = self._next_seq
            self._next_seq += 1
            ticket = ParseTicket(
                ticket_id=f"t{seq:04d}",
                request=request,
                priority=priority,
                client=client,
                seq=seq,
                sink=self._sink,
                trace=trace,
            )
            self._counters["submitted"] += 1
            queue_position = len(self._queued) + 1
        _TICKETS.inc(state="submitted")
        # Emit QUEUED before the ticket becomes visible to admission (and
        # without holding the service lock, so a slow or re-entrant sink
        # cannot stall submissions or deadlock on describe()/submit()):
        # no dispatcher can emit STARTED until the ticket is enqueued below.
        ticket._emit(
            EventKind.QUEUED,
            {"priority": priority, "client": client, "queue_position": queue_position},
        )
        with self._lock:
            if self._closed:
                # close() raced in between: the ticket never became
                # admissible, so settle it instead of stranding it queued.
                self._counters["cancelled"] += 1
                closed_mid_submit = True
            else:
                self._queued.append(ticket)
                self._sync_gauges()
                closed_mid_submit = False
        if closed_mid_submit:
            _TICKETS.inc(state="cancelled")
            ticket._set_state(TicketState.CANCELLED)
            ticket._emit(
                EventKind.CANCELLED,
                {"reason": "service closed", "elapsed_s": round(ticket._elapsed_s(), 6)},
            )
            raise ServiceError("service is closed to new submissions")
        self._maybe_dispatch()
        return ticket

    def _sync_gauges(self) -> None:
        """Refresh the queue-depth/active gauges; caller holds ``_lock``."""
        _QUEUE_DEPTH.set(len(self._queued))
        _ACTIVE.set(len(self._active))

    def cancel(self, ticket: ParseTicket) -> bool:
        """Withdraw a ticket that has not started; False once running."""
        with self._lock:
            if ticket not in self._queued:
                return False
            self._queued.remove(ticket)
            self._counters["cancelled"] += 1
            self._sync_gauges()
        _TICKETS.inc(state="cancelled")
        ticket._set_state(TicketState.CANCELLED)
        ticket._emit(
            EventKind.CANCELLED,
            {
                "reason": "cancelled before admission",
                "elapsed_s": round(ticket._elapsed_s(), 6),
            },
        )
        return True

    def _maybe_dispatch(self) -> None:
        to_start: list[ParseTicket] = []
        with self._lock:
            while self._queued and len(self._active) < self.config.max_active:
                pick = self._policy.select(
                    self._queued, self._active_by_client, self._served_by_client
                )
                self._queued.remove(pick)
                self._active[pick.id] = pick
                self._active_by_client[pick.client] = (
                    self._active_by_client.get(pick.client, 0) + 1
                )
                to_start.append(pick)
            self._sync_gauges()
        for ticket in to_start:
            try:
                self._runners.submit(self._run_ticket, ticket)
            except RuntimeError:
                # close() won the race: the runner pool shut down between
                # this ticket leaving the queue and reaching the pool.  It
                # would otherwise sit in _active forever with no terminal
                # event — a consumer blocked in events()/result() (or a
                # drain()) would hang.  Settle it as cancelled instead.
                self._settle_stranded(ticket)

    def _settle_stranded(self, ticket: ParseTicket) -> None:
        """Cancel a ticket the closed runner pool refused to execute."""
        with self._lock:
            self._active.pop(ticket.id, None)
            remaining = self._active_by_client.get(ticket.client, 1) - 1
            if remaining > 0:
                self._active_by_client[ticket.client] = remaining
            else:
                self._active_by_client.pop(ticket.client, None)
            self._counters["cancelled"] += 1
            self._sync_gauges()
            self._idle.notify_all()
        _TICKETS.inc(state="cancelled")
        ticket._set_state(TicketState.CANCELLED)
        ticket._emit(
            EventKind.CANCELLED,
            {"reason": "service closed", "elapsed_s": round(ticket._elapsed_s(), 6)},
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _run_ticket(self, ticket: ParseTicket) -> None:
        ticket._started_at = perf_counter()
        _ADMISSION_WAIT.observe(ticket._started_at - ticket.queued_at)
        ticket._set_state(TicketState.RUNNING)
        ticket._emit(
            EventKind.STARTED,
            {"backend": self._backend.name, "workers": self._backend.workers},
        )
        failed = True
        try:
            # Runner threads have no inherited contextvars: re-activate the
            # submission's trace so logs and cluster shards carry this
            # ticket's trace id.
            with _tracing.activate(ticket.trace):
                try:
                    report = self._execute(ticket)
                except BaseException as exc:  # report *any* failure to the waiters
                    ticket._set_state(TicketState.FAILED, error=exc)
                    ticket._emit(
                        EventKind.FAILED,
                        {
                            "error": str(exc),
                            "error_type": type(exc).__name__,
                            "elapsed_s": round(ticket._elapsed_s(), 6),
                        },
                    )
                else:
                    ticket._set_state(TicketState.COMPLETED, report=report)
                    ticket._emit(
                        EventKind.COMPLETED,
                        {
                            "summary": report.summary(),
                            "elapsed_s": round(ticket._elapsed_s(), 6),
                        },
                    )
                    failed = False
        finally:
            _TICKETS.inc(state="failed" if failed else "completed")
            with self._lock:
                self._active.pop(ticket.id, None)
                remaining = self._active_by_client.get(ticket.client, 1) - 1
                if remaining > 0:
                    self._active_by_client[ticket.client] = remaining
                else:
                    self._active_by_client.pop(ticket.client, None)
                self._served_by_client[ticket.client] = (
                    self._served_by_client.get(ticket.client, 0) + 1
                )
                self._counters["failed" if failed else "completed"] += 1
                self._sync_gauges()
                self._idle.notify_all()
            self._maybe_dispatch()

    def _execute(self, ticket: ParseTicket) -> ParseReport:
        """Run one admitted request on the shared backend, emitting progress."""

        def emit_batch(
            documents_done: int, n_documents: int, batches_done: int, elapsed_s: float
        ) -> None:
            ticket._emit(
                EventKind.BATCH,
                {
                    "documents_done": documents_done,
                    "n_documents": n_documents,
                    "batches_done": batches_done,
                    "elapsed_s": round(elapsed_s, 6),
                },
            )

        return self.pipeline.execute(
            ticket.request, backend=self._backend, on_batch=emit_batch
        )

    # ------------------------------------------------------------------ #
    # Introspection and lifecycle
    # ------------------------------------------------------------------ #
    def describe(self) -> dict[str, Any]:
        """Live counters of the service."""
        with self._lock:
            description: dict[str, Any] = dict(self._counters)
            description.update(
                {
                    "queued": len(self._queued),
                    "active": len(self._active),
                    "max_active": self.config.max_active,
                    "served_by_client": dict(sorted(self._served_by_client.items())),
                }
            )
        description["backend"] = self._backend.stats().to_json_dict()
        return description

    def drain(self, timeout: float | None = None) -> None:
        """Block until no work is queued or running."""
        with self._idle:
            if not self._idle.wait_for(
                lambda: not self._queued and not self._active, timeout
            ):
                raise TimeoutError(f"service did not drain within {timeout}s")

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting submissions, settle outstanding work, release pools.

        ``drain=True`` (default) lets queued and running requests finish;
        ``drain=False`` cancels everything still queued (running requests
        always complete — the backend has no preemption).
        """
        with self._lock:
            already_torn_down = self._torn_down
            self._torn_down = True
            self._closed = True
            abandoned = [] if drain else list(self._queued)
            if not drain:
                self._queued.clear()
                self._counters["cancelled"] += len(abandoned)
                self._sync_gauges()
        if already_torn_down:
            return  # idempotent: the first close() owns the teardown
        for ticket in abandoned:
            _TICKETS.inc(state="cancelled")
            ticket._set_state(TicketState.CANCELLED)
            ticket._emit(
                EventKind.CANCELLED,
                {"reason": "service closed", "elapsed_s": round(ticket._elapsed_s(), 6)},
            )
        if drain:
            self.drain(timeout)
        self._runners.shutdown(wait=True)
        if self._owns_backend:
            self._backend.close()
        self.pipeline.cache.flush()

    def __enter__(self) -> "ParseService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
