"""Long-running parse serving: queue, admission, progress streaming.

:class:`ParseService` accepts many concurrent
:class:`~repro.pipeline.request.ParseRequest` submissions and multiplexes
them onto **one shared execution backend** (``thread`` by default) and
**one shared parse cache**, so single-flight deduplication holds across
requests, admission follows a priority + fair-share policy, and every
submission streams :class:`~repro.serve.events.ProgressEvent` values
while it runs.

Example
-------
>>> from repro.pipeline import ParseRequest
>>> from repro.serve import ParseService
>>> with ParseService() as service:
...     ticket = service.submit(ParseRequest(parser="pymupdf", source="synthetic:8?seed=3"))
...     report = ticket.result()
>>> report.n_documents
8

On the CLI a service runs inside ``repro gateway``, and ``repro submit``
sends it one request and streams its NDJSON events.

Public names resolve lazily (PEP 562) so importing :mod:`repro.serve`
stays cheap until a service is actually constructed.
"""

from __future__ import annotations

#: Public name → "module:attribute", resolved on first access.
_LAZY_EXPORTS: dict[str, str] = {
    "EventKind": "repro.serve.events:EventKind",
    "FairShareAdmission": "repro.serve.admission:FairShareAdmission",
    "ParseService": "repro.serve.service:ParseService",
    "ParseTicket": "repro.serve.service:ParseTicket",
    "ProgressEvent": "repro.serve.events:ProgressEvent",
    "ServiceConfig": "repro.serve.service:ServiceConfig",
    "ServiceError": "repro.serve.service:ServiceError",
    "TicketState": "repro.serve.service:TicketState",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str):
    """Resolve lazily exported public names (delegates to repro.utils.lazy)."""
    from repro.utils.lazy import resolve_lazy

    return resolve_lazy(__name__, globals(), _LAZY_EXPORTS, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
