"""Trace ids: one per request, on its events, logs and wire frames.

A :class:`TraceContext` is one hex trace id.  It travels two ways:

* **locally** via a contextvar: :func:`activate` installs a context for
  a code region, and :func:`ensure_trace` starts a fresh one where none
  is active.  Thread pools do not inherit contextvars, so the parse
  service re-activates a ticket's context on its runner thread and the
  thread backend copies the caller's context into each batch;
* **across processes** as a plain dict (:meth:`TraceContext.to_json_dict`
  / :meth:`TraceContext.from_wire`) on optional, version-tolerant wire
  fields — old peers simply ignore them.

:mod:`repro.obs.logging` stamps the active trace id on every record,
which is what lets an operator grep one ticket's id across client
events, gateway logs and worker logs.  Where a request's time went is
its :class:`~repro.obs.profiling.PhaseTimer` table, not this module.

Stamping is on by default; :func:`set_enabled` (or
``REPRO_OBS_TRACING=0``) turns it off, and then no new trace ids are
minted.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from secrets import token_hex
from typing import Any, Iterator, Mapping

__all__ = [
    "TraceContext",
    "activate",
    "current_trace",
    "current_trace_id",
    "enabled",
    "ensure_trace",
    "set_enabled",
]


@dataclass(frozen=True)
class TraceContext:
    """One request's trace id."""

    trace_id: str

    @classmethod
    def new(cls) -> "TraceContext":
        return cls(trace_id=token_hex(8))

    def to_json_dict(self) -> dict[str, str]:
        return {"trace_id": self.trace_id}

    @classmethod
    def from_wire(cls, payload: Any) -> "TraceContext | None":
        """Parse an optional wire field; anything malformed is ``None``.

        Version tolerance in one place: peers that predate tracing send
        nothing, keys other than ``trace_id`` (older peers sent more) are
        ignored, and garbage from any peer degrades to "no trace" rather
        than a protocol error.
        """
        if not isinstance(payload, Mapping):
            return None
        trace_id = str(payload.get("trace_id") or "")
        if not trace_id:
            return None
        return cls(trace_id=trace_id)


_CURRENT_TRACE: ContextVar[TraceContext | None] = ContextVar(
    "repro_obs_trace", default=None
)
_ENABLED = os.environ.get("REPRO_OBS_TRACING", "1") not in ("0", "false", "off")


def enabled() -> bool:
    return _ENABLED


def set_enabled(flag: bool) -> None:
    global _ENABLED
    _ENABLED = bool(flag)


def current_trace() -> TraceContext | None:
    return _CURRENT_TRACE.get()


def current_trace_id() -> str | None:
    context = _CURRENT_TRACE.get()
    return context.trace_id if context is not None else None


@contextmanager
def activate(context: TraceContext | None) -> Iterator[TraceContext | None]:
    """Install ``context`` as the active trace for the ``with`` body."""
    token = _CURRENT_TRACE.set(context)
    try:
        yield context
    finally:
        _CURRENT_TRACE.reset(token)


@contextmanager
def ensure_trace() -> Iterator[TraceContext | None]:
    """Yield the active trace, starting a fresh root one if none exists."""
    existing = _CURRENT_TRACE.get()
    if existing is not None or not _ENABLED:
        yield existing
        return
    with activate(TraceContext.new()) as context:
        yield context
