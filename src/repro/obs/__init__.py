"""repro.obs — observability: metrics, tracing, phases, logging.

Three pillars, one import:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  labeled counters / gauges / histograms with a process-wide default
  registry, Prometheus-style text exposition and a JSON snapshot.  The
  hot surfaces (cache, backends, service, cluster, gateway) publish
  into the default registry; their existing ``stats()`` APIs are
  unchanged and fed from the same call sites.
* :mod:`repro.obs.tracing` — :class:`TraceContext` (trace id + span id)
  propagated via contextvars locally and as optional, version-tolerant
  fields on the gateway and cluster wire frames; :func:`span` records
  timed spans into a bounded :class:`SpanRecorder` so one request can be
  followed gateway → service → backend → worker shard.
* :mod:`repro.obs.profiling` — :class:`PhaseTimer` phase attribution for
  the pipeline hot path (``ParseReport.phases``, merged across all
  backends including remote shards).

Next to them, :mod:`repro.obs.logging` sets up stdlib ``logging`` for the
daemons: NDJSON or text to stderr, trace ids injected from the active
context.

Everything here is stdlib-only and cheap to import, but the package is
still *lazily* reached: ``import repro`` does not import ``repro.obs``
(guarded by a test), and every instrument is a near no-op when metrics,
tracing or phase attribution are disabled.  What the enabled stack costs
a request is the ``obs.overhead_share`` row of ``benchmarks/e2e``.
"""

from __future__ import annotations

from repro.obs import logging, metrics, profiling, tracing
from repro.obs.logging import get_logger, log_event
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.profiling import PhaseTimer
from repro.obs.tracing import SpanRecorder, TraceContext, current_trace, span

__all__ = [
    "MetricsRegistry",
    "PhaseTimer",
    "SpanRecorder",
    "TraceContext",
    "current_trace",
    "default_registry",
    "get_logger",
    "log_event",
    "logging",
    "metrics",
    "profiling",
    "span",
    "tracing",
]
