"""repro.obs — observability: metrics, phases, trace ids, logging.

Two sources of truth, one import:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  labeled counters / gauges / histograms with a process-wide default
  registry, Prometheus-style text exposition and a JSON snapshot.  The
  hot surfaces (cache, backends, service, cluster, gateway) publish
  into the default registry from the same call sites that feed their
  ``stats()`` snapshots.
* :mod:`repro.obs.profiling` — :class:`PhaseTimer` phase attribution for
  the pipeline hot path (``ParseReport.phases``, merged across all
  backends including remote shards): the one answer to where a
  request's time went.

Next to them, :mod:`repro.obs.tracing` keeps one :class:`TraceContext`
(a trace id) per request, propagated via contextvars locally and as an
optional, version-tolerant field on gateway and cluster wire frames, and
:mod:`repro.obs.logging` sets up stdlib ``logging`` for the daemons:
NDJSON or text to stderr, the active trace id injected into every record.

Everything here is stdlib-only and cheap to import, but the package is
still *lazily* reached: ``import repro`` does not import ``repro.obs``
(guarded by a test), and every instrument is a near no-op when metrics,
trace ids or phase attribution are disabled.  What the enabled stack costs
a request is the ``obs.overhead_share`` row of ``benchmarks/e2e``.
"""

from __future__ import annotations

from repro.obs import logging, metrics, profiling, tracing
from repro.obs.logging import get_logger, log_event
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.profiling import PhaseTimer
from repro.obs.tracing import TraceContext, current_trace

__all__ = [
    "MetricsRegistry",
    "PhaseTimer",
    "TraceContext",
    "current_trace",
    "default_registry",
    "get_logger",
    "log_event",
    "logging",
    "metrics",
    "profiling",
    "tracing",
]
