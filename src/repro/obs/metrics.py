"""Labeled counters, gauges and histograms with Prometheus-style export.

The model is deliberately small: a :class:`MetricsRegistry` owns named
metrics; each metric owns a map from label-value tuples to numbers (or
bucket arrays, for histograms).  A process-wide default registry backs
the module-level helpers (:func:`counter` / :func:`gauge` /
:func:`histogram`) that the instrumented subsystems use, so one
``render_text()`` call exposes the whole process.

Two properties matter more than features:

* **Thread safety** — every mutation happens under the owning metric's
  lock; instruments are called from service worker threads, backend
  pools, gateway readers and cluster reader threads concurrently.
* **A near-zero disabled path** — every mutator checks the registry's
  ``enabled`` flag before taking its lock, so
  ``set_enabled(False)`` reduces instrumentation to one attribute load
  and a branch (``benchmarks/e2e`` reports the difference per request as
  ``obs.overhead_share``).

Metric names follow Prometheus conventions (``repro_<area>_<what>`` with
``_total`` on counters and base-unit suffixes like ``_seconds``).
"""

from __future__ import annotations

import os
import re
import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "counter",
    "default_registry",
    "gauge",
    "histogram",
    "render_text",
    "reset",
    "set_enabled",
    "snapshot",
]

#: Default histogram bucket upper bounds (seconds-oriented; ``+Inf`` is
#: implicit as the final catch-all bucket).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """Bad metric declaration or use (name clash, label mismatch, ...)."""


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Metric:
    """Shared shape: a name, labels, and a value map keyed by label values."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Sequence[str],
    ) -> None:
        self.registry = registry
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._values: dict[tuple[str, ...], Any] = {}

    def _key(self, labels: Mapping[str, Any]) -> tuple[str, ...]:
        if len(labels) != len(self.labelnames) or any(
            name not in labels for name in self.labelnames
        ):
            raise MetricError(
                f"metric {self.name!r} takes labels {sorted(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _sorted_items(self) -> list[tuple[tuple[str, ...], Any]]:
        with self._lock:
            return sorted(self._values.items())

    def _render_labels(self, key: tuple[str, ...], extra: str = "") -> str:
        pairs = [
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.labelnames, key)
        ]
        if extra:
            pairs.append(extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""

    def clear(self) -> None:
        with self._lock:
            self._values.clear()


class Counter(_Metric):
    """A monotonically increasing float, optionally labeled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return float(self._values.get(self._key(labels), 0.0))

    def render(self) -> Iterable[str]:
        for key, value in self._sorted_items():
            yield f"{self.name}{self._render_labels(key)} {_format_value(value)}"

    def collect(self) -> list[dict[str, Any]]:
        return [
            {"labels": dict(zip(self.labelnames, key)), "value": value}
            for key, value in self._sorted_items()
        ]


class Gauge(_Metric):
    """A value that goes up and down (queue depths, in-flight counts)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return float(self._values.get(self._key(labels), 0.0))

    render = Counter.render
    collect = Counter.collect


class Histogram(_Metric):
    """Bucketed observations with sum and count (latency distributions)."""

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricError(f"histogram {self.name!r} needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise MetricError(
                f"histogram {self.name!r} lists a bucket bound twice: {bounds}"
            )
        self.buckets = bounds

    def observe(self, value: float, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        key = self._key(labels)
        with self._lock:
            series = self._values.get(key)
            if series is None:
                # [per-bucket counts..., +Inf count, sum, count]
                series = self._values[key] = [0] * (len(self.buckets) + 1) + [0.0, 0]
            series[bisect_left(self.buckets, value)] += 1
            series[-2] += value
            series[-1] += 1

    def value(self, **labels: Any) -> dict[str, Any]:
        """One series as ``{"count": n, "sum": s, "buckets": {le: cumulative}}``."""
        key = self._key(labels)
        with self._lock:
            series = self._values.get(key)
            if series is None:
                return {"count": 0, "sum": 0.0, "buckets": {}}
            return self._series_dict(list(series))

    def _series_dict(self, series: list[Any]) -> dict[str, Any]:
        cumulative = 0
        buckets: dict[str, int] = {}
        for bound, count in zip(self.buckets, series):
            cumulative += count
            buckets[_format_value(bound)] = cumulative
        buckets["+Inf"] = cumulative + series[len(self.buckets)]
        return {"count": series[-1], "sum": series[-2], "buckets": buckets}

    def render(self) -> Iterable[str]:
        for key, series in self._sorted_items():
            data = self._series_dict(list(series))
            for bound, cumulative in data["buckets"].items():
                labels = self._render_labels(key, extra=f'le="{bound}"')
                yield f"{self.name}_bucket{labels} {cumulative}"
            yield f"{self.name}_sum{self._render_labels(key)} {_format_value(data['sum'])}"
            yield f"{self.name}_count{self._render_labels(key)} {data['count']}"

    def collect(self) -> list[dict[str, Any]]:
        return [
            {
                "labels": dict(zip(self.labelnames, key)),
                **self._series_dict(list(series)),
            }
            for key, series in self._sorted_items()
        ]


def _format_value(value: float) -> str:
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


class MetricsRegistry:
    """A named collection of metrics with get-or-create declaration.

    Declaring the same name twice returns the existing metric, provided
    the kind and label names agree — instrumented modules can therefore
    declare their handles at import time without coordination.
    """

    def __init__(self, enabled: bool = True) -> None:
        #: Read un-locked on every instrument call — the fast path.
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # -- declaration ---------------------------------------------------- #
    def _declare(self, cls: type, name: str, help: str, labelnames, **kwargs):
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r} on {name!r}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise MetricError(
                        f"metric {name!r} already declared as {existing.kind} "
                        f"with labels {existing.labelnames}"
                    )
                if kwargs.get("buckets") is not None:
                    declared = tuple(sorted(float(b) for b in kwargs["buckets"]))
                    if declared != existing.buckets:
                        raise MetricError(
                            f"histogram {name!r} already declared with buckets "
                            f"{existing.buckets}, redeclared with {declared}"
                        )
                return existing
            if kwargs.get("buckets", ...) is None:
                del kwargs["buckets"]  # None means "family default"
            metric = cls(self, name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._declare(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._declare(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: "Sequence[float] | None" = None,
    ) -> Histogram:
        """Declare (or fetch) a histogram.

        ``buckets`` set the upper bounds at declaration time;  ``None``
        means "whatever the metric was (or will be) declared with" —
        :data:`DEFAULT_BUCKETS` on first declaration.  Passing explicit
        buckets that disagree with an earlier declaration raises
        :class:`MetricError` (silently splitting a family across bucket
        layouts would corrupt the exposition).
        """
        return self._declare(Histogram, name, help, labelnames, buckets=buckets)

    # -- control -------------------------------------------------------- #
    def set_enabled(self, enabled: bool) -> None:
        self.enabled = bool(enabled)

    def reset(self) -> None:
        """Zero every series (declarations survive) — test isolation."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.clear()

    # -- export --------------------------------------------------------- #
    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def render_text(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict[str, Any]:
        """All series as a JSON-trivial dict (the ``obs metrics --json`` body)."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        return {
            metric.name: {
                "type": metric.kind,
                "help": metric.help,
                "values": metric.collect(),
            }
            for metric in metrics
        }


#: The process-wide registry every built-in instrument publishes into.
#: ``REPRO_OBS_METRICS=0`` in the environment starts it disabled.
_DEFAULT_REGISTRY = MetricsRegistry(
    enabled=os.environ.get("REPRO_OBS_METRICS", "1") not in ("0", "false", "off")
)


def default_registry() -> MetricsRegistry:
    return _DEFAULT_REGISTRY


def counter(name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
    return _DEFAULT_REGISTRY.counter(name, help, labelnames)


def gauge(name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
    return _DEFAULT_REGISTRY.gauge(name, help, labelnames)


def histogram(
    name: str,
    help: str = "",
    labelnames: Sequence[str] = (),
    buckets: "Sequence[float] | None" = None,
) -> Histogram:
    return _DEFAULT_REGISTRY.histogram(name, help, labelnames, buckets)


def set_enabled(enabled: bool) -> None:
    _DEFAULT_REGISTRY.set_enabled(enabled)


def render_text() -> str:
    return _DEFAULT_REGISTRY.render_text()


def snapshot() -> dict[str, Any]:
    return _DEFAULT_REGISTRY.snapshot()


def reset() -> None:
    _DEFAULT_REGISTRY.reset()
