"""The :class:`ExecutionBackend` protocol and the closed set of backends.

An execution backend answers one question for the pipeline: *given a
per-batch worker and a stream of batches, how do the batches actually
run?*  Serial in the calling thread, fanned out over a thread pool, or
shipped to worker daemons — the parsing algorithm (routing, α budgets,
caching) is identical in every case, only the execution policy varies.

The contract, in one paragraph: a backend is handed the **parser** —
:meth:`ExecutionBackend.site` takes a resolved
:class:`~repro.parsers.base.Parser` and returns the callable that parses
one batch where this backend executes it.  A batch is a list of *items* —
documents and :class:`~repro.documents.sources.DocumentRef` values, freely
mixed — and the site is where a reference becomes its document: the
default site is :func:`parse_items` (load the items, check each document's
real type, ``parser.parse_batch``), so a reference-able source is read by
the thread or worker daemon that parses it.  A backend that puts a
boundary between the caller and that call owns every crossing of it: the
parser going out (the remote backend names it in a ``WorkerSpec``), the
items going out as they are (a reference crosses as a reference), the
caller's ambient ``contextvars`` going out (trace context and
:class:`~repro.obs.profiling.PhaseTimer`; the thread backend submits each
task under a copy of the submitting thread's context), and the site's
phase table coming back (merged into the caller's timer).  The pipeline
wraps the site in the ``parse`` phase and, when the request carries a
cache policy, in the cache layer — lookups, single-flight leases and
write-backs therefore run on the caller's side of every boundary — and
passes the result to :meth:`ExecutionBackend.map_ordered`.  A third-party
backend that runs batches inline need implement only ``map_ordered``; one
that overrides ``site`` receives the items and calls :func:`parse_items`
(or :func:`~repro.documents.sources.load_items`) wherever it parses.

* :meth:`ExecutionBackend.map_ordered` — apply a worker over a stream of
  work items with a **bounded in-flight window**, yielding results in
  input order.  Streaming callers keep O(window) memory over arbitrarily
  long inputs, and abandoning the returned iterator cancels work that
  has not started.
* :meth:`ExecutionBackend.stats` — an :class:`ExecutionStats` snapshot:
  batches dispatched/completed/cancelled, the in-flight and queue-wait
  high-water marks, and per-batch latency percentiles.  The pipeline
  embeds this block in :class:`~repro.pipeline.report.ParseReport`.
* :meth:`ExecutionBackend.close` — release pools/processes.  Idempotent;
  ``stats()`` keeps working after close.

Backends are constructed by name (:func:`create_backend`) from one
literal table of three; a backend's options are its constructor's
parameters, and an option dictionary naming any other is refused.
:func:`normalize_backend_spec` resolves the ``"auto"`` name (an
``{"n_jobs": N}`` option steers it to the thread backend) and ``"async"``
and ``"process"``, which are accepted names for ``thread``.
"""

from __future__ import annotations

import abc
import inspect
import math
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from functools import cache, partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, TypeVar

from repro.documents.sources import load_items
from repro.obs import metrics as _metrics

if TYPE_CHECKING:
    from repro.cache.cache import BatchWorker
    from repro.core.engine import RoutingDecision
    from repro.documents.sources import Item
    from repro.parsers.base import Parser, ParseResult

_T = TypeVar("_T")
_R = TypeVar("_R")

_BATCHES_DISPATCHED = _metrics.counter(
    "repro_backend_batches_dispatched_total",
    "Batches submitted to an execution backend.",
    ("backend",),
)
_BATCHES_COMPLETED = _metrics.counter(
    "repro_backend_batches_completed_total",
    "Batches an execution backend finished.",
    ("backend",),
)
_BATCHES_CANCELLED = _metrics.counter(
    "repro_backend_batches_cancelled_total",
    "Batches cancelled before starting (abandoned iterators).",
    ("backend",),
)
_BATCH_LATENCY = _metrics.histogram(
    "repro_backend_batch_latency_seconds",
    "Per-batch execution time, excluding queue wait.",
    ("backend",),
)
_QUEUE_WAIT = _metrics.histogram(
    "repro_backend_queue_wait_seconds",
    "Time a batch sat between submission and a worker picking it up.",
    ("backend",),
)
_IN_FLIGHT = _metrics.gauge(
    "repro_backend_in_flight",
    "Batches currently submitted but not yet consumed.",
    ("backend",),
)


#: Batch latencies an :class:`ExecutionRecorder` keeps for its percentiles.
LATENCY_SAMPLE_SIZE = 1024


class BackendError(RuntimeError):
    """An execution backend could not run the requested work."""


# ---------------------------------------------------------------------- #
# Telemetry
# ---------------------------------------------------------------------- #
@dataclass
class ExecutionStats:
    """What one backend did during a run (the ``ParseReport.execution`` block).

    Attributes
    ----------
    backend:
        Name of the backend that executed the run.
    workers:
        Parallel worker count (1 for serial, ``n_jobs`` for thread, worker
        daemons for remote).
    batches_dispatched / batches_completed / batches_cancelled:
        Batches submitted, finished, and cancelled before starting (an
        abandoned streaming iterator cancels its queued batches).
    in_flight_high_water:
        Most batches simultaneously submitted-but-unconsumed (bounded by
        the backend's window).
    queue_wait_seconds_high_water:
        Longest a batch sat between submission and a worker picking it up.
    batch_latency_seconds:
        Per-batch execution time (``mean``/``p50``/``p90``/``p99``/
        ``max``), excluding queue wait.  ``mean`` and ``max`` cover every
        completed batch; the percentiles are over the last
        ``LATENCY_SAMPLE_SIZE`` (1024) batches, so a long-lived shared
        backend holds a bounded sample.
    extra:
        Backend-specific numbers (e.g. the remote backend's ``cluster_*``
        shard and placement counters).
    """

    backend: str = "serial"
    workers: int = 1
    batches_dispatched: int = 0
    batches_completed: int = 0
    batches_cancelled: int = 0
    in_flight_high_water: int = 0
    queue_wait_seconds_high_water: float = 0.0
    batch_latency_seconds: dict[str, float] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "workers": self.workers,
            "batches_dispatched": self.batches_dispatched,
            "batches_completed": self.batches_completed,
            "batches_cancelled": self.batches_cancelled,
            "in_flight_high_water": self.in_flight_high_water,
            "queue_wait_seconds_high_water": self.queue_wait_seconds_high_water,
            "batch_latency_seconds": dict(self.batch_latency_seconds),
            "extra": dict(self.extra),
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "ExecutionStats":
        return cls(
            backend=str(payload.get("backend", "serial")),
            workers=int(payload.get("workers", 1)),
            batches_dispatched=int(payload.get("batches_dispatched", 0)),
            batches_completed=int(payload.get("batches_completed", 0)),
            batches_cancelled=int(payload.get("batches_cancelled", 0)),
            in_flight_high_water=int(payload.get("in_flight_high_water", 0)),
            queue_wait_seconds_high_water=float(
                payload.get("queue_wait_seconds_high_water", 0.0)
            ),
            batch_latency_seconds={
                str(k): float(v)
                for k, v in dict(payload.get("batch_latency_seconds", {})).items()
            },
            extra=dict(payload.get("extra", {})),
        )


class ExecutionRecorder:
    """Thread-safe accumulator behind :meth:`ExecutionBackend.stats`.

    The same record calls feed the global ``repro_backend_*`` metrics
    (labeled by backend name), so report-level stats and the process
    registry always agree.
    """

    def __init__(self, backend: str = "unknown") -> None:
        self.backend = backend
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=LATENCY_SAMPLE_SIZE)
        self._latency_sum = 0.0
        self._latency_max = 0.0
        self._completed = 0
        self._queue_wait_high_water = 0.0
        self._in_flight_high_water = 0
        self._dispatched = 0
        self._cancelled = 0

    def record_dispatch(self) -> None:
        with self._lock:
            self._dispatched += 1
        _BATCHES_DISPATCHED.inc(backend=self.backend)

    def record_in_flight(self, n: int) -> None:
        with self._lock:
            if n > self._in_flight_high_water:
                self._in_flight_high_water = n
        _IN_FLIGHT.set(n, backend=self.backend)

    def record_batch(self, queue_wait_seconds: float, latency_seconds: float) -> None:
        with self._lock:
            self._latencies.append(latency_seconds)
            self._latency_sum += latency_seconds
            if latency_seconds > self._latency_max:
                self._latency_max = latency_seconds
            self._completed += 1
            if queue_wait_seconds > self._queue_wait_high_water:
                self._queue_wait_high_water = queue_wait_seconds
        _BATCHES_COMPLETED.inc(backend=self.backend)
        _BATCH_LATENCY.observe(latency_seconds, backend=self.backend)
        _QUEUE_WAIT.observe(queue_wait_seconds, backend=self.backend)

    def record_cancelled(self, n: int) -> None:
        with self._lock:
            self._cancelled += n
        if n:
            _BATCHES_CANCELLED.inc(n, backend=self.backend)

    def snapshot(self, backend: str, workers: int) -> ExecutionStats:
        with self._lock:
            latencies = sorted(self._latencies)
            latency_sum, latency_max = self._latency_sum, self._latency_max
            stats = ExecutionStats(
                backend=backend,
                workers=workers,
                batches_dispatched=self._dispatched,
                batches_completed=self._completed,
                batches_cancelled=self._cancelled,
                in_flight_high_water=self._in_flight_high_water,
                queue_wait_seconds_high_water=self._queue_wait_high_water,
            )
        if latencies:
            n = len(latencies)

            def rank(q: float) -> float:
                return latencies[min(n - 1, max(0, int(round(q * (n - 1)))))]

            stats.batch_latency_seconds = {
                "mean": latency_sum / stats.batches_completed,
                "p50": rank(0.50),
                "p90": rank(0.90),
                "p99": rank(0.99),
                "max": latency_max,
            }
        return stats


# ---------------------------------------------------------------------- #
# The protocol
# ---------------------------------------------------------------------- #
def parse_items(
    parser: "Parser", batch: "list[Item]"
) -> "tuple[list[ParseResult], list[RoutingDecision]]":
    """Parse one batch of items where they are: what every site comes down to.

    References are read here (:func:`~repro.documents.sources.load_items`)
    and the documents go to ``parser.parse_batch``.
    """
    return parser.parse_batch(load_items(batch))


class ExecutionBackend(abc.ABC):
    """How the pipeline's batches actually run.

    Subclasses set :attr:`name` (the backend's name), create
    :attr:`_recorder` and implement :meth:`map_ordered`; :meth:`site`
    defaults to :func:`parse_items` in the executing thread and is
    overridden by backends whose batches execute outside the parent
    process.  Backends are context managers (``close()`` on exit).
    """

    #: Name the backend is constructed by.
    name: str = "abstract"
    #: What :meth:`map_ordered` records into and :meth:`stats` snapshots.
    _recorder: ExecutionRecorder

    @property
    def workers(self) -> int:
        """Parallel worker count reported in :class:`ExecutionStats`."""
        return 1

    def site(self, parser: "Parser") -> "BatchWorker":
        """The callable that parses one batch where this backend executes it.

        In-process backends run the parser where the orchestration runs:
        the site is :func:`parse_items` over ``parser``.  The one
        out-of-process backend, ``remote``, returns a caller-side stub that
        names the parser, ships the items (references stay references) and
        the trace context to a worker daemon, which runs :func:`parse_items`
        there, and merges the shard's phase table back; anything wrapped
        *around* the returned callable (cache lookups, single-flight
        leases, write-backs) therefore stays with the caller.
        """
        return partial(parse_items, parser)

    @abc.abstractmethod
    def map_ordered(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> Iterator[_R]:
        """Apply ``fn`` over ``items``, yielding results in input order.

        At most a bounded window of items is in flight at once, so
        streaming callers retain O(window) memory over long inputs.
        Closing the returned iterator early cancels work that has not
        started; already-running work drains and is joined by
        :meth:`close`.
        """

    def stats(self) -> ExecutionStats:
        """Snapshot of this backend's execution telemetry (safe after close)."""
        return self._recorder.snapshot(self.name, self.workers)

    def close(self) -> None:
        """Release worker pools.  Idempotent; further maps are refused."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# The closed set of backends
# ---------------------------------------------------------------------- #
#: Backend name → its class's name among the package's lazy exports.  A
#: name resolves to its class only when it is constructed or its options
#: are read, so e.g. validating a serial request never loads the cluster
#: stack.
_BACKENDS: dict[str, str] = {
    "serial": "SerialBackend",
    "thread": "ThreadBackend",
    "remote": "RemoteBackend",
}

#: Accepted names → the backend each resolves to.  ``process`` is kept for
#: stored requests; CPU-bound work past one core runs on ``remote``.
_ACCEPTED_NAMES: dict[str, str] = {"async": "thread", "process": "thread"}

#: Deleted backend names → what replaces them.  A stored request naming
#: one is refused with the replacement, not run on something else.
_REMOVED_NAMES: dict[str, str] = {
    "hpc": "project a run onto N cluster nodes with `python -m repro.cli "
    "scaling` (Figure 5)",
}


def _backend_class(name: str) -> "type[ExecutionBackend]":
    from repro.pipeline import backends

    return getattr(backends, _BACKENDS[name])


@cache
def _backend_options(name: str) -> frozenset[str]:
    """The options backend ``name`` takes: its constructor's parameters."""
    return frozenset(inspect.signature(_backend_class(name)).parameters)


def backend_names() -> list[str]:
    """Known backend names (sorted)."""
    return sorted(_BACKENDS)


def create_backend(
    name: str, options: Mapping[str, Any] | None = None
) -> ExecutionBackend:
    """Construct a backend by name, validating its options."""
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown execution backend {name!r}; known: {backend_names()}"
        )
    known = _backend_options(name)
    options = dict(options or {})
    unknown = sorted(set(options) - known)
    if unknown:
        raise ValueError(
            f"unknown option(s) {unknown} for backend {name!r}; "
            f"known: {sorted(known)}"
        )
    return _backend_class(name)(**options)


def backend_accepts_option(backend: str, option: str) -> bool:
    """Whether a backend name (or ``"auto"``) takes a construction option.

    ``"auto"`` accepts ``n_jobs`` because that option is what steers its
    serial-vs-thread choice.
    """
    if backend == "auto":
        return option == "n_jobs"
    return backend in _BACKENDS and option in _backend_options(backend)


def _positive_int(option: str, value: Any) -> int:
    """``value`` as a positive int, rejecting bools and non-integral values.

    A silently dropped ``n_jobs=4.0`` (or ``true``, or ``0``) would run
    serial while the caller believes they requested workers; a ``window``
    of ``2.5`` would fail mid-stream, and ``true`` would run a window of 1.
    """
    if isinstance(value, bool):
        raise ValueError(f"{option} must be an integer, got {value!r}")
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int):
        raise ValueError(f"{option} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{option} must be positive, got {value}")
    return value


def _positive_seconds(option: str, value: Any) -> int | float:
    """``value`` as a finite positive number of seconds, rejecting bools.

    A ``heartbeat_timeout`` of 0 would reap every worker at the monitor's
    first poll, and ``"abc"`` would kill the monitor thread, leaving the run
    with no liveness detection.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{option} must be a number of seconds, got {value!r}")
    if not 0 < value < math.inf:
        raise ValueError(f"{option} must be a positive number of seconds, got {value}")
    return value


def _directory(option: str, value: Any) -> str | os.PathLike | None:
    """``value`` as a path, or ``None`` for none.

    ``--backend-opt ledger_dir=2024`` reads as the int 2024, and ``07`` as 7:
    accepted, the first would fail at the first batch and the second would
    name another directory.
    """
    if value is not None and not isinstance(value, (str, os.PathLike)):
        raise ValueError(
            f"{option} must be a directory path, got {value!r}; write a "
            f"directory whose name is all digits with a ./ prefix, as in ./2024"
        )
    return value


#: Option → the check its value passes wherever the resolved backend takes it.
_OPTION_CHECKS: dict[str, Callable[[str, Any], Any]] = {
    "n_jobs": _positive_int,
    "window": _positive_int,
    "connect_timeout": _positive_seconds,
    "heartbeat_interval": _positive_seconds,
    "heartbeat_timeout": _positive_seconds,
    "ledger_dir": _directory,
}


def normalize_backend_spec(
    backend: str,
    backend_options: Mapping[str, Any] | None = None,
) -> tuple[str, dict[str, Any]]:
    """Resolve ``"auto"`` and the accepted names to a concrete backend spec.

    An ``{"n_jobs": N}`` option with N > 1 selects the thread backend
    under ``"auto"``; ``"auto"`` without parallelism resolves to the
    serial backend.  ``"async"`` and ``"process"`` are accepted names for
    ``"thread"``; a removed name (``"hpc"``) is refused with what replaces
    it.  Wherever the resolved backend takes them, ``n_jobs`` and ``window``
    must be positive integers, the remote timeouts positive numbers of
    seconds, and ``ledger_dir`` a path.
    """
    if backend in _REMOVED_NAMES:
        raise ValueError(
            f"execution backend {backend!r} was removed; "
            f"{_REMOVED_NAMES[backend]}"
        )
    options = dict(backend_options or {})
    name = _ACCEPTED_NAMES.get(backend, backend)
    if name != backend:
        known = _backend_options(name)
        unknown = sorted(set(options) - known)
        if unknown:
            # Failing them as the resolved backend's would blame a name
            # the caller never used.
            raise ValueError(
                f"unknown option(s) {unknown} for backend {backend!r}, an "
                f"accepted name for {name!r}; known: {sorted(known)}"
            )
    for option, check in _OPTION_CHECKS.items():
        if option in options and backend_accepts_option(name, option):
            options[option] = check(option, options[option])
    if name == "auto":
        name = "thread" if options.get("n_jobs", 1) > 1 else "serial"
        if name == "serial":
            options.pop("n_jobs", None)
            if options:
                # Leftover options belong to a parallel backend; failing
                # them against serial would blame a backend the caller
                # never named.
                raise ValueError(
                    f"backend 'auto' resolves to the serial backend without "
                    f"parallelism, but options {sorted(options)} were given; "
                    f"name the backend explicitly (e.g. backend='thread')"
                )
    return name, options


def validate_backend_spec(
    backend: str,
    backend_options: Mapping[str, Any] | None = None,
) -> None:
    """Fail fast on an invalid backend spec (name, options, values).

    Queued/serialised specs must fail at construction, not hours later
    when a worker dequeues them; backend constructors are lazy (no pools
    are spawned), so a construct-and-close round trip is cheap.
    """
    name, options = normalize_backend_spec(backend, backend_options)
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown execution backend {backend!r}; known: "
            f"{['auto'] + backend_names()}"
        )
    create_backend(name, options).close()


def resolve_execution(
    backend: "str | ExecutionBackend",
    backend_options: Mapping[str, Any] | None = None,
) -> tuple[ExecutionBackend, bool]:
    """Turn a backend spec (name or instance) into ``(backend, owned)``.

    A caller-supplied instance is passed through and *not* owned (the
    caller manages its lifecycle); a name is constructed here and owned by
    the caller of this function, which must :meth:`~ExecutionBackend.close`
    it when done.
    """
    if isinstance(backend, ExecutionBackend):
        if backend_options:
            raise ValueError(
                "backend_options only apply when the backend is given by name; "
                "configure the instance directly instead"
            )
        return backend, False
    name, options = normalize_backend_spec(backend, backend_options)
    return create_backend(name, options), True
