"""The thread backend: the repo's one ordered-window loop.

:meth:`ThreadBackend.map_ordered` is the only place batches are submitted
to a pool, held in a pending ``deque`` and cancelled on teardown; the
``async``, ``process`` and ``remote`` backends inherit it and vary only
what a batch *does* (``wrap_inner``) or how the window *moves*
(:meth:`ThreadBackend._make_window`).  The window is an
:class:`AdaptiveWindow`: pinned for this backend, AIMD-controlled for
``async``.

Teardown is explicit: abandoning the streaming iterator cancels every
batch that has not started, and :meth:`ThreadBackend.close` joins the
pool (``shutdown(wait=True)``) so no worker threads outlive the backend —
the regression tests assert both.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from time import perf_counter
from typing import Callable, Iterable, Iterator, TypeVar

from repro.pipeline.backends.base import (
    BackendError,
    BackendSpec,
    ExecutionBackend,
    ExecutionRecorder,
    ExecutionStats,
    register_backend,
)

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Thread-name prefix of the pool workers (the leak regression test keys on it).
THREAD_NAME_PREFIX = "repro-backend"


class AdaptiveWindow:
    """AIMD controller for how many batches a backend keeps in flight.

    The controller watches per-batch execution latency (queue wait
    excluded) against an exponentially weighted moving average:

    * latency within ``growth_headroom`` of the EWMA → the window grows
      by one (additive increase), up to ``max_size``;
    * latency beyond ``shrink_headroom`` × EWMA → the window halves
      (multiplicative decrease, ``shrink_factor``), down to ``min_size``.

    Growth is the default posture — a stable latency profile means the
    executor still has headroom — while a latency spike (an overloaded
    pool, a straggler parser, GIL contention) collapses the window
    quickly so queued work stops piling onto a struggling executor.
    ``enabled=False`` pins the window at its initial size.  High/low-water
    marks and the growth/shrink counts are exported for
    ``ExecutionStats.extra``.
    """

    def __init__(
        self,
        initial: int,
        min_size: int = 1,
        max_size: int = 64,
        enabled: bool = True,
        smoothing: float = 0.3,
        growth_headroom: float = 1.1,
        shrink_headroom: float = 1.5,
        shrink_factor: float = 0.5,
    ) -> None:
        if min_size < 1:
            raise ValueError("min_window must be positive")
        if max_size < min_size:
            raise ValueError("max_window must be >= min_window")
        self.initial = min(max(initial, min_size), max_size)
        self.size = self.initial
        self.min_size = min_size
        self.max_size = max_size
        self.enabled = enabled
        self.smoothing = smoothing
        self.growth_headroom = growth_headroom
        self.shrink_headroom = shrink_headroom
        self.shrink_factor = shrink_factor
        self.high_water = self.size
        self.low_water = self.size
        self.growths = 0
        self.shrinks = 0
        self._ewma: float | None = None

    def observe(self, latency_seconds: float) -> int:
        """Feed one completed batch's latency; returns the updated window."""
        if not self.enabled:
            return self.size
        if self._ewma is None:
            self._ewma = latency_seconds
            return self.size
        if latency_seconds > self._ewma * self.shrink_headroom:
            shrunk = max(self.min_size, int(self.size * self.shrink_factor))
            if shrunk < self.size:
                self.size = shrunk
                self.shrinks += 1
                self.low_water = min(self.low_water, self.size)
        elif latency_seconds <= self._ewma * self.growth_headroom:
            if self.size < self.max_size:
                self.size += 1
                self.growths += 1
                self.high_water = max(self.high_water, self.size)
        self._ewma = (1.0 - self.smoothing) * self._ewma + self.smoothing * latency_seconds
        return self.size


class ThreadBackend(ExecutionBackend):
    """Fan batches out over ``n_jobs`` threads, yielding in input order.

    At most ``window`` (default ``2 * n_jobs``) batches are in flight, so
    streaming callers retain bounded memory over very long inputs.  Worker
    threads share the parent's memory: caches, single-flight guards, and
    engines need no adaptation (routing is stateless and telemetry is a
    return value).  Best suited to workloads that release the GIL (I/O,
    numpy) — for pure-Python CPU-bound parsing see the process backend.

    One instance may serve concurrent ``map_ordered`` calls (the
    :class:`repro.serve.ParseService` shape): per-call state lives in the
    generator, the recorder is lock-guarded, and everything a subclass
    creates on first use or releases in ``close()`` goes through
    ``_lifecycle_lock``.
    """

    name = "thread"

    def __init__(self, n_jobs: int = 4, window: int | None = None) -> None:
        if n_jobs < 1:
            raise ValueError("n_jobs must be positive")
        if window is not None and window < 1:
            raise ValueError("window must be positive")
        self.n_jobs = n_jobs
        self.window = window if window is not None else 2 * n_jobs
        self._recorder = ExecutionRecorder(self.name)
        #: Guards first-use creation and the mark-closed-and-take-resources
        #: step of close(); joins and shutdowns run outside it.
        self._lifecycle_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False

    @property
    def workers(self) -> int:
        return self.n_jobs

    def _check_open(self) -> None:
        """Refuse work on a closed backend (call under ``_lifecycle_lock``)."""
        if self._closed:
            raise BackendError(f"{self.name} backend is closed")

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lifecycle_lock:
            self._check_open()
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.n_jobs,
                    thread_name_prefix=f"{THREAD_NAME_PREFIX}-{self.name}",
                )
            return self._pool

    def _make_window(self) -> AdaptiveWindow:
        """The in-flight window of one map (here: pinned at ``window``)."""
        return AdaptiveWindow(self.window, max_size=self.window, enabled=False)

    def _note_window(self, window: AdaptiveWindow) -> None:
        """Hook: one map finished with ``window`` (a pinned one has no story)."""

    def map_ordered(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> Iterator[_R]:
        pool = self._ensure_pool()
        window = self._make_window()
        recorder = self._recorder

        def task(item: _T, submitted_at: float) -> tuple[float, _R]:
            started = perf_counter()
            try:
                result = fn(item)
            finally:
                # A batch that executed to an exception still *finished*:
                # recording it keeps completed + cancelled == dispatched
                # on errored runs.
                latency = perf_counter() - started
                recorder.record_batch(started - submitted_at, latency)
            return latency, result

        iterator = iter(items)
        pending: deque[Future[tuple[float, _R]]] = deque()

        def refill() -> None:
            for item in itertools.islice(iterator, max(0, window.size - len(pending))):
                recorder.record_dispatch()
                pending.append(pool.submit(task, item, perf_counter()))
                recorder.record_in_flight(len(pending))

        try:
            refill()
            while pending:
                latency, result = pending.popleft().result()
                window.observe(latency)
                yield result
                refill()
        finally:
            # An abandoned iterator (or a worker error) leaves up to
            # `window` batches queued that nobody will consume: cancel them
            # so close() only has to join batches that actually started.
            recorder.record_cancelled(sum(1 for future in pending if future.cancel()))
            self._note_window(window)

    def stats(self) -> ExecutionStats:
        return self._recorder.snapshot(self.name, self.workers)

    def close(self) -> None:
        with self._lifecycle_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            # cancel_futures guards against maps still mid-stream; wait=True
            # joins the workers so no threads outlive the backend.
            pool.shutdown(wait=True, cancel_futures=True)


register_backend(
    BackendSpec(
        name="thread",
        factory=ThreadBackend,
        options=frozenset({"n_jobs", "window"}),
        description="thread pool sharing parent memory (cache/single-flight native)",
    )
)
