"""The thread backend: the repo's one ordered-window loop.

:meth:`ThreadBackend.map_ordered` is the only place batches are submitted
to a pool, held in a pending ``deque`` and cancelled on teardown; the
``remote`` backend inherits it and varies only what a batch *does*
(``site``).  The in-flight window is one integer, ``ThreadBackend.window``;
``async`` and ``process`` are accepted names for this backend.

The pool is this backend's boundary, and ``contextvars`` do not cross it
on their own: every task is submitted under a copy of the submitting
thread's context, so a pool thread sees the run's trace context and
records phases straight into the run's
:class:`~repro.obs.profiling.PhaseTimer` — nothing is captured and merged.

Teardown is explicit: abandoning the streaming iterator cancels every
batch that has not started, and :meth:`ThreadBackend.close` joins the
pool (``shutdown(wait=True)``) so no worker threads outlive the backend —
the regression tests assert both.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from time import perf_counter
from typing import Callable, Iterable, Iterator, TypeVar

from repro.pipeline.backends.base import BackendError, ExecutionBackend, ExecutionRecorder

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Thread-name prefix of the pool workers (the leak regression test keys on it).
THREAD_NAME_PREFIX = "repro-backend"


class ThreadBackend(ExecutionBackend):
    """Fan batches out over ``n_jobs`` threads, yielding in input order.

    At most ``window`` (default ``2 * n_jobs``) batches are in flight, so
    streaming callers retain bounded memory over very long inputs.  Worker
    threads share the parent's memory: caches, single-flight guards, and
    engines need no adaptation (routing is stateless and telemetry is a
    return value).  Best suited to workloads that release the GIL (I/O,
    numpy) — for pure-Python CPU-bound parsing past one core use the
    ``remote`` backend.

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

    def map_ordered(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> Iterator[_R]:
        pool = self._ensure_pool()
        recorder = self._recorder

        def task(item: _T, submitted_at: float) -> _R:
            started = perf_counter()
            try:
                return fn(item)
            finally:
                # A batch that executed to an exception still *finished*:
                # recording it keeps completed + cancelled == dispatched
                # on errored runs.
                recorder.record_batch(started - submitted_at, perf_counter() - started)

        iterator = iter(items)
        pending: deque[Future[_R]] = deque()

        def refill() -> None:
            for item in itertools.islice(iterator, self.window - len(pending)):
                recorder.record_dispatch()
                # One context copy per task: a Context cannot be entered by
                # two threads at once.
                context = contextvars.copy_context()
                pending.append(pool.submit(context.run, task, item, perf_counter()))
                recorder.record_in_flight(len(pending))

        try:
            refill()
            while pending:
                yield pending.popleft().result()
                refill()
        finally:
            # An abandoned iterator (or a worker error) leaves up to
            # `window` batches queued that nobody will consume: cancel them
            # so close() only has to join batches that actually started.
            recorder.record_cancelled(sum(1 for future in pending if future.cancel()))

    def close(self) -> None:
        with self._lifecycle_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            # cancel_futures guards against maps still mid-stream; wait=True
            # joins the workers so no threads outlive the backend.
            pool.shutdown(wait=True, cancel_futures=True)
