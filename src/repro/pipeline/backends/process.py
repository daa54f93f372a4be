"""The process backend: picklable work units on a process pool.

The parsing simulation is pure-Python CPU work, so threads cannot scale
it past the GIL; the process backend ships each batch to a worker
process instead.  The split of responsibilities keeps the cache layer
correct without any cross-process locking:

* **Children** hold the pickled parser and run
  :func:`~repro.pipeline.backends.base.parse_items` over a batch of items
  — a child reads the documents its references name — under a fresh phase
  timer when the parent is attributing phases; they return plain
  ``(results, decisions)`` tuples plus that timer's table.
* **The parent** keeps everything stateful: orchestration threads (one
  per process-pool slot, inherited from :class:`ThreadBackend`) drive the
  bounded in-flight window, merge each child's phase table into the
  run's timer, and because :meth:`ProcessBackend.site` is composed
  *inside* the pipeline's cache wrapper, cache lookups,
  single-flight leases, and write-backs all execute in these parent
  threads.  Single-flight therefore degrades gracefully under processes —
  it simply keeps working at parent scope, deduplicating what this
  process dispatches — and every child result is merged back into the
  parent's cache on return (write-back policies included).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import TYPE_CHECKING

from repro.obs import profiling as _profiling
from repro.pipeline.backends.base import (
    BackendError,
    BackendSpec,
    parse_items,
    register_backend,
)
from repro.pipeline.backends.thread import ThreadBackend

if TYPE_CHECKING:
    from repro.cache.cache import BatchWorker
    from repro.parsers.base import Parser

#: Per-child-process registry of unpickled parsers (filled by the pool
#: initializer so a trained engine crosses the IPC pipe once per worker
#: process, not once per batch).
_PARSER_REGISTRY: "dict[str, Parser]" = {}


def _register_parser(token: str, payload: bytes) -> None:
    """Pool initializer: install the run's parser in this child process."""
    _PARSER_REGISTRY[token] = pickle.loads(payload)


def _parse_in_child(token: str, parser: "Parser | None", batch: list, capture: bool):
    """Child-side task: ``(output, phase table or None)`` for one batch.

    ``parser`` is ``None`` for the parser the pool was initialised with
    (the task payload is then just the token and the batch).
    """
    if parser is None:
        parser = _PARSER_REGISTRY[token]
    if capture:
        return _profiling.PhaseCapture(partial(parse_items, parser))(batch)
    return parse_items(parser, batch), None


def _warmup() -> bool:
    """No-op task used to force worker processes to spawn eagerly."""
    return True


def _preferred_context(name: str | None) -> multiprocessing.context.BaseContext | None:
    """The requested start-method context, defaulting to fork when available.

    Fork keeps test- and notebook-defined parsers picklable by reference
    (the child already has the module loaded); platforms without fork fall
    back to their default start method.
    """
    if name is not None:
        return multiprocessing.get_context(name)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


class ProcessBackend(ThreadBackend):
    """Execute batches in worker processes behind a thread-orchestrated window.

    ``n_jobs`` worker processes execute the parser; the inherited thread
    pool (same size) only orchestrates — each orchestration thread blocks
    on its child future, runs the parent-side cache layer, and yields
    results in order.  The contract is a picklable parser: base parsers
    and trained engines are; one holding a lambda or a lock is not and
    raises a :class:`BackendError` explaining the contract.
    """

    name = "process"

    def __init__(
        self,
        n_jobs: int = 4,
        window: int | None = None,
        mp_context: str | None = None,
    ) -> None:
        super().__init__(n_jobs=n_jobs, window=window)
        if mp_context is not None and mp_context not in (
            multiprocessing.get_all_start_methods()
        ):
            raise ValueError(
                f"unknown mp_context {mp_context!r}; available: "
                f"{multiprocessing.get_all_start_methods()}"
            )
        self._mp_context_name = mp_context
        self._executor: ProcessPoolExecutor | None = None
        self._registered_token: str | None = None

    def _ensure_executor(
        self, token: str | None = None, payload: bytes | None = None
    ) -> ProcessPoolExecutor:
        with self._lifecycle_lock:
            self._check_open()
            if self._executor is None:
                initargs = ()
                initializer = None
                if token is not None and payload is not None:
                    # Ship the parser once per child via the initializer (it
                    # also re-runs when a crashed worker is replaced); batch
                    # submissions then carry only the token and the documents.
                    initializer = _register_parser
                    initargs = (token, payload)
                    self._registered_token = token
                self._executor = ProcessPoolExecutor(
                    max_workers=self.n_jobs,
                    mp_context=_preferred_context(self._mp_context_name),
                    initializer=initializer,
                    initargs=initargs,
                )
            return self._executor

    def site(self, parser: "Parser") -> "BatchWorker":
        # Serialise the parser up front: the pool would otherwise pickle it
        # on a feeder thread, surfacing a failure per batch as an opaque
        # exception instead of once with a diagnosis.
        try:
            payload = pickle.dumps(parser)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise BackendError(
                f"process backend requires a picklable parser; "
                f"{parser!r} could not be serialised ({exc}). Pass a "
                f"module-level parser/engine, or use the thread backend."
            ) from exc
        token = hashlib.sha256(payload).hexdigest()[:16]
        newly_created = self._executor is None
        executor = self._ensure_executor(token, payload)
        if newly_created:
            # Spawn the workers now, from the caller's thread, rather than
            # lazily from the orchestration threads the thread-pool window
            # starts later: forking a multi-threaded parent risks inheriting
            # held locks in the child (and warns on Python 3.12+).  This
            # also moves pool startup out of the per-batch latency stats.
            for future in [executor.submit(_warmup) for _ in range(self.n_jobs)]:
                future.result()
        # A second, different parser on a pool initialised for the first
        # one: correctness over IPC economy — ship it per call.
        shipped = None if token == self._registered_token else parser

        def parse_in_child(batch: list):
            # The child cannot see the run's timer: it records under one of
            # its own and the table merges here, inside the orchestration
            # thread's open `parse` phase.
            timer = _profiling.current_timer() if _profiling.phases_enabled() else None
            future = executor.submit(
                _parse_in_child, token, shipped, batch, timer is not None
            )
            try:
                output, phases = future.result()
            except pickle.PicklingError as exc:
                raise BackendError(
                    f"process backend requires picklable work units; "
                    f"{parser!r} or its batch could not be serialised "
                    f"({exc}). Pass a module-level parser/engine, or use "
                    f"the thread backend."
                ) from exc
            except BrokenProcessPool as exc:
                raise BackendError(
                    "a process-backend worker died; see the traceback above "
                    "(commonly: unpicklable work units under the spawn start "
                    "method, or the child was OOM-killed)"
                ) from exc
            if timer is not None:
                timer.merge_table(phases)
            return output

        return parse_in_child

    def close(self) -> None:
        # The inherited close marks the backend closed (no executor can be
        # created after it) and joins the orchestration threads first: they
        # block on child futures, so the children must outlive them.
        super().close()
        with self._lifecycle_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


register_backend(
    BackendSpec(
        name="process",
        factory=ProcessBackend,
        options=frozenset({"n_jobs", "window", "mp_context"}),
        description="process pool for GIL-free parsing; cache stays parent-side",
    )
)
