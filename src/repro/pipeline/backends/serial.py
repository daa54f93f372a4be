"""The serial backend: batches run inline in the calling thread."""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Iterable, Iterator, TypeVar

from repro.pipeline.backends.base import BackendError, ExecutionBackend, ExecutionRecorder

_T = TypeVar("_T")
_R = TypeVar("_R")


class SerialBackend(ExecutionBackend):
    """Run every batch inline, one at a time, in the calling thread.

    The reference backend: zero scheduling machinery, deterministic
    execution order, and the baseline the parity tests hold every other
    backend to.  Telemetry is still recorded (one batch in flight, no
    queue wait) so reports have a uniform ``execution`` block.
    """

    name = "serial"

    def __init__(self) -> None:
        self._recorder = ExecutionRecorder(self.name)
        self._closed = False

    def map_ordered(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> Iterator[_R]:
        if self._closed:
            raise BackendError(f"{self.name} backend is closed")
        recorder = self._recorder
        for item in items:
            recorder.record_dispatch()
            recorder.record_in_flight(1)
            started = perf_counter()
            result = fn(item)
            recorder.record_batch(0.0, perf_counter() - started)
            yield result

    def close(self) -> None:
        self._closed = True
