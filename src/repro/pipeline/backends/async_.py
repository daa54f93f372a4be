"""The async backend: the thread backend's loop with a window that moves.

Where the thread backend keeps a *fixed* number of batches in flight,
:class:`AsyncBackend` lets each map's ``AdaptiveWindow`` move: the window
grows additively while observed per-batch latency stays near its smoothed
baseline and shrinks multiplicatively when latency inflates — the classic
AIMD control loop, here used as a backpressure valve in front of the
executor threads that run the parse workers.  Submission, ordering,
cancellation and the pool lifecycle are all inherited; this module is the
window policy and its telemetry.

Window telemetry (high/low-water marks, growth/shrink counts, final
size) is aggregated across every map the instance ran and reported in
``ExecutionStats.extra`` under ``window_*`` keys.  Concurrent
``map_ordered`` calls are safe (see :class:`ThreadBackend`) — this is
what lets one shared ``AsyncBackend`` serve many simultaneous requests in
:class:`repro.serve.ParseService`.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.pipeline.backends.base import BackendSpec, ExecutionStats, register_backend
from repro.pipeline.backends.thread import THREAD_NAME_PREFIX, AdaptiveWindow, ThreadBackend

#: Thread-name prefix of the executor workers.
ASYNC_THREAD_PREFIX = f"{THREAD_NAME_PREFIX}-async"


class AsyncBackend(ThreadBackend):
    """Run batches on ``n_jobs`` threads behind an adaptive in-flight window.

    Parameters
    ----------
    n_jobs:
        Executor threads that run the batch workers.
    window:
        Initial in-flight window; defaults to ``n_jobs``.
    min_window / max_window:
        Bounds the adaptive controller moves within (defaults: 1 and
        ``4 * n_jobs``).
    adaptive:
        ``False`` pins the window at its initial size (the fixed-window
        behaviour of the thread backend, useful for A/B runs).
    """

    name = "async"

    def __init__(
        self,
        n_jobs: int = 4,
        window: int | None = None,
        min_window: int = 1,
        max_window: int | None = None,
        adaptive: bool = True,
    ) -> None:
        super().__init__(n_jobs=n_jobs, window=window if window is not None else n_jobs)
        self.min_window = min_window
        self.max_window = (
            max_window if max_window is not None else max(4 * n_jobs, self.window)
        )
        self.adaptive = bool(adaptive)
        self._make_window()  # validates the bounds now, not at the first map
        self._window_lock = threading.Lock()
        self._window_telemetry: dict[str, Any] = {}

    def _make_window(self) -> AdaptiveWindow:
        return AdaptiveWindow(self.window, self.min_window, self.max_window, self.adaptive)

    def _note_window(self, window: AdaptiveWindow) -> None:
        """Fold one finished map's window telemetry into the instance totals."""
        with self._window_lock:
            telemetry = self._window_telemetry
            telemetry.setdefault("window_initial", window.initial)
            telemetry["window_final"] = window.size
            telemetry["window_high_water"] = max(
                telemetry.get("window_high_water", 0), window.high_water
            )
            telemetry["window_low_water"] = min(
                telemetry.get("window_low_water", window.low_water), window.low_water
            )
            telemetry["window_growths"] = telemetry.get("window_growths", 0) + window.growths
            telemetry["window_shrinks"] = telemetry.get("window_shrinks", 0) + window.shrinks
            telemetry["maps_completed"] = telemetry.get("maps_completed", 0) + 1

    def stats(self) -> ExecutionStats:
        stats = super().stats()
        with self._window_lock:
            stats.extra.update(self._window_telemetry)
        return stats


register_backend(
    BackendSpec(
        name="async",
        factory=AsyncBackend,
        options=frozenset({"n_jobs", "window", "min_window", "max_window", "adaptive"}),
        description="thread pool behind an adaptive (AIMD) in-flight window",
    )
)
