"""A minimal discrete-event simulation engine.

Events are ``(time, sequence, callback)`` triples in a heap; the sequence
number breaks ties deterministically in scheduling order.  Components build on
two primitives: :meth:`DiscreteEventSimulator.schedule` (run a callback after
a delay) and :meth:`DiscreteEventSimulator.run` (drain the event queue).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable


@dataclass(order=True)
class _Event:
    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)


class DiscreteEventSimulator:
    """Priority-queue based discrete-event loop."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[_Event] = []
        self._sequence = 0
        self._processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at an absolute simulated time (≥ now)."""
        if time < self.now - 1e-12:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        self._sequence += 1
        heapq.heappush(self._queue, _Event(time=float(time), sequence=self._sequence, callback=callback))

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events until the queue drains (or a limit is reached).

        Returns the simulation time after the last processed event.
        """
        processed = 0
        while self._queue:
            if until is not None and self._queue[0].time > until:
                self.now = until
                break
            event = heapq.heappop(self._queue)
            self.now = event.time
            event.callback()
            processed += 1
            self._processed += 1
            if max_events is not None and processed >= max_events:
                break
        return self.now
