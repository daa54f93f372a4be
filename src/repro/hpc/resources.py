"""Capacity-limited resources with FIFO queueing and utilisation accounting."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.hpc.events import DiscreteEventSimulator


class CapacityResource:
    """A resource with ``capacity`` identical slots and a FIFO wait queue.

    Callers request a slot with :meth:`acquire`, passing a callback invoked
    (via the simulator, at the current time) once a slot is granted, and must
    call :meth:`release` when done.  Busy-slot time is integrated so that
    utilisation can be reported at the end of a simulation.
    """

    def __init__(self, sim: DiscreteEventSimulator, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: deque[Callable[[], None]] = deque()
        self._busy_time = 0.0
        self._last_change = 0.0

    # ------------------------------------------------------------------ #
    def _account(self) -> None:
        now = self.sim.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def acquire(self, callback: Callable[[], None]) -> None:
        """Request a slot; ``callback`` runs when one is granted."""
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            self.sim.schedule(0.0, callback)
        else:
            self._waiting.append(callback)

    def release(self) -> None:
        """Return a slot; the next waiter (if any) is granted immediately."""
        if self._in_use <= 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        self._account()
        self._in_use -= 1
        if self._waiting:
            self._account()
            self._in_use += 1
            waiter = self._waiting.popleft()
            self.sim.schedule(0.0, waiter)

    # ------------------------------------------------------------------ #
    def utilization(self, over_time: float | None = None) -> float:
        """Mean busy fraction of the resource over the simulation so far."""
        self._account()
        horizon = over_time if over_time is not None else self.sim.now
        if horizon <= 0:
            return 0.0
        return min(1.0, self._busy_time / (horizon * self.capacity))


@dataclass
class BusyInterval:
    """One busy interval of a device (used by the GPU profiler)."""

    start: float
    end: float
    label: str = ""


class GpuDevice:
    """A single GPU: an exclusive resource that records its busy intervals."""

    def __init__(self, sim: DiscreteEventSimulator, gpu_id: str) -> None:
        self.sim = sim
        self.gpu_id = gpu_id
        self.resource = CapacityResource(sim, capacity=1, name=f"gpu:{gpu_id}")
        self.intervals: list[BusyInterval] = []
        #: Models currently resident in this GPU's memory.  Warm starting keeps
        #: every model loaded so far resident (a selector LLM and a ViT parser
        #: comfortably coexist within 40 GB), so each distinct model pays its
        #: load time at most once per device.
        self.loaded_models: set[str] = set()

    def acquire(self, callback: Callable[[], None]) -> None:
        self.resource.acquire(callback)

    def release(self) -> None:
        self.resource.release()

    def record_busy(self, start: float, end: float, label: str = "") -> None:
        """Record a busy interval (compute or model load) for profiling."""
        if end > start:
            self.intervals.append(BusyInterval(start=start, end=end, label=label))

    def utilization(self, over_time: float | None = None) -> float:
        """Busy fraction from the recorded intervals."""
        horizon = over_time if over_time is not None else self.sim.now
        if horizon <= 0:
            return 0.0
        busy = sum(iv.end - iv.start for iv in self.intervals)
        return min(1.0, busy / horizon)


class NodeResources:
    """Compute resources of one node: a CPU-core pool and per-GPU devices."""

    def __init__(
        self,
        sim: DiscreteEventSimulator,
        node_id: str,
        cpu_cores: int = 32,
        n_gpus: int = 4,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.cpu = CapacityResource(sim, capacity=cpu_cores, name=f"cpu:{node_id}")
        self.gpus = [GpuDevice(sim, gpu_id=f"{node_id}/gpu{i}") for i in range(n_gpus)]
        self._next_gpu = 0

    def any_gpu(self) -> GpuDevice:
        """Round-robin GPU pick (tasks queue on the chosen device)."""
        if not self.gpus:
            raise RuntimeError(f"node {self.node_id} has no GPUs")
        gpu = self.gpus[self._next_gpu % len(self.gpus)]
        self._next_gpu += 1
        return gpu
