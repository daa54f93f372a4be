"""Storage models: the shared parallel filesystem and node-local staging.

The paper aggregates PDFs into compressed archives on a Lustre filesystem and
stages them to node-local RAM before parsing, precisely because many small
reads against the shared filesystem do not scale.  The shared filesystem is
modelled as a pool of concurrent full-rate streams: as long as fewer than
``max_concurrent_streams`` reads are in flight each proceeds at
``per_stream_bandwidth``; beyond that, requests queue.  This reproduces the
empirical behaviour in Figure 5 where extraction parsers stop scaling once
filesystem delivery, not compute, is the bottleneck.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

from repro.hpc.events import DiscreteEventSimulator
from repro.hpc.resources import CapacityResource


@dataclass(frozen=True)
class SharedFilesystemConfig:
    """Parameters of the shared parallel filesystem.

    The defaults approximate the paper's Eagle/ClusterStor numbers scaled to
    the simulation's units: an aggregate delivered bandwidth around
    ``per_stream_bandwidth × max_concurrent_streams`` ≈ 40 GB/s for archive
    reads (well below the theoretical 650 GB/s peak, as observed in practice
    for many-client striped reads), with per-stream rates around 800 MB/s.
    """

    per_stream_bandwidth_mb_s: float = 800.0
    max_concurrent_streams: int = 32
    request_latency_s: float = 0.02
    write_bandwidth_mb_s: float = 600.0


class SharedFilesystem:
    """Contention-aware shared filesystem."""

    def __init__(
        self, sim: DiscreteEventSimulator, config: SharedFilesystemConfig | None = None
    ) -> None:
        self.sim = sim
        self.config = config or SharedFilesystemConfig()
        self.streams = CapacityResource(
            sim, capacity=self.config.max_concurrent_streams, name="shared-fs"
        )
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        self.reads_completed = 0

    def read(self, size_mb: float, on_complete: Callable[[], None]) -> None:
        """Read ``size_mb`` from the shared filesystem, then run ``on_complete``."""
        if size_mb < 0:
            raise ValueError("size_mb must be non-negative")

        def start() -> None:
            duration = self.config.request_latency_s + size_mb / self.config.per_stream_bandwidth_mb_s

            def finish() -> None:
                self.streams.release()
                self.bytes_read += size_mb
                self.reads_completed += 1
                on_complete()

            self.sim.schedule(duration, finish)

        self.streams.acquire(start)

    def write(self, size_mb: float, on_complete: Callable[[], None]) -> None:
        """Write ``size_mb`` (parsed text output) to the shared filesystem."""
        if size_mb < 0:
            raise ValueError("size_mb must be non-negative")

        def start() -> None:
            duration = self.config.request_latency_s + size_mb / self.config.write_bandwidth_mb_s

            def finish() -> None:
                self.streams.release()
                self.bytes_written += size_mb
                on_complete()

            self.sim.schedule(duration, finish)

        self.streams.acquire(start)


#: Accounting slack (MB) below which an eviction overshoot is treated as
#: floating-point drift from accumulated stage/evict arithmetic, not a bug.
_EVICTION_TOLERANCE_MB = 1e-6


class NodeLocalStore:
    """Node-local RAM staging area (bounded capacity, effectively instant I/O)."""

    def __init__(self, capacity_mb: float = 200_000.0) -> None:
        self.capacity_mb = capacity_mb
        self.used_mb = 0.0
        self.peak_mb = 0.0
        self.evictions = 0

    def stage(self, size_mb: float) -> bool:
        """Reserve staging space; returns False when the store is full."""
        if self.used_mb + size_mb > self.capacity_mb:
            return False
        self.used_mb += size_mb
        self.peak_mb = max(self.peak_mb, self.used_mb)
        return True

    def evict(self, size_mb: float) -> float:
        """Release staged data once its documents are processed.

        Returns the MB actually freed.  Asking to evict more than is staged
        indicates an accounting bug upstream (e.g. evicting an archive whose
        ``stage`` call was refused): the request is clamped to what is
        staged, but loudly — a :class:`RuntimeWarning` is emitted instead of
        silently zeroing the counter.
        """
        if size_mb < 0:
            raise ValueError("size_mb must be non-negative")
        freed = min(size_mb, self.used_mb)
        if size_mb > self.used_mb + _EVICTION_TOLERANCE_MB:
            warnings.warn(
                f"over-eviction: asked to evict {size_mb:.1f} MB with only "
                f"{self.used_mb:.1f} MB staged (clamped to {freed:.1f} MB)",
                RuntimeWarning,
                stacklevel=2,
            )
        self.used_mb -= freed
        self.evictions += 1
        return freed
