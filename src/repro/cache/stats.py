"""Cache telemetry: the ``CacheStats`` block carried by ``ParseReport``.

Counters are accumulated through a thread-safe :class:`CacheStatsRecorder`
(the pipeline's worker threads all report into one recorder per run) and
snapshotted into an immutable-ish :class:`CacheStats` value for the report.
The same counters feed the process-wide :mod:`repro.obs.metrics` registry,
so per-run report stats and the global ``repro_cache_*`` series can never
drift apart: :meth:`CacheStatsRecorder.publish` adds what was recorded since
its last call, once per batch (:func:`repro.cache.run_cached_batch` calls it
when the batch returns or raises), not once per document.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro.obs import metrics as _metrics

_CACHE_HITS = _metrics.counter(
    "repro_cache_hits_total", "Documents served from the parse cache."
)
_CACHE_MISSES = _metrics.counter(
    "repro_cache_misses_total", "Documents that had to be parsed (cache miss)."
)
_CACHE_COALESCED = _metrics.counter(
    "repro_cache_coalesced_total",
    "Documents deduplicated by the single-flight guard.",
)
_CACHE_STORES = _metrics.counter(
    "repro_cache_stores_total", "Entries written to the parse cache."
)
_CACHE_BYTES = _metrics.counter(
    "repro_cache_bytes_total",
    "Serialised entry bytes moved from/to the disk tier.",
    ("direction",),
)
_CACHE_TIME_SAVED = _metrics.counter(
    "repro_cache_time_saved_seconds_total",
    "Wall-clock parse cost the cache avoided repeating.",
)


@dataclass
class CacheStats:
    """What the cache did during one pipeline run.

    Attributes
    ----------
    hits:
        Documents served from the cache (memory or disk tier).
    misses:
        Documents that had to be parsed.
    coalesced:
        Documents whose parse was deduplicated by the single-flight guard
        (another worker was already parsing the same key).
    stores:
        Entries written to the cache.
    bytes_read, bytes_written:
        Serialised entry bytes moved from/to the disk tier.
    time_saved_seconds:
        Sum of the original wall-clock parse cost of every hit — the work
        the cache avoided repeating.
    """

    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    stores: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    time_saved_seconds: float = 0.0

    @property
    def requests(self) -> int:
        """Total lookups the run issued against the cache."""
        return self.hits + self.misses + self.coalesced

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without parsing (hits + coalesces)."""
        if self.requests == 0:
            return 0.0
        return (self.hits + self.coalesced) / self.requests

    @property
    def any_activity(self) -> bool:
        """Whether the cache saw any traffic at all (False for policy off)."""
        return self.requests > 0 or self.stores > 0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            coalesced=self.coalesced + other.coalesced,
            stores=self.stores + other.stores,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
            time_saved_seconds=self.time_saved_seconds + other.time_saved_seconds,
        )

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "stores": self.stores,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "time_saved_seconds": self.time_saved_seconds,
            "hit_rate": round(self.hit_rate, 4),
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> "CacheStats":
        return cls(
            hits=int(payload.get("hits", 0)),
            misses=int(payload.get("misses", 0)),
            coalesced=int(payload.get("coalesced", 0)),
            stores=int(payload.get("stores", 0)),
            bytes_read=int(payload.get("bytes_read", 0)),
            bytes_written=int(payload.get("bytes_written", 0)),
            time_saved_seconds=float(payload.get("time_saved_seconds", 0.0)),
        )


class CacheStatsRecorder:
    """Thread-safe accumulator the cache reports into during a run.

    The ``record_*`` calls only count; :meth:`publish` hands the registry
    what they counted since the last publish.  Whoever drives
    :meth:`~repro.cache.ParseCache.lookup` / ``store`` with a recorder of its
    own outside :func:`~repro.cache.run_cached_batch` publishes it too, or
    its counts stay out of the ``repro_cache_*`` series.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats = CacheStats()
        self._published = CacheStats()

    def record_hit(self, time_saved_seconds: float = 0.0, bytes_read: int = 0) -> None:
        with self._lock:
            self._stats.hits += 1
            self._stats.time_saved_seconds += time_saved_seconds
            self._stats.bytes_read += bytes_read

    def record_miss(self) -> None:
        with self._lock:
            self._stats.misses += 1

    def record_coalesced(self, time_saved_seconds: float = 0.0) -> None:
        with self._lock:
            self._stats.coalesced += 1
            self._stats.time_saved_seconds += time_saved_seconds

    def record_store(self, bytes_written: int = 0) -> None:
        with self._lock:
            self._stats.stores += 1
            self._stats.bytes_written += bytes_written

    def snapshot(self) -> CacheStats:
        """An independent copy of the counters so far."""
        with self._lock:
            return CacheStats(**vars(self._stats))

    def publish(self) -> None:
        """Add the counts recorded since the last publish to the registry.

        Safe from several threads at once: each call takes the delta since
        the one before it, so every count is published exactly once.  The
        integer series end up equal to per-event increments; the time-saved
        series may differ in its last float bits (a difference of running
        sums is not the sum of the terms).
        """
        with self._lock:
            now = CacheStats(**vars(self._stats))
            before, self._published = self._published, now
        for counter, delta, labels in (
            (_CACHE_HITS, now.hits - before.hits, {}),
            (_CACHE_MISSES, now.misses - before.misses, {}),
            (_CACHE_COALESCED, now.coalesced - before.coalesced, {}),
            (_CACHE_STORES, now.stores - before.stores, {}),
            (_CACHE_TIME_SAVED, now.time_saved_seconds - before.time_saved_seconds, {}),
            (_CACHE_BYTES, now.bytes_read - before.bytes_read, {"direction": "read"}),
            (_CACHE_BYTES, now.bytes_written - before.bytes_written, {"direction": "written"}),
        ):
            if delta:
                counter.inc(delta, **labels)
