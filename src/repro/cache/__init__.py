"""Content-addressed parse-result caching.

At production scale the same documents (and near-identical revisions) recur
constantly; the cheapest parse is the one you never repeat.  This subpackage
provides the cache the :class:`repro.pipeline.ParsePipeline` consults when a
:class:`~repro.pipeline.ParseRequest` carries a cache policy:

* :mod:`repro.cache.keys` — content hashing (built on the dataset-dedup
  hashing scheme) and the ``(content hash, config fingerprint)`` cache key.
* :mod:`repro.cache.memory` — the bounded in-memory LRU tier.
* :mod:`repro.cache.disk` — the sharded disk backend: hash-prefix shards
  of framed, CRC-checked records, append-on-flush and atomic rewrites,
  reads that skip a damaged record.
* :mod:`repro.cache.refindex` — the reference index in front of it all:
  ``ref.key()`` → content hash, so a referenced document that was read once
  is keyed by a ``stat`` instead of a read and a hash.
* :mod:`repro.cache.singleflight` — the guard that collapses concurrent
  parses of one key into a single computation.
* :mod:`repro.cache.stats` — the ``CacheStats`` telemetry block carried by
  ``ParseReport``.
* :mod:`repro.cache.cache` — :class:`ParseCache` itself, the
  :class:`CachePolicy` (off/read/write/readwrite), and the batch adapter
  the pipeline wraps its workers with.

Quick tour::

    from repro.cache import ParseCache
    from repro.pipeline import ParsePipeline, ParseRequest

    pipeline = ParsePipeline(cache=ParseCache("/tmp/parse-cache"))
    cold = pipeline.run(ParseRequest(parser="pymupdf", source="synthetic:50", cache="readwrite"))
    warm = pipeline.run(ParseRequest(parser="pymupdf", source="synthetic:50", cache="readwrite"))
    assert warm.cache.hits == 50
"""

from repro.cache.cache import (
    CacheEntry,
    CachePolicy,
    ParseCache,
    cached_batch_worker,
    run_cached_batch,
)
from repro.cache.disk import ShardedDiskStore
from repro.cache.keys import CacheKey, document_content_hash, parse_cache_key
from repro.cache.memory import LruTier
from repro.cache.singleflight import Flight, SingleFlight
from repro.cache.stats import CacheStats, CacheStatsRecorder

__all__ = [
    "CacheEntry",
    "CacheKey",
    "CachePolicy",
    "CacheStats",
    "CacheStatsRecorder",
    "Flight",
    "LruTier",
    "ParseCache",
    "ShardedDiskStore",
    "SingleFlight",
    "cached_batch_worker",
    "document_content_hash",
    "parse_cache_key",
    "run_cached_batch",
]
