"""The content-addressed parse-result cache.

:class:`ParseCache` combines four mechanisms:

1. a bounded in-memory LRU tier (:class:`repro.cache.memory.LruTier`) for
   the hot working set,
2. an optional sharded on-disk backend
   (:class:`repro.cache.disk.ShardedDiskStore`) that persists entries
   across processes with append-on-flush, atomic rewrites and
   corruption-tolerant reads, and
3. a single-flight guard (:class:`repro.cache.singleflight.SingleFlight`)
   so concurrent workers that miss on the same key do the parse exactly
   once, and
4. a reference index (:class:`repro.cache.refindex.ReferenceIndex`) that
   remembers the content hash of every document it has hashed that was read
   through a reference.  A batch is a list of items — documents and
   references, freely mixed — and :meth:`ParseCache.key_items` keys it slot
   by slot: a document is hashed, a reference the index knows stays a
   reference, and only an unknown one is read here (it has to be hashed).
   A miss the index knew therefore reaches the execution site — a pool
   thread, a remote worker — still a reference, and a hit is never read at
   all.

Entries are addressed by :class:`repro.cache.keys.CacheKey` — the
document's content hash plus the parser's configuration fingerprint — so a
change to α, model weights, or parser version keys to fresh slots and the
stale entries age out of the LRU (or are dropped with ``purge``).

:func:`cached_batch_worker` adapts the cache to the pipeline's batch
execution: hits are filled from the cache, misses are parsed as one
sub-batch (preserving the engine's per-batch α semantics for the documents
that actually run), and results are merged back in document order.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Sequence

from repro.cache.disk import ShardedDiskStore
from repro.cache.keys import CacheKey, document_content_hash
from repro.cache.memory import LruTier
from repro.cache.refindex import ReferenceIndex
from repro.cache.singleflight import Flight, SingleFlight
from repro.cache.stats import CacheStatsRecorder
from repro.core.engine import RoutingDecision
from repro.documents.sources import DocumentRef, Item, document_origin, load_items
from repro.obs import profiling as _profiling
from repro.parsers.base import ParseResult, ResourceUsage
from repro.utils.codec import ProtocolError


class CachePolicy(str, enum.Enum):
    """What a request allows the cache to do.

    ========== ===== ======
    policy     reads writes
    ========== ===== ======
    off        no    no
    read       yes   no
    write      no    yes
    readwrite  yes   yes
    ========== ===== ======

    ``read`` serves warm traffic without growing the cache (e.g. replaying
    against a frozen snapshot); ``write`` repopulates without trusting
    existing entries (e.g. after a parser upgrade you want measured fresh).
    """

    OFF = "off"
    READ = "read"
    WRITE = "write"
    READWRITE = "readwrite"

    @property
    def reads(self) -> bool:
        return self in (CachePolicy.READ, CachePolicy.READWRITE)

    @property
    def writes(self) -> bool:
        return self in (CachePolicy.WRITE, CachePolicy.READWRITE)

    @classmethod
    def coerce(cls, value: "CachePolicy | str") -> "CachePolicy":
        if isinstance(value, CachePolicy):
            return value
        try:
            return cls(value)
        except ValueError as exc:
            raise ValueError(
                f"unknown cache policy {value!r}; expected one of "
                f"{[p.value for p in cls]}"
            ) from exc


@dataclass
class CacheEntry:
    """One cached parse: the result, its routing decision, and provenance."""

    key: str
    result: ParseResult
    decision: RoutingDecision | None = None
    compute_seconds: float = 0.0
    stored_at: float = 0.0

    def fresh_result(self) -> ParseResult:
        """An independent copy of the result (callers may mutate theirs)."""
        return ParseResult(
            parser_name=self.result.parser_name,
            doc_id=self.result.doc_id,
            page_texts=list(self.result.page_texts),
            usage=self.result.usage,
            succeeded=self.result.succeeded,
            error=self.result.error,
        )

    # ------------------------------------------------------------------ #
    # Serialisation (the payload of an on-disk record)
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "compute_seconds": self.compute_seconds,
            "stored_at": self.stored_at,
            "result": self.result.to_json_dict(),
            "decision": None if self.decision is None else self.decision.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> "CacheEntry":
        decision = payload.get("decision")
        return cls(
            key=payload["key"],
            result=ParseResult.from_json_dict(payload["result"]),
            decision=None if decision is None else RoutingDecision.from_json_dict(decision),
            compute_seconds=float(payload.get("compute_seconds", 0.0)),
            stored_at=float(payload.get("stored_at", 0.0)),
        )


_NULL_RECORDER = CacheStatsRecorder()


class ParseCache:
    """Two-tier content-addressed cache with single-flight deduplication.

    Parameters
    ----------
    directory:
        Root of the sharded on-disk backend; ``None`` keeps the cache
        memory-only (still bounded, still single-flighted).
    n_shards:
        Number of hash-prefix shard files of the disk backend.
    max_memory_entries:
        Capacity of the in-memory LRU tier.
    flush_every:
        Auto-flush threshold of the disk backend (puts between flushes).
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        n_shards: int = 16,
        max_memory_entries: int = 4096,
        flush_every: int = 256,
    ) -> None:
        self.memory: LruTier[CacheEntry] = LruTier(max_entries=max_memory_entries)
        self.disk = (
            ShardedDiskStore(directory, n_shards=n_shards, flush_every=flush_every)
            if directory is not None
            else None
        )
        self.flights = SingleFlight()
        #: ``ref.key()`` → content hash, so a referenced document that was
        #: read once is keyed without being read again.
        self.refs = ReferenceIndex(None if self.disk is None else self.disk.directory)

    # ------------------------------------------------------------------ #
    # Tiered lookup / store
    # ------------------------------------------------------------------ #
    def lookup(
        self, key: CacheKey | str, recorder: CacheStatsRecorder | None = None
    ) -> CacheEntry | None:
        """Check memory then disk; promote disk hits into the memory tier.

        Without a ``recorder`` the hit is published to the registry at once;
        with one, whoever owns it publishes (:func:`run_cached_batch` does,
        once per batch).
        """
        if recorder is None:
            entry = self.lookup(key, _NULL_RECORDER)
            _NULL_RECORDER.publish()
            return entry
        raw = str(key)
        entry = self.memory.get(raw)
        if entry is not None:
            recorder.record_hit(time_saved_seconds=entry.compute_seconds)
            return entry
        if self.disk is not None:
            try:
                found = self.disk.get_with_size(raw)
                if found is None:
                    return None
                payload, nbytes = found
                entry = CacheEntry.from_json_dict(payload)
            except (KeyError, TypeError, ValueError, ProtocolError):
                # A record whose checks passed but whose payload does not
                # decode, or breaks the schema: treat like a torn one and drop it.
                self.disk.delete(raw)
                return None
            self.memory.put(raw, entry)
            recorder.record_hit(time_saved_seconds=entry.compute_seconds, bytes_read=nbytes)
            return entry
        return None

    def store(
        self,
        key: CacheKey | str,
        result: ParseResult,
        decision: RoutingDecision | None = None,
        compute_seconds: float = 0.0,
        recorder: CacheStatsRecorder | None = None,
    ) -> CacheEntry:
        """Insert a parse into both tiers (disk durable after ``flush``).

        The ``recorder`` is published like :meth:`lookup`'s.
        """
        if recorder is None:
            entry = self.store(key, result, decision, compute_seconds, _NULL_RECORDER)
            _NULL_RECORDER.publish()
            return entry
        raw = str(key)
        entry = CacheEntry(
            key=raw,
            result=result,
            decision=decision,
            compute_seconds=compute_seconds,
            stored_at=time.time(),
        )
        self.memory.put(raw, entry)
        bytes_written = 0
        if self.disk is not None:
            bytes_written = self.disk.put(raw, entry.to_json_dict())
        recorder.record_store(bytes_written=bytes_written)
        return entry

    def key_items(
        self,
        items: "Sequence[Item]",
        config_fingerprint: str,
        hashes: "Sequence[str | None] | None" = None,
    ) -> "tuple[list[str], list[Item]]":
        """Cache keys of one batch of items, reading as few documents as possible.

        Slot by slot: a document is hashed; a reference the index knows is
        keyed from it and stays a reference; an unknown reference is read
        (:func:`~repro.documents.sources.load_items`), hashed and replaced by
        its document.  Every hashed document that was read through a
        reference (:func:`~repro.documents.sources.document_origin`) — here,
        or by whoever built the batch — is remembered under that reference.
        ``hashes`` gives the content hashes
        a caller already holds (a worker's inline descriptors carry them);
        such a slot is keyed as told and its item is not looked at.
        Returns the keys and the items as they now stand.  Everything but
        the reads is attributed to ``cache.key``.
        """
        started = perf_counter()
        items = list(items)
        hashes = list(hashes) if hashes is not None else [None] * len(items)
        asked = [slot for slot, known in enumerate(hashes) if known is None]
        refs = [slot for slot in asked if isinstance(items[slot], DocumentRef)]
        for slot, known in zip(refs, self.refs.lookup(items[slot] for slot in refs)):
            hashes[slot] = known
        unknown = [slot for slot in refs if hashes[slot] is None]
        key_seconds = perf_counter() - started
        loaded = load_items([items[slot] for slot in unknown])
        started = perf_counter()
        for slot, document in zip(unknown, loaded):
            items[slot] = document
        learned = []
        for slot in asked:
            if hashes[slot] is None:
                hashes[slot] = document_content_hash(items[slot])
                if (origin := document_origin(items[slot])) is not None:
                    learned.append((origin, hashes[slot]))
        self.refs.remember(learned)
        keys = [
            str(CacheKey(content_hash, config_fingerprint)) for content_hash in hashes
        ]
        key_seconds += perf_counter() - started
        if asked:
            _profiling.record(
                "cache.key", key_seconds, cpu_seconds=key_seconds, calls=len(asked)
            )
        return keys, items

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def flush(self) -> int:
        """Persist buffered disk writes; returns bytes written."""
        if self.disk is None:
            return 0
        return self.disk.flush() + self.refs.flush()

    def purge(self, config_fingerprint: str | None = None) -> int:
        """Drop entries (all, or only one parser configuration's); returns count.

        Dropping everything drops the reference index too; one parser's
        entries leave it alone, because it is parser-independent.
        """
        if config_fingerprint is None:
            removed = len(self.memory)
            self.memory.clear()
            self.refs.clear()
            if self.disk is not None:
                removed = max(removed, self.disk.purge())
            return removed

        def key_matches(raw: str) -> bool:
            try:
                return CacheKey.parse(raw).config_fingerprint == config_fingerprint
            except ValueError:
                return True  # malformed entries are purged too

        memory_removed = self.memory.purge(key_matches)
        if self.disk is not None:
            # The disk tier is a superset of the memory tier, so its count
            # is the authoritative one.
            return self.disk.purge(
                lambda payload: key_matches(str(payload.get("key", "")))
            )
        return memory_removed

    def describe(self) -> dict[str, Any]:
        """Inventory of the cache (the ``repro cache stats`` payload)."""
        description: dict[str, Any] = {
            "memory_entries": len(self.memory),
            "memory_capacity": self.memory.max_entries,
            "directory": None,
            "entries": len(self.memory),
            "shards": 0,
            "bytes_on_disk": 0,
            "stale_shard_bytes": 0,
            "superseded_lines": 0,
            "corrupt_lines_skipped": 0,
            "parsers": {},
            "ref_index_entries": len(self.refs),
            "ref_index_bytes": self.refs.bytes_on_disk(),
            "ref_index_stale_bytes": self.refs.stale_bytes_on_disk(),
        }
        if self.disk is None:
            return description
        parsers: dict[str, int] = {}
        total = 0
        for payload in self.disk.iter_entries():
            total += 1
            name = str(payload.get("result", {}).get("parser_name", "?"))
            parsers[name] = parsers.get(name, 0) + 1
        description.update(
            {
                "directory": str(self.disk.directory),
                "entries": total,
                "shards": len(self.disk.shard_paths()),
                "bytes_on_disk": self.disk.bytes_on_disk(),
                "stale_shard_bytes": self.disk.stale_bytes_on_disk(),
                "superseded_lines": self.disk.superseded_lines(),
                "corrupt_lines_skipped": self.disk.corrupt_lines_skipped,
                "parsers": dict(sorted(parsers.items())),
            }
        )
        return description


# ---------------------------------------------------------------------- #
# Pipeline adapter
# ---------------------------------------------------------------------- #
#: A pipeline batch worker: items (documents and references) in,
#: (results, decisions) out.
BatchWorker = Callable[[list[Item]], tuple[list[ParseResult], list[RoutingDecision]]]


def cached_batch_worker(
    cache: ParseCache,
    policy: CachePolicy | str,
    config_fingerprint: str,
    inner: BatchWorker,
    recorder: CacheStatsRecorder | None = None,
) -> BatchWorker:
    """Wrap a batch worker with :func:`run_cached_batch`, keyed per item.

    The batch is keyed by :meth:`ParseCache.key_items`: documents are
    hashed, references go through the reference index, and ``inner`` gets
    the misses as they then stand — a reference the index knew is still a
    reference when it reaches the execution site.
    """
    policy = CachePolicy.coerce(policy)

    def run_batch(
        batch: list[Item],
    ) -> tuple[list[ParseResult], list[RoutingDecision]]:
        keys, items = cache.key_items(batch, config_fingerprint)
        return run_cached_batch(cache, policy, keys, items.__getitem__, inner, recorder)

    return run_batch


def run_cached_batch(
    cache: ParseCache,
    policy: CachePolicy,
    keys: Sequence[str],
    load: Callable[[int], Item],
    inner: BatchWorker,
    recorder: CacheStatsRecorder | None = None,
) -> tuple[list[ParseResult], list[RoutingDecision]]:
    """Run one batch, given as cache keys, against the cache.

    Slots whose key is cached are filled from the cache; keys another
    worker is currently parsing are awaited (coalesced); the remaining
    slots are parsed as **one** sub-batch through ``inner`` (so the
    engine's per-batch α budget applies to the documents that actually
    run) and, policy permitting, stored.  Results are merged back in slot
    order, with per-document routing decisions replayed from the cache
    for hits.  ``load(slot)`` fetches the slot's item — a document, or a
    reference ``inner`` reads where it parses — and is called only for the
    slots that parse: a batch of hits needs no documents at all.
    The recorder's counts reach the ``repro_cache_*`` series once, when the
    batch returns or raises.
    """
    recorder = recorder or _NULL_RECORDER
    try:
        return _run_cached_batch(cache, policy, keys, load, inner, recorder)
    finally:
        recorder.publish()


def _run_cached_batch(
    cache: ParseCache,
    policy: CachePolicy,
    keys: Sequence[str],
    load: Callable[[int], Item],
    inner: BatchWorker,
    recorder: CacheStatsRecorder,
) -> tuple[list[ParseResult], list[RoutingDecision]]:
    n = len(keys)
    entries: list[CacheEntry | None] = [None] * n
    waits: list[tuple[int, Flight]] = []
    owned: deque[tuple[int, str, Flight]] = deque()  # begun, not yet settled
    owned_by_key: dict[str, int] = {}
    duplicates: list[tuple[int, int]] = []  # (slot, slot of owning occurrence)
    # Phase attribution accumulators: one leaf record per batch for each
    # of lookup / store, instead of a (costlier) nested phase bracket
    # around every per-document operation.
    lookup_seconds = 0.0
    lookup_calls = 0
    store_seconds = 0.0
    store_calls = 0

    # Any exception while we hold unsettled flights must fail them, or
    # every other worker coalescing on those keys blocks forever.
    try:
        for i, raw in enumerate(keys):
            if policy.reads:
                tick = perf_counter()
                entry = cache.lookup(raw, recorder)
                lookup_seconds += perf_counter() - tick
                lookup_calls += 1
                if entry is not None:
                    entries[i] = entry
                    continue
            if raw in owned_by_key:
                # Same key twice in one batch: the first occurrence
                # parses, this one reuses its entry (waiting on our own
                # flight would deadlock).
                duplicates.append((i, owned_by_key[raw]))
                continue
            owner, flight = cache.flights.begin(raw)
            if not owner:
                waits.append((i, flight))
                continue
            owned.append((i, raw, flight))
            owned_by_key[raw] = i
            if policy.reads:
                # Double-check: a previous owner may have completed (and
                # stored) between our miss and our taking ownership.
                tick = perf_counter()
                entry = cache.lookup(raw, recorder)
                lookup_seconds += perf_counter() - tick
                lookup_calls += 1
                if entry is not None:
                    owned.pop()
                    del owned_by_key[raw]
                    cache.flights.complete(raw, flight, entry)
                    entries[i] = entry

        # Parse everything this worker owns as a single sub-batch.
        if owned:
            sub_batch = [load(i) for i, _, _ in owned]
            started = perf_counter()
            results, decisions = inner(sub_batch)
            elapsed = perf_counter() - started
            if len(results) != len(sub_batch):
                raise RuntimeError(
                    f"batch worker returned {len(results)} results "
                    f"for {len(sub_batch)} documents"
                )
            per_doc_seconds = elapsed / len(sub_batch)
            decision_by_doc = {d.doc_id: d for d in decisions}
            for result in results:
                # Peek, settle, then pop: if store() raises (full disk,
                # I/O error) the flight is still in `owned` and the
                # handler below fails it for the waiters.
                i, raw, flight = owned[0]
                recorder.record_miss()
                decision = decision_by_doc.get(result.doc_id)
                if policy.writes:
                    tick = perf_counter()
                    entry = cache.store(
                        raw,
                        result,
                        decision,
                        compute_seconds=per_doc_seconds,
                        recorder=recorder,
                    )
                    store_seconds += perf_counter() - tick
                    store_calls += 1
                else:
                    entry = CacheEntry(
                        key=raw,
                        result=result,
                        decision=decision,
                        compute_seconds=per_doc_seconds,
                        stored_at=time.time(),
                    )
                entries[i] = entry
                owned.popleft()
                cache.flights.complete(raw, flight, entry)
    except BaseException as exc:
        while owned:
            _, raw, flight = owned.popleft()
            cache.flights.fail(raw, flight, exc)
        raise

    # Only after our own flights are settled do we wait on other
    # workers' flights (settle-before-wait makes deadlock impossible).
    for i, flight in waits:
        entry = flight.wait()
        recorder.record_coalesced(time_saved_seconds=entry.compute_seconds)
        entries[i] = entry
    for i, source in duplicates:
        entry = entries[source]
        assert entry is not None
        recorder.record_coalesced(time_saved_seconds=entry.compute_seconds)
        entries[i] = entry

    if lookup_calls:
        _profiling.record(
            "cache.lookup",
            lookup_seconds,
            cpu_seconds=lookup_seconds,
            calls=lookup_calls,
        )
    if store_calls:
        _profiling.record(
            "cache.store", store_seconds, cpu_seconds=store_seconds, calls=store_calls
        )

    results_out: list[ParseResult] = []
    decisions_out: list[RoutingDecision] = []
    for entry in entries:
        assert entry is not None
        results_out.append(entry.fresh_result())
        if entry.decision is not None:
            decisions_out.append(entry.decision)
    return results_out, decisions_out
