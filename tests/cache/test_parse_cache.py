"""ParseCache behaviour: tiers, policies, and single-flight concurrency."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cache import (
    CachePolicy,
    CacheStats,
    CacheStatsRecorder,
    LruTier,
    ParseCache,
    SingleFlight,
    run_cached_batch,
)
from repro.parsers.base import ParseResult, ResourceUsage


def _result(doc_id: str = "d1") -> ParseResult:
    return ParseResult(
        parser_name="pymupdf",
        doc_id=doc_id,
        page_texts=["page one", "page two"],
        usage=ResourceUsage(cpu_seconds=0.5),
    )


def _key(i: int = 0) -> str:
    return f"{i:032x}:deadbeef"


def _run_one(cache, key, compute, policy="readwrite", recorder=None) -> ParseResult:
    """``key`` as a one-slot batch through ``run_cached_batch``: served from
    the cache, coalesced onto another caller, or computed by ``compute``."""
    results, _ = run_cached_batch(
        cache,
        CachePolicy.coerce(policy),
        [key],
        load=lambda slot: None,  # the computes below need no document
        inner=lambda batch: ([compute()], []),
        recorder=recorder,
    )
    return results[0]


class TestCacheStats:
    def test_hit_rate_counts_coalesced_lookups_as_served(self):
        stats = CacheStats(hits=2, misses=1, coalesced=1)
        assert stats.requests == 4
        assert stats.hit_rate == pytest.approx(0.75)

    def test_no_lookups_is_a_zero_hit_rate(self):
        assert CacheStats().hit_rate == 0.0
        assert not CacheStats().any_activity
        assert CacheStats(stores=1).any_activity

    def test_sum_pools_every_field(self):
        total = CacheStats(hits=1, misses=3, bytes_read=10, time_saved_seconds=0.5) + CacheStats(
            hits=2, coalesced=2, stores=3, bytes_written=7, time_saved_seconds=0.25
        )
        assert total == CacheStats(
            hits=3, misses=3, coalesced=2, stores=3, bytes_read=10, bytes_written=7, time_saved_seconds=0.75
        )
        assert total.hit_rate == pytest.approx(5 / 8)

    def test_json_round_trip_with_a_rounded_hit_rate(self):
        stats = CacheStats(hits=1, misses=2, stores=2, bytes_read=5, bytes_written=9, time_saved_seconds=1.5)
        payload = stats.to_json_dict()
        assert payload["hit_rate"] == 0.3333
        assert CacheStats.from_json_dict(payload) == stats
        assert CacheStats.from_json_dict({}) == CacheStats()


class TestPolicies:
    def test_matrix(self):
        assert not CachePolicy.OFF.reads and not CachePolicy.OFF.writes
        assert CachePolicy.READ.reads and not CachePolicy.READ.writes
        assert not CachePolicy.WRITE.reads and CachePolicy.WRITE.writes
        assert CachePolicy.READWRITE.reads and CachePolicy.READWRITE.writes

    def test_coerce(self):
        assert CachePolicy.coerce("readwrite") is CachePolicy.READWRITE
        assert CachePolicy.coerce(CachePolicy.READ) is CachePolicy.READ
        with pytest.raises(ValueError):
            CachePolicy.coerce("sometimes")


class TestLruTier:
    def test_bounded_with_lru_eviction(self):
        tier = LruTier(max_entries=2)
        tier.put("a", 1)
        tier.put("b", 2)
        assert tier.get("a") == 1  # refresh recency of "a"
        tier.put("c", 3)  # evicts "b"
        assert tier.get("b") is None
        assert tier.get("a") == 1 and tier.get("c") == 3
        assert tier.evictions == 1


class TestTiering:
    def test_memory_then_disk_promotion(self, tmp_path):
        cache = ParseCache(tmp_path, max_memory_entries=8)
        cache.store(_key(1), _result(), compute_seconds=0.2)
        cache.flush()
        # A fresh cache over the same directory has a cold memory tier.
        reopened = ParseCache(tmp_path, max_memory_entries=8)
        recorder = CacheStatsRecorder()
        entry = reopened.lookup(_key(1), recorder)
        assert entry is not None
        stats = recorder.snapshot()
        assert stats.hits == 1 and stats.bytes_read > 0
        assert stats.time_saved_seconds == pytest.approx(0.2)
        # Promoted: the second lookup is a memory hit (no disk bytes).
        recorder2 = CacheStatsRecorder()
        assert reopened.lookup(_key(1), recorder2) is not None
        assert recorder2.snapshot().bytes_read == 0

    def test_memory_overflow_served_from_disk(self, tmp_path):
        cache = ParseCache(tmp_path, max_memory_entries=2)
        for i in range(6):
            cache.store(_key(i), _result(f"d{i}"), compute_seconds=0.1)
        cache.flush()
        for i in range(6):
            entry = cache.lookup(_key(i))
            assert entry is not None
            assert entry.result.doc_id == f"d{i}"

    def test_hit_returns_independent_copy(self):
        cache = ParseCache()
        cache.store(_key(1), _result())
        first = cache.lookup(_key(1)).fresh_result()
        first.page_texts.append("mutated")
        second = cache.lookup(_key(1)).fresh_result()
        assert second.page_texts == ["page one", "page two"]

    def test_corrupt_payload_schema_dropped(self, tmp_path):
        cache = ParseCache(tmp_path)
        cache.disk.put(_key(1), {"key": _key(1), "result": {"bogus": True}})
        cache.flush()
        assert cache.lookup(_key(1)) is None  # dropped, not raised


class TestSingleKeyBatch:
    """Policy and failure behaviour of the one single-flight sequence
    (``run_cached_batch``), observed one key at a time.  That a second
    readwrite call hits is ``test_pipeline_cache.py::TestPipelineCaching::
    test_warm_run_all_hits_and_identical``."""

    def test_read_policy_never_stores(self):
        cache = ParseCache()
        calls = []

        def compute():
            calls.append(1)
            return _result()

        _run_one(cache, _key(1), compute, policy="read")
        _run_one(cache, _key(1), compute, policy="read")
        assert len(calls) == 2  # nothing was stored to hit on
        assert cache.lookup(_key(1)) is None

    def test_write_policy_ignores_existing_entry(self):
        cache = ParseCache()
        calls = []

        def compute():
            calls.append(1)
            return _result()

        _run_one(cache, _key(1), compute, policy="readwrite")
        _run_one(cache, _key(1), compute, policy="write")
        assert len(calls) == 2  # write-only refreshes instead of reading

    def test_compute_failure_fails_waiters_and_clears_flight(self):
        cache = ParseCache()
        waiting = threading.Event()
        begin = cache.flights.begin

        def begin_and_tell(key):
            owner, flight = begin(key)
            if not owner:
                waiting.set()
            return owner, flight

        cache.flights.begin = begin_and_tell

        def explode():
            assert waiting.wait(timeout=5)  # fail only once somebody coalesced
            raise RuntimeError("parse failed")

        outcomes = []

        def call(compute):
            try:
                outcomes.append(_run_one(cache, _key(1), compute))
            except RuntimeError as exc:
                outcomes.append(exc)

        owner = threading.Thread(target=call, args=(explode,))
        owner.start()
        while cache.flights.in_flight() == 0:
            time.sleep(0.001)
        waiter = threading.Thread(target=call, args=(lambda: pytest.fail("coalesced"),))
        waiter.start()
        owner.join(timeout=5)
        waiter.join(timeout=5)
        assert not owner.is_alive() and not waiter.is_alive()
        assert [str(outcome) for outcome in outcomes] == ["parse failed"] * 2
        assert cache.flights.in_flight() == 0
        # The key is computable again afterwards.
        assert _run_one(cache, _key(1), _result).doc_id == "d1"


class TestSingleFlightConcurrency:
    def test_exactly_one_parse_per_unique_key(self):
        cache = ParseCache()
        recorder = CacheStatsRecorder()
        n_keys, n_workers, rounds_per_key = 8, 16, 8
        compute_counts = {i: 0 for i in range(n_keys)}
        count_lock = threading.Lock()
        barrier = threading.Barrier(n_workers)

        def hammer(worker: int) -> None:
            barrier.wait()
            for round_ in range(rounds_per_key):
                for i in range(n_keys):
                    def compute(i=i):
                        with count_lock:
                            compute_counts[i] += 1
                        time.sleep(0.002)  # widen the race window
                        return _result(f"d{i}")

                    result = _run_one(cache, _key(i), compute, recorder=recorder)
                    assert result.doc_id == f"d{i}"

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(hammer, range(n_workers)))

        assert compute_counts == {i: 1 for i in range(n_keys)}
        stats = recorder.snapshot()
        assert stats.misses == n_keys
        assert stats.hits + stats.coalesced == n_keys * n_workers * rounds_per_key - n_keys

    def test_waiters_see_owner_failure(self):
        flights = SingleFlight()
        owner, flight = flights.begin("k")
        assert owner
        errors = []

        def waiter():
            is_owner, f = flights.begin("k")
            assert not is_owner
            try:
                f.wait(timeout=5)
            except RuntimeError as exc:
                errors.append(exc)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.01)
        flights.fail("k", flight, RuntimeError("boom"))
        thread.join(timeout=5)
        assert len(errors) == 1


class TestCrashMidWrite:
    def test_torn_shard_is_tolerated_end_to_end(self, tmp_path):
        cache = ParseCache(tmp_path, n_shards=1)
        for i in range(5):
            cache.store(_key(i), _result(f"d{i}"))
        cache.flush()
        shard = cache.disk.shard_paths()[0]
        # Simulate a crash mid-write: truncate the shard mid-line.
        raw = shard.read_bytes()
        shard.write_bytes(raw[: len(raw) - len(raw) // 3])
        reopened = ParseCache(tmp_path, n_shards=1)
        survivors = sum(1 for i in range(5) if reopened.lookup(_key(i)) is not None)
        assert 0 < survivors < 5
        assert reopened.disk.corrupt_lines_skipped >= 1
        # The torn entries are recomputable and the shard heals on flush.
        for i in range(5):
            _run_one(reopened, _key(i), lambda i=i: _result(f"d{i}"))
        reopened.flush()
        healed = ParseCache(tmp_path, n_shards=1)
        assert all(healed.lookup(_key(i)) is not None for i in range(5))
        assert healed.disk.corrupt_lines_skipped == 0


    @pytest.mark.parametrize(
        ("body", "section"),
        [
            (b'{"result":{"page_texts":[5]}}\n', b"abc"),  # lengths past the section
            (b'{"key":"k"}\n', b""),  # no result
            (b"[1,2]\n", b""),  # not an object
        ],
        ids=["lengths", "schema", "not-an-object"],
    )
    def test_a_record_that_checks_out_but_does_not_decode_is_dropped(
        self, tmp_path, body, section
    ):
        import zlib

        cache = ParseCache(tmp_path, n_shards=1)
        cache.store(_key(1), _result("d1"))
        cache.flush()
        head = b"%s %d %d\n" % (_key(0).encode(), len(body), len(section))
        record = head + body + section
        with cache.disk.shard_path(0).open("ab") as handle:
            handle.write(b"%08x " % zlib.crc32(record) + record + b"\n")
        reopened = ParseCache(tmp_path, n_shards=1)
        assert reopened.disk.corrupt_lines_skipped == 0  # its CRC is right
        assert reopened.lookup(_key(0)) is None
        assert reopened.disk.get(_key(0)) is None  # dropped, not re-read
        assert reopened.lookup(_key(1)).result.doc_id == "d1"


class TestMaintenance:
    def test_purge_all(self, tmp_path):
        cache = ParseCache(tmp_path)
        for i in range(4):
            cache.store(_key(i), _result(f"d{i}"))
        cache.flush()
        removed = cache.purge()
        assert removed == 4
        assert cache.lookup(_key(0)) is None
        assert ParseCache(tmp_path).describe()["entries"] == 0

    def test_purge_by_fingerprint(self, tmp_path):
        cache = ParseCache(tmp_path)
        cache.store(f"{1:032x}:aaaa", _result("d1"))
        cache.store(f"{2:032x}:bbbb", _result("d2"))
        cache.flush()
        assert cache.purge(config_fingerprint="aaaa") == 1
        reopened = ParseCache(tmp_path)
        assert reopened.lookup(f"{1:032x}:aaaa") is None
        assert reopened.lookup(f"{2:032x}:bbbb") is not None

    def test_purge_by_fingerprint_memory_only(self):
        # Regression: a fingerprint-scoped purge of a memory-only cache must
        # keep the other fingerprints' entries and report the true count.
        cache = ParseCache()
        cache.store(f"{1:032x}:aaaa", _result("d1"))
        cache.store(f"{2:032x}:aaaa", _result("d2"))
        cache.store(f"{3:032x}:bbbb", _result("d3"))
        assert cache.purge(config_fingerprint="aaaa") == 2
        assert cache.lookup(f"{1:032x}:aaaa") is None
        assert cache.lookup(f"{3:032x}:bbbb") is not None

    def test_purge_only_rewrites_matching_shards(self, tmp_path):
        cache = ParseCache(tmp_path, n_shards=16)
        key_a = f"{1 << 96:032x}:aaaa"  # hash prefix 00000001 -> shard 1
        key_b = f"{2 << 96:032x}:bbbb"  # hash prefix 00000002 -> shard 2
        cache.store(key_a, _result("d1"))
        cache.store(key_b, _result("d2"))
        cache.flush()
        b_shard = cache.disk.shard_path(cache.disk.shard_index_for(key_b))
        assert b_shard.exists()
        before = b_shard.stat().st_mtime_ns
        cache.purge(config_fingerprint="aaaa")
        assert b_shard.stat().st_mtime_ns == before
        assert cache.lookup(key_b) is not None

    def test_concurrent_stores_merge_on_flush(self, tmp_path):
        # Two ParseCache instances over one directory (two "processes"):
        # the later flush must not clobber what the other one landed.
        first = ParseCache(tmp_path, n_shards=1)
        second = ParseCache(tmp_path, n_shards=1)
        first.lookup(_key(0))  # force both to load the (empty) shard
        second.lookup(_key(0))
        first.store(_key(1), _result("d1"))
        second.store(_key(2), _result("d2"))
        first.flush()
        second.flush()
        reopened = ParseCache(tmp_path, n_shards=1)
        assert reopened.lookup(_key(1)) is not None
        assert reopened.lookup(_key(2)) is not None

    def test_describe(self, tmp_path):
        cache = ParseCache(tmp_path)
        cache.store(_key(1), _result())
        cache.flush()
        description = cache.describe()
        assert description["entries"] == 1
        assert description["parsers"] == {"pymupdf": 1}
        assert description["bytes_on_disk"] > 0
        assert description["superseded_lines"] == 0
        # A re-put appends a second line for the key until a rewrite drops it.
        cache.store(_key(1), _result())
        cache.flush()
        assert ParseCache(tmp_path).describe()["superseded_lines"] == 1
