"""The sharded disk backend: atomicity and corruption tolerance."""

from __future__ import annotations

import json

import pytest

from repro.cache.disk import ShardedDiskStore, _encode_record


def _payload(key: str, value: str = "v") -> dict:
    return {"key": key, "value": value}


def _record(key: str, payload: dict) -> bytes:
    """The bytes a flush writes for one entry, closing newline included."""
    return _encode_record(key, payload) + b"\n"


class TestShardedDiskStore:
    def test_round_trip_across_instances(self, tmp_path):
        store = ShardedDiskStore(tmp_path, n_shards=4)
        for i in range(20):
            store.put(f"{i:08x}:fp", _payload(f"{i:08x}:fp", f"v{i}"))
        store.flush()
        reopened = ShardedDiskStore(tmp_path, n_shards=4)
        for i in range(20):
            assert reopened.get(f"{i:08x}:fp") == _payload(f"{i:08x}:fp", f"v{i}")
        assert len(reopened) == 20

    def test_entries_spread_over_shards(self, tmp_path):
        store = ShardedDiskStore(tmp_path, n_shards=4)
        for i in range(64):
            store.put(f"{i * 2654435761 % 2**32:08x}:fp", _payload("x"))
        store.flush()
        assert len(store.shard_paths()) > 1

    def test_no_temporary_files_survive_flush(self, tmp_path):
        store = ShardedDiskStore(tmp_path, n_shards=2)
        store.put("00000000:fp", _payload("00000000:fp"))
        store.flush()
        assert not list(tmp_path.glob("*.tmp-*"))

    def test_unflushed_put_still_readable(self, tmp_path):
        store = ShardedDiskStore(tmp_path, n_shards=2)
        store.put("00000000:fp", _payload("00000000:fp"))
        assert store.get("00000000:fp") is not None

    def test_torn_tail_line_skipped(self, tmp_path):
        store = ShardedDiskStore(tmp_path, n_shards=1)
        store.put("00000001:fp", _payload("00000001:fp", "keep"))
        store.put("00000002:fp", _payload("00000002:fp", "keep-too"))
        store.flush()
        path = store.shard_paths()[0]
        # Simulate a crash mid-write: append half a record.
        torn = _record("00000003:fp", _payload("00000003:fp", "torn" * 20))
        with path.open("ab") as handle:
            handle.write(torn[: len(torn) // 2])
        reopened = ShardedDiskStore(tmp_path, n_shards=1)
        assert reopened.get("00000001:fp")["value"] == "keep"
        assert reopened.get("00000002:fp")["value"] == "keep-too"
        assert reopened.get("00000003:fp") is None
        assert reopened.corrupt_lines_skipped == 1

    def test_garbage_and_schema_violations_skipped(self, tmp_path):
        store = ShardedDiskStore(tmp_path, n_shards=1)
        store.put("00000001:fp", _payload("00000001:fp"))
        store.flush()
        path = store.shard_paths()[0]
        # Garbage; a record whose CRC does not match its bytes; a record
        # without a key (its CRC right).
        not_an_object = _record("00000002:fp", ["not", "an", "object"])
        keyless = _record("", {"no_key_field": 1})
        with path.open("ab") as handle:
            handle.write("\x00\xfengarbage\n".encode("utf-8"))
            handle.write(b"00000000" + not_an_object[8:])
            handle.write(keyless)
        reopened = ShardedDiskStore(tmp_path, n_shards=1)
        assert reopened.get("00000001:fp") is not None
        assert len(reopened) == 1
        assert reopened.corrupt_lines_skipped == 3

    def test_later_duplicate_line_wins(self, tmp_path):
        store = ShardedDiskStore(tmp_path, n_shards=1)
        store.put("00000001:fp", _payload("00000001:fp", "old"))
        store.flush()
        path = store.shard_paths()[0]
        with path.open("ab") as handle:
            handle.write(_record("00000001:fp", _payload("00000001:fp", "new")))
        reopened = ShardedDiskStore(tmp_path, n_shards=1)
        assert reopened.get("00000001:fp")["value"] == "new"

    def test_stray_temporaries_ignored_and_own_ones_swept(self, tmp_path):
        import os
        import threading

        store = ShardedDiskStore(tmp_path, n_shards=1)
        store.put("00000001:fp", _payload("00000001:fp"))
        store.flush()
        # A foreign process's in-progress temporary must never be touched
        # (it may be between fsync and rename); our own stragglers are swept.
        foreign = tmp_path / "shard-000.jsonl.tmp-999-999"
        foreign.write_text("half-written", encoding="utf-8")
        own = tmp_path / (
            f"shard-000.jsonl.tmp-{os.getpid()}-{threading.get_ident()}"
        )
        own.write_text("ours", encoding="utf-8")
        reopened = ShardedDiskStore(tmp_path, n_shards=1)
        assert len(reopened) == 1  # strays are not read as shards
        reopened.put("00000002:fp", _payload("00000002:fp"))
        reopened.flush()
        assert foreign.exists()
        assert not own.exists()

    def test_delete_and_purge(self, tmp_path):
        store = ShardedDiskStore(tmp_path, n_shards=2)
        for i in range(6):
            store.put(f"{i:08x}:fp", _payload(f"{i:08x}:fp"))
        store.flush()
        assert store.delete("00000000:fp")
        assert not store.delete("00000000:fp")
        removed = store.purge(lambda payload: payload["key"].startswith("000000"))
        assert removed == 5
        assert len(store) == 0
        # Empty shards are removed from disk.
        assert store.shard_paths() == []

    def test_lines_are_utf8_and_keep_surrogates_as_written(self, tmp_path):
        texts = ["naïve 東京", "lone \ud800", "split \ud800\udc00 pair", "\U00010000"]
        store = ShardedDiskStore(tmp_path, n_shards=1)
        for i, text in enumerate(texts):
            store.put(f"{i:08x}:fp", _payload(f"{i:08x}:fp", text))
        store.flush()
        data = store.shard_paths()[0].read_bytes()
        # UTF-8, no escapes; a surrogate as its own bytes.
        assert "naïve 東京".encode("utf-8") in data
        assert b"split \xed\xa0\x80\xed\xb0\x80 pair" in data
        reopened = ShardedDiskStore(tmp_path, n_shards=1)
        read = [reopened.get(f"{i:08x}:fp")["value"] for i in range(4)]
        # Texts read back code point for code point.
        assert [list(map(ord, text)) for text in read] == [list(map(ord, t)) for t in texts]

    def test_shards_of_the_first_format_are_misses_counted_and_purged(self, tmp_path):
        # The first format: ASCII JSON lines in ``shard-NNN.jsonl``.
        old = tmp_path / "shard-000.jsonl"
        old.write_bytes(json.dumps(_payload("00000001:fp", "old")).encode("ascii") + b"\n")
        store = ShardedDiskStore(tmp_path, n_shards=1)
        assert store.get("00000001:fp") is None and len(store) == 0
        store.put("00000002:fp", _payload("00000002:fp"))
        store.flush()
        assert store.shard_paths() == [tmp_path / "shard-v3-000.frames"]
        assert store.stale_bytes_on_disk() == old.stat().st_size > 0
        assert store.bytes_on_disk() == store.shard_paths()[0].stat().st_size
        store.purge(lambda payload: False)  # a partial purge leaves them
        assert old.exists()
        assert store.purge() == 1
        assert not old.exists() and store.stale_bytes_on_disk() == 0

    def test_cache_stats_and_purge_cover_first_format_shards(self, tmp_path, capsys):
        from repro.cli import main

        old = tmp_path / "shard-003.jsonl"
        old.write_bytes(json.dumps(_payload("00000003:fp")).encode("ascii") + b"\n")
        main(["cache", "stats", "--dir", str(tmp_path)])
        stats = json.loads(capsys.readouterr().out)
        assert (stats["entries"], stats["shards"]) == (0, 0)
        assert stats["stale_shard_bytes"] == old.stat().st_size
        main(["cache", "purge", "--dir", str(tmp_path)])
        assert not old.exists()

    def test_shards_of_the_second_format_are_misses_counted_and_purged(self, tmp_path):
        # The second format: JSON lines in ``shard-v2-NNN.jsonl``.
        old = tmp_path / "shard-v2-000.jsonl"
        old.write_bytes(json.dumps(_payload("00000001:fp", "old")).encode("ascii") + b"\n")
        store = ShardedDiskStore(tmp_path, n_shards=1)
        assert store.get("00000001:fp") is None and len(store) == 0
        assert store.stale_bytes_on_disk() == old.stat().st_size > 0
        assert store.bytes_on_disk() == 0
        assert store.purge() == 0
        assert not old.exists() and store.stale_bytes_on_disk() == 0

    def test_a_key_holding_a_newline_is_refused(self, tmp_path):
        store = ShardedDiskStore(tmp_path, n_shards=1)
        with pytest.raises(ValueError, match="newline"):
            store.put("0000\n0001:fp", _payload("x"))
        assert len(store) == 0

    def test_invalid_parameters(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedDiskStore(tmp_path, n_shards=0)
        with pytest.raises(ValueError):
            ShardedDiskStore(tmp_path, flush_every=0)


def _key(i: int) -> str:
    return f"{i * 2654435761 % 2**32:08x}{i:024x}:fp"


def _put_round(store: ShardedDiskStore, start: int, count: int, value: str = "v") -> int:
    """Put ``count`` fresh keys; returns the bytes their lines take on disk."""
    return sum(
        store.put(_key(i), _payload(_key(i), value)) + 1 for i in range(start, start + count)
    )


def _disk_keys(directory) -> list[str]:
    """The key of every record in the shard files, read by the lengths alone.

    For files without damage: each record's prefix line is
    ``<crc> <key> <body bytes> <text bytes>``, and a newline closes it.
    """
    keys = []
    for path in sorted(directory.glob("shard-*.frames")):
        data = path.read_bytes()
        position = 0
        while position < len(data):
            eol = data.index(b"\n", position)
            key, body, texts = data[position + 9 : eol].rsplit(b" ", 2)
            position = eol + 1 + int(body) + int(texts)
            assert data[position : position + 1] == b"\n"
            position += 1
            keys.append(key.decode())
    return keys


class TestAppendOnFlush:
    """A flush costs the new entries: counts of reads and bytes, not clocks."""

    def test_flush_never_reads_and_writes_exactly_the_staged_bytes(
        self, tmp_path, monkeypatch
    ):
        store = ShardedDiskStore(tmp_path, n_shards=4)
        len(store)  # load every (empty) shard before counting reads
        reads = []
        parse = store._parse_shard_file
        monkeypatch.setattr(
            store, "_parse_shard_file", lambda index: reads.append(index) or parse(index)
        )
        written = []
        for flush_number in range(40):
            staged = _put_round(store, flush_number * 40, 40)
            before = store.bytes_on_disk()
            written.append(store.flush())
            assert written[-1] == staged
            assert store.bytes_on_disk() - before == staged
        assert reads == []
        # Flush #40 wrote what flush #1 wrote, not the 1600-entry cache.
        assert written[-1] == pytest.approx(written[0], rel=0.05)
        reopened = ShardedDiskStore(tmp_path, n_shards=4)
        assert len(reopened) == 1600
        assert reopened.superseded_lines() == 0
        assert not list(tmp_path.glob("*.tmp-*"))

    def test_flush_without_staged_puts_writes_nothing(self, tmp_path):
        store = ShardedDiskStore(tmp_path, n_shards=2)
        _put_round(store, 0, 4)
        assert store.flush() > 0
        assert store.flush() == 0

    def test_torn_tail_then_append_heals_without_gluing(self, tmp_path):
        store = ShardedDiskStore(tmp_path, n_shards=1)
        _put_round(store, 0, 3, "keep")
        store.flush()
        torn = _record("torn", _payload("torn", "torn" * 20))
        with store.shard_path(0).open("ab") as handle:
            handle.write(torn[: len(torn) // 2])  # killed mid-append
        second = ShardedDiskStore(tmp_path, n_shards=1)
        _put_round(second, 3, 2, "new")
        assert second.corrupt_lines_skipped == 1
        second.flush()
        third = ShardedDiskStore(tmp_path, n_shards=1)
        assert {third.get(_key(i))["value"] for i in range(3)} == {"keep"}
        assert {third.get(_key(i))["value"] for i in (3, 4)} == {"new"}
        assert third.corrupt_lines_skipped == 0
        assert len(_disk_keys(tmp_path)) == 5

    def test_tail_torn_after_load_costs_only_the_torn_line(self, tmp_path):
        # The store loaded a clean shard, then another writer died mid-block:
        # this flush appends (it has no reason to rewrite), on a fresh line.
        store = ShardedDiskStore(tmp_path, n_shards=1)
        _put_round(store, 0, 2)
        store.flush()
        torn = _record("torn", _payload("torn", "torn" * 20))
        with store.shard_path(0).open("ab") as handle:
            handle.write(torn[: len(torn) // 2])
        _put_round(store, 2, 2)
        store.flush()
        reopened = ShardedDiskStore(tmp_path, n_shards=1)
        assert all(reopened.get(_key(i)) is not None for i in range(4))
        assert reopened.corrupt_lines_skipped == 1
        assert reopened.superseded_lines() == 1

    def test_two_stores_alternating_rounds_are_additive(self, tmp_path):
        first = ShardedDiskStore(tmp_path, n_shards=2)
        second = ShardedDiskStore(tmp_path, n_shards=2)
        for round_number in range(5):
            _put_round(first, round_number * 10, 5)
            first.flush()
            _put_round(second, round_number * 10 + 5, 5)
            second.flush()
        third = ShardedDiskStore(tmp_path, n_shards=2)
        assert all(third.get(_key(i)) is not None for i in range(50))
        assert third.corrupt_lines_skipped == 0

    def test_two_processes_alternating_rounds_are_additive(self, tmp_path):
        import subprocess
        import sys

        script = (
            "import sys, time\n"
            "from repro.cache.disk import ShardedDiskStore\n"
            "directory, offset = sys.argv[1], int(sys.argv[2])\n"
            "store = ShardedDiskStore(directory, n_shards=2)\n"
            "for round_number in range(5):\n"
            "    for i in range(round_number * 10 + offset, round_number * 10 + offset + 5):\n"
            "        key = f'{i * 2654435761 % 2**32:08x}{i:024x}:fp'\n"
            "        store.put(key, {'key': key, 'value': 'v' * 2000})\n"
            "    store.flush()\n"
            "    time.sleep(0.01)\n"
        )
        writers = [
            subprocess.Popen([sys.executable, "-c", script, str(tmp_path), str(offset)])
            for offset in (0, 5)
        ]
        assert [writer.wait(timeout=60) for writer in writers] == [0, 0]
        third = ShardedDiskStore(tmp_path, n_shards=2)
        assert all(third.get(_key(i)) is not None for i in range(50))
        assert third.corrupt_lines_skipped == 0

    def test_put_delete_put_and_purge_leave_exactly_the_live_keys(self, tmp_path):
        store = ShardedDiskStore(tmp_path, n_shards=2)
        _put_round(store, 0, 6, "old")
        store.flush()
        store.put(_key(0), _payload(_key(0), "staged"))
        assert store.delete(_key(0))
        store.put(_key(0), _payload(_key(0), "new"))
        assert store.delete(_key(1))
        _put_round(store, 6, 2)
        store.flush()
        live = {_key(i) for i in (0, 2, 3, 4, 5, 6, 7)}
        # (Key 0's superseded "old" line may remain; a reader lets the last win.)
        assert set(_disk_keys(tmp_path)) == live
        assert ShardedDiskStore(tmp_path, n_shards=2).get(_key(0))["value"] == "new"
        # Purge after appends: the doomed keys' lines go, staged puts land.
        _put_round(store, 8, 2)
        doomed = {_key(2), _key(8)}
        assert store.purge(lambda payload: payload["key"] in doomed) == 2
        live = (live | {_key(9)}) - doomed
        assert set(_disk_keys(tmp_path)) == live
        reopened = ShardedDiskStore(tmp_path, n_shards=2)
        assert {payload["key"] for payload in reopened.iter_entries()} == live
        assert not list(tmp_path.glob("*.tmp-*"))

    def test_reputting_the_same_keys_keeps_the_file_bounded(self, tmp_path):
        store = ShardedDiskStore(tmp_path, n_shards=1)
        live_bytes = block = 0
        for generation in range(10):
            block = _put_round(store, 0, 20, f"generation-{generation}")
            live_bytes = block
            store.flush()
            assert store.bytes_on_disk() <= 2 * live_bytes + block
            assert store.superseded_lines() <= 20
        reopened = ShardedDiskStore(tmp_path, n_shards=1)
        assert len(reopened) == 20
        assert {payload["value"] for payload in reopened.iter_entries()} == {"generation-9"}

    def test_auto_flush_counts_every_put_across_threads(self, tmp_path):
        import sys
        import threading

        flush_every, n_threads, puts_per_thread = 16, 8, 100
        store = ShardedDiskStore(tmp_path, n_shards=8, flush_every=flush_every)

        def writer(offset: int) -> None:
            for i in range(offset, offset + puts_per_thread):
                store.put(_key(i), _payload(_key(i)))

        threads = [
            threading.Thread(target=writer, args=(n * puts_per_thread,))
            for n in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = n_threads * puts_per_thread
        # No put is lost to the trigger: what is still staged once the
        # writers are done is less than one flush_every window.
        on_disk = len(ShardedDiskStore(tmp_path, n_shards=8))
        assert 0 <= total - on_disk < flush_every
        assert len(store) == total

    def test_concurrent_rewrites_survive_each_others_sweeps(self, tmp_path):
        # Re-putting the same keys makes rule 3 rewrite shards while other
        # threads finish their own flushes: a flush may sweep only its own
        # thread's temporaries, never the one a rewrite is about to rename.
        import threading

        store = ShardedDiskStore(tmp_path, n_shards=2, flush_every=4)
        errors: list[BaseException] = []

        def writer(value: str) -> None:
            try:
                for _ in range(30):
                    _put_round(store, 0, 8, value)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(f"w{n}",)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        store.flush()
        assert len(ShardedDiskStore(tmp_path, n_shards=2)) == 8
        assert not list(tmp_path.glob("*.tmp-*"))


class TestDamagedRecords:
    """A record that does not check out costs itself, never a neighbour."""

    def test_a_torn_record_does_not_borrow_the_next_block(self, tmp_path):
        # A writer dies inside a record's text section; a store that loaded
        # the shard before appends its block on a fresh line, and the torn
        # record's lengths end exactly on the newline of that block's first
        # prefix line.  Lengths and a terminator alone would accept the torn
        # record (with the block's bytes as its text) and lose the block's
        # first record.
        store = ShardedDiskStore(tmp_path, n_shards=1)
        _put_round(store, 0, 1, "keep")
        store.flush()
        torn_key = _key(99)
        torn = _encode_record(torn_key, {"key": torn_key, "page_texts": ["t" * 3000]})
        first = _encode_record(_key(1), _payload(_key(1), "new"))
        cut = len(torn) - first.index(b"\n") - 1
        assert cut > torn.rindex(b"\n")  # inside the text section
        path = store.shard_path(0)
        start = path.stat().st_size
        with path.open("ab") as handle:
            handle.write(torn[:cut])
        _put_round(store, 1, 3, "new")
        store.flush()
        data = path.read_bytes()
        assert data[start + len(torn) : start + len(torn) + 1] == b"\n"
        assert data[start + cut + 1 :].startswith(first)

        reopened = ShardedDiskStore(tmp_path, n_shards=1)
        assert reopened.get(torn_key) is None
        assert [reopened.get(_key(i))["value"] for i in range(4)] == ["keep"] + ["new"] * 3
        assert reopened.corrupt_lines_skipped == 1
        # The next flush that touches the shard rewrites it without the tear.
        _put_round(reopened, 4, 1)
        reopened.flush()
        healed = ShardedDiskStore(tmp_path, n_shards=1)
        assert len(healed) == 5 and healed.corrupt_lines_skipped == 0
        assert healed.superseded_lines() == 0
        assert sorted(_disk_keys(tmp_path)) == sorted(_key(i) for i in range(5))

    @pytest.mark.parametrize("damage", ["text-byte", "length", "terminator", "key"])
    def test_a_damaged_record_is_skipped_and_its_neighbours_load(self, tmp_path, damage):
        store = ShardedDiskStore(tmp_path, n_shards=1)
        keys = [_key(i) for i in range(3)]
        for key in keys:
            store.put(key, {"key": key, "page_texts": [f"page of {key}\nline two", "é"]})
        store.flush()
        path = store.shard_path(0)
        data = bytearray(path.read_bytes())
        middle = data.index(keys[1].encode()) - 9  # the middle record's start
        eol = data.index(b"\n", middle)
        _, body, texts = bytes(data[middle + 9 : eol]).rsplit(b" ", 2)
        end = eol + 1 + int(body) + int(texts)
        if damage == "text-byte":
            data[end - 4] ^= 0x01
        elif damage == "length":
            data[middle + 9 : eol] = b"%s %s %d" % (keys[1].encode(), body, int(texts) + 1)
        elif damage == "terminator":
            data[end] = ord("x")
        else:  # another key, so the record would answer for it
            data[middle + 9 : middle + 10] = b"f"
        path.write_bytes(bytes(data))
        reopened = ShardedDiskStore(tmp_path, n_shards=1)
        assert reopened.get(keys[1]) is None
        assert len(reopened) == 2 and reopened.corrupt_lines_skipped == 1
        for key in (keys[0], keys[2]):
            assert reopened.get(key)["page_texts"] == [f"page of {key}\nline two", "é"]
