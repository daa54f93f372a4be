"""Tests of JSONL serialisation, sharding, and the manifest."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.jsonl import (
    JsonlShardManifest,
    ShardedJsonlWriter,
    iter_jsonl,
    write_jsonl,
)


def _read_shards(directory):
    """Every record of a sharded directory, in manifest order."""
    manifest = JsonlShardManifest.load(directory)
    return [record for shard in manifest.shards for record in iter_jsonl(directory / shard.path)]


class TestWriteReadJsonl:
    def test_roundtrip(self, tmp_path):
        records = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        path = tmp_path / "data.jsonl"
        written = write_jsonl(path, records)
        assert written == 2
        assert list(iter_jsonl(path)) == records

    def test_unicode_preserved(self, tmp_path):
        records = [{"text": "schrödinger ∂ψ/∂t — ±0.5 µm"}]
        path = tmp_path / "unicode.jsonl"
        write_jsonl(path, records)
        assert list(iter_jsonl(path)) == records

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n', encoding="utf-8")
        assert list(iter_jsonl(path)) == [{"a": 1}, {"a": 2}]

    def test_invalid_line_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"a": 1}\nnot-json\n', encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            list(iter_jsonl(path))
        # The good lines before it are yielded first.
        stream = iter_jsonl(path)
        assert next(stream) == {"a": 1}
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            next(stream)

    def test_iter_jsonl_streams_all_records(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        write_jsonl(path, [{"i": i} for i in range(25)])
        assert [r["i"] for r in iter_jsonl(path)] == list(range(25))

    @given(
        records=st.lists(
            st.dictionaries(
                keys=st.text(min_size=1, max_size=8),
                values=st.one_of(st.integers(), st.text(max_size=20), st.booleans(), st.none()),
                max_size=4,
            ),
            max_size=20,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("jsonl") / "prop.jsonl"
        write_jsonl(path, records)
        assert list(iter_jsonl(path)) == records


class TestShardedWriter:
    def test_rolls_over_on_record_limit(self, tmp_path):
        writer = ShardedJsonlWriter(tmp_path, max_records_per_shard=3)
        with writer:
            for i in range(10):
                writer.write({"i": i})
        manifest = writer.manifest
        assert manifest.n_records == 10
        assert [s.n_records for s in manifest.shards] == [3, 3, 3, 1]

    def test_rolls_over_on_byte_limit(self, tmp_path):
        # ~1 KiB per record with a 4 KiB shard cap: at most 4 records per shard.
        writer = ShardedJsonlWriter(
            tmp_path, max_records_per_shard=1000, max_mb_per_shard=4 / 1024
        )
        payload = "x" * 1000
        with writer:
            for i in range(9):
                writer.write({"i": i, "payload": payload})
        assert all(s.n_bytes <= 4 * 1024 + 1100 for s in writer.manifest.shards)
        assert writer.manifest.n_records == 9
        assert len(writer.manifest.shards) >= 3

    def test_manifest_written_and_loadable(self, tmp_path):
        with ShardedJsonlWriter(tmp_path, max_records_per_shard=5) as writer:
            for i in range(7):
                writer.write({"i": i})
        loaded = JsonlShardManifest.load(tmp_path)
        assert loaded.n_records == 7
        assert [r["i"] for r in _read_shards(tmp_path)] == list(range(7))

    def test_close_is_idempotent(self, tmp_path):
        writer = ShardedJsonlWriter(tmp_path)
        writer.write({"i": 1})
        first = writer.close()
        second = writer.close()
        assert first is second
        assert first.n_records == 1

    def test_write_after_close_raises(self, tmp_path):
        writer = ShardedJsonlWriter(tmp_path)
        writer.write({"i": 1})
        writer.close()
        with pytest.raises(RuntimeError, match="closed"):
            writer.write({"i": 2})

    def test_extra_manifest_metadata(self, tmp_path):
        writer = ShardedJsonlWriter(tmp_path)
        writer.write({"i": 1})
        writer.close(extra={"campaign": "test-run"})
        manifest = JsonlShardManifest.load(tmp_path)
        assert manifest.extra["campaign"] == "test-run"

    def test_empty_writer_produces_empty_manifest(self, tmp_path):
        with ShardedJsonlWriter(tmp_path) as writer:
            pass
        manifest = JsonlShardManifest.load(tmp_path)
        assert manifest.n_records == 0
        assert manifest.shards == []

    def test_invalid_limits_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedJsonlWriter(tmp_path, max_records_per_shard=0)
        with pytest.raises(ValueError):
            ShardedJsonlWriter(tmp_path, max_mb_per_shard=0.0)

    def test_manifest_json_structure(self, tmp_path):
        with ShardedJsonlWriter(tmp_path, max_records_per_shard=2) as writer:
            for i in range(3):
                writer.write({"i": i})
        payload = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert payload["n_records"] == 3
        assert len(payload["shards"]) == 2
        assert all({"path", "n_records", "n_bytes"} <= set(s) for s in payload["shards"])


# Page text may hold any code point, a lone surrogate included: the cache,
# the cluster wire and the gateway carry such text, so both dataset writers
# must store it and both readers must give it back unchanged.
LONE_SURROGATE_RECORDS = [
    {"doc_id": "d\udfff", "text": "a\ud800b"},
    {"doc_id": "plain", "text": "schrödinger ∂ψ/∂t"},
]


class TestLoneSurrogate:
    def test_write_jsonl_round_trips_a_lone_surrogate(self, tmp_path):
        path = tmp_path / "surrogate.jsonl"
        assert write_jsonl(path, LONE_SURROGATE_RECORDS) == 2
        assert list(iter_jsonl(path)) == LONE_SURROGATE_RECORDS

    def test_sharded_writer_round_trips_a_lone_surrogate(self, tmp_path):
        with ShardedJsonlWriter(tmp_path, max_records_per_shard=1) as writer:
            for record in LONE_SURROGATE_RECORDS:
                writer.write(record)
        manifest = JsonlShardManifest.load(tmp_path)
        assert len(manifest.shards) == 2
        assert _read_shards(tmp_path) == LONE_SURROGATE_RECORDS
        for shard in manifest.shards:
            assert shard.n_bytes == (tmp_path / shard.path).stat().st_size


class TestWritesAreAtomic:
    """Both writers go through ``repro.utils.durable.replace_lines``: the
    new content becomes visible in one rename, after it is on disk."""

    @staticmethod
    def _kill_before_rename(monkeypatch):
        def crash(src, dst):
            raise OSError("killed before rename")

        monkeypatch.setattr("repro.utils.durable.os.replace", crash)

    def test_interrupted_manifest_save_keeps_the_old_manifest(
        self, tmp_path, monkeypatch
    ):
        with ShardedJsonlWriter(tmp_path, max_records_per_shard=2) as writer:
            for i in range(3):
                writer.write({"i": i})
        before = (tmp_path / "manifest.json").read_bytes()
        writer.manifest.extra["campaign"] = "second-save"
        self._kill_before_rename(monkeypatch)
        with pytest.raises(OSError, match="killed"):
            writer.manifest.save()
        assert (tmp_path / "manifest.json").read_bytes() == before
        assert JsonlShardManifest.load(tmp_path).n_records == 3

    def test_every_listed_shard_is_synced_before_the_manifest_names_it(
        self, tmp_path, monkeypatch
    ):
        import os

        from repro.datasets import jsonl

        synced: list[str] = []  # shard files fsynced so far, by name
        fsync = os.fsync

        def recording_fsync(fd):
            # A finished shard's handle is flushed first: its whole content
            # is in the file by the time it is synced.
            for path in tmp_path.glob("*.jsonl"):
                if os.path.samestat(os.fstat(fd), path.stat()):
                    synced.append(path.name)
                    assert len(path.read_bytes().splitlines()) in (1, 2)
            fsync(fd)

        def checking_replace_lines(path, lines):
            manifest = json.loads(b"".join(lines))
            listed = [shard["path"] for shard in manifest["shards"]]
            assert len(listed) == 3 and sorted(synced) == sorted(listed)
            return replace_lines(path, lines)

        replace_lines = jsonl.replace_lines
        monkeypatch.setattr(jsonl.os, "fsync", recording_fsync)
        monkeypatch.setattr(jsonl, "replace_lines", checking_replace_lines)
        with ShardedJsonlWriter(tmp_path, max_records_per_shard=2) as writer:
            for i in range(5):
                writer.write({"i": i})
        assert len(synced) == 3  # once per shard, not once per record
        assert JsonlShardManifest.load(tmp_path).n_records == 5

    def test_interrupted_write_jsonl_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"i": 1}])
        self._kill_before_rename(monkeypatch)
        with pytest.raises(OSError, match="killed"):
            write_jsonl(path, [{"i": 2}, {"i": 3}])
        assert list(iter_jsonl(path)) == [{"i": 1}]
