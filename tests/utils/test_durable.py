"""The durable-JSONL primitives: block append, atomic replace, tolerant read."""

from __future__ import annotations

from repro.utils.durable import JsonLines, append_lines, replace_lines


class TestAppendLines:
    def test_creates_the_file_and_returns_the_bytes_written(self, tmp_path):
        path = tmp_path / "log.jsonl"
        assert append_lines(path, [b"one", b"two"]) == 8
        assert append_lines(path, [b"three"]) == 6
        assert path.read_bytes() == b"one\ntwo\nthree\n"

    def test_block_after_a_torn_tail_starts_on_a_fresh_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_lines(path, [b"whole"])
        with path.open("ab") as handle:
            handle.write(b"tor")  # a writer died mid-line
        assert append_lines(path, [b"next"]) == 6  # the newline it had to add
        assert path.read_bytes().split(b"\n") == [b"whole", b"tor", b"next", b""]


class TestReplaceLines:
    def test_replaces_the_whole_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_lines(path, [b"old"] * 10)
        assert replace_lines(path, iter([b"new", b"er"])) == 7
        assert path.read_bytes() == b"new\ner\n"
        assert [p.name for p in tmp_path.iterdir()] == ["log.jsonl"]

    def test_no_lines_is_an_empty_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        assert replace_lines(path, []) == 0
        assert path.read_bytes() == b""


class TestJsonLines:
    def test_yields_payloads_with_their_raw_lines_and_counts_the_rest(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_lines(path, [b'{"key": "a"}', b"", b"garbage", b"\xff\xfe", b" [1, 2] "])
        with path.open("ab") as handle:
            handle.write(b'{"key": "tor')  # a writer died mid-line
        reader = JsonLines(path)
        assert list(reader) == [({"key": "a"}, b'{"key": "a"}'), ([1, 2], b"[1, 2]")]
        assert reader.skipped == 3

    def test_a_missing_file_reads_as_empty(self, tmp_path):
        reader = JsonLines(tmp_path / "absent.jsonl")
        assert list(reader) == []
        assert reader.skipped == 0
