"""The persistent tier: hash-prefix-sharded files of framed records.

Layout: ``<directory>/shard-v3-NNN.frames``, one record per entry, each
carrying its full cache key; when a key appears more than once the last
record wins.  Entries are distributed over ``n_shards`` files by the content
hash's prefix, so concurrent writers contend on different files.

A record is a wire frame's body and text section (:mod:`repro.utils.codec`)
behind a prefix line that names its key, and a newline ends it::

    <crc32, 8 hex digits> <key> <body bytes> <text bytes>\\n
    {"key":"...","result":{...,"page_texts":[12,0,7],...},...}\\n
    <the texts, concatenated, UTF-8 with surrogates passed through>
    \\n

The body is the payload's JSON with every ``page_texts`` list replaced by
its texts' byte lengths (:class:`~repro.utils.codec.PageTexts`, lifted by
:func:`~repro.utils.codec.encode_body` and put back by
:func:`~repro.utils.codec.decode_body`); a payload may hold several such
lists, but none inside another object that holds one.  The body's strings
are UTF-8 with surrogates passed through, like the texts, so every string
a payload holds reads back code point for code point (a surrogate pair
held as two code points stays two, which ``\\u`` escapes cannot promise).
The CRC-32 covers everything after it up to the closing newline: the key,
both lengths, the body and the texts.

Loading a shard reads only prefix lines: each record is indexed by key
once its lengths land on its closing newline and its CRC matches, and no
JSON is parsed until a hit (or ``iter_entries`` / ``purge``) asks for the
payload.  A record that fails those checks is skipped and counted once in
``corrupt_lines_skipped``; the reader then looks for the next record at
each following line start and where the failed record claims to end, so
the records after a torn or damaged one still load, and a torn record
never lends its key to another's bytes.  A hit whose body then does not
decode is dropped by :meth:`repro.cache.ParseCache.lookup`.

Earlier formats were JSON lines in ``shard-NNN.jsonl`` (ASCII) and
``shard-v2-NNN.jsonl``; their files are never read (every key is a miss
there), are counted by :meth:`ShardedDiskStore.stale_bytes_on_disk` and go
with a full ``purge``.

Puts are staged per shard and persisted by :meth:`ShardedDiskStore.flush`
(the pipeline flushes once per run; the store flushes itself every
``flush_every`` staged puts).  A flush takes one of two write paths per
shard, both from :mod:`repro.utils.durable`:

* **Append** — the staged records go onto the end of the shard file as one
  fsynced block; the file is never read, so a flush costs the new entries
  and not the cache.  Appends are *torn-tolerant, not atomic*: a crash
  mid-block leaves a torn last record and two processes appending at once
  may interleave, and readers skip (and count) every record that does not
  check out — the cache is content-addressed, so a lost entry is
  re-parsed, never wrong.  A block always starts on a fresh line, so a
  torn tail costs the torn entry and never the next one.  Processes
  sharing a directory are additive by construction: nobody overwrites
  anybody.
* **Rewrite** — the shard file is re-read, this store's entries and
  tombstones are overlaid, and the result replaces the file *atomically*
  (``*.tmp-*`` sibling, fsync, :func:`os.replace`): readers see the old
  shard or the new one.  It costs the whole shard and runs exactly when

  1. the shard has tombstones (``delete`` / ``purge``) — an append cannot
     remove a record;
  2. the shard's load skipped a torn or damaged record — the shard heals
     on the next flush that touches it; or
  3. the shard would hold more than twice as many records as live keys —
     bounds the superseded records that re-putting the same keys leaves
     behind, at an amortised cost of one rewritten record per put.

  A block another process appends between a rewrite's read and its rename
  is lost with the old file; like every same-key race here that costs a
  re-parse, not correctness.

Entries are kept as their encoded records (bytes), so each entry is
encoded exactly once per put; reads decode on demand and the decoded
objects are promoted into the memory tier above.  (The stats keep the
names ``superseded_lines`` and ``corrupt_lines_skipped``; they count
records.)
"""

from __future__ import annotations

import heapq
import threading
import zlib
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.utils.durable import append_lines, replace_lines, temporary_suffix
from repro.utils.codec import TEXTS_KEY, PageTexts, decode_body, encode_body

#: Version of the record format, in every shard file's name.
_SHARD_FORMAT = 3
_SHARD_PREFIX = f"shard-v{_SHARD_FORMAT}-"
_SHARD_SUFFIX = ".frames"


def _lift_texts(value: Any) -> Any:
    """``value`` with every ``page_texts`` list wrapped as :class:`PageTexts`."""
    if isinstance(value, dict):
        return {
            name: (
                PageTexts(item)
                if name == TEXTS_KEY and isinstance(item, list)
                else _lift_texts(item)
            )
            for name, item in value.items()
        }
    if isinstance(value, list):
        return [_lift_texts(item) for item in value]
    return value


def _encode_record(key: str, payload: dict[str, Any]) -> bytes:
    """One record, closing newline excluded (the shard writers add it)."""
    body, texts = encode_body(_lift_texts(payload), ensure_ascii=False)
    texts = texts or []
    head = b"%s %d %d\n" % (
        key.encode("utf-8", "surrogateescape"),
        len(body),
        sum(map(len, texts)),
    )
    crc = zlib.crc32(body, zlib.crc32(head))
    for text in texts:
        crc = zlib.crc32(text, crc)
    return b"".join([b"%08x " % crc, head, body, *texts])


def _decode_record(record: bytes) -> dict[str, Any]:
    """The payload of a record the load checked.

    Raises :class:`ValueError` (or the codec's ``ProtocolError``) for one
    whose body is not a JSON object or whose text lengths do not fit.
    """
    eol = record.index(b"\n")
    body_end = eol + 1 + int(record[9:eol].rsplit(b" ", 2)[1])
    body = record[eol + 1 : body_end].decode("utf-8", "surrogatepass")
    payload = decode_body(body, record[body_end:])
    if not isinstance(payload, dict):
        raise ValueError(f"a cache record holds {type(payload).__name__}, not an object")
    return payload


def _index_records(data: bytes) -> tuple[dict[str, bytes], int, int]:
    """Index a shard file's records by key, skipping the ones that fail.

    Returns the live record of every key (later records win), how many
    records the file holds and how many of them were skipped.  After a
    failed record the next candidates are the following line starts and,
    in position order, the byte after where the failed record claims to
    end (a record whose closing newline was damaged is followed there).
    A run of lines that starts no record is skipped as one.
    """
    entries: dict[str, bytes] = {}
    view = memoryview(data)
    size = len(data)
    position = held = skipped = 0
    claimed: list[int] = []  # where failed records claim the next one starts
    in_damage = False
    while position < size:
        eol = data.find(b"\n", position)
        if eol < 0:
            eol = size
        fields = data[position + 9 : eol].rsplit(b" ", 2)
        if len(fields) == 3 and data[position + 8 : position + 9] == b" ":
            key, body_length, text_length = fields
            if body_length.isdigit() and text_length.isdigit():
                end = eol + 1 + int(body_length) + int(text_length)
                if (
                    key
                    and end < size
                    and data[end] == 0x0A
                    and data[position : position + 8]
                    == b"%08x" % zlib.crc32(view[position + 9 : end])
                ):
                    entries[key.decode("utf-8", "surrogateescape")] = data[position:end]
                    held += 1
                    in_damage = False
                    position = end + 1
                    continue
                heapq.heappush(claimed, end + 1)
            skipped += 1  # a prefix line whose record does not check out
            in_damage = True
        elif not in_damage and data[position:eol].strip():
            skipped += 1
            in_damage = True
        while claimed and claimed[0] <= position:
            heapq.heappop(claimed)
        position = heapq.heappop(claimed) if claimed and claimed[0] <= eol else eol + 1
    return entries, held + skipped, skipped


class ShardedDiskStore:
    """Durable key → JSON-payload map sharded over files of framed records."""

    def __init__(
        self, directory: str | Path, n_shards: int = 16, flush_every: int = 256
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be positive")
        if flush_every < 1:
            raise ValueError("flush_every must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.n_shards = n_shards
        self.flush_every = flush_every
        self.corrupt_lines_skipped = 0
        self._locks = [threading.Lock() for _ in range(n_shards)]
        # Per shard, guarded by its lock: live encoded records by key (None
        # until first touch); the records put since the last flush; keys
        # deleted since then (tombstones); whether the load skipped a record;
        # and the records the file holds as far as this store knows.
        self._entries: list[dict[str, bytes] | None] = [None] * n_shards
        self._staged: list[dict[str, bytes]] = [{} for _ in range(n_shards)]
        self._deleted: list[set[str]] = [set() for _ in range(n_shards)]
        self._torn = [False] * n_shards
        self._records_on_disk = [0] * n_shards

    # ------------------------------------------------------------------ #
    # Shard files
    # ------------------------------------------------------------------ #
    def shard_path(self, index: int) -> Path:
        return self.directory / f"{_SHARD_PREFIX}{index:03d}{_SHARD_SUFFIX}"

    def shard_paths(self) -> list[Path]:
        """Existing shard files (sorted; temporary files excluded)."""
        return sorted(
            p for p in self.directory.glob(f"{_SHARD_PREFIX}*{_SHARD_SUFFIX}") if p.is_file()
        )

    def _stale_shard_paths(self) -> list[Path]:
        """Shard files of other formats, which this store never reads."""
        return [
            p
            for p in self.directory.glob("shard-*")
            if not p.name.startswith(_SHARD_PREFIX)
            and not p.suffix.startswith(".tmp-")
            and p.is_file()
        ]

    def _parse_shard_file(self, index: int) -> tuple[dict[str, bytes], int, int]:
        """Read one shard file: :func:`_index_records` over its bytes."""
        try:
            data = self.shard_path(index).read_bytes()
        except FileNotFoundError:
            return {}, 0, 0
        return _index_records(data)

    def _load_shard(self, index: int) -> dict[str, bytes]:
        loaded = self._entries[index]
        if loaded is None:
            loaded, self._records_on_disk[index], skipped = self._parse_shard_file(index)
            self._entries[index] = loaded
            self._torn[index] = skipped > 0
            self.corrupt_lines_skipped += skipped
        return loaded

    def _flush_shard(self, index: int) -> int:
        """Persist one shard's staged records and tombstones; returns bytes written.

        Appends unless one of the module docstring's three rules asks for a
        rewrite.  The caller holds the shard's lock.
        """
        staged, deleted = self._staged[index], self._deleted[index]
        if not staged and not deleted:
            return 0
        entries = self._entries[index]
        assert entries is not None  # put and delete load the shard
        path = self.shard_path(index)
        records_after_append = self._records_on_disk[index] + len(staged)
        if not deleted and not self._torn[index] and records_after_append <= 2 * len(entries):
            written = append_lines(path, staged.values())
            self._records_on_disk[index] = records_after_append
            staged.clear()
            return written
        # Overlay our entries and tombstones on the *current* file contents,
        # so entries another process flushed since our load survive.
        merged = {
            key: record
            for key, record in self._parse_shard_file(index)[0].items()
            if key not in deleted
        }
        merged.update(entries)
        if merged:
            written = replace_lines(path, merged.values())
        else:
            path.unlink(missing_ok=True)
            written = 0
        self._entries[index] = merged
        self._records_on_disk[index] = len(merged)
        self._torn[index] = False
        staged.clear()
        deleted.clear()
        return written

    def _sweep_temporaries(self) -> None:
        # Only this thread's own temporaries (of any shard format): another
        # thread, or another process sharing the directory, may be between
        # fsync and rename on its tmp file.  (A crashed writer's stragglers
        # are harmless — never read as shards — and reclaimed when a writer
        # with the same pid and thread id reuses the name or the operator
        # purges.)
        pattern = f"shard-*{temporary_suffix()}"
        for stray in self.directory.glob(pattern):
            stray.unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # Key-value interface
    # ------------------------------------------------------------------ #
    def shard_index_for(self, key: str) -> int:
        """Shard of a key string (first 8 hex chars of its content hash)."""
        prefix = key[:8]
        try:
            value = int(prefix, 16)
        except ValueError:
            value = sum(ord(c) for c in prefix)
        return value % self.n_shards

    def get(self, key: str) -> dict[str, Any] | None:
        found = self.get_with_size(key)
        return None if found is None else found[0]

    def get_with_size(self, key: str) -> tuple[dict[str, Any], int] | None:
        """The payload for ``key`` plus its serialised size in bytes."""
        index = self.shard_index_for(key)
        with self._locks[index]:
            record = self._load_shard(index).get(key)
        if record is None:
            return None
        return _decode_record(record), len(record)

    def put(self, key: str, payload: dict[str, Any]) -> int:
        """Stage an entry; durable after the next :meth:`flush` (or auto-flush).

        Returns the entry's encoded size in bytes (the record is encoded
        exactly once, here).  A key is one line of text: a newline in it is
        refused, and so is a surrogate that UTF-8 cannot encode.
        """
        if "\n" in key:
            raise ValueError(f"a cache key may not hold a newline: {key!r}")
        record = _encode_record(key, payload)
        index = self.shard_index_for(key)
        with self._locks[index]:
            self._load_shard(index)[key] = record
            self._staged[index][key] = record
            self._deleted[index].discard(key)
        # Unlocked reads of the other shards' sizes: a record stays counted
        # from its put until a flush takes it, so no put is ever lost to the
        # trigger; a racing put or flush only moves it by that one record.
        if sum(map(len, self._staged)) >= self.flush_every:
            self.flush()
        return len(record)

    def delete(self, key: str) -> bool:
        index = self.shard_index_for(key)
        with self._locks[index]:
            removed = self._load_shard(index).pop(key, None) is not None
            if removed:
                self._staged[index].pop(key, None)
                self._deleted[index].add(key)
        return removed

    def flush(self) -> int:
        """Persist every shard with staged puts or deletes; returns bytes written.

        A flush with nothing staged touches no file: it does not even list
        the directory for temporaries, which only a shard write can leave.
        """
        written = 0
        touched = False
        for index in range(self.n_shards):
            with self._locks[index]:
                touched = touched or bool(self._staged[index] or self._deleted[index])
                written += self._flush_shard(index)
        if touched:
            self._sweep_temporaries()
        return written

    def purge(self, predicate: Callable[[dict[str, Any]], bool] | None = None) -> int:
        """Drop entries matching ``predicate`` (all when ``None``); returns count.

        Only shards that actually change are rewritten; a full purge removes
        the shard files outright, other formats' included.
        """
        removed = 0
        for index in range(self.n_shards):
            with self._locks[index]:
                entries = self._load_shard(index)
                if predicate is None:
                    removed += len(entries)
                    entries.clear()
                    self._staged[index].clear()
                    self._deleted[index].clear()
                    self._torn[index] = False
                    self._records_on_disk[index] = 0
                    self.shard_path(index).unlink(missing_ok=True)
                    continue
                doomed = [
                    key for key, record in entries.items() if predicate(_decode_record(record))
                ]
                for key in doomed:
                    del entries[key]
                    self._staged[index].pop(key, None)
                    self._deleted[index].add(key)
                removed += len(doomed)
                self._flush_shard(index)
        if predicate is None:
            for path in self._stale_shard_paths():
                path.unlink(missing_ok=True)
        self._sweep_temporaries()
        return removed

    def iter_entries(self) -> Iterator[dict[str, Any]]:
        """Every persisted (and staged) entry across all shards."""
        for index in range(self.n_shards):
            with self._locks[index]:
                records = list(self._load_shard(index).values())
            for record in records:
                yield _decode_record(record)

    def __len__(self) -> int:
        total = 0
        for index in range(self.n_shards):
            with self._locks[index]:
                total += len(self._load_shard(index))
        return total

    def bytes_on_disk(self) -> int:
        return sum(p.stat().st_size for p in self.shard_paths())

    def stale_bytes_on_disk(self) -> int:
        """Bytes of the shard files other formats left here (never read)."""
        return sum(p.stat().st_size for p in self._stale_shard_paths())

    def superseded_lines(self) -> int:
        """Records on disk that are no key's live entry (exact when nothing is staged).

        What the append path leaves behind until rule 3 rewrites the shard:
        older records of re-put keys, plus any torn one.
        """
        total = 0
        for index in range(self.n_shards):
            with self._locks[index]:
                live = len(self._load_shard(index))
                total += max(0, self._records_on_disk[index] - live)
        return total
