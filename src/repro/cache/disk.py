"""The persistent tier: hash-prefix-sharded JSONL files.

Layout: ``<directory>/shard-v2-NNN.jsonl``, one JSON object per line, each
carrying its full cache key; when a key appears more than once the last
line wins.  Entries are distributed over ``n_shards`` files by the content
hash's prefix, so concurrent writers contend on different files.

A line is UTF-8 JSON, and any text a document holds reads back code point
for code point.  Most lines are ASCII with ``\\uXXXX`` escapes, json's fast
path.  Escapes cannot tell a pair of surrogates held as two code points from
the astral character they pair into: both escape to the same two ``\\ud...``
escapes, which read back as the character.  So a line whose ASCII form holds
a surrogate escape is written unescaped instead, each surrogate as its own
three bytes (``surrogatepass``, which ``json.loads`` of bytes decodes with).
The first format (``shard-NNN.jsonl``) wrote every line in ASCII; its shards
are never read (every key is a miss there), are counted by
:meth:`ShardedDiskStore.stale_bytes_on_disk` and go with a full ``purge``.

Puts are staged per shard and persisted by :meth:`ShardedDiskStore.flush`
(the pipeline flushes once per run; the store flushes itself every
``flush_every`` staged puts).  A flush takes one of two write paths per
shard, both from :mod:`repro.utils.durable`:

* **Append** — the staged lines go onto the end of the shard file as one
  fsynced block; the file is never read, so a flush costs the new entries
  and not the cache.  Appends are *torn-tolerant, not atomic*: a crash
  mid-block leaves a torn last line and two processes appending at once
  may interleave, and readers skip (and count) every line that does not
  parse — the cache is content-addressed, so a lost entry is re-parsed,
  never wrong.  A block always starts on a fresh line, so a torn tail
  costs the torn entry and never the next one.  Processes sharing a
  directory are additive by construction: nobody overwrites anybody.
* **Rewrite** — the shard file is re-read, this store's entries and
  tombstones are overlaid, and the result replaces the file *atomically*
  (``*.tmp-*`` sibling, fsync, :func:`os.replace`): readers see the old
  shard or the new one.  It costs the whole shard and runs exactly when

  1. the shard has tombstones (``delete`` / ``purge``) — an append cannot
     remove a line;
  2. the shard's load skipped a torn or garbage line — the shard heals on
     the next flush that touches it; or
  3. the shard would hold more than twice as many lines as live keys —
     bounds the superseded lines that re-putting the same keys leaves
     behind, at an amortised cost of one rewritten line per put.

  A block another process appends between a rewrite's read and its rename
  is lost with the old file; like every same-key race here that costs a
  re-parse, not correctness.

Entries are kept as their serialised JSONL lines (bytes), so each entry is
encoded exactly once per put; reads parse on demand and the parsed objects
are promoted into the memory tier above.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.utils.durable import JsonLines, append_lines, replace_lines, temporary_suffix

#: Version of the line encoding, in every shard file's name.
_SHARD_FORMAT = 2
_SHARD_PREFIX = f"shard-v{_SHARD_FORMAT}-"
_SHARD_SUFFIX = ".jsonl"
#: Shard files of every format (temporaries excluded).
_ANY_SHARD = f"shard-*{_SHARD_SUFFIX}"
#: A surrogate's escape in json's ASCII output (a false match only costs time).
_SURROGATE_ESCAPE = re.compile(r"\\ud[89a-f]")


class ShardedDiskStore:
    """Durable key → JSON-payload map sharded over JSONL files."""

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
        # Per shard, guarded by its lock: live serialised lines by key (None
        # until first touch); the lines put since the last flush; keys
        # deleted since then (tombstones); whether the load skipped a line;
        # and the lines the file holds as far as this store knows.
        self._entries: list[dict[str, bytes] | None] = [None] * n_shards
        self._staged: list[dict[str, bytes]] = [{} for _ in range(n_shards)]
        self._deleted: list[set[str]] = [set() for _ in range(n_shards)]
        self._torn = [False] * n_shards
        self._lines_on_disk = [0] * n_shards

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
        """Shard files of other line formats, which this store never reads."""
        return [
            p
            for p in self.directory.glob(_ANY_SHARD)
            if not p.name.startswith(_SHARD_PREFIX) and p.is_file()
        ]

    def _parse_shard_file(self, index: int) -> tuple[dict[str, bytes], int, int]:
        """Read one shard file, skipping torn or malformed lines.

        Returns the live line of every key (later lines win), the number of
        lines in the file and how many of them were skipped.
        """
        entries: dict[str, bytes] = {}
        parsed = malformed = 0
        reader = JsonLines(self.shard_path(index))
        for payload, line in reader:
            parsed += 1
            key = payload.get("key") if isinstance(payload, dict) else None
            if isinstance(key, str):
                entries[key] = line
            else:
                malformed += 1
        return entries, parsed + reader.skipped, reader.skipped + malformed

    def _load_shard(self, index: int) -> dict[str, bytes]:
        loaded = self._entries[index]
        if loaded is None:
            loaded, self._lines_on_disk[index], skipped = self._parse_shard_file(index)
            self._entries[index] = loaded
            self._torn[index] = skipped > 0
            self.corrupt_lines_skipped += skipped
        return loaded

    def _flush_shard(self, index: int) -> int:
        """Persist one shard's staged lines and tombstones; returns bytes written.

        Appends unless one of the module docstring's three rules asks for a
        rewrite.  The caller holds the shard's lock.
        """
        staged, deleted = self._staged[index], self._deleted[index]
        if not staged and not deleted:
            return 0
        entries = self._entries[index]
        assert entries is not None  # put and delete load the shard
        path = self.shard_path(index)
        lines_after_append = self._lines_on_disk[index] + len(staged)
        if not deleted and not self._torn[index] and lines_after_append <= 2 * len(entries):
            written = append_lines(path, staged.values())
            self._lines_on_disk[index] = lines_after_append
            staged.clear()
            return written
        # Overlay our entries and tombstones on the *current* file contents,
        # so entries another process flushed since our load survive.
        merged = {
            key: line
            for key, line in self._parse_shard_file(index)[0].items()
            if key not in deleted
        }
        merged.update(entries)
        if merged:
            written = replace_lines(path, merged.values())
        else:
            path.unlink(missing_ok=True)
            written = 0
        self._entries[index] = merged
        self._lines_on_disk[index] = len(merged)
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
        pattern = f"{_ANY_SHARD}{temporary_suffix()}"
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
            line = self._load_shard(index).get(key)
        if line is None:
            return None
        return json.loads(line), len(line)

    def put(self, key: str, payload: dict[str, Any]) -> int:
        """Stage an entry; durable after the next :meth:`flush` (or auto-flush).

        Returns the entry's serialised size in bytes (the line is encoded
        exactly once, here).
        """
        text = json.dumps(payload, separators=(",", ":"))
        if _SURROGATE_ESCAPE.search(text):  # see the module docstring
            text = json.dumps(payload, ensure_ascii=False, separators=(",", ":"))
        line = text.encode("utf-8", "surrogatepass")
        index = self.shard_index_for(key)
        with self._locks[index]:
            self._load_shard(index)[key] = line
            self._staged[index][key] = line
            self._deleted[index].discard(key)
        # Unlocked reads of the other shards' sizes: a line stays counted
        # from its put until a flush takes it, so no put is ever lost to the
        # trigger; a racing put or flush only moves it by that one line.
        if sum(map(len, self._staged)) >= self.flush_every:
            self.flush()
        return len(line)

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
                    self._lines_on_disk[index] = 0
                    self.shard_path(index).unlink(missing_ok=True)
                    continue
                doomed = [key for key, line in entries.items() if predicate(json.loads(line))]
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
                lines = list(self._load_shard(index).values())
            for line in lines:
                yield json.loads(line)

    def __len__(self) -> int:
        total = 0
        for index in range(self.n_shards):
            with self._locks[index]:
                total += len(self._load_shard(index))
        return total

    def bytes_on_disk(self) -> int:
        return sum(p.stat().st_size for p in self.shard_paths())

    def stale_bytes_on_disk(self) -> int:
        """Bytes of the shard files other line formats left here (never read)."""
        return sum(p.stat().st_size for p in self._stale_shard_paths())

    def superseded_lines(self) -> int:
        """Lines on disk that are no key's live entry (exact when nothing is staged).

        What the append path leaves behind until rule 3 rewrites the shard:
        older lines of re-put keys, plus any torn line.
        """
        total = 0
        for index in range(self.n_shards):
            with self._locks[index]:
                live = len(self._load_shard(index))
                total += max(0, self._lines_on_disk[index] - live)
        return total
