"""The reference index: the content hash a document reference had when last read.

The parse cache is addressed by content, and a document's content hash
costs reading the whole document.  A
:class:`~repro.documents.sources.DocumentRef` names a document without
reading it and carries a change stamp (``size:mtime_ns`` for a file, the
corpus fingerprint for ``synthetic``), so ``ref.key()`` moves whenever the
referenced bytes can have moved.  The index maps ``ref.key()`` to the
content hash computed the last time that reference was read — make's and
git's stat-cache rule: a changed stamp is a new key, hence a miss here,
hence a re-read.  The index is independent of the parser: it says what a
document *is*, the cache entries say what a parser made of it.

The index learns from every document the cache hashes that a source read
through a reference — one read by the cache itself, or one a caller
materialised with ``iter_documents`` (both carry
:func:`~repro.documents.sources.document_origin`).  So a cache warmed from a
directory's documents (``dataset``, then ``pipeline`` over the same
``simpdf-dir``) keys that directory by a stat: each file is read once.

One fixed rule guards the stamp's resolution.  A file reference is
remembered only if the file's mtime was at least :data:`RACY_MARGIN_NS`
older than the moment the file was read (git's "racily clean" rule;
:attr:`~repro.documents.sources.Origin.read_ns`), however long after the
read the document is hashed: a same-size rewrite inside one timestamp tick
leaves the stamp where it was, and must never be answered from the index.
A younger file is simply read and hashed again next time.

On disk the index is one JSONL file in the cache directory, named after
:data:`~repro.cache.keys.CONTENT_HASH_SCHEME` — ``{"ref": ..., "hash":
...}`` per line, the last line of a key wins, torn lines are skipped.
Lines are staged as references are learned and appended as one block by
:meth:`ReferenceIndex.flush`; a lost or deleted file costs one re-hash per
document, never a wrong answer.  A memory-only cache keeps the mapping in
a dict and stages nothing.
"""

from __future__ import annotations

import contextlib
import json
import threading
from pathlib import Path
from typing import Iterable

from repro.cache.keys import CONTENT_HASH_SCHEME
from repro.documents.sources import DocumentRef, Origin
from repro.utils.durable import JsonLines, append_lines

#: A file must have been left alone this long before its stamp is trusted.
RACY_MARGIN_NS = 2_000_000_000

_INDEX_GLOB = "refs-v*.jsonl"


class ReferenceIndex:
    """``ref.key()`` → content hash, shared by every thread using one cache."""

    def __init__(self, directory: Path | None = None) -> None:
        self.path = (
            None if directory is None else directory / f"refs-v{CONTENT_HASH_SCHEME}.jsonl"
        )
        self._lock = threading.Lock()
        # Guarded by the lock: the mapping (read from the file on first
        # use) and the lines learned since the last flush.
        self._hashes: dict[str, str] | None = None if self.path is not None else {}
        self._staged: list[bytes] = []

    def _load(self) -> dict[str, str]:
        if self._hashes is None:
            assert self.path is not None
            self._hashes = {}
            for payload, _ in JsonLines(self.path):
                if not isinstance(payload, dict):
                    continue
                ref, content_hash = payload.get("ref"), payload.get("hash")
                if isinstance(ref, str) and isinstance(content_hash, str):
                    self._hashes[ref] = content_hash
        return self._hashes

    def lookup(self, refs: Iterable[DocumentRef]) -> list[str | None]:
        """The remembered content hash of each reference, ``None`` where unknown."""
        keys = [ref.key() for ref in refs]
        with self._lock:
            return list(map(self._load().get, keys))

    def remember(self, learned: Iterable[tuple[Origin, str]]) -> None:
        """Record ``(origin, content hash)`` pairs; racy ones are dropped."""
        settled = [
            (ref.key(), content_hash)
            for (ref, read_ns), content_hash in learned
            if (modified := ref.modified_ns) is None or modified <= read_ns - RACY_MARGIN_NS
        ]
        with self._lock:
            hashes = self._load()
            for key, content_hash in settled:
                if hashes.get(key) == content_hash:
                    continue
                hashes[key] = content_hash
                if self.path is not None:
                    line = json.dumps({"ref": key, "hash": content_hash}, separators=(",", ":"))
                    self._staged.append(line.encode("utf-8"))

    def flush(self) -> int:
        """Append the staged lines as one fsynced block; returns bytes written."""
        with self._lock:
            if not self._staged:
                return 0
            assert self.path is not None
            written = append_lines(self.path, self._staged)
            self._staged.clear()
            return written

    def clear(self) -> None:
        """Forget everything, on disk too (other scheme versions' files included)."""
        with self._lock:
            self._hashes = {}
            self._staged.clear()
            if self.path is not None:
                for path in self.path.parent.glob(_INDEX_GLOB):
                    path.unlink(missing_ok=True)

    def __len__(self) -> int:
        with self._lock:
            return len(self._load())

    def bytes_on_disk(self) -> int:
        try:
            return 0 if self.path is None else self.path.stat().st_size
        except FileNotFoundError:
            return 0

    def stale_bytes_on_disk(self) -> int:
        """Bytes of the index files other hash schemes left beside this one.

        They are never read (their hashes are not this scheme's); ``clear``
        — ``cache purge`` of everything — removes them.
        """
        if self.path is None:
            return 0
        total = 0
        for path in self.path.parent.glob(_INDEX_GLOB):
            if path != self.path:
                with contextlib.suppress(FileNotFoundError):
                    total += path.stat().st_size
        return total
