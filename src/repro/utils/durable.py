"""Durable record files: append a block, replace the whole file, read it back.

The two write primitives behind every fsynced record file in the repo —
the parse cache's shards of framed records, and JSONL files such as the
campaign ledger and the reference index — plus :class:`JsonLines`, the
tolerant reader those two JSONL files load with.  Records are ``bytes`` without their closing newline; the
writers add it and return the bytes written.  A record may hold newlines
of its own (a cache shard's frames do): the writers only promise where a
block starts.

* :func:`append_lines` costs the block, never the file.  It is *not*
  atomic: a kill mid-write leaves a torn last record, and two processes
  appending at once may interleave.  Readers must skip records that do not
  check out.  What it does guarantee is that a block starts on a fresh
  line, so a torn tail costs the record that was torn and never the next
  one.
* :func:`replace_lines` is atomic: readers see the old file or the new
  one.  It costs the whole file.
* :class:`JsonLines` is that reader: it skips, and counts, the lines that
  are not JSON.  What a parsed line must contain is the caller's check.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Iterable, Iterator


def temporary_suffix() -> str:
    """Suffix of the calling thread's :func:`replace_lines` temporaries."""
    return f".tmp-{os.getpid()}-{threading.get_ident()}"


def _join(lines: Iterable[bytes]) -> bytes:
    return b"".join(line + b"\n" for line in lines)


def append_lines(path: Path, lines: Iterable[bytes]) -> int:
    """Append ``lines`` as one block and fsync it."""
    data = _join(lines)
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        # Start on a fresh line.  (With O_APPEND the write lands at the end
        # wherever the read leaves the offset.)
        size = os.lseek(fd, 0, os.SEEK_END)
        if size:
            os.lseek(fd, size - 1, os.SEEK_SET)
            if os.read(fd, 1) != b"\n":
                data = b"\n" + data
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        os.fsync(fd)
    finally:
        os.close(fd)
    return len(data)


def replace_lines(path: Path, lines: Iterable[bytes]) -> int:
    """Atomically make ``lines`` the whole content of ``path``.

    The temporary sibling is ``<name>`` + :func:`temporary_suffix`, so a
    thread can recognise (and sweep) its own stragglers and never touches
    another live writer's.
    """
    data = _join(lines)
    tmp = path.with_name(path.name + temporary_suffix())
    with tmp.open("wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return len(data)


class JsonLines:
    """Iterate the JSON lines of a file a torn append may have damaged.

    Yields ``(payload, raw line)`` for every non-blank line that parses;
    ``skipped`` counts the ones passed over so far.  A missing file reads
    as empty.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.skipped = 0

    def __iter__(self) -> Iterator[tuple[Any, bytes]]:
        self.skipped = 0
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return
        for line in data.split(b"\n"):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                self.skipped += 1
                continue
            yield payload, line
