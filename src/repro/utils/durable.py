"""Durable line-oriented files: append a block, or replace the whole file.

The two write primitives behind every fsynced JSONL file in the repo (the
parse cache's shards, the campaign ledger).  Lines are ``bytes`` without
their newline; both functions add it and return the bytes written.

* :func:`append_lines` costs the block, never the file.  It is *not*
  atomic: a kill mid-write leaves a torn last line, and two processes
  appending at once may interleave.  Readers must skip lines that do not
  parse.  What it does guarantee is that a block starts on a fresh line,
  so a torn tail costs the line that was torn and never the next one.
* :func:`replace_lines` is atomic: readers see the old file or the new
  one.  It costs the whole file.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Iterable


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
