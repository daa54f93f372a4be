"""Sharded JSONL serialisation of parsed-document records.

Large parsing campaigns cannot write one file per document (the paper's I/O
optimisations exist precisely because millions of small files overwhelm a
shared parallel filesystem), so assembled datasets are written as a directory
of JSONL *shards* plus a ``manifest.json`` describing them.  Shards roll over
on a record-count or byte-size limit, whichever is hit first.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.utils.durable import replace_lines

MANIFEST_FILENAME = "manifest.json"


def write_jsonl(path: str | Path, records: Iterable[Mapping[str, object]]) -> int:
    """Atomically write records as one JSONL file, returning the number written.

    Lines are ASCII JSON, so any text survives, a lone surrogate included.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(dict(record)).encode("ascii") for record in records]
    replace_lines(path, lines)
    return len(lines)


def iter_jsonl(path: str | Path) -> Iterator[dict[str, object]]:
    """Stream records of a JSONL file without loading it entirely.

    Dataset shards are written atomically, so a line that is not JSON is
    an error naming the file and line, never skipped.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_number}: invalid JSON line") from exc
            yield record


@dataclass
class ShardInfo:
    """Bookkeeping of one written shard."""

    path: str
    n_records: int
    n_bytes: int

    def to_json_dict(self) -> dict[str, object]:
        return {"path": self.path, "n_records": self.n_records, "n_bytes": self.n_bytes}


@dataclass
class JsonlShardManifest:
    """Manifest of a sharded JSONL dataset directory."""

    directory: str
    shards: list[ShardInfo] = field(default_factory=list)
    extra: dict[str, object] = field(default_factory=dict)

    @property
    def n_records(self) -> int:
        """Total records across all shards."""
        return sum(s.n_records for s in self.shards)

    @property
    def n_bytes(self) -> int:
        """Total serialised bytes across all shards."""
        return sum(s.n_bytes for s in self.shards)

    def to_json_dict(self) -> dict[str, object]:
        return {
            "directory": self.directory,
            "n_records": self.n_records,
            "n_bytes": self.n_bytes,
            "shards": [s.to_json_dict() for s in self.shards],
            "extra": dict(self.extra),
        }

    def save(self, path: str | Path | None = None) -> Path:
        """Write the manifest (defaults to ``<directory>/manifest.json``).

        The write is atomic: an interrupted save leaves the previous
        manifest in place, never a torn one.
        """
        path = Path(path) if path is not None else Path(self.directory) / MANIFEST_FILENAME
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(self.to_json_dict(), indent=2)
        replace_lines(path, [text.encode("utf-8")])
        return path

    @classmethod
    def load(cls, directory: str | Path) -> "JsonlShardManifest":
        """Load the manifest of a dataset directory."""
        directory = Path(directory)
        payload = json.loads((directory / MANIFEST_FILENAME).read_text(encoding="utf-8"))
        manifest = cls(directory=str(directory), extra=dict(payload.get("extra", {})))
        for shard in payload.get("shards", []):
            manifest.shards.append(
                ShardInfo(
                    path=str(shard["path"]),
                    n_records=int(shard["n_records"]),
                    n_bytes=int(shard["n_bytes"]),
                )
            )
        return manifest


class ShardedJsonlWriter:
    """Writes records into rolling JSONL shards under one directory.

    Usable as a context manager::

        with ShardedJsonlWriter("out/", max_records_per_shard=10_000) as writer:
            for record in records:
                writer.write(record.to_json_dict())
        manifest = writer.manifest
    """

    def __init__(
        self,
        directory: str | Path,
        prefix: str = "shard",
        max_records_per_shard: int = 50_000,
        max_mb_per_shard: float = 64.0,
    ) -> None:
        if max_records_per_shard < 1:
            raise ValueError("max_records_per_shard must be positive")
        if max_mb_per_shard <= 0:
            raise ValueError("max_mb_per_shard must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.prefix = prefix
        self.max_records_per_shard = max_records_per_shard
        self.max_bytes_per_shard = int(max_mb_per_shard * 1024 * 1024)
        self.manifest = JsonlShardManifest(directory=str(self.directory))
        self._handle = None
        self._current_records = 0
        self._current_bytes = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    def _shard_name(self, index: int) -> str:
        return f"{self.prefix}-{index:05d}.jsonl"

    def _open_new_shard(self) -> None:
        self._finish_current_shard()
        name = self._shard_name(len(self.manifest.shards))
        self._handle = (self.directory / name).open("w", encoding="utf-8")
        self._current_records = 0
        self._current_bytes = 0

    def _finish_current_shard(self) -> None:
        if self._handle is None:
            return
        name = Path(self._handle.name).name
        # Once per finished shard, not per record: the manifest that names
        # this shard is replaced atomically, so the shard's tail must be on
        # disk before it is listed.
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self.manifest.shards.append(
            ShardInfo(path=name, n_records=self._current_records, n_bytes=self._current_bytes)
        )
        self._handle = None

    # ------------------------------------------------------------------ #
    def write(self, record: Mapping[str, object]) -> None:
        """Append one record, rolling over to a new shard when limits are hit."""
        if self._closed:
            raise RuntimeError("writer is closed")
        # ASCII JSON, like write_jsonl: any text survives, and the line's
        # length is its byte count on disk.
        line = json.dumps(dict(record)) + "\n"
        encoded = line.encode("ascii")
        needs_new = (
            self._handle is None
            or self._current_records >= self.max_records_per_shard
            or (self._current_bytes > 0 and self._current_bytes + len(encoded) > self.max_bytes_per_shard)
        )
        if needs_new:
            self._open_new_shard()
        assert self._handle is not None
        self._handle.write(line)
        self._current_records += 1
        self._current_bytes += len(encoded)

    def close(self, extra: Mapping[str, object] | None = None) -> JsonlShardManifest:
        """Finish the open shard and write the manifest."""
        if self._closed:
            return self.manifest
        self._finish_current_shard()
        if extra:
            self.manifest.extra.update(dict(extra))
        self.manifest.save()
        self._closed = True
        return self.manifest

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ShardedJsonlWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
