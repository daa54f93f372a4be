"""Recording measured results and splicing them into ``EXPERIMENTS.md``.

The benchmark harness regenerates every table and figure of the paper; the
pieces here make those measured results durable and keep the paper-vs-measured
document up to date without hand-copying numbers:

* :class:`MeasuredStore` — a directory of per-experiment markdown fragments
  (``results/measured/<ID>.md``), written by the benchmarks as they run.
* :func:`fill_experiments_file` — replaces the ``<!-- MEASURED:<ID> -->``
  placeholders (or previously filled ``BEGIN``/``END`` blocks) in
  ``EXPERIMENTS.md`` with the recorded fragments.  Re-running is idempotent:
  filled blocks are replaced in place, never duplicated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.utils.durable import replace_lines
from repro.utils.tables import Table

#: Bare placeholder, e.g. ``<!-- MEASURED:TABLE1 -->``.
_PLACEHOLDER_RE = re.compile(r"<!--\s*MEASURED:([A-Z0-9_]+)\s*-->")
#: A block previously filled by :func:`fill_experiments_file`.
_BLOCK_RE = re.compile(
    r"<!--\s*MEASURED:([A-Z0-9_]+):BEGIN\s*-->.*?<!--\s*MEASURED:\1:END\s*-->",
    flags=re.DOTALL,
)


def _normalise_id(experiment_id: str) -> str:
    normalised = experiment_id.strip().upper().replace("-", "_")
    if not re.fullmatch(r"[A-Z0-9_]+", normalised):
        raise ValueError(f"invalid experiment id {experiment_id!r}")
    return normalised


class MeasuredStore:
    """A directory of measured-result fragments, one markdown file per experiment."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    def _path(self, experiment_id: str) -> Path:
        return self.directory / f"{_normalise_id(experiment_id)}.md"

    def record(self, experiment_id: str, content: str, append: bool = False) -> Path:
        """Store a markdown fragment under an experiment id."""
        path = self._path(experiment_id)
        content = content.rstrip() + "\n"
        if append and path.exists():
            existing = path.read_text(encoding="utf-8")
            content = existing.rstrip() + "\n\n" + content
        # One record: the content without the closing newline the writer adds.
        replace_lines(path, [content[:-1].encode("utf-8")])
        return path

    def record_table(
        self, experiment_id: str, table: Table, precision: int = 1, note: str = "", append: bool = False
    ) -> Path:
        """Store a rendered table (plus an optional note)."""
        body = table.to_markdown(precision=precision)
        if note:
            body = body + "\n\n" + note.strip()
        return self.record(experiment_id, body, append=append)

    def record_mapping(
        self, experiment_id: str, mapping: dict[str, object], title: str = "", append: bool = False
    ) -> Path:
        """Store a flat mapping as a bullet list (headline statistics)."""
        lines = [f"**{title}**", ""] if title else []
        lines.extend(f"- {key}: {value}" for key, value in mapping.items())
        return self.record(experiment_id, "\n".join(lines), append=append)

    # ------------------------------------------------------------------ #
    def load(self, experiment_id: str) -> str | None:
        """Load a fragment, or ``None`` if it has not been recorded."""
        path = self._path(experiment_id)
        if not path.exists():
            return None
        return path.read_text(encoding="utf-8").rstrip()

    def available(self) -> list[str]:
        """Experiment ids with recorded fragments."""
        return sorted(p.stem for p in self.directory.glob("*.md"))

    def clear(self, experiment_id: str) -> None:
        """Remove one fragment (no error if absent)."""
        self._path(experiment_id).unlink(missing_ok=True)


@dataclass
class FillResult:
    """What :func:`fill_experiments_file` did."""

    filled: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)

    @property
    def n_filled(self) -> int:
        return len(self.filled)


def _block(experiment_id: str, content: str) -> str:
    return (
        f"<!-- MEASURED:{experiment_id}:BEGIN -->\n"
        f"{content.rstrip()}\n"
        f"<!-- MEASURED:{experiment_id}:END -->"
    )


def fill_experiments_text(text: str, store: MeasuredStore) -> tuple[str, FillResult]:
    """Fill placeholders/blocks in a markdown string from the store."""
    result = FillResult()
    seen: set[str] = set()

    def replace_block(match: re.Match[str]) -> str:
        experiment_id = match.group(1)
        seen.add(experiment_id)
        content = store.load(experiment_id)
        if content is None:
            result.missing.append(experiment_id)
            return match.group(0)
        result.filled.append(experiment_id)
        return _block(experiment_id, content)

    text = _BLOCK_RE.sub(replace_block, text)

    def replace_placeholder(match: re.Match[str]) -> str:
        experiment_id = match.group(1)
        # BEGIN/END markers inside already-filled blocks also match the bare
        # placeholder pattern; they were handled above.
        if experiment_id in seen:
            return match.group(0)
        content = store.load(experiment_id)
        if content is None:
            result.missing.append(experiment_id)
            return match.group(0)
        result.filled.append(experiment_id)
        return _block(experiment_id, content)

    text = _PLACEHOLDER_RE.sub(replace_placeholder, text)
    return text, result


def fill_experiments_file(path: str | Path, store: MeasuredStore) -> FillResult:
    """Fill ``EXPERIMENTS.md`` in place from the measured-result store."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    filled, result = fill_experiments_text(text, store)
    if filled != text:
        path.write_text(filled, encoding="utf-8")
    return result
