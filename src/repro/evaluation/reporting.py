"""Saving and rendering of experiment outputs.

The benchmark harness uses :class:`ExperimentRecord` to collect the tables and
figure series it regenerates and write them to a markdown report (the basis of
``EXPERIMENTS.md``), so that paper-vs-measured comparisons are recorded next
to the code that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.utils.durable import replace_lines
from repro.utils.tables import Table


@dataclass
class ExperimentRecord:
    """Accumulates experiment outputs and renders them as markdown."""

    title: str = "AdaParse reproduction — measured results"
    sections: list[tuple[str, str]] = field(default_factory=list)

    def add_table(self, experiment_id: str, table: Table, note: str = "") -> None:
        """Record a table under an experiment id (e.g. ``"table1"``)."""
        body = table.to_markdown()
        if note:
            body = body + "\n\n" + note
        self.sections.append((experiment_id, body))

    def to_markdown(self) -> str:
        """Render all recorded sections."""
        lines = [f"# {self.title}", ""]
        for experiment_id, body in self.sections:
            lines.append(f"## {experiment_id}")
            lines.append("")
            lines.append(body)
            lines.append("")
        return "\n".join(lines)

    def save(self, path: str | Path) -> Path:
        """Write the markdown report to disk."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # The markdown ends in a newline, which the writer adds back.
        replace_lines(path, [self.to_markdown()[:-1].encode("utf-8")])
        return path


def print_table(table: Table, precision: int = 1) -> None:
    """Print a table to stdout (used by benches so results appear in logs)."""
    print()
    print(table.to_text(precision=precision))
    print()
