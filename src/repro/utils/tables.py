"""Lightweight tabular report rendering.

The evaluation harness produces the paper's tables as lists of rows; this
module renders them as aligned plain-text/markdown tables for the CLI, the
benchmark harness output, and ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence


def _format_cell(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    if value is None:
        return "–"
    return str(value)


@dataclass
class Table:
    """A simple column-ordered table with a title.

    Attributes
    ----------
    title:
        Human-readable caption (e.g. ``"Table 1: Accuracy on born-digital PDFs"``).
    columns:
        Ordered column names.
    rows:
        Each row is a mapping from column name to value; missing values render
        as an en-dash like the paper's tables.
    """

    title: str
    columns: Sequence[str]
    rows: list[dict[str, object]] = field(default_factory=list)

    def add_row(self, row: Mapping[str, object]) -> None:
        """Append a row (missing columns are allowed)."""
        self.rows.append(dict(row))

    def column(self, name: str) -> list[object]:
        """Return the values of one column across all rows."""
        return [row.get(name) for row in self.rows]

    def to_markdown(self, precision: int = 1) -> str:
        """Render the table as GitHub-flavoured markdown."""
        return format_table(self, precision=precision, markdown=True)

    def to_text(self, precision: int = 1) -> str:
        """Render the table as aligned plain text."""
        return format_table(self, precision=precision, markdown=False)


def format_table(table: Table, precision: int = 1, markdown: bool = False) -> str:
    """Render a :class:`Table` as text.

    Parameters
    ----------
    table:
        The table to render.
    precision:
        Decimal places used for floating point cells.
    markdown:
        If true, emit a GitHub-flavoured markdown table, else aligned text.
    """
    cols = list(table.columns)
    header = [str(c) for c in cols]
    body = [[_format_cell(row.get(c), precision) for c in cols] for row in table.rows]
    widths = [
        max(len(header[j]), *(len(r[j]) for r in body)) if body else len(header[j])
        for j in range(len(cols))
    ]
    lines: list[str] = []
    if table.title:
        lines.append(table.title)
    if markdown:
        lines.append("| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |")
        lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        for r in body:
            lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(r, widths)) + " |")
    else:
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
