"""Tests for the tabular report renderer."""

from __future__ import annotations

from repro.utils.tables import Table, format_table


def make_table() -> Table:
    table = Table(title="Demo", columns=["Parser", "BLEU", "Note"])
    table.add_row({"Parser": "pymupdf", "BLEU": 51.94, "Note": "fast"})
    table.add_row({"Parser": "nougat", "BLEU": 48.1})
    return table


class TestTable:
    def test_add_and_column(self):
        table = make_table()
        assert table.column("Parser") == ["pymupdf", "nougat"]
        assert table.column("Note") == ["fast", None]

    def test_markdown_rendering(self):
        text = make_table().to_markdown(precision=1)
        assert "| Parser" in text
        assert "51.9" in text
        assert "Demo" in text

    def test_plain_text_rendering_alignment(self):
        text = make_table().to_text()
        lines = text.splitlines()
        # title + header + separator + two rows
        assert len(lines) == 5

    def test_missing_value_renders_as_dash(self):
        text = make_table().to_text()
        assert "–" in text


class TestFormatting:
    def test_precision_applied(self):
        table = make_table()
        assert "51.94" in format_table(table, precision=2)
        assert "51.9" in format_table(table, precision=1)

    def test_boolean_rendering(self):
        table = Table(title="", columns=["flag"])
        table.add_row({"flag": True})
        assert "yes" in format_table(table)
