"""Tests of the measured-result store and EXPERIMENTS.md placeholder filling."""

from __future__ import annotations

import pytest

from repro.evaluation.measured import (
    MeasuredStore,
    fill_experiments_file,
    fill_experiments_text,
)
from repro.utils.tables import Table


@pytest.fixture()
def store(tmp_path):
    return MeasuredStore(tmp_path / "measured")


class TestMeasuredStore:
    def test_record_and_load(self, store):
        store.record("table1", "| a | b |\n|---|---|\n| 1 | 2 |")
        assert store.load("TABLE1").startswith("| a | b |")

    def test_ids_are_normalised(self, store):
        store.record("figure-5", "content")
        assert store.available() == ["FIGURE_5"]
        assert store.load("Figure_5") == "content"

    def test_invalid_id_rejected(self, store):
        with pytest.raises(ValueError, match="invalid experiment id"):
            store.record("table 1!", "x")

    def test_record_overwrites_by_default(self, store):
        store.record("x", "first")
        store.record("x", "second")
        assert store.load("x") == "second"

    def test_record_append(self, store):
        store.record("x", "first")
        store.record("x", "second", append=True)
        assert store.load("x") == "first\n\nsecond"

    def test_load_missing_returns_none(self, store):
        assert store.load("nope") is None

    def test_clear(self, store):
        store.record("x", "content")
        store.clear("x")
        assert store.load("x") is None
        store.clear("x")  # idempotent

    def test_record_table(self, store):
        table = Table(title="T", columns=["a", "b"])
        table.add_row({"a": 1.234, "b": "x"})
        store.record_table("t", table, precision=2, note="a note")
        content = store.load("t")
        assert "1.23" in content
        assert "a note" in content

    def test_a_fragment_is_its_content_with_one_closing_newline(self, store):
        content = "| a | é |\n|---|---|\n| 1 | 2 |\n\n"
        path = store.record("x", content)
        assert path.read_bytes() == (content.rstrip() + "\n").encode("utf-8")
        store.record("x", "second", append=True)
        assert path.read_bytes() == (content.rstrip() + "\n\nsecond\n").encode("utf-8")
        assert [p.name for p in store.directory.iterdir()] == ["X.md"]

    def test_record_mapping(self, store):
        store.record_mapping("stats", {"consensus": 0.82, "decisiveness": 0.91}, title="Alignment")
        content = store.load("stats")
        assert "**Alignment**" in content
        assert "- consensus: 0.82" in content


DOC = """# Experiments

## Table 1

<!-- MEASURED:TABLE1 -->

## Figure 5

<!-- MEASURED:FIGURE5 -->
"""


class TestFillExperiments:
    def test_fills_placeholders(self, store):
        store.record("TABLE1", "measured table one")
        filled, result = fill_experiments_text(DOC, store)
        assert "measured table one" in filled
        assert "<!-- MEASURED:TABLE1:BEGIN -->" in filled
        assert result.filled == ["TABLE1"]
        assert result.missing == ["FIGURE5"]
        # The unfilled placeholder stays put for a later run.
        assert "<!-- MEASURED:FIGURE5 -->" in filled

    def test_refill_is_idempotent_and_replaces_content(self, store):
        store.record("TABLE1", "version one")
        once, _ = fill_experiments_text(DOC, store)
        store.record("TABLE1", "version two")
        twice, result = fill_experiments_text(once, store)
        assert "version two" in twice
        assert "version one" not in twice
        assert twice.count("MEASURED:TABLE1:BEGIN") == 1
        assert "TABLE1" in result.filled

    def test_fill_file_in_place(self, store, tmp_path):
        path = tmp_path / "EXPERIMENTS.md"
        path.write_text(DOC, encoding="utf-8")
        store.record("TABLE1", "from the benchmark run")
        store.record("FIGURE5", "scalability series")
        result = fill_experiments_file(path, store)
        assert result.n_filled == 2
        text = path.read_text(encoding="utf-8")
        assert "from the benchmark run" in text
        assert "scalability series" in text

    def test_nothing_recorded_leaves_file_untouched(self, store, tmp_path):
        path = tmp_path / "EXPERIMENTS.md"
        path.write_text(DOC, encoding="utf-8")
        result = fill_experiments_file(path, store)
        assert result.n_filled == 0
        assert path.read_text(encoding="utf-8") == DOC

    def test_multiline_content_preserved(self, store):
        store.record("TABLE1", "line one\nline two\n\nline four")
        filled, _ = fill_experiments_text(DOC, store)
        assert "line one\nline two\n\nline four" in filled
