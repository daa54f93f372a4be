"""End-to-end test of the table experiments at a very small scale.

This is the most expensive test in the suite: it builds the full experiment
context (corpus, preference study, both trained engines) and regenerates
Tables 1–3, checking the orderings the paper reports rather than absolute
values.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.evaluation.harness import HarnessConfig
from repro.evaluation.tables import (
    ExperimentScale,
    build_experiment_context,
    table1_born_digital,
    table2_scanned,
    table3_degraded_text,
)

SCALE = ExperimentScale(
    n_documents=48, study_pages=16, pretrain_sentences=120, finetune_epochs=2, seed=31
)
HARNESS = HarnessConfig(car_max_chars=800, seed=5)


@pytest.fixture(scope="module")
def context():
    return build_experiment_context(SCALE)


def column(table, name):
    return {row["Parser"]: row[name] for row in table.rows}


class TestExperimentContext:
    def test_splits_sizes(self, context):
        total = sum(len(split) for split in context.splits.values())
        assert total == SCALE.n_documents
        assert len(context.splits["test"]) > 0

    def test_engines_trained(self, context):
        assert context.engine_ft.selector is not None
        assert context.engine_llm.selector is not None
        assert len(context.quality_dataset) == len(context.splits["train"])
        assert sum(context.preference_dataset.split_sizes().values()) > 0


class TestTable1(object):
    @pytest.fixture(scope="class")
    def table(self, context):
        return table1_born_digital(context, HARNESS)

    def test_rows_and_columns(self, table):
        parsers = [row["Parser"] for row in table.rows]
        assert parsers[-1] == "adaparse_llm"
        assert len(parsers) == 7
        assert set(table.columns) == {"Parser", "Coverage", "BLEU", "ROUGE", "CAR", "WR", "AT"}

    def test_values_are_percentages(self, table):
        for row in table.rows:
            for key in ("Coverage", "BLEU", "ROUGE", "CAR", "AT"):
                assert 0.0 <= row[key] <= 100.0

    def test_adaparse_matches_or_beats_best_single_parser_bleu(self, table):
        bleu = column(table, "BLEU")
        adaparse = bleu.pop("adaparse_llm")
        assert adaparse >= max(bleu.values()) - 2.0

    def test_grobid_lowest_quality(self, table):
        bleu = column(table, "BLEU")
        assert min(bleu, key=bleu.get) == "grobid"
        coverage = column(table, "Coverage")
        assert min(coverage, key=coverage.get) == "grobid"

    def test_pypdf_lowest_car_among_extraction(self, table):
        car = column(table, "CAR")
        assert car["pypdf"] < car["pymupdf"]

    def test_budget_respected(self, context):
        report = context.harness(HARNESS).evaluate(
            context.splits["test"], [context.engine_llm], compute_win_rate=False
        )
        summary = report.routing_summary("adaparse_llm")
        assert summary.decisions
        assert summary.fraction_routed() <= context.engine_llm.config.alpha + 1e-9


#: sha256 of ``repr(table.rows)`` for Tables 1–3 at ``SCALE`` and ``HARNESS``.
TABLE_ROW_DIGESTS = {
    "table1": "baa201aa471dbc0fd64270bab33ecec8b1ba82729d341d47e29c33428b9c47c8",
    "table2": "0213a12d956274d19f61aa464d4febbc5b9fcaf17374aa3894599c1663e6d27d",
    "table3": "557ea33b262a41eb4695b639c96a26671e930b427f5346dfea587e84d4403170",
}


class TestTableRowPins:
    BUILDERS = {
        "table1": lambda context: table1_born_digital(context, HARNESS),
        "table2": lambda context: table2_scanned(context, harness_config=HARNESS),
        "table3": lambda context: table3_degraded_text(context, harness_config=HARNESS),
    }

    @pytest.mark.parametrize("name", sorted(TABLE_ROW_DIGESTS))
    def test_rows_match_the_pinned_digest(self, context, name):
        rows = self.BUILDERS[name](context).rows
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == TABLE_ROW_DIGESTS[name]


class TestTables2and3:
    def test_table2_adaparse_most_robust(self, context):
        table = table2_scanned(context, harness_config=HARNESS)
        bleu = column(table, "BLEU")
        assert set(bleu) == {"marker", "nougat", "tesseract", "adaparse_llm"}
        assert bleu["adaparse_llm"] >= max(v for k, v in bleu.items() if k != "adaparse_llm") - 2.0

    def test_table3_adaparse_at_least_matches_extraction(self, context):
        table = table3_degraded_text(context, harness_config=HARNESS)
        bleu = column(table, "BLEU")
        assert set(bleu) == {"pymupdf", "pypdf", "adaparse_llm"}
        assert bleu["adaparse_llm"] >= bleu["pymupdf"] - 1.0
        assert bleu["pypdf"] <= bleu["pymupdf"]
