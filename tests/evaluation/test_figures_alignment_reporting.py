"""Tests for figure regeneration, alignment statistics, and reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.documents.corpus import CorpusConfig, build_corpus
from repro.evaluation.alignment import preference_alignment_statistics
from repro.evaluation.figures import (
    figure3_parser_performance,
    figure4_gpu_utilization,
    figure5_scalability,
    throughput_ratio_summary,
)
from repro.evaluation.harness import HarnessConfig
from repro.evaluation.reporting import ExperimentRecord, print_table
from repro.hpc.campaign import CampaignConfig
from repro.preferences.study import StudyConfig
from repro.utils.tables import Table


class TestFigure3:
    @pytest.fixture(scope="class")
    def series(self, tiny_corpus, registry):
        return figure3_parser_performance(
            tiny_corpus,
            registry,
            harness_config=HarnessConfig(car_max_chars=600),
            throughput_documents=60,
        )

    def test_series_structure(self, series, tiny_corpus, registry):
        assert set(series.bleu_by_parser) == set(registry.names)
        assert all(len(v) == len(tiny_corpus) for v in series.bleu_by_parser.values())

    def test_difficulty_ordering(self, series):
        # The paper's convention: higher rank = harder document, so the
        # across-parser mean BLEU must be non-increasing from rank 0 to the
        # final rank.
        matrix = np.stack([series.bleu_by_parser[p] for p in series.parser_names])
        mean_by_rank = matrix.mean(axis=0)
        assert mean_by_rank[0] >= mean_by_rank[-1]

    def test_throughput_legend(self, series):
        assert series.throughput_legend["pymupdf"] > series.throughput_legend["nougat"]

    def test_tables_render(self, series):
        assert len(series.to_table(n_bins=3).rows) == 3
        assert len(series.legend_table().rows) == len(series.parser_names)


class TestFigure4:
    def test_profile_structure(self, registry):
        profile = figure4_gpu_utilization(registry, parser_name="nougat", n_documents=25)
        assert profile.parser_name == "nougat"
        means = profile.profile.per_gpu_means()
        assert len(means) == 4
        assert profile.campaign.throughput_docs_per_s > 0
        assert len(profile.to_table().rows) == 4

    def test_warm_start_improves_utilisation(self, registry):
        warm = figure4_gpu_utilization(registry, n_documents=25, warm_start=True)
        cold = figure4_gpu_utilization(
            registry, n_documents=25, campaign_config=CampaignConfig(n_nodes=1, warm_start=False)
        )
        assert warm.campaign.total_time_s <= cold.campaign.total_time_s


class TestFigure5:
    @pytest.fixture(scope="class")
    def series(self, registry):
        return figure5_scalability(
            registry,
            node_counts=(1, 4),
            docs_per_node=40,
            include_adaparse=True,
            parser_names=("pymupdf", "nougat", "marker"),
        )

    def test_series_contents(self, series):
        assert set(series.results) == {"pymupdf", "nougat", "marker", "adaparse_ft", "adaparse_llm"}
        assert series.node_counts == [1, 4]

    def test_throughput_lookup_and_table(self, series):
        assert series.throughput("pymupdf", 4) > series.throughput("pymupdf", 1)
        table = series.to_table()
        assert len(table.rows) == 5

    def test_ratio_summary(self, series):
        ratios = throughput_ratio_summary(series, reference="nougat")
        assert ratios["nougat"] == pytest.approx(1.0)
        assert ratios["pymupdf"] > 10
        assert ratios["adaparse_ft"] > 2

    def test_unknown_reference(self, series):
        with pytest.raises(KeyError):
            throughput_ratio_summary(series, reference="acrobat")


class TestAlignment:
    def test_statistics_ranges(self, registry):
        corpus = build_corpus(CorpusConfig(n_documents=6, seed=21, min_pages=3, max_pages=5))
        stats = preference_alignment_statistics(
            corpus, registry, StudyConfig(n_pages=15, comparisons_per_page=3, seed=3)
        )
        payload = stats.as_dict()
        assert 0.0 <= stats.decisiveness <= 1.0
        assert 0.0 <= stats.consensus <= 1.0
        assert -1.0 <= stats.bleu_win_rate_correlation <= 1.0
        assert stats.n_judgements > 0
        assert set(payload["win_rates"]) == set(registry.names)

    def test_correlation_positive_but_imperfect(self, registry):
        # The paper's headline: BLEU correlates with preference (ρ ≈ 0.47) but
        # is far from fully predictive.
        corpus = build_corpus(CorpusConfig(n_documents=8, seed=22, min_pages=3, max_pages=5))
        stats = preference_alignment_statistics(
            corpus, registry, StudyConfig(n_pages=40, comparisons_per_page=3, seed=5)
        )
        assert 0.05 < stats.bleu_win_rate_correlation < 0.95


class TestReporting:
    def test_record_round_trip(self, tmp_path):
        record = ExperimentRecord(title="Demo")
        table = Table(title="T", columns=["a"])
        table.add_row({"a": 1.0})
        record.add_table("table1", table, note="note text")
        markdown = record.to_markdown()
        assert "# Demo" in markdown and "## table1" in markdown and "note text" in markdown
        path = record.save(tmp_path / "sub" / "report.md")
        assert path.exists()
        assert "note text" in path.read_text()

    def test_save_writes_the_markdown_whole(self, tmp_path):
        record = ExperimentRecord(title="Demo")
        table = Table(title="T", columns=["a"])
        table.add_row({"a": 1.0})
        record.add_table("table1", table, note="é")
        path = record.save(tmp_path / "report.md")
        assert path.read_bytes() == record.to_markdown().encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["report.md"]

    def test_print_table(self, capsys):
        table = Table(title="T", columns=["a"])
        table.add_row({"a": 2.0})
        print_table(table)
        assert "2.0" in capsys.readouterr().out
