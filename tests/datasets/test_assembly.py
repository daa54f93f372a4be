"""Integration tests of the end-to-end dataset builder."""

from __future__ import annotations

import pytest

from repro.datasets.assembly import DatasetBuildConfig, DatasetBuilder, load_dataset
from repro.datasets.quality import FilterPipeline, LengthFilter
from repro.parsers.registry import default_registry


@pytest.fixture(scope="module")
def registry():
    return default_registry()


class TestDatasetBuilder:
    def test_build_writes_shards_and_manifest(self, registry, small_corpus, tmp_path):
        builder = DatasetBuilder(
            registry.get("pymupdf"),
            DatasetBuildConfig(output_dir=str(tmp_path), min_tokens=10),
        )
        report = builder.build(small_corpus)
        assert report.n_documents == len(small_corpus)
        assert report.manifest is not None
        assert report.manifest.n_records == report.n_final
        loaded = load_dataset(tmp_path)
        assert loaded == report.final_records

    def test_records_have_reference_quality(self, registry, small_corpus):
        builder = DatasetBuilder(registry.get("pymupdf"), DatasetBuildConfig(min_tokens=10))
        report = builder.build(small_corpus)
        assert all(r.quality_source == "reference" for r in report.records)
        assert all(r.quality is not None for r in report.records)

    def test_no_ground_truth_means_unknown_quality(self, registry, small_corpus):
        builder = DatasetBuilder(
            registry.get("pymupdf"),
            DatasetBuildConfig(min_tokens=10, evaluate_against_ground_truth=False),
        )
        report = builder.build(small_corpus)
        assert all(r.quality is None for r in report.records)

    def test_in_memory_build_skips_writing(self, registry, small_corpus):
        builder = DatasetBuilder(registry.get("pymupdf"), DatasetBuildConfig(min_tokens=10))
        report = builder.build(small_corpus)
        assert report.manifest is None

    def test_retention_and_stage_counts_are_consistent(self, registry, small_corpus):
        builder = DatasetBuilder(registry.get("pymupdf"), DatasetBuildConfig(min_tokens=10))
        report = builder.build(small_corpus)
        assert report.filter_report.n_input == report.n_documents
        assert report.n_final <= report.filter_report.n_accepted <= report.n_documents
        assert 0.0 <= report.retention_rate <= 1.0
        summary = report.summary()
        assert summary["n_after_dedup"] == report.n_final

    def test_low_quality_parser_retains_less(self, registry, small_corpus):
        """pypdf's noisier output should not retain more accepted tokens than PyMuPDF."""
        config = DatasetBuildConfig(min_tokens=10, quality_threshold=0.35)
        good = DatasetBuilder(registry.get("pymupdf"), config).build(small_corpus)
        bad = DatasetBuilder(registry.get("pypdf"), config).build(small_corpus)
        assert bad.token_account.n_accepted_tokens <= good.token_account.n_accepted_tokens

    def test_custom_filter_pipeline_is_respected(self, registry, small_corpus):
        pipeline = FilterPipeline([LengthFilter(min_tokens=10_000_000, max_tokens=None)])
        builder = DatasetBuilder(
            registry.get("pymupdf"),
            DatasetBuildConfig(min_tokens=10),
            filter_pipeline=pipeline,
        )
        report = builder.build(small_corpus)
        assert report.n_final == 0
        assert report.filter_report.rejections_by_filter["length"] == report.n_documents

    def test_dedup_disabled_keeps_filter_survivors(self, registry, small_corpus):
        builder = DatasetBuilder(
            registry.get("pymupdf"), DatasetBuildConfig(min_tokens=10, dedup=False)
        )
        report = builder.build(small_corpus)
        assert report.n_final == report.filter_report.n_accepted
        assert report.dedup_report.dropped == []

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DatasetBuildConfig(quality_threshold=2.0)
        with pytest.raises(ValueError):
            DatasetBuildConfig(min_tokens=-1)
        with pytest.raises(ValueError):
            DatasetBuildConfig(dedup_similarity=0.0)


class TestAdaParseDataset:
    def test_engine_dataset_goodput_beats_expensive_parser_per_compute(self, registry, small_corpus):
        """AdaParse-style routing produces comparable accepted tokens at far less GPU time
        than running the ViT parser on everything."""
        from repro.core.engine import build_default_engine

        engine = build_default_engine(train_corpus=small_corpus, variant="ft", registry=registry)
        config = DatasetBuildConfig(min_tokens=10)
        engine_report = DatasetBuilder(engine, config).build(small_corpus)
        nougat_report = DatasetBuilder(registry.get("nougat"), config).build(small_corpus)
        assert engine_report.token_account.gpu_seconds < nougat_report.token_account.gpu_seconds
        assert engine_report.token_account.n_accepted_tokens > 0
