"""Integration tests of the executor, campaigns, and the profiler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FT_VARIANT_CONFIG, LLM_VARIANT_CONFIG, AdaParseConfig
from repro.hpc.campaign import (
    CampaignConfig,
    CampaignResult,
    ParsingCampaign,
    adaparse_node_sweep,
    node_sweep,
)
from repro.hpc.profiler import profile_gpus
from repro.hpc.resources import GpuDevice
from repro.hpc.events import DiscreteEventSimulator
from repro.hpc.workload import WorkloadModel
from repro.parsers.registry import default_registry


@pytest.fixture(scope="module")
def registry():
    return default_registry()


class TestCampaignBasics:
    def test_all_documents_processed(self, registry):
        campaign = ParsingCampaign(CampaignConfig(n_nodes=2, docs_per_archive=16))
        result = campaign.run_parser(registry.get("pymupdf"), n_documents=100)
        assert result.n_documents == 100
        assert sum(s.documents_completed for s in result.node_stats) == 100
        assert result.total_time_s > 0
        assert result.throughput_docs_per_s > 0

    def test_gpu_parser_uses_gpus(self, registry):
        campaign = ParsingCampaign(CampaignConfig(n_nodes=1))
        result = campaign.run_parser(registry.get("nougat"), n_documents=40)
        assert result.gpu_utilization > 0.3
        assert result.cpu_utilization < 0.3

    def test_cpu_parser_does_not_touch_gpus(self, registry):
        campaign = ParsingCampaign(CampaignConfig(n_nodes=1))
        result = campaign.run_parser(registry.get("pymupdf"), n_documents=100)
        assert result.gpu_utilization == 0.0

    def test_deterministic(self, registry):
        campaign = ParsingCampaign(CampaignConfig(n_nodes=2))
        a = campaign.run_parser(registry.get("tesseract"), n_documents=60)
        b = campaign.run_parser(registry.get("tesseract"), n_documents=60)
        assert a.total_time_s == pytest.approx(b.total_time_s)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            CampaignConfig(n_nodes=0)
        with pytest.raises(ValueError):
            CampaignConfig(docs_per_archive=0)


class TestCalibration:
    def test_single_node_throughput_ordering(self, registry):
        campaign = ParsingCampaign(CampaignConfig(n_nodes=1))
        throughput = {
            name: campaign.run_parser(registry.get(name), n_documents=150).throughput_docs_per_s
            for name in ("pymupdf", "pypdf", "tesseract", "nougat", "marker")
        }
        assert throughput["pymupdf"] > throughput["pypdf"] > throughput["tesseract"]
        assert throughput["tesseract"] > throughput["nougat"] > throughput["marker"]
        # Paper: extraction is roughly two orders of magnitude faster than ViT parsing.
        assert throughput["pymupdf"] / throughput["nougat"] > 50

    def test_warm_start_reduces_model_loads_and_time(self, registry):
        warm = ParsingCampaign(CampaignConfig(n_nodes=1, warm_start=True))
        cold = ParsingCampaign(CampaignConfig(n_nodes=1, warm_start=False))
        warm_result = warm.run_parser(registry.get("nougat"), n_documents=30)
        cold_result = cold.run_parser(registry.get("nougat"), n_documents=30)
        assert warm_result.model_loads < cold_result.model_loads
        assert warm_result.total_time_s < cold_result.total_time_s

    def test_adaparse_between_extraction_and_vit(self, registry):
        campaign = ParsingCampaign(CampaignConfig(n_nodes=1))
        adaparse = campaign.run_adaparse(registry, FT_VARIANT_CONFIG, 150, engine_name="adaparse_ft")
        nougat = campaign.run_parser(registry.get("nougat"), n_documents=150)
        pymupdf = campaign.run_parser(registry.get("pymupdf"), n_documents=150)
        assert nougat.throughput_docs_per_s < adaparse.throughput_docs_per_s < pymupdf.throughput_docs_per_s
        # Paper: AdaParse ≈ an order of magnitude faster than the ViT parser alone.
        assert adaparse.throughput_docs_per_s / nougat.throughput_docs_per_s > 5

    def test_adaparse_ft_faster_than_llm(self, registry):
        campaign = ParsingCampaign(CampaignConfig(n_nodes=1))
        ft = campaign.run_adaparse(registry, FT_VARIANT_CONFIG, 200, engine_name="adaparse_ft")
        llm = campaign.run_adaparse(registry, LLM_VARIANT_CONFIG, 200, engine_name="adaparse_llm")
        assert ft.throughput_docs_per_s >= llm.throughput_docs_per_s


class TestAlphaShapesTheMix:
    """What α does to a single-node AdaParse campaign, from pure extraction
    (α = 0) to the ViT parser on every document (α = 1)."""

    @pytest.fixture(scope="class")
    def single_node(self, registry):
        campaign = ParsingCampaign(CampaignConfig(n_nodes=1))
        return {
            "pymupdf": campaign.run_parser(registry.get("pymupdf"), n_documents=150),
            "nougat": campaign.run_parser(registry.get("nougat"), n_documents=150),
            **{
                alpha: campaign.run_adaparse(registry, AdaParseConfig(alpha=alpha), 150)
                for alpha in (0.0, 0.02, 0.1, 0.5, 1.0)
            },
        }

    def test_throughput_falls_as_alpha_grows(self, single_node):
        rates = [single_node[alpha].throughput_docs_per_s for alpha in (0.0, 0.02, 0.1, 0.5, 1.0)]
        assert rates == sorted(rates, reverse=True)
        assert len(set(rates)) == len(rates)

    def test_alpha_zero_runs_as_extraction_alone(self, single_node):
        assert single_node[0.0].gpu_utilization == 0.0
        assert single_node[0.0].throughput_docs_per_s == pytest.approx(
            single_node["pymupdf"].throughput_docs_per_s, rel=0.1
        )

    def test_alpha_one_runs_at_the_vit_parser_rate(self, single_node):
        assert single_node[1.0].throughput_docs_per_s == pytest.approx(
            single_node["nougat"].throughput_docs_per_s, rel=0.15
        )

    def test_every_alpha_completes_every_document(self, single_node):
        for alpha in (0.0, 0.02, 0.1, 0.5, 1.0):
            assert single_node[alpha].completion_rate == 1.0


class TestAdaParseNodeSweep:
    def test_one_result_per_node_count(self, registry):
        results = adaparse_node_sweep(registry, FT_VARIANT_CONFIG, [1, 3], docs_per_node=20)
        assert [r.n_nodes for r in results] == [1, 3]
        assert [r.n_documents for r in results] == [20, 60]
        assert all(r.parser_name == "adaparse_ft" for r in results)

    def test_each_point_is_the_campaign_at_that_node_count(self, registry):
        (swept,) = adaparse_node_sweep(registry, LLM_VARIANT_CONFIG, [2], docs_per_node=25, engine_name="adaparse_llm")
        direct = ParsingCampaign(CampaignConfig(n_nodes=2)).run_adaparse(
            registry, LLM_VARIANT_CONFIG, 50, engine_name="adaparse_llm"
        )
        assert swept.as_row() == direct.as_row()

    def test_sweep_inherits_the_base_config(self, registry):
        base = CampaignConfig(n_nodes=1, gpus_per_node=2, docs_per_archive=8)
        (result,) = adaparse_node_sweep(registry, FT_VARIANT_CONFIG, [2], docs_per_node=16, base_config=base)
        assert result.gpu_profile is not None
        assert len(result.gpu_profile.per_gpu_means()) == 2 * 2

    def test_adaparse_mix_scales_with_nodes(self, registry):
        results = adaparse_node_sweep(registry, FT_VARIANT_CONFIG, [1, 4], docs_per_node=40)
        assert results[1].throughput_docs_per_s > 2.5 * results[0].throughput_docs_per_s


class TestCampaignResult:
    def _result(self, **overrides) -> CampaignResult:
        fields = dict(
            parser_name="nougat",
            n_documents=10,
            n_nodes=2,
            total_time_s=12.3456,
            throughput_docs_per_s=0.81234,
            cpu_utilization=0.12345,
            gpu_utilization=0.98765,
            fs_read_mb=1.0,
            fs_write_mb=2.0,
            model_loads=8,
            documents_completed=9,
            documents_failed=1,
        )
        fields.update(overrides)
        return CampaignResult(**fields)

    def test_as_row_rounds_for_tables(self):
        assert self._result().as_row() == {
            "parser": "nougat",
            "nodes": 2,
            "documents": 10,
            "time_s": 12.35,
            "docs_per_s": 0.812,
            "cpu_util": 0.123,
            "gpu_util": 0.988,
            "completed": 9,
            "failed": 1,
        }

    def test_completion_rate(self):
        assert self._result().completion_rate == pytest.approx(0.9)
        assert self._result(n_documents=0, documents_completed=0).completion_rate == 0.0

    def test_with_nodes_changes_only_the_node_count(self):
        base = CampaignConfig(n_nodes=1, cpu_cores_per_node=8, gpus_per_node=2, prefetch_depth=3, seed=5)
        moved = ParsingCampaign(base).with_nodes(6).config
        assert moved.n_nodes == 6
        assert {**vars(moved), "n_nodes": 1} == vars(base)


class TestScalingShapes:
    def test_nougat_scales_with_nodes(self, registry):
        results = node_sweep(registry.get("nougat"), [1, 4], docs_per_node=40)
        assert results[1].throughput_docs_per_s > 2.5 * results[0].throughput_docs_per_s

    def test_marker_scaling_saturates(self, registry):
        results = node_sweep(registry.get("marker"), [1, 16], docs_per_node=20)
        speedup = results[1].throughput_docs_per_s / results[0].throughput_docs_per_s
        assert speedup < 8  # far below the 16× ideal: the coordination stage binds

    def test_extraction_hits_filesystem_plateau(self, registry):
        results = node_sweep(registry.get("pymupdf"), [8, 64], docs_per_node=150)
        speedup = results[1].throughput_docs_per_s / results[0].throughput_docs_per_s
        assert speedup < 6  # far below the 8× ideal: shared-FS delivery binds


class TestProfiler:
    def test_profile_from_campaign(self, registry):
        campaign = ParsingCampaign(CampaignConfig(n_nodes=1))
        result = campaign.run_parser(registry.get("nougat"), n_documents=30)
        assert result.gpu_profile is not None
        means = result.gpu_profile.per_gpu_means()
        assert len(means) == 4
        assert all(0.0 <= v <= 1.0 for v in means.values())
        rows = result.gpu_profile.series()
        assert rows and {"gpu", "t_start", "t_end", "utilization"} <= set(rows[0])

    def test_binned_utilization_bounds(self):
        sim = DiscreteEventSimulator()
        gpu = GpuDevice(sim, "g")
        gpu.record_busy(0.0, 10.0)
        profile = profile_gpus([gpu], horizon=10.0, n_bins=5)
        np.testing.assert_allclose(profile.timelines[0].utilization, 1.0)
        assert profile.mean_utilization() == pytest.approx(1.0)
