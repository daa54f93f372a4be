"""Regeneration of the paper's Figures 3–5 as data series.

Figures are produced as tabular series (the same rows one would plot): the
benchmark harness prints them and EXPERIMENTS.md records the headline numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.config import AdaParseConfig, FT_VARIANT_CONFIG, LLM_VARIANT_CONFIG
from repro.documents.corpus import Corpus
from repro.evaluation.harness import EvaluationHarness, HarnessConfig
from repro.hpc.campaign import (
    CampaignConfig,
    CampaignResult,
    ParsingCampaign,
    adaparse_node_sweep,
    node_sweep,
)
from repro.hpc.profiler import UtilizationProfile
from repro.hpc.workload import WorkloadModel
from repro.parsers.base import Parser
from repro.parsers.registry import ParserRegistry
from repro.utils.tables import Table


# --------------------------------------------------------------------------- #
# Figure 3: parser performance vs document difficulty + throughput legend
# --------------------------------------------------------------------------- #


@dataclass
class Figure3Series:
    """BLEU-by-difficulty-rank series plus single-node throughput legend."""

    parser_names: list[str]
    difficulty_rank: np.ndarray
    bleu_by_parser: dict[str, np.ndarray]
    throughput_legend: dict[str, float]

    def to_table(self, n_bins: int = 10) -> Table:
        """Summarise the series as mean BLEU per difficulty decile."""
        table = Table(
            title="Figure 3: BLEU by estimated parsing difficulty (decile means, %)",
            columns=["Difficulty decile"] + self.parser_names,
        )
        n = len(self.difficulty_rank)
        if n == 0:
            return table
        bins = np.array_split(np.arange(n), n_bins)
        for b, indices in enumerate(bins):
            row: dict[str, object] = {"Difficulty decile": f"{b + 1}"}
            for parser in self.parser_names:
                row[parser] = float(np.mean(self.bleu_by_parser[parser][indices])) * 100
            table.add_row(row)
        return table

    def legend_table(self) -> Table:
        """Single-node throughput legend (documents/second)."""
        table = Table(
            title="Figure 3 legend: single-node throughput (documents/s)",
            columns=["Parser", "docs/s"],
        )
        for parser, value in self.throughput_legend.items():
            table.add_row({"Parser": parser, "docs/s": value})
        return table


def figure3_parser_performance(
    corpus: Corpus,
    registry: ParserRegistry,
    harness_config: HarnessConfig | None = None,
    campaign_config: CampaignConfig | None = None,
    throughput_documents: int = 400,
) -> Figure3Series:
    """Per-document BLEU of every parser, sorted by estimated difficulty.

    Difficulty is estimated, as in the paper, by the average BLEU across
    parsers: the lower the average, the harder the document, the higher its
    rank.  The legend reports each parser's simulated single-node throughput.
    """
    harness = EvaluationHarness(harness_config or HarnessConfig())
    parsers = list(registry)
    report = harness.evaluate(corpus, parsers, compute_win_rate=False)
    bleu = report.metric_matrix("bleu")
    difficulty = bleu.mean(axis=1)
    # Follow the paper's convention: documents are sorted by estimated
    # difficulty, and the *higher* the rank the harder the document (rank 0 is
    # therefore the easiest document, with the highest across-parser BLEU).
    sorted_order = np.argsort(difficulty)[::-1]
    series = Figure3Series(
        parser_names=[p.name for p in parsers],
        difficulty_rank=np.arange(len(sorted_order)),
        bleu_by_parser={
            p.name: bleu[sorted_order, j] for j, p in enumerate(parsers)
        },
        throughput_legend={},
    )
    campaign = ParsingCampaign(campaign_config or CampaignConfig(n_nodes=1))
    for parser in parsers:
        result = campaign.run_parser(parser, n_documents=throughput_documents)
        series.throughput_legend[parser.name] = round(result.throughput_docs_per_s, 3)
    return series


# --------------------------------------------------------------------------- #
# Figure 4: GPU utilisation of the workload
# --------------------------------------------------------------------------- #


@dataclass
class Figure4Profile:
    """Per-GPU utilisation of a single-node GPU-parser campaign."""

    parser_name: str
    campaign: CampaignResult
    profile: UtilizationProfile

    def to_table(self) -> Table:
        table = Table(
            title=f"Figure 4: per-GPU utilisation ({self.parser_name}, single node)",
            columns=["GPU", "mean utilisation"],
        )
        for gpu, value in self.profile.per_gpu_means().items():
            table.add_row({"GPU": gpu, "mean utilisation": value})
        return table


def figure4_gpu_utilization(
    registry: ParserRegistry,
    parser_name: str = "nougat",
    n_documents: int = 120,
    campaign_config: CampaignConfig | None = None,
    warm_start: bool = True,
) -> Figure4Profile:
    """Profile per-GPU utilisation of a single-node campaign (Nsys stand-in)."""
    config = campaign_config or CampaignConfig(n_nodes=1, warm_start=warm_start)
    campaign = ParsingCampaign(config)
    result = campaign.run_parser(registry.get(parser_name), n_documents=n_documents)
    assert result.gpu_profile is not None
    return Figure4Profile(parser_name=parser_name, campaign=result, profile=result.gpu_profile)


# --------------------------------------------------------------------------- #
# Figure 5: throughput scalability
# --------------------------------------------------------------------------- #


@dataclass
class Figure5Series:
    """Throughput (documents/s) per parser per node count."""

    node_counts: list[int]
    results: dict[str, list[CampaignResult]] = field(default_factory=dict)

    def to_table(self) -> Table:
        table = Table(
            title="Figure 5: throughput scalability (documents/s)",
            columns=["Parser"] + [f"{n} nodes" for n in self.node_counts],
        )
        for parser, runs in self.results.items():
            row: dict[str, object] = {"Parser": parser}
            for n, result in zip(self.node_counts, runs):
                row[f"{n} nodes"] = round(result.throughput_docs_per_s, 2)
            table.add_row(row)
        return table

    def throughput(self, parser: str, n_nodes: int) -> float:
        """Throughput of one parser at one node count."""
        index = self.node_counts.index(n_nodes)
        return self.results[parser][index].throughput_docs_per_s


def figure5_scalability(
    registry: ParserRegistry,
    node_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
    docs_per_node: int = 120,
    include_adaparse: bool = True,
    campaign_config: CampaignConfig | None = None,
    workload: WorkloadModel | None = None,
    parser_names: Sequence[str] | None = None,
) -> Figure5Series:
    """Throughput of every parser (and the AdaParse variants) across node counts."""
    node_counts = [int(n) for n in node_counts]
    series = Figure5Series(node_counts=node_counts)
    names = list(parser_names) if parser_names is not None else registry.names
    for name in names:
        series.results[name] = node_sweep(
            registry.get(name), node_counts, docs_per_node=docs_per_node,
            base_config=campaign_config, workload=workload,
        )
    if include_adaparse:
        series.results["adaparse_ft"] = adaparse_node_sweep(
            registry, FT_VARIANT_CONFIG, node_counts, docs_per_node=docs_per_node,
            engine_name="adaparse_ft", base_config=campaign_config, workload=workload,
        )
        series.results["adaparse_llm"] = adaparse_node_sweep(
            registry, LLM_VARIANT_CONFIG, node_counts, docs_per_node=docs_per_node,
            engine_name="adaparse_llm", base_config=campaign_config, workload=workload,
        )
    return series


def throughput_ratio_summary(series: Figure5Series, reference: str = "nougat") -> dict[str, float]:
    """Every parser's throughput relative to a reference parser, at the
    sweep's first node count (``series.node_counts[0]``)."""
    if reference not in series.results:
        raise KeyError(f"{reference!r} not in the sweep")
    base = series.results[reference][0].throughput_docs_per_s
    if base <= 0:
        return {}
    return {
        parser: round(runs[0].throughput_docs_per_s / base, 2)
        for parser, runs in series.results.items()
    }
