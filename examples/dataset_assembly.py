"""Assemble an LLM-training dataset from a parsed corpus and compare goodput.

The end goal of the paper is a high-quality, large-scale text dataset for LLM
training.  This example runs the full output stage of a campaign:

1. build a corpus and train the AdaParse (FT) engine,
2. parse the held-out split with three strategies — PyMuPDF everywhere,
   Nougat everywhere, and AdaParse routing,
3. push each strategy's output through quality filtering and near-duplicate
   detection, write JSONL shards with a manifest, and
4. compare token yield and goodput (accepted tokens per node-hour).

Run with::

    python examples/dataset_assembly.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core.training import AdaParseTrainer, TrainerSettings
from repro.datasets.assembly import DatasetBuildConfig, DatasetBuilder
from repro.datasets.tokens import goodput_table
from repro.documents.corpus import CorpusConfig, benchmark_splits, build_corpus
from repro.obs.profiling import PhaseTimer
from repro.parsers.registry import default_registry


def main() -> None:
    timer = PhaseTimer()

    with timer.phase("build corpus"):
        corpus = build_corpus(CorpusConfig(n_documents=150, seed=17))
        splits = benchmark_splits(corpus)

    registry = default_registry()
    with timer.phase("train AdaParse (FT)"):
        trainer = AdaParseTrainer(registry, TrainerSettings(pretrain=False))
        engine = trainer.train_ft(splits["train"])

    output_root = Path(tempfile.mkdtemp(prefix="adaparse-dataset-"))
    strategies = {
        "pymupdf": registry.get("pymupdf"),
        "nougat": registry.get("nougat"),
        "adaparse_ft": engine,
    }

    reports = {}
    with timer.phase("assemble datasets"):
        for name, parser in strategies.items():
            builder = DatasetBuilder(
                parser,
                DatasetBuildConfig(
                    output_dir=str(output_root / name),
                    quality_threshold=0.35,
                    min_tokens=20,
                ),
            )
            reports[name] = builder.build(splits["test"])

    print()
    for name, report in reports.items():
        summary = report.summary()
        print(
            f"{name:>12}: {summary['n_documents']} documents → "
            f"{summary['n_after_filters']} after filters → "
            f"{summary['n_after_dedup']} in the dataset "
            f"(rejections: {summary['rejections_by_filter']})"
        )
    print()
    print(goodput_table({name: r.token_account for name, r in reports.items()}).to_text(precision=1))
    print()
    print(f"JSONL shards and manifests written under {output_root}")
    print()
    for name, row in timer.snapshot().items():
        print(f"{name}: {row['total_s']:.3f}s")


if __name__ == "__main__":
    main()
