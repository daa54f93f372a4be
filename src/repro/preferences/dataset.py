"""Preference dataset assembly and splits.

The paper partitions its 2 794 collected preferences into training (712),
validation (234) and test (1 848) subsets, deliberately keeping most
judgements for evaluation.  :func:`build_preference_dataset` runs the
simulated study and produces the same three-way split (proportionally scaled
to however many judgements the study yields).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.documents.corpus import Corpus
from repro.ml.dpo import PreferencePair
from repro.parsers.registry import ParserRegistry
from repro.preferences.study import PreferenceStudy, StudyConfig, StudyResult
from repro.utils.rng import rng_from

#: The paper's split sizes, used as proportions.
PAPER_SPLIT_SIZES = {"train": 712, "validation": 234, "test": 1848}


@dataclass
class PreferenceDataset:
    """Preference pairs partitioned into train/validation/test splits."""

    train: list[PreferencePair] = field(default_factory=list)
    validation: list[PreferencePair] = field(default_factory=list)
    test: list[PreferencePair] = field(default_factory=list)
    study_result: StudyResult | None = None

    def split_sizes(self) -> dict[str, int]:
        """Number of pairs per split."""
        return {
            "train": len(self.train),
            "validation": len(self.validation),
            "test": len(self.test),
        }


def split_preference_pairs(
    pairs: list[PreferencePair], seed: int = 515
) -> dict[str, list[PreferencePair]]:
    """Partition pairs into train/validation/test with the paper's proportions.

    Pairs from the same document page always land in the same split so that
    DPO training pairs never leak into the evaluation subset.
    """
    total_paper = sum(PAPER_SPLIT_SIZES.values())
    fractions = {k: v / total_paper for k, v in PAPER_SPLIT_SIZES.items()}
    doc_ids = sorted({p.doc_id for p in pairs})
    rng = rng_from(seed, "preference-split", len(pairs))
    order = rng.permutation(len(doc_ids))
    shuffled = [doc_ids[int(i)] for i in order]
    n_docs = len(shuffled)
    n_train = int(round(fractions["train"] * n_docs))
    n_val = int(round(fractions["validation"] * n_docs))
    assignment: dict[str, str] = {}
    for i, doc_id in enumerate(shuffled):
        if i < n_train:
            assignment[doc_id] = "train"
        elif i < n_train + n_val:
            assignment[doc_id] = "validation"
        else:
            assignment[doc_id] = "test"
    splits: dict[str, list[PreferencePair]] = {"train": [], "validation": [], "test": []}
    for pair in pairs:
        splits[assignment[pair.doc_id]].append(pair)
    return splits


def build_preference_dataset(
    corpus: Corpus,
    registry: ParserRegistry,
    config: StudyConfig | None = None,
) -> PreferenceDataset:
    """Run the simulated study over a corpus and split the resulting pairs."""
    study = PreferenceStudy(registry, config=config)
    result = study.run(corpus)
    pairs = result.preference_pairs()
    splits = split_preference_pairs(pairs, seed=(config or StudyConfig()).seed)
    return PreferenceDataset(
        train=splits["train"],
        validation=splits["validation"],
        test=splits["test"],
        study_result=result,
    )
