"""Tests for the simulated preference study."""

from __future__ import annotations

import numpy as np
import pytest

from repro.preferences.annotators import (
    AnnotatorPanel,
    cleanliness_score,
    completeness_score,
    formatting_fatigue,
    math_fidelity_score,
)
from repro.preferences.dataset import build_preference_dataset, split_preference_pairs
from repro.preferences.study import PreferenceStudy, StudyConfig
from repro.ml.dpo import PreferencePair

CLEAN = "The robust catalyst framework demonstrates a significant polymerization yield."
JUNK = "T h e r o b u s t ctaalyst frmaework dmonstrtes sgnificnt plyomerisation yeild ﬁﬁﬁ"


class TestUtilityComponents:
    def test_cleanliness_orders_clean_above_junk(self):
        assert cleanliness_score(CLEAN) > cleanliness_score(JUNK)

    def test_cleanliness_empty(self):
        assert cleanliness_score("") == 0.0

    def test_completeness(self):
        assert completeness_score(CLEAN, CLEAN) == pytest.approx(1.0)
        assert completeness_score("", CLEAN) == 0.0
        assert completeness_score(CLEAN, "") == 1.0

    def test_formatting_fatigue_bounded(self):
        assert 0.0 <= formatting_fatigue("# " * 100) <= 0.15

    def test_math_fidelity_neutral_without_equations(self, sample_document):
        page = sample_document.pages[0]
        if not page.elements_of_kind("equation"):
            assert math_fidelity_score("anything", page) == pytest.approx(0.5)


class TestAnnotators:
    def test_panel_size_and_diversity(self):
        panel = AnnotatorPanel(n_annotators=10, seed=3)
        assert len(panel) == 10
        weights = {a.profile.cleanliness_weight for a in panel.annotators}
        assert len(weights) > 1

    def test_clear_cut_preference(self, sample_document):
        panel = AnnotatorPanel(n_annotators=5, seed=3)
        page = sample_document.pages[1]
        gt = page.ground_truth_text()
        junk = " ".join(list(gt))[:400]
        votes = [a.compare(gt, junk, page, salt="t") for a in panel.annotators]
        assert all(v >= 0 for v in votes)
        assert sum(v > 0 for v in votes) >= 4

    def test_comparison_deterministic(self, sample_document):
        panel = AnnotatorPanel(n_annotators=3, seed=3)
        page = sample_document.pages[0]
        a = panel.annotators[0]
        assert a.compare(CLEAN, JUNK, page, salt="s") == a.compare(CLEAN, JUNK, page, salt="s")

    def test_invalid_panel_size(self):
        with pytest.raises(ValueError):
            AnnotatorPanel(n_annotators=0)


class TestStudy:
    @pytest.fixture(scope="class")
    def study_result(self, registry, tiny_corpus):
        config = StudyConfig(n_pages=20, comparisons_per_page=3, repeat_fraction=0.5, seed=9)
        return PreferenceStudy(registry, config).run(tiny_corpus)

    def test_judgement_counts(self, study_result):
        assert len(study_result.judgements) >= 20 * 3

    def test_win_rates_in_unit_interval(self, study_result):
        rates = study_result.win_rates()
        assert rates
        assert all(0.0 <= v <= 1.0 for v in rates.values())

    def test_decisiveness_high(self, study_result):
        # The paper reports users choosing a side 91.3 % of the time.
        assert study_result.decisiveness() > 0.6

    def test_consensus_high(self, study_result):
        # The paper reports 82.2 % agreement on repeated triplets.
        assert study_result.consensus() > 0.6

    def test_extraction_junk_parser_loses(self, study_result):
        rates = study_result.win_rates()
        assert rates["pypdf"] < max(rates.values())

    def test_preference_pairs_consistent(self, study_result):
        pairs = study_result.preference_pairs()
        assert pairs
        for pair in pairs[:20]:
            assert pair.preferred_text != pair.rejected_text or pair.preferred_parser != pair.rejected_parser

    def test_summary_keys(self, study_result):
        summary = study_result.summary()
        assert {"n_judgements", "win_rates", "decisiveness", "consensus", "bleu_win_rate_correlation"} <= set(summary)


class TestPreferenceDataset:
    def test_split_proportions_and_leakage(self):
        pairs = [
            PreferencePair(doc_id=f"doc{i % 17}", preferred_text="a", rejected_text="b")
            for i in range(100)
        ]
        splits = split_preference_pairs(pairs, seed=4)
        assert sum(len(v) for v in splits.values()) == 100
        # No document page appears in more than one split.
        for name_a in splits:
            for name_b in splits:
                if name_a == name_b:
                    continue
                ids_a = {p.doc_id for p in splits[name_a]}
                ids_b = {p.doc_id for p in splits[name_b]}
                assert not ids_a & ids_b
        # Test split is the largest, as in the paper.
        assert len(splits["test"]) >= len(splits["train"]) >= len(splits["validation"])

    def test_build_preference_dataset(self, registry, tiny_corpus):
        dataset = build_preference_dataset(
            tiny_corpus, registry, StudyConfig(n_pages=10, comparisons_per_page=2, seed=5)
        )
        assert sum(dataset.split_sizes().values()) > 0
        assert dataset.study_result is not None
        sizes = dataset.split_sizes()
        assert set(sizes) == {"train", "validation", "test"}
