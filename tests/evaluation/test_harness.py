"""Tests for the quality-evaluation harness."""

from __future__ import annotations

import numpy as np
import pytest

import repro.evaluation.harness as harness_module
from repro.cache.memory import LruTier
from repro.evaluation.harness import EvaluationHarness, HarnessConfig
from repro.metrics.bundle import evaluate_parse
from repro.parsers.base import Parser
from repro.parsers.extraction import PyMuPDFSim, PyPDFSim
from repro.parsers.vit import NougatSim


@pytest.fixture(scope="module")
def report(tiny_corpus):
    harness = EvaluationHarness(HarnessConfig(car_max_chars=800, seed=7))
    parsers = [PyMuPDFSim(), PyPDFSim(), NougatSim()]
    return harness.evaluate(tiny_corpus, parsers)


class TestEvaluationReport:
    def test_bundles_cover_every_pair(self, report, tiny_corpus):
        assert len(report.bundles) == len(tiny_corpus) * 3
        bundle = report.bundle("pymupdf", tiny_corpus[0].doc_id)
        assert 0.0 <= bundle.bleu <= 1.0

    def test_metric_matrix_shape(self, report, tiny_corpus):
        matrix = report.metric_matrix("bleu")
        assert matrix.shape == (len(tiny_corpus), 3)
        assert np.all((matrix >= 0) & (matrix <= 1))

    def test_aggregates_present_for_all_parsers(self, report):
        assert set(report.aggregates) == {"pymupdf", "pypdf", "nougat"}
        for aggregate in report.aggregates.values():
            assert 0.0 <= aggregate.coverage <= 1.0
            assert 0.0 <= aggregate.accepted_tokens <= 1.0

    def test_win_rates_computed(self, report):
        assert set(report.win_rates) == {"pymupdf", "pypdf", "nougat"}
        assert all(0.0 <= v <= 1.0 for v in report.win_rates.values())
        # pypdf's whitespace/case damage makes it the least preferred of the three.
        assert report.win_rates["pypdf"] <= min(report.win_rates["pymupdf"], report.win_rates["nougat"])

    def test_table_rendering(self, report):
        table = report.to_table("Demo table")
        assert len(table.rows) == 3
        rendered = table.to_markdown()
        assert "pymupdf" in rendered and "BLEU" in rendered

    def test_token_counts_positive(self, report):
        assert (report.token_counts() > 0).all()

    def test_ordering_pymupdf_above_pypdf(self, report):
        assert report.aggregates["pymupdf"].bleu > report.aggregates["pypdf"].bleu
        assert report.aggregates["pymupdf"].car > report.aggregates["pypdf"].car


class TestHarnessOptions:
    def test_win_rate_can_be_skipped(self, tiny_corpus):
        harness = EvaluationHarness(HarnessConfig(car_max_chars=600))
        report = harness.evaluate(tiny_corpus, [PyMuPDFSim(), PyPDFSim()], compute_win_rate=False)
        assert report.win_rates == {}
        assert report.aggregates["pymupdf"].win_rate is None

    def test_accepted_token_threshold_effect(self, tiny_corpus):
        strict = EvaluationHarness(HarnessConfig(accepted_token_threshold=0.99, car_max_chars=600))
        lenient = EvaluationHarness(HarnessConfig(accepted_token_threshold=0.01, car_max_chars=600))
        parsers = [PyMuPDFSim()]
        strict_at = strict.evaluate(tiny_corpus, parsers, compute_win_rate=False).aggregates["pymupdf"].accepted_tokens
        lenient_at = lenient.evaluate(tiny_corpus, parsers, compute_win_rate=False).aggregates["pymupdf"].accepted_tokens
        assert lenient_at >= strict_at


class FixedPagesParser(Parser):
    """Returns the same page texts for every document."""

    name = "fixed"

    def __init__(self, pages):
        self.pages = pages

    def _parse_pages(self, document, rng):
        return list(self.pages)


class TestScoringMemo:
    @pytest.fixture
    def calls(self, monkeypatch):
        """An empty memo, and the list of ``evaluate_parse`` calls it makes."""
        monkeypatch.setattr(harness_module, "_BUNDLES", LruTier(max_entries=1 << 14))
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return evaluate_parse(*args, **kwargs)

        monkeypatch.setattr(harness_module, "evaluate_parse", counting)
        return calls

    def test_a_repeated_evaluation_scores_nothing(self, calls, tiny_corpus):
        harness = EvaluationHarness(HarnessConfig(car_max_chars=800, seed=7))
        parsers = [PyMuPDFSim(), PyPDFSim()]
        first = harness.evaluate(tiny_corpus, parsers)
        assert len(calls) == 2 * len(tiny_corpus)
        second = harness.evaluate(tiny_corpus, parsers)
        assert len(calls) == 2 * len(tiny_corpus)
        assert second.bundles == first.bundles

    def score(self, document, pages, car_max_chars=800):
        harness = EvaluationHarness(HarnessConfig(car_max_chars=car_max_chars))
        report = harness.evaluate([document], [FixedPagesParser(pages)])
        return report.bundle("fixed", document.doc_id)

    def test_page_boundaries_are_part_of_the_key(self, calls, tiny_corpus):
        document = tiny_corpus[0]
        gt = document.ground_truth_pages()
        direct = {
            pages: evaluate_parse(gt, list(pages), car_max_chars=800)
            for pages in [("ab", "c"), ("a", "bc")]
        }
        assert direct[("ab", "c")] != direct[("a", "bc")]
        for pages, expected in direct.items():
            assert self.score(document, pages) == expected
        assert len(calls) == 2

    def test_a_lone_surrogate_scores_as_a_direct_call(self, calls, tiny_corpus):
        document = tiny_corpus[0]
        pages = ["\ud800", "x\ud800y"]
        expected = evaluate_parse(document.ground_truth_pages(), pages, car_max_chars=800)
        assert self.score(document, pages) == expected
        assert self.score(document, pages) == expected
        assert len(calls) == 1

    def test_car_caps_share_no_entry(self, calls, tiny_corpus):
        document = tiny_corpus[0]
        gt = document.ground_truth_pages()
        pages = [gt[0][:20]]
        narrow = self.score(document, pages, car_max_chars=40)
        wide = self.score(document, pages, car_max_chars=4000)
        assert len(calls) == 2
        assert narrow.car != wide.car
        assert narrow == evaluate_parse(gt, pages, car_max_chars=40)
        assert wide == evaluate_parse(gt, pages, car_max_chars=4000)
