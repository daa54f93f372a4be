"""Tests of the record-level quality filters and the filter pipeline."""

from __future__ import annotations

import pytest

from repro.datasets.quality import (
    FilterDecision,
    FilterPipeline,
    JunkTextFilter,
    LengthFilter,
    ParseSucceededFilter,
    QualityThresholdFilter,
)

from tests.datasets.conftest import make_record

# A clean scientific passage; includes vocabulary from the corpus lexicon so
# that the CLS I "recognisable vocabulary" rule sees genuine scientific terms.
CLEAN_TEXT = (
    "The gravitational force between two masses is directly proportional to the "
    "product of their masses and inversely proportional to the square of the distance "
    "between them. We analyse the operator spectrum and establish a convergence "
    "theorem whose proof follows from a compactness lemma on the underlying manifold. "
    "The eigenvalue estimate refines earlier measurements reported in the literature."
) * 3

SCRAMBLED_TEXT = "xqzt kpw bnm " * 120


class TestParseSucceededFilter:
    def test_accepts_successful_parse(self):
        assert ParseSucceededFilter().decide(make_record(text=CLEAN_TEXT)).accepted

    def test_rejects_failed_parse(self):
        decision = ParseSucceededFilter().decide(make_record(succeeded=False))
        assert not decision.accepted
        assert "failed" in decision.reason

    def test_rejects_empty_text(self):
        decision = ParseSucceededFilter().decide(make_record(text="   \n  "))
        assert not decision.accepted
        assert "empty" in decision.reason


class TestLengthFilter:
    def test_accepts_within_window(self):
        record = make_record(text=" ".join(["word"] * 100))
        assert LengthFilter(min_tokens=50, max_tokens=200).decide(record).accepted

    def test_rejects_too_short(self):
        record = make_record(text="just a few words here")
        decision = LengthFilter(min_tokens=50).decide(record)
        assert not decision.accepted
        assert "too short" in decision.reason

    def test_rejects_too_long(self):
        record = make_record(text=" ".join(["word"] * 300))
        decision = LengthFilter(min_tokens=1, max_tokens=200).decide(record)
        assert not decision.accepted
        assert "too long" in decision.reason

    def test_no_upper_bound_when_max_is_none(self):
        record = make_record(text=" ".join(["word"] * 10_000))
        assert LengthFilter(min_tokens=1, max_tokens=None).decide(record).accepted

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            LengthFilter(min_tokens=-1)
        with pytest.raises(ValueError):
            LengthFilter(min_tokens=100, max_tokens=10)


class TestJunkTextFilter:
    def test_accepts_clean_scientific_text(self):
        assert JunkTextFilter().decide(make_record(text=CLEAN_TEXT)).accepted

    def test_rejects_scrambled_text(self):
        decision = JunkTextFilter().decide(make_record(text=SCRAMBLED_TEXT))
        assert not decision.accepted
        assert decision.reason  # carries the CLS I reasons


class TestQualityThresholdFilter:
    def test_accepts_above_threshold(self):
        assert QualityThresholdFilter(0.35).decide(make_record(quality=0.6)).accepted

    def test_rejects_below_threshold(self):
        decision = QualityThresholdFilter(0.35).decide(make_record(quality=0.1))
        assert not decision.accepted
        assert "below threshold" in decision.reason

    def test_boundary_value_is_accepted(self):
        assert QualityThresholdFilter(0.35).decide(make_record(quality=0.35)).accepted

    def test_unknown_quality_kept_by_default(self):
        assert QualityThresholdFilter(0.35).decide(make_record(quality=None)).accepted

    def test_unknown_quality_rejected_when_required(self):
        decision = QualityThresholdFilter(0.35, require_known=True).decide(
            make_record(quality=None)
        )
        assert not decision.accepted

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            QualityThresholdFilter(1.5)


class TestFilterPipeline:
    def test_first_rejection_wins_and_is_attributed(self):
        pipeline = FilterPipeline([ParseSucceededFilter(), LengthFilter(min_tokens=50)])
        decision, name = pipeline.decide(make_record(succeeded=False))
        assert not decision.accepted
        assert name == "parse_succeeded"

    def test_accept_returns_empty_filter_name(self):
        pipeline = FilterPipeline([LengthFilter(min_tokens=1)])
        decision, name = pipeline.decide(make_record(text=CLEAN_TEXT))
        assert decision.accepted
        assert name == ""

    def test_apply_partitions_and_counts(self):
        pipeline = FilterPipeline.default(quality_threshold=0.35, min_tokens=20)
        records = [
            make_record(doc_id="good", text=CLEAN_TEXT, quality=0.8),
            make_record(doc_id="short", text="tiny", quality=0.8),
            make_record(doc_id="lowq", text=CLEAN_TEXT, quality=0.05),
            make_record(doc_id="failed", text=CLEAN_TEXT, succeeded=False),
        ]
        report = pipeline.apply(records)
        assert report.n_input == 4
        assert [r.doc_id for r in report.accepted] == ["good"]
        assert report.rejections_by_filter["length"] == 1
        assert report.rejections_by_filter["quality_threshold"] == 1
        assert report.rejections_by_filter["parse_succeeded"] == 1
        assert report.acceptance_rate == pytest.approx(0.25)

    def test_empty_input(self):
        report = FilterPipeline.default().apply([])
        assert report.n_input == 0
        assert report.acceptance_rate == 0.0
        assert report.summary()["n_accepted"] == 0

    def test_summary_shape(self):
        report = FilterPipeline.default().apply([make_record(text=CLEAN_TEXT)])
        summary = report.summary()
        assert {"n_input", "n_accepted", "acceptance_rate", "rejections_by_filter"} <= set(summary)


class TestFilterDecision:
    def test_constructors(self):
        assert FilterDecision.accept().accepted
        rejected = FilterDecision.reject("because")
        assert not rejected.accepted
        assert rejected.reason == "because"
