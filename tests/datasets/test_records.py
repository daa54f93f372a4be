"""Tests of the parsed-record model and its construction from parses."""

from __future__ import annotations

import pytest

from repro.datasets.records import ParsedRecord, record_from_parse
from repro.metrics.bundle import evaluate_parse
from repro.parsers.base import ParseResult, ResourceUsage

from tests.datasets.conftest import make_record


class TestParsedRecord:
    def test_roundtrip_through_json_dict(self, sample_record):
        payload = sample_record.to_json_dict()
        restored = ParsedRecord.from_json_dict(payload)
        assert restored == sample_record

    def test_json_dict_is_plain_json_types(self, sample_record):
        import json

        # Must serialise without a custom encoder.
        encoded = json.dumps(sample_record.to_json_dict())
        assert sample_record.doc_id in encoded

    def test_rejects_invalid_quality_source(self):
        with pytest.raises(ValueError, match="quality_source"):
            make_record().__class__(
                doc_id="x",
                text="t",
                parser_name="p",
                n_pages=1,
                n_tokens=1,
                quality_source="guessed",
            )

    def test_rejects_out_of_range_quality(self):
        with pytest.raises(ValueError, match="quality"):
            make_record(quality=1.5)

    def test_compute_seconds_sums_cpu_and_gpu(self):
        record = make_record(cpu_seconds=1.5, gpu_seconds=2.5)
        assert record.compute_seconds == pytest.approx(4.0)

    def test_from_json_dict_defaults_missing_optionals(self):
        minimal = {
            "doc_id": "d",
            "text": "some text",
            "parser_name": "pypdf",
            "n_pages": 1,
            "n_tokens": 2,
        }
        record = ParsedRecord.from_json_dict(minimal)
        assert record.quality is None
        assert record.quality_source == "unknown"
        assert record.succeeded is True
        assert record.metadata == {}


class TestRecordFromParse:
    def _parse_result(self, document, page_texts=None):
        pages = page_texts if page_texts is not None else document.ground_truth_pages()
        return ParseResult(
            parser_name="pymupdf",
            doc_id=document.doc_id,
            page_texts=list(pages),
            usage=ResourceUsage(cpu_seconds=0.3, gpu_seconds=0.1),
        )

    def test_reference_quality_from_bundle(self, small_corpus):
        document = small_corpus[0]
        result = self._parse_result(document)
        bundle = evaluate_parse(document.ground_truth_pages(), result.page_texts)
        record = record_from_parse(document, result, bundle=bundle)
        assert record.quality_source == "reference"
        assert record.quality == pytest.approx(min(1.0, bundle.bleu))
        assert record.doc_id == document.doc_id
        assert record.n_tokens > 0

    def test_predicted_quality_used_without_bundle(self, small_corpus):
        document = small_corpus[0]
        result = self._parse_result(document)
        record = record_from_parse(document, result, predicted_quality=0.42)
        assert record.quality_source == "predicted"
        assert record.quality == pytest.approx(0.42)

    def test_unknown_quality_when_nothing_given(self, small_corpus):
        document = small_corpus[1]
        record = record_from_parse(document, self._parse_result(document))
        assert record.quality is None
        assert record.quality_source == "unknown"

    def test_predicted_quality_is_clipped(self, small_corpus):
        document = small_corpus[2]
        record = record_from_parse(document, self._parse_result(document), predicted_quality=1.7)
        assert record.quality == pytest.approx(1.0)
        record = record_from_parse(document, self._parse_result(document), predicted_quality=-0.2)
        assert record.quality == pytest.approx(0.0)

    def test_metadata_provenance_is_copied(self, small_corpus):
        document = small_corpus[3]
        record = record_from_parse(document, self._parse_result(document))
        assert record.metadata["publisher"] == document.metadata.publisher
        assert record.metadata["domain"] == document.metadata.domain
        assert record.metadata["year"] == document.metadata.year

    def test_resource_usage_is_carried_over(self, small_corpus):
        document = small_corpus[4]
        record = record_from_parse(document, self._parse_result(document))
        assert record.cpu_seconds == pytest.approx(0.3)
        assert record.gpu_seconds == pytest.approx(0.1)
