"""Tests for the SimPDF container format."""

from __future__ import annotations

import pytest

from repro.documents.simpdf import (
    SimPdfArchive,
    SimPdfWriter,
    deserialize_document,
    document_from_dict,
    document_to_dict,
    serialize_document,
)


class TestRoundTrip:
    def test_dict_round_trip(self, sample_document):
        restored = document_from_dict(document_to_dict(sample_document))
        assert restored.doc_id == sample_document.doc_id
        assert restored.ground_truth_text() == sample_document.ground_truth_text()
        assert restored.metadata == sample_document.metadata
        assert restored.text_layer.quality == sample_document.text_layer.quality
        assert restored.image_layer == sample_document.image_layer

    def test_bytes_round_trip(self, sample_document):
        blob = serialize_document(sample_document)
        assert blob.startswith(b"SIMPDF1")
        restored = deserialize_document(blob)
        assert restored.text_layer.page_texts == sample_document.text_layer.page_texts

    def test_a_legacy_doc_type_key_still_loads(self, sample_document):
        """Files and frames written before the format field was dropped carry
        ``"doc_type": "pdf"``; the readers ignore it."""
        from repro.core.engine import RoutingDecision
        from repro.documents.sources import DocumentRef

        legacy = {**document_to_dict(sample_document), "doc_type": "pdf"}
        restored = document_from_dict(legacy)
        assert document_to_dict(restored) == document_to_dict(sample_document)
        assert "doc_type" not in document_to_dict(restored)
        ref = {"source": {"kind": "simpdf-dir", "options": {"path": "x"}}, "locator": "a",
               "stamp": "1:2", "doc_type": "pdf"}  # fmt: skip
        assert DocumentRef.from_json_dict(ref).to_json_dict() == {
            key: value for key, value in ref.items() if key != "doc_type"
        }
        decision = {"doc_id": "a", "chosen_parser": "pymupdf", "stage": "accepted_default",
                    "predicted_improvement": 0.25, "doc_type": "pdf"}  # fmt: skip
        assert RoutingDecision.from_json_dict(decision).to_json_dict() == {
            key: value for key, value in decision.items() if key != "doc_type"
        }

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            deserialize_document(b"NOTAPDF" + b"x" * 10)

    def test_compression_reduces_size(self, sample_document):
        import json

        raw = len(json.dumps(document_to_dict(sample_document)).encode("utf-8"))
        compressed = len(serialize_document(sample_document))
        assert compressed < raw


class TestReaderWriter:
    def test_write_and_read_directory(self, tmp_path, small_corpus):
        writer = SimPdfWriter(tmp_path / "docs")
        paths = [writer.write(doc) for doc in list(small_corpus)[:4]]
        assert sorted((tmp_path / "docs").glob("*.simpdf")) == sorted(paths)
        docs = [deserialize_document(path.read_bytes()) for path in paths]
        assert {d.doc_id for d in docs} == {d.doc_id for d in list(small_corpus)[:4]}


class TestArchive:
    def test_archive_round_trip(self, tmp_path, small_corpus):
        docs = list(small_corpus)[:5]
        path = tmp_path / "corpus.simpdfarch"
        archive = SimPdfArchive.write(path, docs)
        assert len(archive) == 5
        assert archive.doc_ids() == [d.doc_id for d in docs]
        restored = archive.read(docs[2].doc_id)
        assert restored.ground_truth_text() == docs[2].ground_truth_text()

    def test_archive_iteration_order(self, tmp_path, small_corpus):
        docs = list(small_corpus)[:3]
        archive = SimPdfArchive.write(tmp_path / "a.arch", docs)
        assert [d.doc_id for d in archive] == [d.doc_id for d in docs]

    def test_archive_missing_document(self, tmp_path, small_corpus):
        archive = SimPdfArchive.write(tmp_path / "a.arch", list(small_corpus)[:2])
        with pytest.raises(KeyError):
            archive.read("does-not-exist")

    def test_archive_bad_magic(self, tmp_path):
        path = tmp_path / "bad.arch"
        path.write_bytes(b"garbage")
        with pytest.raises(ValueError):
            SimPdfArchive(path)
