"""Tests for the SimPDF container format."""

from __future__ import annotations

import dataclasses
import json
import pickle
import threading
import zlib

import pytest

from repro.documents.document import LazyPages, PageContent, PageElement
from repro.documents.simpdf import (
    MAGIC_V2,
    SimPdfArchive,
    SimPdfWriter,
    deserialize_document,
    document_from_dict,
    document_to_dict,
    serialize_document,
)
from repro.documents.sources import SimPdfDirSource
from tests.documents.test_simpdf_pins import first_layout_bytes


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
        assert blob.startswith(b"SIMPDF2")
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


class TestSurrogates:
    """Any string a document holds round-trips through the writer; strict
    UTF-8 used to refuse surrogates with ``UnicodeEncodeError``."""

    @pytest.mark.parametrize(
        "odd", [chr(0xD800), "\ud83d\ude00"], ids=["lone", "pair-as-two-code-points"]
    )
    def test_round_trips_through_writer_and_directory_source(
        self, tmp_path, sample_document, odd
    ):
        texts = list(sample_document.text_layer.page_texts)
        texts[0] = f"before {odd} after " + texts[0]
        first = sample_document.pages[0]
        element = PageElement(kind="paragraph", text=f"ground {odd} truth")
        pages = [
            PageContent(index=first.index, elements=first.elements + (element,)),
            *sample_document.pages[1:],
        ]
        document = dataclasses.replace(
            sample_document,
            pages=pages,
            text_layer=dataclasses.replace(sample_document.text_layer, page_texts=texts),
        )
        SimPdfWriter(tmp_path).write(document)
        (read,) = SimPdfDirSource(tmp_path).iter_documents()
        assert read.text_layer.page_texts == texts
        assert read.pages[0].elements[-1].text == f"ground {odd} truth"
        assert read == document


class TestLazyPages:
    def test_reading_decodes_no_page(self, sample_document):
        read = deserialize_document(serialize_document(sample_document))
        assert isinstance(read.pages, LazyPages)
        assert read.n_pages == sample_document.n_pages
        assert read.equation_fraction == sample_document.equation_fraction
        assert read.pages.kinds == tuple(
            tuple(el.kind for el in page.elements) for page in sample_document.pages
        )
        assert not read.pages.is_decoded
        assert read.pages[1] == sample_document.pages[1]
        assert read.pages.is_decoded
        assert read.pages == sample_document.pages == read.pages
        assert read.pages[1:] == sample_document.pages[1:]

    def test_first_layout_reads_eagerly(self, sample_document):
        read = deserialize_document(first_layout_bytes(sample_document))
        assert read == sample_document
        assert isinstance(read.pages, list)

    def test_pickling_keeps_it_undecoded_and_equal(self, sample_document):
        read = deserialize_document(serialize_document(sample_document))
        copy = pickle.loads(pickle.dumps(read))
        assert not copy.pages.is_decoded
        assert copy == read == sample_document
        decoded = pickle.loads(pickle.dumps(read))  # ``==`` above decoded ``read``
        assert decoded.pages.is_decoded and decoded == sample_document

    def test_replace_is_equal_to_itself(self, sample_document):
        read = deserialize_document(serialize_document(sample_document))
        assert dataclasses.replace(read) == read
        renamed = dataclasses.replace(read, doc_id="renamed")
        assert renamed.pages is read.pages
        assert renamed == dataclasses.replace(sample_document, doc_id="renamed")

    def test_first_access_from_two_threads_yields_equal_pages(self, sample_document):
        for _ in range(20):
            read = deserialize_document(serialize_document(sample_document))
            start = threading.Barrier(2)
            seen: list[list[PageContent]] = []

            def touch() -> None:
                start.wait()
                seen.append(list(read.pages))

            threads = [threading.Thread(target=touch) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert seen[0] == seen[1] == sample_document.pages

    def test_kinds_the_model_does_not_know_are_refused_on_read(self, sample_document):
        blob = serialize_document(sample_document)
        start = len(MAGIC_V2) + 4
        end = start + int.from_bytes(blob[len(MAGIC_V2):start], "little")
        header = json.loads(zlib.decompress(blob[start:end]))
        header["kinds"][0][0] = "sonnet"
        head = zlib.compress(json.dumps(header).encode("utf-8"))
        forged = MAGIC_V2 + len(head).to_bytes(4, "little") + head + blob[end:]
        with pytest.raises(ValueError, match="sonnet"):
            deserialize_document(forged)


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

    def test_archive_writes_the_second_layout_and_reads_the_first(
        self, tmp_path, small_corpus
    ):
        docs = list(small_corpus)[:2]
        archive = SimPdfArchive.write(tmp_path / "a.arch", docs)
        entry = archive.entries[0]
        with open(archive.path, "rb") as fh:
            fh.seek(archive._body_offset + entry.offset)
            assert fh.read(len(MAGIC_V2)) == MAGIC_V2
        # An archive written before the second layout: same frame, v1 entries.
        blobs = [first_layout_bytes(doc) for doc in docs]
        directory, offset = [], 0
        for doc, blob in zip(docs, blobs):
            directory.append({"doc_id": doc.doc_id, "offset": offset, "length": len(blob)})
            offset += len(blob)
        listing = json.dumps(directory).encode("utf-8")
        old = tmp_path / "old.arch"
        old.write_bytes(
            SimPdfArchive.MAGIC + len(listing).to_bytes(8, "little") + listing + b"".join(blobs)
        )
        assert SimPdfArchive(old).read(docs[1].doc_id) == docs[1]
        assert list(SimPdfArchive(old)) == list(archive) == docs

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
