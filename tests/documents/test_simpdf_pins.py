"""What a SimPDF pool reads back as, pinned whichever layout wrote it.

A 40-document pool is written two ways: by :class:`SimPdfWriter` and by a
hand-written copy of the first layout (``SIMPDF1``: one zlib stream of the
UTF-8 JSON of :func:`document_to_dict`), the bytes pools already on disk
hold.  Read back through ``simpdf-dir``, both must give the same documents,
the same content hashes and cache keys, the same difficulty proxy and the
same parse reports, down to the digests below.

The writer's own layout decodes page content only where a run reads it, and
:class:`TestPageDecodeCounts` counts the decodes per run.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path

import pytest

from repro.cache import ParseCache
from repro.cache.keys import document_content_hash, parse_cache_key
from repro.documents.corpus import CorpusConfig, build_corpus
from repro.documents import simpdf
from repro.documents.simpdf import SimPdfWriter, document_to_dict
from repro.documents.sources import SimPdfDirSource
from repro.pipeline import ParsePipeline, ParseRequest

POOL_CONFIG = CorpusConfig(n_documents=40, seed=47)


def first_layout_bytes(document) -> bytes:
    """A ``SIMPDF1`` file, byte for byte as that layout's writer made it."""
    payload = json.dumps(document_to_dict(document), ensure_ascii=False).encode("utf-8")
    return b"SIMPDF1\n" + zlib.compress(payload, 6)


def write_first_layout(directory: Path, documents) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for document in documents:
        (directory / f"{document.doc_id}.simpdf").write_bytes(first_layout_bytes(document))


def write_with_writer(directory: Path, documents) -> None:
    writer = SimPdfWriter(directory)
    for document in documents:
        writer.write(document)


LAYOUTS = {"writer": write_with_writer, "first-layout": write_first_layout}


@pytest.fixture(scope="module")
def pool_documents():
    return list(build_corpus(POOL_CONFIG))


@pytest.fixture(scope="module", params=sorted(LAYOUTS))
def pool(request, tmp_path_factory, pool_documents) -> Path:
    directory = tmp_path_factory.mktemp(f"pool-{request.param}")
    LAYOUTS[request.param](directory, pool_documents)
    return directory


def document_digest(document, fingerprint: str) -> str:
    """16 hex digits over everything a read document is pinned by."""
    fields = [
        json.dumps(document_to_dict(document), sort_keys=True),
        document_content_hash(document),
        str(parse_cache_key(document, fingerprint)),
        repr(document.equation_fraction),
        str(document.n_pages),
    ]
    return hashlib.sha256("\x00".join(fields).encode("utf-8")).hexdigest()[:16]


def report_digest(report) -> str:
    """16 hex digits over a report's parse output (no timings, no paths)."""
    payload = report.to_json_dict(include_text=True)
    kept = {key: payload[key] for key in ("results", "decisions", "usage")}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode("utf-8")).hexdigest()[:16]


#: ``document_digest`` of each pool document, in path order, with the
#: ``pymupdf`` fingerprint in its cache key.
DOCUMENT_PINS = (
    "54a62016a7f1db14", "ac44c8d1f03d9049", "0dadda6ceda5899b", "71d30499eef98026",
    "17c15eebc6c01938", "6c38d1fc547a4722", "f6baf2b0f9cf37e0", "9d70134ec39e9ec0",
    "98a6d583d20af420", "95bda95b264dcb81", "2f0343a4f2739b32", "24fb2cf2b2043d81",
    "49f3609be95515c8", "ed7a74677fe2cb0c", "c6d04e123e944f15", "b750aeddb0f64678",
    "fbe5135d4302ea28", "ee1ed62e973c1553", "096b282bc329b50c", "a92cb9ab955cb26d",
    "a1032005e2d42a72", "db1a5d674d8e7892", "6f58a89cb459d212", "e604e5fbdf94380f",
    "8ffa074d505f3783", "942890f72ce3f118", "c2d13cace5b8ec6f", "176212188891e7d0",
    "36e6b9d057385615", "881ff789e753b12c", "1d5f649b446c48d2", "ee36e933676f07ce",
    "2322bdac74ecfb03", "6d0819613432cad4", "e7703620f03b67b3", "50628a56cb8d6f6c",
    "5cb9dc08ada7a737", "35f2111a66393ff0", "9e012eb15f06c91c", "54765c862d86f1ba",
)
#: ``report_digest`` of one run over the pool per parser.
REPORT_PINS = {
    "pymupdf": "0a37c7b5d78025de",
    "adaparse_ft": "b881ed23ed16c183",
}


class TestPoolPins:
    def test_documents_read_back_to_their_pins(self, pool, pool_documents, registry):
        fingerprint = registry.get("pymupdf").config_fingerprint()
        read = list(SimPdfDirSource(pool).iter_documents())
        assert [d.doc_id for d in read] == sorted(d.doc_id for d in pool_documents)
        assert tuple(document_digest(d, fingerprint) for d in read) == DOCUMENT_PINS

    def test_documents_read_back_equal_to_those_written(self, pool, pool_documents):
        written = {d.doc_id: d for d in pool_documents}
        for document in SimPdfDirSource(pool).iter_documents():
            assert document == written[document.doc_id]

    @pytest.mark.parametrize("parser", sorted(REPORT_PINS))
    def test_reports_over_the_pool(self, pool, parser, registry, default_ft_engine):
        pipeline = ParsePipeline(registry, engines={"adaparse_ft": default_ft_engine})
        report = pipeline.run(ParseRequest(parser=parser, source=f"simpdf-dir:{pool}"))
        assert report_digest(report) == REPORT_PINS[parser]


class TestPageDecodeCounts:
    """How many documents' page content one 40-document run decodes."""

    @pytest.fixture()
    def decodes(self, monkeypatch) -> list[tuple]:
        calls: list[tuple] = []
        decode = simpdf._decode_pages

        def counting(*args):
            calls.append(args)
            return decode(*args)

        monkeypatch.setattr(simpdf, "_decode_pages", counting)
        return calls

    @pytest.fixture(scope="class")
    def written_pool(self, tmp_path_factory, pool_documents) -> Path:
        directory = tmp_path_factory.mktemp("written-pool")
        write_with_writer(directory, pool_documents)
        return directory

    def _run(self, registry, engine, pool, parser, **options):
        pipeline = ParsePipeline(
            registry, engines={"adaparse_ft": engine}, cache=ParseCache()
        )
        return pipeline.run(
            ParseRequest(parser=parser, source=f"simpdf-dir:{pool}", **options)
        )

    def test_pymupdf_decodes_none(self, registry, default_ft_engine, written_pool, decodes):
        report = self._run(registry, default_ft_engine, written_pool, "pymupdf")
        assert report.summary()["n_succeeded"] == 40
        assert decodes == []

    def test_adaparse_ft_decodes_its_routed_documents(
        self, registry, default_ft_engine, written_pool, decodes
    ):
        report = self._run(registry, default_ft_engine, written_pool, "adaparse_ft")
        routed = [d.doc_id for d in report.decisions if d.chosen_parser == "nougat"]
        assert routed
        assert len(decodes) == len(routed)

    def test_a_cache_miss_run_decodes_every_document(
        self, registry, default_ft_engine, written_pool, decodes
    ):
        report = self._run(
            registry, default_ft_engine, written_pool, "pymupdf", cache="readwrite"
        )
        assert report.cache.misses == 40
        assert len(decodes) == 40
