"""What a SimPDF pool reads back as, pinned whichever layout wrote it.

A 40-document pool is written two ways: by :class:`SimPdfWriter` and by a
hand-written copy of the first layout (``SIMPDF1``: one zlib stream of the
UTF-8 JSON of :func:`document_to_dict`), the bytes pools already on disk
hold.  Read back through ``simpdf-dir``, both must give the same documents,
the same difficulty proxy and the same parse reports, cached or not, down to
the digests below.  The content hashes and cache keys are pinned apart from
the rest (:data:`KEY_PINS`): they are what a content-hash scheme re-cuts.

The writer's own layout decodes page content only where a run reads it (the
content hash reads the inflated pages stream instead), and
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


def _digest(fields) -> str:
    return hashlib.sha256("\x00".join(fields).encode("utf-8")).hexdigest()[:16]


def document_digest(document) -> str:
    """16 hex digits over what a read document holds and derives."""
    return _digest([
        json.dumps(document_to_dict(document), sort_keys=True),
        repr(document.equation_fraction),
        str(document.n_pages),
    ])


def key_digest(document, fingerprint: str) -> str:
    """16 hex digits over a read document's content hash and cache key."""
    return _digest([
        document_content_hash(document),
        str(parse_cache_key(document, fingerprint)),
    ])


def report_digest(report) -> str:
    """16 hex digits over a report's parse output (no timings, no paths)."""
    payload = report.to_json_dict(include_text=True)
    kept = {key: payload[key] for key in ("results", "decisions", "usage")}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode("utf-8")).hexdigest()[:16]


#: ``document_digest`` of each pool document, in path order.
DOCUMENT_PINS = (
    "60c9f75a07c51984", "129232b29528492b", "4fd3b6ea884ccd69", "106ed0db32c865d9",
    "1a66fabaa9b46946", "8ecef5dc4e9d9786", "20109a8847d176e7", "838b696e463e1119",
    "8f48ca888ddb2699", "ccc5e1c2b435b51e", "81fcf266d5de04ae", "088ab8e350b3cd1a",
    "f0bf2805817c1d53", "7a2cf9a7c825f25b", "ea229a653feb750a", "4d4ac7c94292b116",
    "262ce465b35293c8", "f53da70c10bac7c4", "5be9f8a24e2f6d43", "bccbd489b4ae02ea",
    "2fc7bc45e1fcd77c", "4d121e298d9415d7", "f2e2776af48c392f", "60aaf1da183a2d1d",
    "64d461205de93169", "af182bef19933417", "21ed681139466b39", "000e764103a19936",
    "9533e1e5d63e51da", "e382894d884a8b19", "30bec525f77203e6", "4fba2e67ecb75f0c",
    "6611556b9ce94a6e", "e2eed28c553e2058", "43fb2124198848ed", "0c20a43e2ff80c16",
    "e0d9607c25dad6aa", "1caeb842f29792c9", "c30f7b82f89b4441", "41565a0d4adcb89d",
)
#: ``key_digest`` of each pool document, in path order, with the ``pymupdf``
#: fingerprint in its cache key.
KEY_PINS = (
    "00a3257d59aa6201", "b42a2ebc6b6b33f6", "b1a916316af4749c", "ede25b8caa66abab",
    "9f8f3af829e44eb4", "7136b15e4f8d919b", "ddc3b2a83143f59e", "e4c6922e8ccc38c2",
    "75e70f81de578aea", "2a0567ca24fa4165", "39a89b0bbfed4958", "fcb6185d67b2aeb5",
    "a9ceffcee4f3c6b8", "af999311737196a7", "fc3e40b11bf3fc97", "bb72f86d2f0b5f7d",
    "ddafe7a569a47290", "8c800ca894776146", "2ecfdb9b81bab725", "ef94468fb561c483",
    "15679a9834aedbba", "0cf4798bceb8760e", "0ef0128906a68fd1", "82b4ea28a0579a83",
    "7535b5d49f77ddd2", "dad2b2170c140cb7", "ac96e7c8afb73905", "72a04ecd63f0c59d",
    "0eb444ede6bb25c9", "4d3fa3db6cbab017", "1a490dfb768dbcf6", "cd9163a1815de740",
    "5302d2d174d94277", "b5bc23a321c24272", "27f99c99ff30cdf1", "3cd3c85566226b19",
    "5b2a9b6690f890ea", "a0ad1dc47a77b4e9", "2a2ae854bafd2bea", "be8f54a1ad57eeb7",
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
        assert tuple(document_digest(d) for d in read) == DOCUMENT_PINS
        assert tuple(key_digest(d, fingerprint) for d in read) == KEY_PINS

    def test_documents_read_back_equal_to_those_written(self, pool, pool_documents):
        written = {d.doc_id: d for d in pool_documents}
        for document in SimPdfDirSource(pool).iter_documents():
            assert document == written[document.doc_id]

    @pytest.mark.parametrize("parser", sorted(REPORT_PINS))
    def test_reports_over_the_pool(self, pool, parser, registry, default_ft_engine):
        pipeline = ParsePipeline(registry, engines={"adaparse_ft": default_ft_engine})
        report = pipeline.run(ParseRequest(parser=parser, source=f"simpdf-dir:{pool}"))
        assert report_digest(report) == REPORT_PINS[parser]


#: ``report_digest`` and ``(hits, misses)`` of a cold and then a warm
#: ``cache="readwrite"`` run over the pool, each through its own
#: :class:`ParseCache` over one directory, so the warm run reads the entries
#: the cold run wrote.
CACHED_RUN_PINS = {
    "nougat": [("5cdab4cead1b6513", 0, 40), ("5cdab4cead1b6513", 40, 0)],
    "pymupdf": [("0a37c7b5d78025de", 0, 40), ("0a37c7b5d78025de", 40, 0)],
}


class TestCachedRunPins:
    @pytest.mark.parametrize("parser", sorted(CACHED_RUN_PINS))
    def test_cold_then_warm(self, pool, parser, registry, tmp_path):
        request = ParseRequest(parser=parser, source=f"simpdf-dir:{pool}", cache="readwrite")
        runs = []
        for _ in range(2):
            pipeline = ParsePipeline(registry, cache=ParseCache(tmp_path / "cache"))
            report = pipeline.run(request)
            runs.append((report_digest(report), report.cache.hits, report.cache.misses))
        assert runs == CACHED_RUN_PINS[parser]


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

    def test_a_pymupdf_cache_miss_run_decodes_none(
        self, registry, default_ft_engine, written_pool, decodes
    ):
        # The content hash reads the inflated pages stream, not the pages.
        report = self._run(
            registry, default_ft_engine, written_pool, "pymupdf", cache="readwrite"
        )
        assert report.cache.misses == 40
        assert decodes == []

    def test_a_nougat_cache_miss_run_decodes_each_document_once(
        self, registry, default_ft_engine, written_pool, decodes
    ):
        report = self._run(
            registry, default_ft_engine, written_pool, "nougat", cache="readwrite"
        )
        assert report.cache.misses == 40
        assert len(decodes) == len({content for _, content in decodes}) == 40
