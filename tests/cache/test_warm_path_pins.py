"""What a cached run over a SimPDF directory keys, returns and counts, pinned.

Two pools: ``write_pool``'s eight one- and two-page documents, and the
40-document pool of :mod:`tests.documents.test_simpdf_pins`.  Per pool the
pins are a sha256 over every cache key (path order), a digest of the parse
output, and the ``(hits, misses, stores)`` of three runs by directory, each
through its own :class:`ParseCache` over one directory:

* ``cold`` then ``warm`` — two ``readwrite`` runs on an empty directory;
* ``after-documents`` — a ``readwrite`` run on a directory that a
  ``cache="write"`` run over the pool's documents, read through the source,
  filled first.

How many documents a run reads to get there is not pinned here: only what
the runs answer.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.cache import ParseCache
from repro.documents.corpus import build_corpus
from repro.documents.sources import SimPdfDirSource
from repro.parsers.registry import ParserRegistry
from repro.pipeline import ParsePipeline, ParseRequest, request_for_documents
from tests.cache.test_reference_index import CountingParser, age, write_pool
from tests.documents.test_simpdf_pins import POOL_CONFIG, report_digest, write_with_writer


def forty_document_pool(directory: Path) -> str:
    write_with_writer(directory, build_corpus(POOL_CONFIG))
    age(directory)
    return f"simpdf-dir:{directory}"


POOLS = {"write_pool": write_pool, "forty": forty_document_pool}

#: Per pool: sha256 over the newline-joined cache keys, ``report_digest`` of a
#: run, and ``(hits, misses, stores)`` of the ``cold``, ``warm`` and
#: ``after-documents`` runs.
PINS = {
    "write_pool": (
        "dd0302cda0f54f5c5c8e9d1066295282567b6084cc66f2f74254a4420bea00fc",
        "290833c44dee73c4",
        {"cold": (0, 8, 8), "warm": (8, 0, 0), "after-documents": (8, 0, 0)},
    ),
    "forty": (
        "59584a76152b5ed922411849e0e3f3af00e88496b52ab29d828b3490b5c819a3",
        "57af1ebb06dcc3b2",
        {"cold": (0, 40, 40), "warm": (40, 0, 0), "after-documents": (40, 0, 0)},
    ),
}


def pipeline(cache_dir: Path) -> ParsePipeline:
    return ParsePipeline(ParserRegistry([CountingParser()]), cache=ParseCache(cache_dir))


def counts(report) -> tuple[int, int, int]:
    return report.cache.hits, report.cache.misses, report.cache.stores


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_keys_results_and_counts(tmp_path, pool):
    source = POOLS[pool](tmp_path / "pool")
    keys_digest, results_digest, expected = PINS[pool]
    directory = SimPdfDirSource(tmp_path / "pool")
    fingerprint = CountingParser().config_fingerprint()
    keys, _ = ParseCache().key_items(list(directory.refs()), fingerprint)
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == keys_digest

    request = ParseRequest(parser="counting", source=source, cache="readwrite")
    runs = {}
    cold = pipeline(tmp_path / "cache").run(request)
    runs["cold"] = counts(cold)
    warm = pipeline(tmp_path / "cache").run(request)
    runs["warm"] = counts(warm)
    pipeline(tmp_path / "warmed").run(
        request_for_documents("counting", list(directory.iter_documents()), cache="write")
    )
    after = pipeline(tmp_path / "warmed").run(request)
    runs["after-documents"] = counts(after)
    assert runs == expected
    assert {report_digest(r) for r in (cold, warm, after)} == {results_digest}
