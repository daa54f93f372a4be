"""Page texts come back bit-exact on every path a report can take.

A SimPDF file is JSON, so its text layer can hold any string JSON can: a
non-ASCII character, and also a lone surrogate (``"\\ud800"``), which strict
UTF-8 cannot encode (the writer's UTF-8 passes surrogates through).  The
pool is written both ways a file can be: in the first layout with ASCII
escapes, and by :class:`SimPdfWriter`.  The serial, uncached run returns
such a text as it is; so must the disk-backed parse cache, a ``remote``
worker, the gateway and the ``adaparse_ft`` engine, whose selector reads
every character.  Each run here is bounded, because the failure mode on a wire is a
worker or streamer thread that dies and leaves its peer waiting.
"""

from __future__ import annotations

import json
import threading
import zlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cache import ParseCache
from repro.cluster.worker import WorkerDaemon
from repro.documents.corpus import CorpusConfig
from repro.documents.simpdf import MAGIC, SimPdfWriter, document_to_dict
from repro.documents.sources import SyntheticSource
from repro.gateway import GatewayClient, GatewayServer
from repro.pipeline import ParsePipeline, ParseRequest
from repro.serve import ParseService

#: What the first page of each document is made to start with.
ODD_TEXTS = ["naïve — 東京 ﬁle ", "lone \ud800 surrogate "]
#: Seconds any one run may take; they take well under one.
BOUND_S = 30


def _write_escaped_first_layout(root: Path, document) -> None:
    """A first-layout file written with ASCII escapes, as any JSON writer may."""
    body = json.dumps(document_to_dict(document)).encode("ascii")
    (root / f"{document.doc_id}.simpdf").write_bytes(MAGIC + zlib.compress(body))


def _write_with_writer(root: Path, document) -> None:
    SimPdfWriter(root).write(document)


@pytest.fixture(scope="module", params=["escaped-first-layout", "writer"])
def pool(request, tmp_path_factory) -> Path:
    """Two SimPDF files whose text layers hold :data:`ODD_TEXTS`, written in
    the first layout by hand or by the library's own writer."""
    write = {
        "escaped-first-layout": _write_escaped_first_layout,
        "writer": _write_with_writer,
    }[request.param]
    root = tmp_path_factory.mktemp("odd-text")
    documents = SyntheticSource(
        CorpusConfig(n_documents=len(ODD_TEXTS), seed=3, min_pages=1, max_pages=2)
    ).iter_documents()
    for odd, document in zip(ODD_TEXTS, documents):
        texts = list(document.text_layer.page_texts)
        texts[0] = odd + texts[0]
        write(root, document.with_text_layer(replace(document.text_layer, page_texts=texts)))
    return root


def _request(pool: Path, **options) -> ParseRequest:
    return ParseRequest(parser="pymupdf", source=f"simpdf-dir:{pool}", **options)


def _texts(report) -> list[list[str]]:
    return [list(result.page_texts) for result in report.results]


def _bounded(run):
    """``run()``'s value, or a test failure once :data:`BOUND_S` has passed."""
    outcome: dict[str, object] = {}

    def target() -> None:
        try:
            outcome["value"] = run()
        except BaseException as exc:  # re-raised in the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=target, name="bounded-run", daemon=True)
    thread.start()
    thread.join(BOUND_S)
    assert not thread.is_alive(), f"no result within {BOUND_S} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@pytest.fixture(scope="module")
def expected(pool) -> list[list[str]]:
    texts = _texts(ParsePipeline().run(_request(pool)))
    # The odd characters survive the parser, so every case below checks them.
    assert "\ud800" in texts[1][0] and "東京" in texts[0][0]
    return texts


def test_the_disk_cache_stores_and_returns_the_texts(pool, expected, tmp_path):
    request = _request(pool, cache="readwrite")
    written = _bounded(lambda: ParsePipeline(cache=ParseCache(tmp_path)).run(request))
    assert _texts(written) == expected
    # A fresh cache over the same directory: every text comes off disk.
    read = _bounded(lambda: ParsePipeline(cache=ParseCache(tmp_path)).run(request))
    assert (read.cache.hits, read.cache.misses) == (len(expected), 0)
    assert _texts(read) == expected


def test_a_remote_worker_returns_the_texts(pool, expected):
    worker = WorkerDaemon(name="text-worker").start()
    try:
        request = _request(pool, backend="remote", backend_options={"workers": worker.address})
        assert _texts(_bounded(lambda: ParsePipeline().run(request))) == expected
    finally:
        worker.stop()


def test_the_gateway_returns_the_texts(pool, expected):
    with ParseService() as service, GatewayServer(service, port=0) as server:
        with GatewayClient("127.0.0.1", server.port).connect() as client:
            ticket = client.submit(_request(pool))
            report = client.result(ticket, timeout=BOUND_S, include_text=True)
    assert [entry["page_texts"] for entry in report["results"]] == expected


def test_the_ft_engine_routes_the_texts(pool, expected, default_ft_engine):
    # CLS I and CLS III read every code point of the text: a lone surrogate
    # is classed and hashed like any other character, not refused.  At the
    # default alpha a two-document batch has no slot to route, so each text
    # is the default parser's.
    pipeline = ParsePipeline(engines={"adaparse_ft": default_ft_engine})
    request = ParseRequest(parser="adaparse_ft", source=f"simpdf-dir:{pool}")
    report = _bounded(lambda: pipeline.run(request))
    assert report.n_succeeded == report.n_documents == len(expected)
    assert _texts(report) == expected


#: A surrogate pair held as two code points, not as the astral character
#: U+10000 they pair into.  An ASCII JSON string cannot tell the two apart.
SPLIT_PAIR = "split \ud800\udc00 pair "


@pytest.fixture(scope="module")
def pair_pool(tmp_path_factory) -> Path:
    """One SimPDF file, written by :class:`SimPdfWriter`, whose first page
    starts with :data:`SPLIT_PAIR`."""
    root = tmp_path_factory.mktemp("split-pair")
    (document,) = SyntheticSource(
        CorpusConfig(n_documents=1, seed=3, min_pages=1, max_pages=2)
    ).iter_documents()
    texts = list(document.text_layer.page_texts)
    texts[0] = SPLIT_PAIR + texts[0]
    _write_with_writer(
        root, document.with_text_layer(replace(document.text_layer, page_texts=texts))
    )
    return root


@pytest.fixture(scope="module")
def pair_expected(pair_pool) -> list[list[str]]:
    texts = _texts(ParsePipeline().run(_request(pair_pool)))
    assert "\ud800\udc00" in texts[0][0] and "\U00010000" not in texts[0][0]
    return texts


class TestASplitSurrogatePair:
    """Page texts cross both wires and the disk cache's lines as UTF-8 bytes,
    so a pair written as two code points comes back as two code points, as
    the serial run keeps it."""

    def test_a_disk_cache_hit_returns_it(self, pair_pool, pair_expected, tmp_path):
        request = _request(pair_pool, cache="readwrite")
        ParsePipeline(cache=ParseCache(tmp_path)).run(request)
        read = ParsePipeline(cache=ParseCache(tmp_path)).run(request)
        assert (read.cache.hits, read.cache.misses) == (1, 0)
        assert _texts(read) == pair_expected

    def test_a_thread_run_keeps_it(self, pair_pool, pair_expected):
        request = _request(pair_pool, backend="thread", backend_options={"n_jobs": 2})
        assert _texts(ParsePipeline().run(request)) == pair_expected

    def test_a_remote_worker_returns_it(self, pair_pool, pair_expected):
        worker = WorkerDaemon(name="pair-worker").start()
        try:
            request = _request(
                pair_pool, backend="remote", backend_options={"workers": worker.address}
            )
            assert _texts(_bounded(lambda: ParsePipeline().run(request))) == pair_expected
        finally:
            worker.stop()

    def test_the_gateway_returns_it(self, pair_pool, pair_expected):
        with ParseService() as service, GatewayServer(service, port=0) as server:
            with GatewayClient("127.0.0.1", server.port).connect() as client:
                ticket = client.submit(_request(pair_pool))
                report = client.result(ticket, timeout=BOUND_S, include_text=True)
        assert [entry["page_texts"] for entry in report["results"]] == pair_expected
