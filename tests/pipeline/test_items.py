"""One batch kind: a batch is a list of *items* — documents and references,
freely mixed — on every backend, and a reference is read where it is parsed.

Four groups: (a) a mixed batch gives the all-documents serial answer on every
backend and cache policy, misses exactly once, and crosses the cluster wire
with both descriptor kinds; (b) count gates — who reads, and what is shipped;
(c) an uncached directory run holds one batch of documents at a time; (d) a
file rewritten between the listing and the parse is reported (in-box) or
fetched another way (remote), never parsed as something it is not.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
import weakref
from pathlib import Path

import pytest

from repro.cache import CacheStatsRecorder, ParseCache
from repro.cluster.protocol import MessageChannel
from repro.cluster.worker import WorkerDaemon
from repro.documents.corpus import CorpusConfig, build_corpus
from repro.documents.simpdf import SimPdfWriter
from repro.documents.sources import (
    DocumentRef,
    SimPdfDirSource,
    StaleReferences,
    create_source,
    parse_source_arg,
)
from repro.pipeline import ParsePipeline, ParseRequest

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
BACKENDS = ["serial", "thread", "remote"] + (["process"] if HAVE_FORK else [])


def write_pool(directory: Path, n_documents: int = 12, seed: int = 41) -> list:
    """``n_documents`` as settled SimPDF files; returns the documents."""
    writer = SimPdfWriter(directory)
    config = CorpusConfig(n_documents=n_documents, seed=seed, min_pages=1, max_pages=2)
    documents = list(build_corpus(config))
    for document in documents:
        writer.write(document)
    # The reference index trusts no stamp younger than 2 s.
    then = time.time_ns() - 60 * 10**9
    for path in directory.iterdir():
        os.utime(path, ns=(then, then))
    return documents


def refs_of(directory: Path) -> list[DocumentRef]:
    return list(create_source(parse_source_arg(f"simpdf-dir:{directory}")).refs())


@pytest.fixture()
def worker(registry, default_ft_engine):
    daemon = WorkerDaemon(
        name="items-worker",
        pipeline=ParsePipeline(registry, engines={default_ft_engine.name: default_ft_engine}),
    ).start()
    yield daemon
    daemon.stop()


def options_for(backend: str, worker: "WorkerDaemon | None" = None) -> dict:
    if backend == "remote":
        return {"workers": worker.address}
    return {"serial": {}, "thread": {"n_jobs": 2}, "process": {"n_jobs": 2, "mp_context": "fork"}}[
        backend
    ]


def record_frames(monkeypatch) -> list[dict]:
    frames: list[dict] = []
    send = MessageChannel.send

    def recording(self, message):
        frames.append(dict(message))
        return send(self, message)

    monkeypatch.setattr(MessageChannel, "send", recording)
    return frames


def as_dicts(output) -> tuple[list[dict], list[dict]]:
    results, decisions = output
    return [r.to_json_dict() for r in results], [d.to_json_dict() for d in decisions]


# ---------------------------------------------------------------------- #
# (a) a mixed batch is a batch
# ---------------------------------------------------------------------- #
class TestMixedBatches:
    @pytest.mark.parametrize("cache", ["off", "readwrite"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_batches_give_the_all_documents_serial_answer(
        self, registry, default_ft_engine, worker, tmp_path, monkeypatch, backend, cache
    ):
        documents = write_pool(tmp_path / "pool")
        refs = refs_of(tmp_path / "pool")
        items = [ref if slot % 2 else doc for slot, (doc, ref) in enumerate(zip(documents, refs))]
        engines = {default_ft_engine.name: default_ft_engine}
        expected = as_dicts(
            ParsePipeline(registry, engines=engines).parse_with_telemetry(
                default_ft_engine, documents, batch_size=4
            )
        )
        frames = record_frames(monkeypatch)
        pipeline = ParsePipeline(registry, engines=engines, cache=ParseCache())

        def run() -> tuple:
            recorder = CacheStatsRecorder()
            output = pipeline.parse_with_telemetry(
                default_ft_engine,
                items,
                batch_size=4,
                cache_policy=cache,
                cache_recorder=recorder,
                backend=backend,
                backend_options=options_for(backend, worker),
            )
            return as_dicts(output), recorder.snapshot()

        got, stats = run()
        assert got == expected
        assert len(got[1]) == len(documents)  # an engine decides per document
        if cache == "readwrite":
            assert (stats.hits, stats.misses, stats.coalesced) == (0, len(items), 0)
            again, stats = run()
            assert again == expected
            assert (stats.hits, stats.misses) == (len(items), 0)
        elif backend == "remote":
            shards = [f["docs"] for f in frames if f.get("type") == "submit_shard"]
            assert len(shards) == 3
            for descriptors in shards:
                assert ["ref" in d for d in descriptors] == [False, True, False, True]
                assert ["payload" in d for d in descriptors] == [True, False, True, False]
            assert worker.counters["docs_received"] == worker.counters["docs_loaded"] == 6

    def test_threads_miss_each_slot_of_a_mixed_stream_exactly_once(
        self, registry, tmp_path
    ):
        """The same twelve documents twice over, once as documents and once as
        references, on a thread pool: twelve parses, twelve coalesced or hit."""
        documents = write_pool(tmp_path / "pool")
        items = documents + refs_of(tmp_path / "pool")
        recorder = CacheStatsRecorder()
        results, _ = ParsePipeline(registry, cache=ParseCache()).parse_with_telemetry(
            "pymupdf",
            items,
            batch_size=3,
            cache_policy="readwrite",
            cache_recorder=recorder,
            backend="thread",
            backend_options={"n_jobs": 4},
        )
        stats = recorder.snapshot()
        assert stats.misses == 12 and stats.hits + stats.coalesced == 12
        assert [r.to_json_dict() for r in results[:12]] == [
            r.to_json_dict() for r in results[12:]
        ]


# ---------------------------------------------------------------------- #
# (b) count gates
# ---------------------------------------------------------------------- #
class TestCountGates:
    @pytest.mark.skipif(not HAVE_FORK, reason="the counter rides a forked child")
    def test_uncached_process_run_reads_nothing_in_the_parent(
        self, registry, tmp_path, monkeypatch
    ):
        write_pool(tmp_path / "pool")
        reads_here = []
        read = SimPdfDirSource._read

        def counted(self, path):
            # A forked child appends to its own copy of the list.
            reads_here.append(path.name)
            return read(self, path)

        monkeypatch.setattr(SimPdfDirSource, "_read", counted)
        request = dict(parser="pymupdf", source=f"simpdf-dir:{tmp_path / 'pool'}", batch_size=4)
        report = ParsePipeline(registry).run(
            ParseRequest(backend="process", backend_options=options_for("process"), **request)
        )
        assert report.n_succeeded == 12 and reads_here == []
        # The children's reads are attributed all the same: their tables merge.
        assert report.phases["source.load"]["calls"] == 3
        serial = ParsePipeline(registry).run(ParseRequest(**request))
        assert len(reads_here) == 12  # the same counter does count
        assert [r.to_json_dict() for r in report.results] == [
            r.to_json_dict() for r in serial.results
        ]

    def test_cached_remote_run_ships_the_misses_its_index_knows_as_references(
        self, registry, worker, tmp_path
    ):
        """A parser's entries are purged, the (parser-independent) index
        survives: every reference is a known miss, and a known miss crosses
        the wire as it is — nothing is read, hashed or serialised here."""
        write_pool(tmp_path / "pool")
        cache = ParseCache()
        request = ParseRequest(
            parser="pymupdf", source=f"simpdf-dir:{tmp_path / 'pool'}", batch_size=4,
            cache="readwrite", backend="remote",
            backend_options={"workers": worker.address, "worker_cache": "off"},
        )
        cold = ParsePipeline(registry, cache=cache).run(request)
        # First sight: each reference is read here once, to be hashed.
        assert cold.execution.extra["cluster_doc_payloads_sent"] == 12
        assert cache.purge(config_fingerprint=registry.get("pymupdf").config_fingerprint()) == 12
        assert len(cache.refs) == 12
        again = ParsePipeline(registry, cache=cache).run(request)
        assert (again.cache.hits, again.cache.misses) == (0, 12)
        extra = again.execution.extra
        assert (extra["cluster_doc_refs_sent"], extra["cluster_doc_payloads_sent"]) == (12, 0)
        assert worker.counters["docs_loaded"] == 12
        assert [r.to_json_dict() for r in again.results] == [
            r.to_json_dict() for r in cold.results
        ]


# ---------------------------------------------------------------------- #
# (c) memory
# ---------------------------------------------------------------------- #
def test_uncached_directory_run_holds_one_batch_of_documents(
    registry, tmp_path, monkeypatch
):
    batch_size = 4
    write_pool(tmp_path / "pool", n_documents=10 * batch_size)
    seen: list[weakref.ref] = []
    high_water = 0
    read = SimPdfDirSource._read

    def watched(self, path):
        nonlocal high_water
        document = read(self, path)
        seen.append(weakref.ref(document))
        high_water = max(high_water, sum(1 for ref in seen if ref() is not None))
        return document

    monkeypatch.setattr(SimPdfDirSource, "_read", watched)
    report = ParsePipeline(registry).run(
        ParseRequest(
            parser="pymupdf", source=f"simpdf-dir:{tmp_path / 'pool'}", batch_size=batch_size
        )
    )
    assert report.n_succeeded == 10 * batch_size
    assert 0 < high_water <= batch_size


# ---------------------------------------------------------------------- #
# (d) a file rewritten between the listing and the parse
# ---------------------------------------------------------------------- #
class RewrittenAfterListing(SimPdfDirSource):
    """Lists its files, then has the last one replaced by another document
    (the last, so that a link which stops taking references after the bounce
    has no later shard to send inline: the wire counts below are exact)."""

    def refs(self):
        refs = list(super().refs())
        other = build_corpus(CorpusConfig(n_documents=1, seed=977, min_pages=3, max_pages=3))
        SimPdfWriter(self.directory).write(
            dataclasses.replace(other.documents[0], doc_id=Path(refs[-1].locator).stem)
        )
        return iter(refs)


class TestRewrittenFile:
    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "remote"])
    def test_in_box_backends_report_the_stale_reference(self, registry, tmp_path, backend):
        write_pool(tmp_path / "pool")
        stale = refs_of(tmp_path / "pool")[-1]
        request = ParseRequest(
            parser="pymupdf", source=RewrittenAfterListing(tmp_path / "pool"), batch_size=4,
            backend=backend, backend_options=options_for(backend),
        )
        with pytest.raises(StaleReferences, match=stale.locator) as caught:
            ParsePipeline(registry).run(request)
        # Whole, also from a process-backend child.
        assert caught.value.refs == [stale]

    def test_remote_asks_for_it_once_and_parses_what_the_file_holds_now(
        self, registry, worker, tmp_path, monkeypatch
    ):
        write_pool(tmp_path / "pool")
        frames = record_frames(monkeypatch)
        report = ParsePipeline(registry).run(
            ParseRequest(
                parser="pymupdf", source=RewrittenAfterListing(tmp_path / "pool"), batch_size=4,
                backend="remote", backend_options={"workers": worker.address},
            )
        )
        bounces = [f for f in frames if f.get("type") == "shard_error"]
        assert [f["code"] for f in bounces] == ["unresolved_reference"]
        now = list(SimPdfDirSource(tmp_path / "pool").iter_documents())
        assert [r.to_json_dict() for r in report.results] == [
            r.to_json_dict() for r in registry.get("pymupdf").parse_many(now)
        ]
        # The last shard of four went back for payloads, and only it.
        assert worker.counters["docs_received"] == 4
