"""The reference index: a cached request over a reference-able source travels
as references, and a reference read once is keyed without being read again.

Four groups: (a) parity with the same request over explicit documents on
every policy and local backend; (b) count gates — a warm run reads, builds
and hashes nothing; (c) staleness — everything that can make an index entry
wrong makes it a miss instead; (d) memory — a cached directory run holds one
batch of documents at a time.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

import repro.cache.keys as keys_module
import repro.cache.refindex as refindex_module
import repro.documents.sources as sources_module
from repro.cache import ParseCache, document_content_hash
from repro.cache.keys import CONTENT_HASH_SCHEME
from repro.cache.refindex import ReferenceIndex
from repro.documents.corpus import CorpusConfig, build_corpus
from repro.documents.simpdf import SimPdfWriter
from repro.documents.sources import (
    DocumentRef,
    SimPdfDirSource,
    SourceSpec,
    StaleReference,
    create_source,
    parse_source_arg,
)
from repro.parsers.extraction import PyMuPDFSim
from repro.parsers.registry import ParserRegistry
from repro.pipeline import ParsePipeline, ParseRequest, request_for_documents

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "ingest"
#: The index file of the current content-hash scheme.
INDEX = f"refs-v{CONTENT_HASH_SCHEME}.jsonl"
POLICIES = ("off", "read", "write", "readwrite")

#: Timing telemetry, and the request block (the two sides name their
#: documents differently by construction).
_VOLATILE = {
    "request",
    "wall_time_seconds",
    "throughput_docs_per_second",
    "time_saved_seconds",
    # An entry line carries its own compute time, so its length moves by a
    # digit run to run; compared where the lines are the same lines.
    "bytes_read",
    "bytes_written",
    "phases",
    "execution",
}


class CountingParser(PyMuPDFSim):
    """PyMuPDF double that counts the documents it actually parses (in the parent)."""

    name = "counting"

    def __init__(self) -> None:
        self.parsed: list[str] = []

    def parse(self, document):
        self.parsed.append(document.doc_id)
        return super().parse(document)


def comparable(report) -> bytes:
    def scrub(node):
        if isinstance(node, dict):
            return {k: scrub(v) for k, v in node.items() if k not in _VOLATILE}
        return [scrub(item) for item in node] if isinstance(node, list) else node

    return json.dumps(scrub(report.to_json_dict(include_text=True)), sort_keys=True).encode()


def age(directory: Path, seconds: float = 60.0) -> None:
    """Backdate every file under ``directory`` past the racy-clean margin."""
    then = time.time_ns() - int(seconds * 1e9)
    for path in directory.rglob("*"):
        if path.is_file():
            os.utime(path, ns=(then, then))


def write_pool(directory: Path, n_documents: int = 8, seed: int = 31) -> str:
    writer = SimPdfWriter(directory)
    config = CorpusConfig(n_documents=n_documents, seed=seed, min_pages=1, max_pages=2)
    for document in build_corpus(config):
        writer.write(document)
    age(directory)
    return f"simpdf-dir:{directory}"


def source_of(kind: str, tmp_path: Path) -> str:
    """A settled (aged) reference-able source of ``kind``, as a ``--source`` string."""
    if kind == "synthetic":
        return "synthetic:8?seed=31&min_pages=1&max_pages=2"
    if kind == "simpdf-dir":
        return write_pool(tmp_path / "pool")
    name = kind.split("-")[0]
    shutil.copytree(FIXTURES / name, tmp_path / name)
    age(tmp_path / name)
    return f"{kind}:{tmp_path / name}"


def run(cache: ParseCache, source, policy="readwrite", parser=None, **fields) -> object:
    registry = ParserRegistry([parser or CountingParser()])
    request = ParseRequest(parser="counting", source=source, cache=policy, **fields)
    return ParsePipeline(registry, cache=cache).run(request)


@pytest.fixture()
def counts(monkeypatch):
    """Calls into the three things a warm by-reference run must not do."""
    tally = {"read": 0, "build": 0, "hash": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        SimPdfDirSource, "_read", counted("read", SimPdfDirSource._read)
    )
    monkeypatch.setattr(
        sources_module, "build_document", counted("build", sources_module.build_document)
    )
    monkeypatch.setattr(
        keys_module,
        "_compute_content_hash",
        counted("hash", keys_module._compute_content_hash),
    )
    return tally


# ---------------------------------------------------------------------- #
# (a) parity with the same request over explicit documents
# ---------------------------------------------------------------------- #
class TestParityWithExplicitDocuments:
    # ``process`` is an accepted name for ``thread``.
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("kind", ["simpdf-dir", "html-dir", "markdown-dir", "synthetic"])
    def test_every_policy_gives_the_report_of_the_same_documents(
        self, tmp_path, kind, backend
    ):
        source = source_of(kind, tmp_path)
        documents = list(ParseRequest(source=source).resolve_source().iter_documents())
        options = {} if backend == "serial" else {"n_jobs": 2}
        fields = {"backend": backend, "backend_options": options, "batch_size": 3}
        registry = ParserRegistry([CountingParser()])
        # Half the documents are already cached, so ``read`` has something to
        # read and ``write`` something to overwrite; both sides start from
        # copies of the same shard files.
        ParsePipeline(registry, cache=ParseCache(tmp_path / "seed")).run(
            request_for_documents("counting", documents[::2], cache="write")
        )
        for policy in POLICIES:
            reports = {}
            for side in ("refs", "docs"):
                directory = tmp_path / f"cache-{policy}-{side}"
                shutil.copytree(tmp_path / "seed", directory)
                for attempt in ("cold", "warm"):
                    # A fresh cache object per run: the warm one meets the
                    # disk tier (``bytes_read``) and the index file.
                    pipeline = ParsePipeline(registry, cache=ParseCache(directory))
                    request = (
                        ParseRequest(parser="counting", source=source, cache=policy, **fields)
                        if side == "refs"
                        else request_for_documents("counting", documents, cache=policy, **fields)
                    )
                    reports[side, attempt] = pipeline.run(request)
            for attempt in ("cold", "warm"):
                by_ref, by_doc = reports["refs", attempt].cache, reports["docs", attempt].cache
                assert comparable(reports["refs", attempt]) == comparable(reports["docs", attempt])
                assert (by_ref.hits, by_ref.misses, by_ref.coalesced, by_ref.stores) == (
                    by_doc.hits, by_doc.misses, by_doc.coalesced, by_doc.stores,
                ), (policy, attempt)  # fmt: skip
                # The cold run reads the seeded lines, the same bytes on both sides.
                if attempt == "cold":
                    assert by_ref.bytes_read == by_doc.bytes_read, policy
                else:
                    assert by_ref.bytes_read == pytest.approx(by_doc.bytes_read, rel=0.01)
            expected_warm_hits = {"off": 0, "write": 0}.get(policy, len(documents[::2]))
            assert reports["refs", "warm"].cache.hits >= expected_warm_hits
            assert reports["refs", "cold"].cache.bytes_read > 0 or policy in ("off", "write")

    def test_threads_miss_each_document_exactly_once(self, tmp_path):
        source = write_pool(tmp_path / "pool", n_documents=12)
        # The same document under a second file name: two references, one key.
        first = sorted((tmp_path / "pool").glob("*.simpdf"))[0]
        shutil.copy2(first, first.with_name("zz-copy.simpdf"))
        parser, cache = CountingParser(), ParseCache()
        fields = {"backend": "thread", "backend_options": {"n_jobs": 4}, "batch_size": 2}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            cold = run(cache, source, parser=parser, **fields)
            warm = run(cache, source, parser=parser, **fields)
        finally:
            sys.setswitchinterval(switch)
        assert sorted(parser.parsed) == sorted({r.doc_id for r in cold.results})
        assert cold.cache.misses == 12 and cold.cache.hits + cold.cache.coalesced == 1
        assert (warm.cache.hits, warm.cache.misses) == (13, 0)
        assert len(cache.refs) == 13


# ---------------------------------------------------------------------- #
# (b) a warm run reads, builds and hashes nothing
# ---------------------------------------------------------------------- #
class TestWarmRunCountGates:
    def test_second_directory_run_reads_and_hashes_nothing(self, tmp_path, counts):
        source = write_pool(tmp_path / "pool")
        cold = run(ParseCache(tmp_path / "cache"), source)
        assert (counts["read"], counts["hash"]) == (8, 8)
        assert cold.phases["source.load"]["calls"] == 1
        # A new process's view: everything comes back from the two files.
        warm = run(ParseCache(tmp_path / "cache"), source)
        assert (counts["read"], counts["hash"]) == (8, 8)
        assert (warm.cache.hits, warm.cache.misses) == (8, 0)
        assert "source.load" not in warm.phases and "parse" not in warm.phases
        assert warm.phases["cache.key"]["calls"] == 8
        assert [r.to_json_dict() for r in warm.results] == [
            r.to_json_dict() for r in cold.results
        ]

    def test_warm_synthetic_request_generates_no_document(self, counts):
        cache = ParseCache()
        source = "synthetic:6?seed=5&min_pages=1&max_pages=1"
        run(cache, source)
        assert (counts["build"], counts["hash"]) == (6, 6)
        warm = run(cache, source)
        assert (counts["build"], counts["hash"]) == (6, 6)
        assert warm.cache.hits == 6
        # Another corpus configuration is another stamp: nothing is assumed.
        run(cache, "synthetic:6?seed=6&min_pages=1&max_pages=1")
        assert counts["build"] == 12

    def test_read_policy_learns_in_memory_and_writes_nothing(self, tmp_path, counts):
        source = write_pool(tmp_path / "pool")
        cache = ParseCache(tmp_path / "cache")
        run(cache, source, policy="read")
        run(cache, source, policy="read")
        assert counts["read"] == 16  # misses parse, so they are read again ...
        assert counts["hash"] == 8  # ... but keyed from the index
        assert list((tmp_path / "cache").iterdir()) == []

    def test_an_existing_cache_directory_gains_an_index_on_its_next_writing_run(
        self, tmp_path, counts
    ):
        source = write_pool(tmp_path / "pool")
        documents = list(create_source(parse_source_arg(source)).iter_documents())
        cache_dir = tmp_path / "cache"
        ParsePipeline(
            ParserRegistry([CountingParser()]), cache=ParseCache(cache_dir)
        ).run(request_for_documents("counting", documents, cache="write"))
        assert not list(cache_dir.glob("refs-*"))
        first = run(ParseCache(cache_dir), source)
        assert (first.cache.hits, first.cache.stores) == (8, 0)
        assert [p.name for p in cache_dir.glob("refs-*")] == [INDEX]
        reads = counts["read"]
        assert run(ParseCache(cache_dir), source).cache.hits == 8
        assert counts["read"] == reads


# ---------------------------------------------------------------------- #
# (c) staleness
# ---------------------------------------------------------------------- #
class TestStaleness:
    def _html_pool(self, tmp_path: Path, young: bool = False) -> tuple[Path, str]:
        pool = tmp_path / "html"
        pool.mkdir()
        for name in ("a", "b", "c"):
            (pool / f"{name}.html").write_text(
                f"<html><body><h1>Title {name}</h1><p>Body of {name}.</p></body></html>"
            )
        if not young:
            age(pool)
        return pool, f"html-dir:{pool}"

    def _texts(self, report) -> dict[str, str]:
        return {r.doc_id: r.text for r in report.results}

    def test_grown_file_is_read_again_and_parsed_as_it_is_now(self, tmp_path):
        pool, source = self._html_pool(tmp_path)
        cache = ParseCache(tmp_path / "cache")
        run(cache, source)
        (pool / "b.html").write_text(
            "<html><body><h1>Title b</h1><p>A longer body of b.</p></body></html>"
        )
        age(pool, seconds=30)
        after = run(cache, source)
        assert (after.cache.hits, after.cache.misses) == (2, 1)
        assert "A longer body of b." in self._texts(after)["b"]

    def test_touched_file_is_an_index_miss_and_a_cache_hit(self, tmp_path, counts):
        pool, source = self._html_pool(tmp_path)
        cache = ParseCache(tmp_path / "cache")
        run(cache, source)
        stat = (pool / "c.html").stat()
        os.utime(pool / "c.html", ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        hashed = counts["hash"]
        after = run(cache, source)
        assert counts["hash"] == hashed + 1  # same bytes, new stamp: re-hashed
        assert (after.cache.hits, after.cache.misses) == (3, 0)

    def test_same_size_rewrite_of_a_young_file_is_never_served_from_the_index(
        self, tmp_path, counts
    ):
        """Git's racily-clean case: the rewrite lands in the timestamp tick of
        the first write, so size and mtime — the whole stamp — stay put."""
        pool, source = self._html_pool(tmp_path, young=True)
        cache = ParseCache(tmp_path / "cache")
        before = run(cache, source)
        assert len(cache.refs) == 0 and not list((tmp_path / "cache").glob("refs-*"))
        path = pool / "a.html"
        stat, old = path.stat(), path.read_text()
        path.write_text(old.replace("Body of a.", "Tome of a."))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        (ref, *_) = create_source(parse_source_arg(source)).refs()
        assert (ref.locator, ref.stamp) == ("a.html", f"{stat.st_size}:{stat.st_mtime_ns}")
        after = run(cache, source)
        assert counts["hash"] == 6  # nothing was remembered: all three read again
        assert (after.cache.hits, after.cache.misses) == (2, 1)
        assert "Tome of a." in self._texts(after)["a"]
        assert "Body of a." in self._texts(before)["a"]
        # Once the files have been left alone for the margin, they are remembered.
        age(pool, seconds=refindex_module.RACY_MARGIN_NS / 1e9 + 1)
        run(cache, source)
        assert len(cache.refs) == 3

    def test_file_deleted_after_the_listing_is_a_stale_reference(self, tmp_path):
        source = write_pool(tmp_path / "pool")
        victim = sorted((tmp_path / "pool").glob("*.simpdf"))[3]

        class Vanishing(SimPdfDirSource):
            def refs(self):
                refs = list(super().refs())
                victim.unlink(missing_ok=True)
                return iter(refs)

        cache = ParseCache()
        with pytest.raises(StaleReference, match=victim.name):
            run(cache, Vanishing(tmp_path / "pool"))
        assert cache.flights.in_flight() == 0

    def test_known_reference_whose_entry_and_file_are_gone_is_stale_too(self, tmp_path):
        source = write_pool(tmp_path / "pool")
        cache = ParseCache(tmp_path / "cache")
        cold = run(cache, source)
        # One parser's entries go; the index is parser-independent and stays.
        assert cache.purge(config_fingerprint=CountingParser().config_fingerprint()) == 8
        assert len(cache.refs) == 8
        again = run(cache, source)
        assert (again.cache.hits, again.cache.misses) == (0, 8)
        assert comparable(again) == comparable(cold)
        cache.purge(config_fingerprint=CountingParser().config_fingerprint())
        victim = sorted((tmp_path / "pool").glob("*.simpdf"))[0]

        class Vanishing(SimPdfDirSource):
            def refs(self):
                refs = list(super().refs())
                victim.unlink(missing_ok=True)
                return iter(refs)

        with pytest.raises(StaleReference, match=victim.name):
            run(cache, Vanishing(tmp_path / "pool"))
        assert cache.flights.in_flight() == 0

    def test_file_that_holds_another_type_than_its_source_declares(self, tmp_path):
        """The listing believes the declared type; the read is the first to see
        the real one, and refuses it for the parser like the stream guard does."""
        from repro.documents.sources import HtmlDirSource

        writer = SimPdfWriter(tmp_path / "pool")
        for document in HtmlDirSource(FIXTURES / "html", glob="*.html").iter_documents():
            writer.write(document)

        class PdfOnly(CountingParser):
            supported_doc_types = frozenset({"pdf"})

        with pytest.raises(ValueError, match="does not support document type 'html'"):
            run(ParseCache(), f"simpdf-dir:{tmp_path / 'pool'}", parser=PdfOnly())

    def test_torn_index_tail_costs_the_torn_line_only(self, tmp_path, counts):
        source = write_pool(tmp_path / "pool")
        run(ParseCache(tmp_path / "cache"), source)
        index = tmp_path / "cache" / INDEX
        whole = index.read_bytes()
        assert whole.count(b"\n") == 8
        index.write_bytes(whole[:-20])  # a kill mid-append
        hashed = counts["hash"]
        cache = ParseCache(tmp_path / "cache")
        assert run(cache, source).cache.hits == 8
        assert counts["hash"] == hashed + 1
        # The re-learned line went onto a fresh line: a third process reads all 8.
        assert len(ParseCache(tmp_path / "cache").refs) == 8
        assert cache.describe()["ref_index_entries"] == 8

    def test_deleted_index_costs_one_rehash(self, tmp_path, counts):
        source = write_pool(tmp_path / "pool")
        run(ParseCache(tmp_path / "cache"), source)
        (tmp_path / "cache" / INDEX).unlink()
        assert run(ParseCache(tmp_path / "cache"), source).cache.hits == 8
        assert counts["hash"] == 16
        assert run(ParseCache(tmp_path / "cache"), source).cache.hits == 8
        assert counts["hash"] == 16

    def test_index_of_another_hash_scheme_is_orphaned_not_trusted(
        self, tmp_path, counts, monkeypatch
    ):
        source = write_pool(tmp_path / "pool")
        run(ParseCache(tmp_path / "cache"), source)
        orphan = tmp_path / "cache" / INDEX
        monkeypatch.setattr(refindex_module, "CONTENT_HASH_SCHEME", CONTENT_HASH_SCHEME + 1)
        cache = ParseCache(tmp_path / "cache")
        assert len(cache.refs) == 0
        assert run(cache, source).cache.hits == 8
        assert counts["hash"] == 16
        names = {p.name for p in (tmp_path / "cache").glob("refs-*")}
        assert names == {INDEX, f"refs-v{CONTENT_HASH_SCHEME + 1}.jsonl"}
        # The orphan is reported as what a purge would reclaim ...
        described = cache.describe()
        assert described["ref_index_stale_bytes"] == orphan.stat().st_size > 0
        assert described["ref_index_bytes"] == cache.refs.path.stat().st_size
        # ... and dropping everything drops it too.
        cache.purge()
        assert not list((tmp_path / "cache").glob("refs-*"))
        assert cache.describe()["ref_index_stale_bytes"] == 0


# ---------------------------------------------------------------------- #
# (d) memory
# ---------------------------------------------------------------------- #
class TestMemory:
    @pytest.mark.parametrize("attempt", ["cold", "entries-gone"])
    def test_cached_directory_run_holds_one_batch_of_documents(
        self, tmp_path, monkeypatch, attempt
    ):
        batch_size = 4
        source = write_pool(tmp_path / "pool", n_documents=10 * batch_size)
        cache = ParseCache(tmp_path / "cache")
        if attempt == "entries-gone":
            run(cache, source, batch_size=batch_size)
            cache.purge(config_fingerprint=CountingParser().config_fingerprint())
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
        report = run(cache, source, batch_size=batch_size)
        assert report.cache.misses == 10 * batch_size
        assert 0 < high_water <= batch_size


# ---------------------------------------------------------------------- #
# The index itself, and the maintenance surface
# ---------------------------------------------------------------------- #
def _ref(locator: str, stamp: str = "10:1000") -> DocumentRef:
    return DocumentRef(SourceSpec("simpdf-dir", {"path": "/pool"}), locator, stamp, "pdf")


class TestReferenceIndex:
    def test_memory_only_index_stages_nothing(self):
        index = ReferenceIndex()
        index.remember([(_ref("a"), "h-a")])
        assert index.lookup([_ref("a"), _ref("b")]) == ["h-a", None]
        assert (index.flush(), index.bytes_on_disk(), len(index)) == (0, 0, 1)

    def test_flush_appends_one_block_and_the_last_line_of_a_key_wins(self, tmp_path):
        index = ReferenceIndex(tmp_path)
        index.remember([(_ref("a"), "h-a"), (_ref("b"), "h-b")])
        index.remember([(_ref("a"), "h-a")])  # nothing new: nothing staged
        assert not index.path.exists()
        written = index.flush()
        assert written == index.path.stat().st_size == index.bytes_on_disk()
        assert index.flush() == 0
        other = ReferenceIndex(tmp_path)  # a second process with another opinion
        other.remember([(_ref("a"), "h-a2")])
        other.flush()
        assert index.path.read_bytes().count(b"\n") == 3
        assert ReferenceIndex(tmp_path).lookup([_ref("a"), _ref("b")]) == ["h-a2", "h-b"]

    def test_young_file_stamps_are_dropped_and_other_stamps_kept(self, tmp_path):
        now = time.time_ns()
        index = ReferenceIndex(tmp_path)
        index.remember(
            [
                (_ref("young", f"10:{now - 1_000_000_000}"), "h"),
                (_ref("future", f"10:{now + 5_000_000_000}"), "h"),
                (_ref("settled", f"10:{now - 3_000_000_000}"), "h"),
                (_ref("not-a-file", "6f1e"), "h"),
            ]
        )
        assert index.lookup(
            [_ref("young", f"10:{now - 1_000_000_000}"), _ref("future", f"10:{now + 5_000_000_000}")]
        ) == [None, None]
        assert len(index) == 2

    def test_lines_that_are_not_index_entries_are_skipped(self, tmp_path):
        index = ReferenceIndex(tmp_path)
        index.remember([(_ref("a"), "h-a")])
        index.flush()
        with index.path.open("ab") as handle:
            handle.write(b'[1,2]\n{"ref":7,"hash":"x"}\n{"ref":"only"}\n{"ref":"k","ha')
        reopened = ReferenceIndex(tmp_path)
        assert len(reopened) == 1 and reopened.lookup([_ref("a")]) == ["h-a"]

    def test_concurrent_learners_lose_no_entry(self, tmp_path):
        index = ReferenceIndex(tmp_path)
        n_threads, per_thread = 8, 150
        errors: list[BaseException] = []

        def learn(worker: int) -> None:
            try:
                for i in range(per_thread):
                    ref = _ref(f"{worker}-{i}")
                    index.remember([(ref, f"h-{worker}-{i}")])
                    assert index.lookup([ref]) == [f"h-{worker}-{i}"]
                    if i % 25 == 0:
                        index.flush()
            except BaseException as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=learn, args=(w,)) for w in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not errors and not any(thread.is_alive() for thread in threads)
        index.flush()
        reopened = ReferenceIndex(tmp_path)
        assert len(reopened) == n_threads * per_thread
        assert reopened.lookup([_ref("3-149")]) == ["h-3-149"]
        assert index.path.read_bytes().count(b"\n") == n_threads * per_thread


class TestMaintenance:
    def test_describe_counts_the_index_and_purges_treat_it_as_parser_independent(
        self, tmp_path
    ):
        source = write_pool(tmp_path / "pool")
        cache = ParseCache(tmp_path / "cache")
        assert (cache.describe()["ref_index_entries"], cache.describe()["ref_index_bytes"]) == (0, 0)
        run(cache, source)
        described = ParseCache(tmp_path / "cache").describe()
        index = tmp_path / "cache" / INDEX
        assert described["ref_index_entries"] == described["entries"] == 8
        assert described["ref_index_bytes"] == index.stat().st_size > 0
        assert described["ref_index_stale_bytes"] == 0
        # The index file is not a shard.
        assert described["shards"] == len(list((tmp_path / "cache").glob("shard-*.jsonl")))

        assert cache.purge(config_fingerprint="no-such-parser") == 0
        assert cache.purge(config_fingerprint=CountingParser().config_fingerprint()) == 8
        assert index.exists() and cache.describe()["ref_index_entries"] == 8

        assert cache.purge() == 0  # no entries left, and now no index either
        assert not index.exists()
        emptied = cache.describe()
        assert (emptied["ref_index_entries"], emptied["ref_index_bytes"]) == (0, 0)
        assert ParseCache(tmp_path / "cache").describe()["ref_index_entries"] == 0

    def test_memory_only_cache_reports_its_dict(self):
        cache = ParseCache()
        run(cache, "synthetic:4?seed=2&min_pages=1&max_pages=1")
        described = cache.describe()
        assert (described["ref_index_entries"], described["ref_index_bytes"]) == (4, 0)
        assert described["ref_index_stale_bytes"] == 0
        cache.purge()
        assert cache.describe()["ref_index_entries"] == 0


def test_index_answers_with_the_hash_the_document_has(tmp_path):
    """The remembered value is exactly ``document_content_hash`` of the file."""
    source = write_pool(tmp_path / "pool", n_documents=3)
    cache = ParseCache()
    run(cache, source)
    resolved = create_source(parse_source_arg(source))
    refs = list(resolved.refs())
    assert cache.refs.lookup(refs) == [
        document_content_hash(document) for document in resolved.iter_documents()
    ]
