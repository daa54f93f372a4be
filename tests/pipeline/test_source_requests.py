"""Tests of the source-centred ParseRequest API.

Covers the redesign's acceptance criteria: a request built from a source
*instance* and one built from the equivalent declarative *spec* produce
byte-identical reports; request JSON is strict about unknown keys; the
removed pre-source inputs fail with the replacement spelled out; source fingerprints
and cache keys interact correctly (content-addressed sharing, edit → miss);
and a request reads its source where it is parsed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.cache import ParseCache
from repro.core.config import AdaParseConfig
from repro.core.engine import AdaParseEngine
from repro.documents.corpus import CorpusConfig
from repro.documents.simpdf import SimPdfWriter
from repro.documents.sources import (
    DocumentRef,
    ExplicitSource,
    SimPdfDirSource,
    SourceSpec,
    SyntheticSource,
    create_source,
)
from repro.parsers.registry import default_registry
from repro.pipeline import ParsePipeline, ParseRequest
from repro.pipeline.backends import SerialBackend

#: Two small documents; every directory source here holds copies of them.
DOCUMENTS = list(
    SyntheticSource(
        CorpusConfig(n_documents=2, seed=8, min_pages=1, max_pages=2)
    ).iter_documents()
)


def _write_dir(directory: Path) -> Path:
    writer = SimPdfWriter(directory)
    for document in DOCUMENTS:
        writer.write(document)
    return directory


@pytest.fixture(scope="module")
def pool(tmp_path_factory) -> Path:
    return _write_dir(tmp_path_factory.mktemp("pool"))

#: Timing-dependent payload fields (zeroed before byte comparison).
_TIMING_KEYS = {
    "wall_time_seconds",
    "throughput_docs_per_second",
    "time_saved_seconds",
    "bytes_read",
    "bytes_written",
}
#: ``phases`` is wall-clock attribution — timing telemetry, not parse output.
_EXECUTION_KEYS = {"execution", "backend", "backend_options", "phases"}


def _normalized_bytes(payload: dict) -> bytes:
    """Report JSON with timings zeroed and execution descriptors dropped."""

    def scrub(node):
        if isinstance(node, dict):
            return {
                key: (0 if key in _TIMING_KEYS else scrub(value))
                for key, value in node.items()
                if key not in _EXECUTION_KEYS
            }
        if isinstance(node, list):
            return [scrub(item) for item in node]
        return node

    return json.dumps(scrub(payload), sort_keys=True).encode("utf-8")


class ScriptedEngine(AdaParseEngine):
    """Engine double with deterministic improvement scores (no training)."""

    name = "scripted"

    def improvement_scores(self, documents, extracted_texts) -> np.ndarray:
        # All above the improvement margin: every document wants routing.
        return np.linspace(0.5, 1.0, len(documents))


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def _run(registry, request: ParseRequest, cache: ParseCache | None = None):
    engine = ScriptedEngine(registry, AdaParseConfig(alpha=1.0, batch_size=50))
    pipeline = ParsePipeline(registry, engines={engine.name: engine}, cache=cache)
    return pipeline.run(request)


# ---------------------------------------------------------------------- #
# Spec ↔ instance parity
# ---------------------------------------------------------------------- #
class TestSourceParity:
    def test_instance_spec_mapping_and_shorthand_agree(self, registry, pool):
        path = str(pool)
        requests = [
            ParseRequest(parser="pymupdf", source=SimPdfDirSource(path)),
            ParseRequest(parser="pymupdf", source=SourceSpec("simpdf-dir", {"path": path})),
            ParseRequest(
                parser="pymupdf",
                source={"kind": "simpdf-dir", "options": {"path": path}},
            ),
            ParseRequest(parser="pymupdf", source=f"simpdf-dir:{path}"),
        ]
        assert all(r == requests[0] for r in requests)
        reports = [
            _normalized_bytes(_run(registry, r).to_json_dict(include_text=True))
            for r in requests
        ]
        assert all(blob == reports[0] for blob in reports)

    def test_parity_holds_on_the_thread_backend(self, registry, pool):
        serial = _run(registry, ParseRequest(parser="pymupdf", source=SimPdfDirSource(pool)))
        threaded = _run(
            registry,
            ParseRequest(
                parser="pymupdf",
                source=f"simpdf-dir:{pool}",
                backend="thread",
                backend_options={"n_jobs": 2},
            ),
        )
        assert _normalized_bytes(threaded.to_json_dict(include_text=True)) == (
            _normalized_bytes(serial.to_json_dict(include_text=True))
        )

    def test_json_round_trip_replays_identically(self, registry, pool):
        request = ParseRequest(
            parser="scripted",
            source=SimPdfDirSource(pool),
            batch_size=10,
        )
        wire = json.dumps(request.to_json_dict(), sort_keys=True)
        rebuilt = ParseRequest.from_json_dict(json.loads(wire))
        assert rebuilt == request
        assert _normalized_bytes(_run(registry, rebuilt).to_json_dict(include_text=True)) == (
            _normalized_bytes(_run(registry, request).to_json_dict(include_text=True))
        )

    def test_synthetic_shorthand_replaces_the_removed_count(self):
        modern = ParseRequest(source="synthetic:7?seed=3")
        with pytest.raises(TypeError, match="unexpected keyword argument 'n_documents'"):
            ParseRequest(n_documents=7, seed=3)
        assert modern.source == SyntheticSource(CorpusConfig(n_documents=7, seed=3))
        payload = modern.to_json_dict()
        assert (payload["n_documents"], payload["seed"]) == (7, 3)

    def test_serialising_a_directory_request_does_not_walk_it(self, pool, monkeypatch):
        """Request JSON rides every submit and every report: its
        ``n_documents`` is what is known without I/O, ``null`` for a
        directory, and writing it lists nothing."""
        from repro.documents import sources

        walks: list[str] = []
        scandir = sources._scandir
        monkeypatch.setattr(
            sources, "_scandir", lambda path: walks.append(path) or scandir(path)
        )
        request = ParseRequest(source=f"simpdf-dir:{pool}")
        payload = request.to_json_dict()
        assert walks == []
        assert payload["n_documents"] is None
        assert ParseRequest.from_json_dict(payload) == request


# ---------------------------------------------------------------------- #
# Strict JSON and legacy constructors
# ---------------------------------------------------------------------- #
class TestStrictJson:
    def test_unknown_key_fails_with_did_you_mean(self):
        with pytest.raises(ValueError, match=r"'sorce' \(did you mean 'source'\?\)"):
            ParseRequest.from_json_dict({"parser": "pymupdf", "sorce": "synthetic:5"})

    def test_unknown_key_without_a_close_match_still_lists_known(self):
        with pytest.raises(ValueError, match="known:"):
            ParseRequest.from_json_dict({"zzz_field": 1})

    def test_removed_n_jobs_payload_is_rejected(self):
        # A removed key is an unknown key like any other.
        for payload in ({"parser": "pymupdf", "n_jobs": 4}, {"corpus": {"n_documents": 4}}):
            with pytest.raises(ValueError, match=r"unknown ParseRequest field\(s\) '(n_jobs|corpus)'"):
                ParseRequest.from_json_dict(payload)

    def test_misspelled_source_option_fails_at_submit_time(self):
        payload = {
            "parser": "pymupdf",
            "source": {"kind": "simpdf-dir", "options": {"glbo": "*.simpdf"}},
        }
        with pytest.raises(ValueError, match="did you mean 'glob'"):
            ParseRequest.from_json_dict(payload)

    @pytest.mark.parametrize("kind", ["html-dir", "markdown-dir", "crawl-dump"])
    @pytest.mark.parametrize("form", ["shorthand", "stored"])
    def test_removed_web_text_kinds_are_refused(self, kind, form):
        """Every document is a PDF: a stored request or a ``--source`` naming
        a removed kind meets the one unknown-kind error, naming what is left."""
        source = f"{kind}:x" if form == "shorthand" else {"kind": kind, "options": {"path": "x"}}
        with pytest.raises(ValueError, match=r"known: \['simpdf-dir', 'synthetic'\]"):
            ParseRequest.from_json_dict({"parser": "pymupdf", "source": source})

    @pytest.mark.parametrize(
        ("source", "match"),
        [
            ({"kind": "simpdf-dir", "options": {}}, "needs a 'path'"),
            ({"kind": "simpdf-dir", "options": {"path": "x", "glob": 1}}, "must be a string"),
            ({"kind": "synthetic", "options": {"n_documents": 2.5}}, "must be an integer"),
            ({"kind": "synthetic", "options": {"seed": 1.5}}, "must be an integer"),
        ],
    )
    def test_malformed_source_options_fail_at_submit_time(self, source, match):
        with pytest.raises(ValueError, match=match):
            ParseRequest.from_json_dict({"parser": "pymupdf", "source": source})


class TestRemovedInputs:
    def test_default_request_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            request = ParseRequest()
        assert isinstance(request.source, SyntheticSource)
        assert request.to_json_dict()["n_documents"] == 100

    def test_each_removed_input_raises_with_the_replacement(self, small_corpus):
        with pytest.raises(TypeError, match="unexpected keyword argument 'documents'"):
            ParseRequest(documents=tuple(small_corpus))
        with pytest.raises(TypeError, match="unexpected keyword argument 'corpus'"):
            ParseRequest(corpus=CorpusConfig(n_documents=4, seed=1))
        with pytest.raises(TypeError, match="unexpected keyword argument 'seed'"):
            ParseRequest(source="synthetic:4", seed=1)

    def test_a_removed_input_beside_a_source_is_rejected_too(self, small_corpus):
        with pytest.raises(TypeError, match="unexpected keyword argument 'documents'"):
            ParseRequest(source="synthetic:5", documents=tuple(small_corpus))

    def test_replace_keeps_working(self, small_corpus):
        import dataclasses

        for request in (
            ParseRequest(source="synthetic:5?seed=2"),
            ParseRequest(source=ExplicitSource(small_corpus)),
        ):
            assert dataclasses.replace(request, batch_size=2).source == request.source

    def test_json_that_picks_documents_without_a_source_is_rejected(self):
        for payload in (
            {"parser": "pymupdf", "n_documents": 4},
            {"parser": "pymupdf", "seed": 4},
        ):
            with pytest.raises(ValueError, match=r"source='synthetic:N\?seed=S'"):
                ParseRequest.from_json_dict(payload)
        # Beside a source the counts are provenance: stored request files
        # (to_json_dict output) keep loading.
        stored = ParseRequest(source="synthetic:4?seed=9").to_json_dict()
        assert (stored["n_documents"], stored["seed"]) == (4, 9)
        assert ParseRequest.from_json_dict(stored).source == SyntheticSource(
            CorpusConfig(n_documents=4, seed=9)
        )


# ---------------------------------------------------------------------- #
# Source fingerprints × cache keys (satellite: content-addressed sharing)
# ---------------------------------------------------------------------- #
class TestFingerprintCacheInteraction:
    def test_byte_identical_sources_share_cache_entries(self, registry, pool, tmp_path):
        shutil.copytree(pool, tmp_path / "a")
        shutil.copytree(pool, tmp_path / "b")
        # Freshen one copy's mtime: the *sources* now fingerprint apart even
        # though every document is byte-identical, so cache keys coincide.
        os.utime(next((tmp_path / "b").iterdir()))
        source_a = SimPdfDirSource(tmp_path / "a")
        source_b = SimPdfDirSource(tmp_path / "b")
        assert source_a.fingerprint() != source_b.fingerprint()

        cache = ParseCache()
        cold = _run(
            registry,
            ParseRequest(parser="pymupdf", source=source_a, cache="readwrite"),
            cache=cache,
        )
        assert (cold.cache.hits, cold.cache.misses) == (0, 2)
        warm = _run(
            registry,
            ParseRequest(parser="pymupdf", source=source_b, cache="readwrite"),
            cache=cache,
        )
        assert (warm.cache.hits, warm.cache.misses) == (2, 0)
        # The parse output itself is identical; only the cache/request
        # bookkeeping (hit counts, source path) differs between the runs.
        for section in ("results", "decisions"):
            cold_payload = cold.to_json_dict(include_text=True)[section]
            warm_payload = warm.to_json_dict(include_text=True)[section]
            assert _normalized_bytes({section: warm_payload}) == (
                _normalized_bytes({section: cold_payload})
            )

    def test_file_edit_changes_fingerprint_and_misses_the_cache(
        self, registry, tmp_path
    ):
        source = SimPdfDirSource(_write_dir(tmp_path / "pool"))
        cache = ParseCache()
        request = ParseRequest(parser="pymupdf", source=source, cache="readwrite")
        _run(registry, request, cache=cache)

        fingerprint_before = source.fingerprint()
        layer = DOCUMENTS[0].text_layer
        edited = DOCUMENTS[0].with_text_layer(
            dataclasses.replace(layer, page_texts=[t + " edited" for t in layer.page_texts])
        )
        SimPdfWriter(tmp_path / "pool").write(edited)
        assert source.fingerprint() != fingerprint_before

        rerun = _run(
            registry,
            ParseRequest(parser="pymupdf", source=source, cache="readwrite"),
            cache=cache,
        )
        # The edited page re-parses; the untouched one still hits.
        assert (rerun.cache.hits, rerun.cache.misses) == (1, 1)


# ---------------------------------------------------------------------- #
# References instead of documents: a source is read where it is parsed
# ---------------------------------------------------------------------- #
class ReadsItsOwnSources(SerialBackend):
    """The contract's other side without a cluster: a backend with a site of
    its own, which loads what it is handed and records what that was."""

    def __init__(self) -> None:
        super().__init__()
        self.batches: list[list] = []

    def site(self, parser):
        def stub(batch):
            self.batches.append(list(batch))
            return parser.parse_batch(
                [
                    create_source(item.source).load(item)
                    if isinstance(item, DocumentRef)
                    else item
                    for item in batch
                ]
            )

        return stub


class TestReferenceExecution:
    def _execute(self, registry, backend, **request):
        request.setdefault("parser", "pymupdf")
        return ParsePipeline(registry, cache=ParseCache()).execute(
            ParseRequest(batch_size=2, **request), backend=backend
        )

    @pytest.mark.parametrize(
        "source",
        [
            "synthetic:5?seed=3&min_pages=1&max_pages=1",
            "simpdf-dir:{pool}",
        ],
    )
    def test_a_backend_is_handed_references(self, registry, pool, source):
        source = source.format(pool=pool)
        backend = ReadsItsOwnSources()
        report = self._execute(registry, backend, source=source)
        expected = list(ParseRequest(source=source).resolve_source().refs())
        assert [ref for batch in backend.batches for ref in batch] == expected
        assert report.n_documents == len(expected)
        serial = ParsePipeline(registry).run(ParseRequest(source=source, batch_size=2))
        assert _normalized_bytes(report.to_json_dict(include_text=True)) == (
            _normalized_bytes(serial.to_json_dict(include_text=True))
        )

    @pytest.mark.parametrize(
        "why,request_fields",
        [
            ("the cache wrapper reads its misses in the parent", {"cache": "read"}),
            ("a write-only policy parses, so reads, everything", {"cache": "write"}),
            (
                "an in-memory collection has no spec to rebuild",
                {"source": ExplicitSource(DOCUMENTS)},
            ),
        ],
    )
    def test_documents_are_materialised_when_the_parent_needs_them(
        self, registry, pool, why, request_fields
    ):
        backend = ReadsItsOwnSources()
        request_fields.setdefault("source", f"simpdf-dir:{pool}")
        self._execute(registry, backend, **request_fields)
        handed = [item for batch in backend.batches for item in batch]
        assert handed and not any(isinstance(item, DocumentRef) for item in handed), why

    def test_a_backend_overriding_site_receives_the_references(self, registry):
        """No backend is special: whoever overrides ``site`` gets the items
        the pipeline cut — references — and ``parse_items`` is all it needs
        to honour them."""
        from repro.pipeline.backends.base import parse_items

        seen = []

        class Watching(SerialBackend):
            def site(self, parser):
                return lambda batch: (seen.extend(batch), parse_items(parser, batch))[1]

        source = "synthetic:3?seed=3"
        report = self._execute(registry, Watching(), source=source)
        assert seen == list(ParseRequest(source=source).resolve_source().refs())
        assert report.n_succeeded == 3

    def test_concurrent_requests_read_their_sources_side_by_side(self, registry):
        """Only parser resolution is serialised.  Each source here waits for
        the other to be mid-read too, which the old lock — held across
        document resolution — made impossible."""
        both_reading = threading.Barrier(2, timeout=10)
        documents = DOCUMENTS

        class MeetsItsPeer(ExplicitSource):
            def iter_documents(self):
                both_reading.wait()
                return super().iter_documents()

        pipeline = ParsePipeline(registry)
        reports = []

        def run():
            reports.append(
                pipeline.run(ParseRequest(parser="pymupdf", source=MeetsItsPeer(documents)))
            )

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert [report.n_succeeded for report in reports] == [2, 2]
