"""Tests of the source-centred ParseRequest API.

Covers the redesign's acceptance criteria: a request built from a source
*instance* and one built from the equivalent declarative *spec* produce
byte-identical reports; request JSON is strict about unknown keys; the
removed pre-source inputs fail with the replacement spelled out; source fingerprints
and cache keys interact correctly (content-addressed sharing, edit → miss);
and HTML documents never route to PDF-only recognition parsers.
"""

from __future__ import annotations

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
from repro.documents.sources import (
    DocumentRef,
    ExplicitSource,
    HtmlDirSource,
    MarkdownDirSource,
    SourceSpec,
    SyntheticSource,
    create_source,
)
from repro.parsers.registry import default_registry
from repro.pipeline import ParsePipeline, ParseRequest
from repro.pipeline.backends import SerialBackend

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "ingest"

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
    def test_instance_spec_mapping_and_shorthand_agree(self, registry):
        path = str(FIXTURES / "html")
        requests = [
            ParseRequest(parser="pymupdf", source=HtmlDirSource(path)),
            ParseRequest(parser="pymupdf", source=SourceSpec("html-dir", {"path": path})),
            ParseRequest(
                parser="pymupdf",
                source={"kind": "html-dir", "options": {"path": path}},
            ),
            ParseRequest(parser="pymupdf", source=f"html-dir:{path}"),
        ]
        assert all(r == requests[0] for r in requests)
        reports = [
            _normalized_bytes(_run(registry, r).to_json_dict(include_text=True))
            for r in requests
        ]
        assert all(blob == reports[0] for blob in reports)

    def test_parity_holds_on_the_thread_backend(self, registry):
        path = str(FIXTURES / "html")
        serial = _run(registry, ParseRequest(parser="pymupdf", source=HtmlDirSource(path)))
        threaded = _run(
            registry,
            ParseRequest(
                parser="pymupdf",
                source=f"html-dir:{path}",
                backend="thread",
                backend_options={"n_jobs": 2},
            ),
        )
        assert _normalized_bytes(threaded.to_json_dict(include_text=True)) == (
            _normalized_bytes(serial.to_json_dict(include_text=True))
        )

    def test_json_round_trip_replays_identically(self, registry):
        request = ParseRequest(
            parser="scripted",
            source=MarkdownDirSource(FIXTURES / "markdown"),
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
            "source": {"kind": "html-dir", "options": {"glbo": "*.html"}},
        }
        with pytest.raises(ValueError, match="did you mean 'glob'"):
            ParseRequest.from_json_dict(payload)


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
    def test_byte_identical_sources_share_cache_entries(self, registry, tmp_path):
        shutil.copytree(FIXTURES / "html", tmp_path / "a")
        shutil.copytree(FIXTURES / "html", tmp_path / "b")
        # Freshen one copy's mtime: the *sources* now fingerprint apart even
        # though every document is byte-identical, so cache keys coincide.
        os.utime(tmp_path / "b" / "alpha.html")
        source_a = HtmlDirSource(tmp_path / "a")
        source_b = HtmlDirSource(tmp_path / "b")
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
        shutil.copytree(FIXTURES / "html", tmp_path / "html")
        source = HtmlDirSource(tmp_path / "html")
        cache = ParseCache()
        request = ParseRequest(parser="pymupdf", source=source, cache="readwrite")
        _run(registry, request, cache=cache)

        fingerprint_before = source.fingerprint()
        page = tmp_path / "html" / "alpha.html"
        page.write_text(page.read_text().replace("</body>", "<p>edited</p></body>"))
        assert source.fingerprint() != fingerprint_before

        rerun = _run(
            registry,
            ParseRequest(parser="pymupdf", source=source, cache="readwrite"),
            cache=cache,
        )
        # The edited page re-parses; the untouched one still hits.
        assert (rerun.cache.hits, rerun.cache.misses) == (1, 1)


# ---------------------------------------------------------------------- #
# Format-aware routing
# ---------------------------------------------------------------------- #
class TestFormatAwareRouting:
    def test_html_never_routes_to_pdf_only_parsers(self, registry):
        report = _run(
            registry,
            ParseRequest(parser="scripted", source=HtmlDirSource(FIXTURES / "html")),
        )
        pdf_only = {
            parser.name
            for parser in registry
            if not parser.supports_doc_type("html")
        }
        assert "nougat" in pdf_only
        assert report.decisions and all(
            decision.chosen_parser not in pdf_only for decision in report.decisions
        )
        # Every document *wanted* routing (scripted scores beat the margin)
        # but the advanced parser is PDF-only, so the decision records why.
        assert all(d.stage == "type_ineligible" for d in report.decisions)
        assert all(d.doc_type == "html" for d in report.decisions)

    def test_per_type_telemetry_in_the_summary(self, registry):
        report = _run(
            registry,
            ParseRequest(parser="scripted", source=HtmlDirSource(FIXTURES / "html")),
        )
        by_type = report.summary()["routing_by_doc_type"]
        assert set(by_type) == {"html"}
        assert by_type["html"]["type_ineligible"] == 2

    def test_base_parser_eligibility_guard(self, registry):
        documents = list(HtmlDirSource(FIXTURES / "html").iter_documents())
        nougat = registry.get("nougat")
        with pytest.raises(ValueError, match="does not support document type 'html'"):
            list(ParsePipeline.check_doc_type_eligibility(nougat, documents))
        pymupdf = registry.get("pymupdf")
        assert list(ParsePipeline.check_doc_type_eligibility(pymupdf, documents)) == documents

    def test_pdf_only_parser_over_html_source_fails_the_run(self, registry):
        request = ParseRequest(
            parser="nougat", source=HtmlDirSource(FIXTURES / "html")
        )
        with pytest.raises(ValueError, match="does not support document type"):
            _run(registry, request)

    def test_markdown_source_parses_end_to_end(self, registry):
        report = _run(
            registry,
            ParseRequest(
                parser="pymupdf", source=MarkdownDirSource(FIXTURES / "markdown")
            ),
        )
        assert report.n_documents == 2
        assert all(result.succeeded for result in report.results)
        assert sorted(result.doc_id for result in report.results) == [
            "appendix",
            "notes",
        ]


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
            f"markdown-dir:{FIXTURES / 'markdown'}",
        ],
    )
    def test_a_backend_is_handed_references(self, registry, source):
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
            ("a crawl dump dedups by content", {"source": f"crawl-dump:{FIXTURES / 'crawl'}"}),
            (
                "an in-memory collection has no spec to rebuild",
                {"source": ExplicitSource(HtmlDirSource(FIXTURES / "html").iter_documents())},
            ),
        ],
    )
    def test_documents_are_materialised_when_the_parent_needs_them(
        self, registry, why, request_fields
    ):
        backend = ReadsItsOwnSources()
        request_fields.setdefault("source", f"html-dir:{FIXTURES / 'html'}")
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

    def test_type_guard_reads_the_declared_type_of_a_reference(self, registry):
        backend = ReadsItsOwnSources()
        with pytest.raises(
            ValueError,
            match=r"does not support document type 'html' \(document 'alpha.html'\)",
        ):
            self._execute(
                registry, backend, parser="nougat", source=f"html-dir:{FIXTURES / 'html'}"
            )
        assert backend.batches == []  # refused before anything was dispatched

    def test_concurrent_requests_read_their_sources_side_by_side(self, registry):
        """Only parser resolution is serialised.  Each source here waits for
        the other to be mid-read too, which the old lock — held across
        document resolution — made impossible."""
        both_reading = threading.Barrier(2, timeout=10)
        documents = list(HtmlDirSource(FIXTURES / "html").iter_documents())

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
