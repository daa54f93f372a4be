"""Tests of the unified ParseRequest/ParseReport pipeline API."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.config import AdaParseConfig
from repro.core.engine import AdaParseEngine
from repro.documents.corpus import CorpusConfig, build_corpus
from repro.documents.sources import ExplicitSource, SyntheticSource
from repro.parsers.registry import default_registry
from repro.pipeline import (
    DEFAULT_BATCH_SIZE,
    ParsePipeline,
    ParseReport,
    ParseRequest,
    request_for_documents,
)


class ScriptedEngine(AdaParseEngine):
    """Engine double with deterministic improvement scores (no training)."""

    name = "scripted"

    def improvement_scores(self, documents, extracted_texts) -> np.ndarray:
        # Strictly increasing, all above the improvement margin: under a
        # per-batch α cap the top-k of every batch must be routed.
        return np.linspace(0.1, 1.0, len(documents))


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def corpus_250():
    return build_corpus(CorpusConfig(n_documents=250, seed=11, min_pages=2, max_pages=4))


@pytest.fixture(scope="module")
def small_corpus():
    return build_corpus(CorpusConfig(n_documents=20, seed=13, min_pages=2, max_pages=4))


@pytest.fixture()
def engine(registry):
    return ScriptedEngine(registry, AdaParseConfig(alpha=0.05, batch_size=100))


class TestParseRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParseRequest(source="synthetic:0")
        with pytest.raises(TypeError, match="unexpected keyword argument 'n_jobs'"):
            ParseRequest(n_jobs=4)
        with pytest.raises(ValueError):
            ParseRequest(batch_size=0)
        with pytest.raises(ValueError):
            ParseRequest(alpha=1.5)

    def test_documents_coerced_to_tuple(self, small_corpus):
        request = ParseRequest(source=ExplicitSource(list(small_corpus)))
        assert isinstance(request.source.documents, tuple)
        # Provenance count follows the explicit collection, not the default.
        assert request.to_json_dict()["n_documents"] == len(small_corpus)

    def test_empty_documents_rejected(self):
        with pytest.raises(ValueError):
            ParseRequest(source=ExplicitSource(()))

    def test_source_spec_is_the_declarative_form_of_the_source(self, small_corpus):
        spec = ParseRequest(source="synthetic:7?seed=3").source_spec()
        assert (spec.kind, spec.options) == ("synthetic", {"n_documents": 7, "seed": 3})
        assert ParseRequest(source=ExplicitSource(list(small_corpus))).source_spec() is None

    def test_corpus_shortcut(self):
        request = ParseRequest(source="synthetic:7?seed=3")
        assert isinstance(request.source, SyntheticSource)
        config = request.source.config
        assert (config.n_documents, config.seed) == (7, 3)

    def test_json_round_trip(self):
        from repro.documents.textgen import TextGenConfig

        request = ParseRequest(
            parser="nougat",
            source=SyntheticSource(
                CorpusConfig(
                    n_documents=9,
                    seed=4,
                    min_pages=2,
                    max_pages=5,
                    textgen=TextGenConfig(
                        min_words_per_sentence=30, max_words_per_sentence=40
                    ),
                )
            ),
            batch_size=3,
            alpha=0.2,
            backend="thread",
            backend_options={"n_jobs": 2},
        )
        rebuilt = ParseRequest.from_json_dict(request.to_json_dict())
        assert rebuilt.parser == "nougat"
        assert rebuilt.batch_size == 3
        assert rebuilt.alpha == 0.2
        assert rebuilt.backend == "thread"
        assert rebuilt.backend_options == {"n_jobs": 2}
        # The full corpus spec (including nested textgen knobs) is lossless,
        # so a rehydrated request replays over identical documents.
        assert rebuilt.source.config == request.source.config
        # Headline provenance mirrors the corpus spec.
        payload = rebuilt.to_json_dict()
        assert (payload["n_documents"], payload["seed"]) == (9, 4)

    def test_explicit_documents_rebuild_but_refuse_replay(self, registry, small_corpus):
        request = request_for_documents("pymupdf", list(small_corpus))
        payload = request.to_json_dict()
        assert payload["doc_ids"] == [d.doc_id for d in small_corpus]
        rebuilt = ParseRequest.from_json_dict(payload)
        # Inspectable provenance survives...
        assert rebuilt.doc_ids == tuple(d.doc_id for d in small_corpus)
        assert rebuilt.to_json_dict()["n_documents"] == len(small_corpus)
        # ...but replaying against a freshly generated corpus is refused.
        with pytest.raises(ValueError, match="not serialised"):
            rebuilt.resolve_source()
        with pytest.raises(ValueError, match="not serialised"):
            ParsePipeline(registry).run(rebuilt)


class TestPipelineRun:
    def test_run_matches_legacy_parse_many(self, registry, small_corpus):
        parser = registry.get("pymupdf")
        legacy = parser.parse_many(list(small_corpus))
        report = ParsePipeline(registry).run(
            request_for_documents("pymupdf", list(small_corpus))
        )
        assert [r.text for r in report.results] == [r.text for r in legacy]
        assert [r.doc_id for r in report.results] == [d.doc_id for d in small_corpus]
        assert report.decisions == []
        assert report.n_succeeded == len(small_corpus)
        assert report.throughput_docs_per_second > 0
        assert report.usage.cpu_seconds == pytest.approx(
            sum(r.usage.cpu_seconds for r in legacy)
        )

    def test_engine_run_matches_legacy(self, registry, engine, small_corpus):
        documents = list(small_corpus)
        legacy = engine.parse_many(documents)
        report = ParsePipeline(registry, engines={engine.name: engine}).run(
            request_for_documents(engine.name, documents)
        )
        assert [r.text for r in report.results] == [r.text for r in legacy]
        assert len(report.decisions) == len(documents)
        assert report.fraction_routed() <= engine.config.alpha + 1e-9

    def test_thread_backend_parity(self, registry, engine, corpus_250):
        documents = list(corpus_250)
        pipeline = ParsePipeline(registry, engines={engine.name: engine})
        serial = pipeline.run(request_for_documents(engine.name, documents))
        threaded = pipeline.run(
            request_for_documents(
                engine.name, documents,
                backend="thread", backend_options={"n_jobs": 4},
            )
        )
        assert [r.text for r in serial.results] == [r.text for r in threaded.results]
        assert serial.decisions == threaded.decisions
        assert serial.execution.backend == "serial"
        assert threaded.execution.backend == "thread"

    def test_removed_n_jobs_raises_and_backend_options_replace_it(
        self, registry, engine, small_corpus
    ):
        documents = list(small_corpus)
        with pytest.raises(TypeError, match="unexpected keyword argument 'n_jobs'"):
            request_for_documents(engine.name, documents, n_jobs=4)
        # The replacement spelling reaches the thread backend.
        report = ParsePipeline(registry, engines={engine.name: engine}).run(
            request_for_documents(
                engine.name,
                documents,
                backend="thread",
                backend_options={"n_jobs": 4},
            )
        )
        assert report.execution.backend == "thread"
        assert report.execution.workers == 4

    def test_alpha_override_produces_sibling_engine(self, registry, engine, small_corpus):
        pipeline = ParsePipeline(registry, engines={engine.name: engine})
        report = pipeline.run(
            request_for_documents(engine.name, list(small_corpus), alpha=0.0)
        )
        assert report.fraction_routed() == 0.0
        # The cached engine keeps its original budget; the run's telemetry
        # travels in the report, not on the engine.
        assert engine.config.alpha == 0.05
        assert len(report.decisions) == len(small_corpus)

    def test_unknown_parser_lists_known_names(self, registry):
        with pytest.raises(KeyError, match="adaparse_ft"):
            ParsePipeline(registry).run(ParseRequest(parser="nope", source="synthetic:2"))

    def test_run_from_corpus_spec_is_deterministic(self, registry):
        request = ParseRequest(
            parser="pypdf",
            source=SyntheticSource(
                CorpusConfig(n_documents=6, seed=21, min_pages=2, max_pages=3)
            ),
        )
        first = ParsePipeline(registry).run(request)
        second = ParsePipeline(registry).run(request)
        assert [r.text for r in first.results] == [r.text for r in second.results]


class TestAlphaBudgetAtBatchBoundaries:
    def test_each_batch_independently_capped(self, registry, engine, corpus_250):
        documents = list(corpus_250)
        pipeline = ParsePipeline(registry, engines={engine.name: engine})
        batch_sizes: list[int] = []
        for results, decisions in pipeline.parse_batches(engine, documents, batch_size=100):
            assert len(results) == len(decisions)
            batch_sizes.append(len(results))
            routed = [
                d for d in decisions if d.stage in ("cls1_invalid", "routed_high_quality")
            ]
            forced = [d for d in decisions if d.stage == "cls1_invalid"]
            cap = math.floor(engine.config.alpha * len(results))
            assert len(routed) <= cap + len(forced)
            # Within one batch the α cap itself is never exceeded.
            assert len(routed) <= cap
        assert batch_sizes == [100, 100, 50]

    def test_fraction_routed_respects_alpha_overall(self, registry, engine, corpus_250):
        documents = list(corpus_250)
        report = ParsePipeline(registry, engines={engine.name: engine}).run(
            request_for_documents(engine.name, documents, batch_size=100)
        )
        assert len(report.decisions) == 250
        assert report.fraction_routed() <= engine.config.alpha + 1e-9
        assert sum(report.counts_by_stage().values()) == 250


class TestStreaming:
    def test_iter_parse_is_lazy(self, registry, corpus_250):
        pipeline = ParsePipeline(registry)
        consumed = 0

        def feed():
            nonlocal consumed
            for document in corpus_250:
                consumed += 1
                yield document

        stream = pipeline.iter_parse("pymupdf", feed(), batch_size=10)
        first = next(stream)
        assert first.doc_id == corpus_250[0].doc_id
        # Only the first batch was pulled from the source — the full corpus's
        # results were never materialised.
        assert consumed == 10
        rest = list(stream)
        assert consumed == len(corpus_250)
        assert len(rest) == len(corpus_250) - 1

    def test_base_parser_iter_parse_streams(self, registry, corpus_250):
        parser = registry.get("pymupdf")
        consumed = 0

        def feed():
            nonlocal consumed
            for document in corpus_250:
                consumed += 1
                yield document

        stream = parser.iter_parse(feed())
        first = next(stream)
        assert first.doc_id == corpus_250[0].doc_id
        # One batch parsed per pull, as for engines; nothing beyond it buffered.
        assert consumed == parser.batch_size == DEFAULT_BATCH_SIZE
        assert len(list(stream)) == len(corpus_250) - 1

    def test_engine_iter_parse_streams_batches(self, registry, engine, corpus_250):
        stream = engine.iter_parse(iter(corpus_250))
        first = next(stream)
        assert first.doc_id == corpus_250[0].doc_id
        assert first.parser_name == engine.name

    def test_threaded_streaming_preserves_order(self, registry, corpus_250):
        pipeline = ParsePipeline(registry)
        streamed = list(
            pipeline.iter_parse(
                "pymupdf",
                iter(corpus_250),
                batch_size=16,
                backend="thread",
                backend_options={"n_jobs": 4},
            )
        )
        assert [r.doc_id for r in streamed] == [d.doc_id for d in corpus_250]

    def test_default_batch_size_used_for_base_parsers(self, registry, small_corpus):
        pipeline = ParsePipeline(registry)
        batches = list(pipeline.parse_batches("pymupdf", list(small_corpus)))
        assert len(batches) == math.ceil(len(small_corpus) / DEFAULT_BATCH_SIZE)


class TestPhaseTable:
    def test_phase_summary_sorts_by_total_then_name(self):
        report = ParseReport(
            request=ParseRequest(source="synthetic:2"),
            parser_name="pymupdf",
            n_documents=2,
            phases={"b": {"total_s": 1.0}, "a": {"total_s": 1.0}, "c": {"total_s": 3.0}},
        )
        assert list(report.phase_summary()) == ["c", "a", "b"]

    def test_phase_summary_rounds_and_fills_every_column(self):
        report = ParseReport(
            request=ParseRequest(source="synthetic:2"),
            parser_name="pymupdf",
            n_documents=2,
            phases={"parse": {"total_s": 0.123456, "cpu_s": 0.1, "calls": 3.0}},
        )
        assert report.phase_summary() == {
            "parse": {"total_s": 0.1235, "self_s": 0.0, "cpu_s": 0.1, "calls": 3, "bytes": 0}
        }
        assert report.summary()["phases"] == report.phase_summary()

    def test_disabled_phase_attribution_leaves_the_table_empty(self, registry, monkeypatch):
        from repro.obs import profiling

        request = ParseRequest(parser="pymupdf", source="synthetic:3?seed=1")
        assert "parse" in ParsePipeline(registry).run(request).phases
        monkeypatch.setattr(profiling, "_PHASES_ENABLED", profiling.phases_enabled())
        profiling.set_phases_enabled(False)
        assert not profiling.phases_enabled()
        report = ParsePipeline(registry).run(request)
        assert report.phases == {}
        assert report.n_succeeded == 3


class TestTelemetryRemoval:
    """``last_summary`` is gone: telemetry is a return value only."""

    def test_last_summary_is_a_plain_missing_attribute(self, engine, small_corpus):
        engine.parse_many(list(small_corpus))
        with pytest.raises(AttributeError):
            engine.last_summary

    def test_no_hidden_telemetry_state_accumulates(
        self, registry, engine, small_corpus
    ):
        documents = list(small_corpus)
        pipeline = ParsePipeline(registry, engines={engine.name: engine})
        _, decisions = pipeline.parse_with_telemetry(engine, documents)
        assert len(decisions) == len(documents)
        engine.parse(documents[0])
        list(engine.iter_parse(documents))
        assert not hasattr(engine, "_last_summary")


class TestReportRoundTrip:
    def test_report_round_trips_with_text(self, registry, engine, small_corpus):
        report = ParsePipeline(registry, engines={engine.name: engine}).run(
            request_for_documents(engine.name, list(small_corpus), batch_size=8)
        )
        rebuilt = ParseReport.from_json_dict(report.to_json_dict(include_text=True))
        assert [r.text for r in rebuilt.results] == [r.text for r in report.results]
        assert rebuilt.decisions == report.decisions
        assert rebuilt.usage == report.usage
        assert rebuilt.parser_name == report.parser_name
        assert rebuilt.summary() == report.summary()

    def test_report_without_text_keeps_telemetry(self, registry, small_corpus):
        report = ParsePipeline(registry).run(
            ParseRequest(
                parser="pymupdf",
                source=SyntheticSource(
                    CorpusConfig(n_documents=5, seed=2, min_pages=2, max_pages=3)
                ),
            )
        )
        rebuilt = ParseReport.from_json_dict(report.to_json_dict(include_text=False))
        assert [r.doc_id for r in rebuilt.results] == [r.doc_id for r in report.results]
        assert all(r.page_texts == [] for r in rebuilt.results)
        # Page/character counts survive even though the texts were dropped.
        assert [r.n_pages for r in rebuilt.results] == [r.n_pages for r in report.results]
        assert [r.n_characters for r in rebuilt.results] == [
            r.n_characters for r in report.results
        ]
        assert rebuilt.request == report.request


class TestConsumers:
    def test_dataset_builder_streams_through_pipeline(self, registry, small_corpus):
        from repro.datasets.assembly import DatasetBuildConfig, DatasetBuilder

        parser = registry.get("pymupdf")
        config = DatasetBuildConfig(
            min_tokens=10, backend="thread", backend_options={"n_jobs": 2}
        )
        built = DatasetBuilder(parser, config).build(small_corpus)
        serial = DatasetBuilder(parser, DatasetBuildConfig(min_tokens=10)).build(small_corpus)
        assert built.summary() == serial.summary()

    def test_harness_collects_routing_telemetry(self, registry, engine, small_corpus):
        from repro.evaluation.harness import EvaluationHarness, HarnessConfig

        pipeline = ParsePipeline(registry, engines={engine.name: engine})
        harness = EvaluationHarness(
            HarnessConfig(backend="thread", backend_options={"n_jobs": 2}),
            pipeline=pipeline,
        )
        report = harness.evaluate(small_corpus, [registry.get("pymupdf"), engine])
        assert len(report.routing[engine.name]) == len(small_corpus)
        assert report.routing["pymupdf"] == []
        assert engine.name in report.aggregates
