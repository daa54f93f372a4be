"""Cache integration: pipeline policies, reports, builder reuse, CLI."""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

from repro.cache import CachePolicy, ParseCache
from repro.core.config import AdaParseConfig
from repro.core.engine import AdaParseEngine
from repro.documents.corpus import CorpusConfig, build_corpus
from repro.obs import metrics
from repro.parsers.extraction import PyMuPDFSim
from repro.parsers.registry import ParserRegistry, default_registry
from repro.pipeline import ParsePipeline, ParseRequest, request_for_documents


class CountingParser(PyMuPDFSim):
    """PyMuPDF double that counts how many documents it actually parses."""

    name = "counting"

    def __init__(self) -> None:
        self.parse_counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def parse(self, document):
        with self._lock:
            self.parse_counts[document.doc_id] = (
                self.parse_counts.get(document.doc_id, 0) + 1
            )
        return super().parse(document)


class _ScriptedEngine(AdaParseEngine):
    name = "scripted"

    def improvement_scores(self, documents, extracted_texts) -> np.ndarray:
        return np.linspace(0.0, 1.0, len(documents))


@pytest.fixture()
def corpus():
    return build_corpus(CorpusConfig(n_documents=12, seed=21, min_pages=1, max_pages=3))


def _counting_pipeline() -> tuple[ParsePipeline, CountingParser]:
    parser = CountingParser()
    registry = ParserRegistry([parser])
    return ParsePipeline(registry), parser


class TestRequestPolicy:
    def test_default_off_and_validation(self):
        assert ParseRequest().cache == "off"
        assert ParseRequest(cache="readwrite").cache_policy is CachePolicy.READWRITE
        assert ParseRequest(cache=CachePolicy.READ).cache == "read"
        with pytest.raises(ValueError):
            ParseRequest(cache="maybe")

    def test_json_round_trip_carries_policy(self):
        request = ParseRequest(parser="pymupdf", source="synthetic:5", cache="readwrite")
        rebuilt = ParseRequest.from_json_dict(request.to_json_dict())
        assert rebuilt.cache == "readwrite"


class TestPipelineCaching:
    def test_warm_run_all_hits_and_identical(self, corpus):
        documents = list(corpus)
        pipeline, parser = _counting_pipeline()
        baseline = ParsePipeline(ParserRegistry([CountingParser()])).run(
            request_for_documents("counting", documents)
        )
        cold = pipeline.run(
            request_for_documents("counting", documents, cache="readwrite")
        )
        warm = pipeline.run(
            request_for_documents("counting", documents, cache="readwrite")
        )
        assert cold.cache.misses == len(documents)
        assert cold.cache.stores == len(documents)
        assert warm.cache.hits == len(documents)
        assert warm.cache.misses == 0
        assert all(count == 1 for count in parser.parse_counts.values())
        for a, b in zip(warm.results, baseline.results):
            assert a.page_texts == b.page_texts
            assert a.usage == b.usage
            assert (a.doc_id, a.parser_name, a.succeeded) == (
                b.doc_id,
                b.parser_name,
                b.succeeded,
            )

    def test_policy_off_touches_nothing(self, corpus):
        pipeline, parser = _counting_pipeline()
        report = pipeline.run(request_for_documents("counting", list(corpus)))
        assert not report.cache.any_activity
        assert report.summary()["cache"] is None

    def test_read_policy_on_empty_cache_stores_nothing(self, corpus):
        pipeline, parser = _counting_pipeline()
        first = pipeline.run(request_for_documents("counting", list(corpus), cache="read"))
        second = pipeline.run(request_for_documents("counting", list(corpus), cache="read"))
        assert first.cache.misses == len(corpus)
        assert first.cache.stores == 0
        assert second.cache.hits == 0  # nothing was ever stored
        assert all(count == 2 for count in parser.parse_counts.values())

    def test_write_policy_populates_for_later_reads(self, corpus):
        pipeline, parser = _counting_pipeline()
        pipeline.run(request_for_documents("counting", list(corpus), cache="write"))
        warm = pipeline.run(request_for_documents("counting", list(corpus), cache="read"))
        assert warm.cache.hits == len(corpus)
        assert all(count == 1 for count in parser.parse_counts.values())

    def test_duplicate_documents_parsed_once(self, corpus):
        documents = list(corpus)[:4]
        pipeline, parser = _counting_pipeline()
        report = pipeline.run(
            request_for_documents(
                "counting", documents * 3, batch_size=5, cache="readwrite",
                backend="thread", backend_options={"n_jobs": 4},
            )
        )
        assert all(count == 1 for count in parser.parse_counts.values())
        assert report.cache.misses == len(documents)
        assert report.cache.hits + report.cache.coalesced == 2 * len(documents)
        # Order and identity of the replayed duplicates are preserved.
        assert [r.doc_id for r in report.results] == [d.doc_id for d in documents * 3]

    def test_threaded_warm_pass_identical(self, corpus):
        documents = list(corpus)
        pipeline, parser = _counting_pipeline()
        cold = pipeline.run(
            request_for_documents(
                "counting", documents, batch_size=3, cache="readwrite",
                backend="thread", backend_options={"n_jobs": 4},
            )
        )
        warm = pipeline.run(
            request_for_documents(
                "counting", documents, batch_size=3, cache="readwrite",
                backend="thread", backend_options={"n_jobs": 4},
            )
        )
        assert warm.cache.hits == len(documents)
        assert all(count == 1 for count in parser.parse_counts.values())
        for a, b in zip(warm.results, cold.results):
            assert a.page_texts == b.page_texts

    def test_persistent_cache_across_pipelines(self, corpus, tmp_path):
        documents = list(corpus)
        registry = ParserRegistry([CountingParser()])
        cold_pipeline = ParsePipeline(registry, cache=ParseCache(tmp_path / "pc"))
        cold_pipeline.run(request_for_documents("counting", documents, cache="readwrite"))
        warm_parser = CountingParser()
        warm_pipeline = ParsePipeline(
            ParserRegistry([warm_parser]), cache=ParseCache(tmp_path / "pc")
        )
        warm = warm_pipeline.run(
            request_for_documents("counting", documents, cache="readwrite")
        )
        assert warm.cache.hits == len(documents)
        assert warm_parser.parse_counts == {}  # nothing re-parsed

    def test_engine_decisions_replayed(self, corpus):
        documents = list(corpus)
        registry = default_registry()
        engine = _ScriptedEngine(registry, AdaParseConfig(alpha=0.25, batch_size=6))
        pipeline = ParsePipeline(registry, engines={engine.name: engine})
        cold = pipeline.run(
            request_for_documents(engine.name, documents, cache="readwrite")
        )
        warm = pipeline.run(
            request_for_documents(engine.name, documents, cache="readwrite")
        )
        assert warm.cache.hits == len(documents)
        assert [
            (d.doc_id, d.chosen_parser, d.stage, d.predicted_improvement)
            for d in warm.decisions
        ] == [
            (d.doc_id, d.chosen_parser, d.stage, d.predicted_improvement)
            for d in cold.decisions
        ]
        assert warm.fraction_routed() == cold.fraction_routed()

    def test_absent_scores_replayed_as_absent(self, corpus, tmp_path):
        # floor(0.05 · 6) = 0 slots: no batch is scored, so every decision
        # carries no score, and a warm run off disk replays exactly that.
        documents = list(corpus)
        registry = default_registry()
        engine = _ScriptedEngine(registry, AdaParseConfig(alpha=0.05, batch_size=6))

        def run():
            pipeline = ParsePipeline(
                registry, engines={engine.name: engine}, cache=ParseCache(tmp_path / "pc")
            )
            request = request_for_documents(engine.name, documents, cache="readwrite")
            return pipeline.run(request)

        cold, warm = run(), run()
        assert warm.cache.hits == len(documents)
        assert [d.predicted_improvement for d in warm.decisions] == [None] * len(documents)
        assert warm.decisions == cold.decisions

    def test_alpha_override_keys_separately(self, corpus):
        documents = list(corpus)
        registry = default_registry()
        engine = _ScriptedEngine(registry, AdaParseConfig(alpha=0.25, batch_size=6))
        pipeline = ParsePipeline(registry, engines={engine.name: engine})
        base = pipeline.run(
            request_for_documents(engine.name, documents, cache="readwrite")
        )
        overridden = pipeline.run(
            request_for_documents(engine.name, documents, cache="readwrite", alpha=0.5)
        )
        # A different α is a different fingerprint: no stale hits.
        assert overridden.cache.hits == 0
        assert overridden.cache.misses == len(documents)
        assert overridden.fraction_routed() > base.fraction_routed()

    def test_report_cache_stats_json_round_trip(self, corpus):
        pipeline, _ = _counting_pipeline()
        report = pipeline.run(
            request_for_documents("counting", list(corpus), cache="readwrite")
        )
        rebuilt = type(report).from_json_dict(report.to_json_dict())
        assert rebuilt.cache.misses == report.cache.misses
        assert rebuilt.cache.stores == report.cache.stores
        assert rebuilt.request.cache == "readwrite"


def _registry_totals() -> dict[str, float]:
    """The ``repro_cache_*`` series, named like the report's cache fields."""
    registry = metrics.default_registry()
    moved = registry.get("repro_cache_bytes_total")
    totals = {
        field: registry.get(f"repro_cache_{field}_total").value()
        for field in ("hits", "misses", "coalesced", "stores")
    }
    totals["bytes_read"] = moved.value(direction="read")
    totals["bytes_written"] = moved.value(direction="written")
    return totals


class TestRegistryTotals:
    """The ``repro_cache_*`` series count what the reports count."""

    @pytest.fixture(autouse=True)
    def cleared_registry(self):
        metrics.reset()
        yield
        metrics.reset()

    @pytest.mark.parametrize(
        "backend, options", [("serial", {}), ("thread", {"n_jobs": 2})]
    )
    def test_counters_equal_the_summed_report_blocks(
        self, corpus, tmp_path, backend, options
    ):
        # Three documents twice: later batches hit (or coalesce on) them.
        documents = list(corpus) + list(corpus)[:3]
        reports = []
        for _ in ("cold", "warm"):
            # A fresh cache over one directory each time, so the warm run is
            # served by the disk tier and bytes move both ways.
            pipeline = ParsePipeline(
                ParserRegistry([CountingParser()]), cache=ParseCache(tmp_path / "pc")
            )
            reports.append(
                pipeline.run(
                    request_for_documents(
                        "counting", documents, batch_size=5, cache="readwrite",
                        backend=backend, backend_options=options,
                    )
                )
            )
        summed = reports[0].cache + reports[1].cache
        assert summed.misses == summed.stores == len(corpus)
        assert summed.hits + summed.coalesced == 2 * len(documents) - len(corpus)
        assert summed.bytes_read > 0 and summed.bytes_written > 0
        assert _registry_totals() == {
            "hits": summed.hits,
            "misses": summed.misses,
            "coalesced": summed.coalesced,
            "stores": summed.stores,
            "bytes_read": summed.bytes_read,
            "bytes_written": summed.bytes_written,
        }
        saved = metrics.default_registry().get("repro_cache_time_saved_seconds_total")
        assert saved.value() == pytest.approx(summed.time_saved_seconds)


    def test_concurrent_publishes_lose_and_repeat_no_count(self):
        from repro.cache import CacheStatsRecorder

        recorder = CacheStatsRecorder()
        n_threads, per_thread = 8, 1000

        def work() -> None:
            for _ in range(per_thread):
                recorder.record_hit(bytes_read=3)
                recorder.record_miss()
                recorder.record_store(bytes_written=5)
                recorder.publish()
            recorder.publish()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = n_threads * per_thread
        assert _registry_totals() == {
            "hits": total,
            "misses": total,
            "coalesced": 0,
            "stores": total,
            "bytes_read": 3 * total,
            "bytes_written": 5 * total,
        }


class TestDatasetBuilderReuse:
    def test_rebuild_reuses_cached_parses(self, corpus, tmp_path):
        from repro.datasets.assembly import DatasetBuildConfig, DatasetBuilder

        parser = CountingParser()
        pipeline = ParsePipeline(
            ParserRegistry([parser]), cache=ParseCache(tmp_path / "dc")
        )
        config = DatasetBuildConfig(cache="readwrite", min_tokens=0)
        builder = DatasetBuilder(parser, config, pipeline=pipeline)
        first = builder.build(corpus)
        second = builder.build(corpus)
        assert first.cache_stats.misses == len(corpus)
        assert second.cache_stats.hits == len(corpus)
        assert all(count == 1 for count in parser.parse_counts.values())
        assert [r.doc_id for r in second.records] == [r.doc_id for r in first.records]
        assert second.summary()["cache"]["hits"] == len(corpus)

    def test_invalid_cache_policy_rejected(self):
        from repro.datasets.assembly import DatasetBuildConfig

        with pytest.raises(ValueError):
            DatasetBuildConfig(cache="definitely")


class TestCacheCli:
    def test_warm_stats_purge_cycle(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cli-cache")
        warm = [
            "pipeline", "--documents", "6", "--seed", "3",
            "--cache", "readwrite", "--cache-dir", cache_dir,
        ]
        assert main(warm) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--dir", cache_dir]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 6
        assert stats["parsers"] == {"pymupdf": 6}
        assert stats["superseded_lines"] == 0
        assert stats["ref_index_entries"] == 6 and stats["ref_index_bytes"] > 0
        # Running again over the same source: every reference is known.
        assert main(warm) == 0
        rewarmed = json.loads(capsys.readouterr().out)
        assert (rewarmed["cache"]["hits"], rewarmed["cache"]["misses"]) == (6, 0)
        assert "source.load" not in rewarmed["phases"]
        assert main(["cache", "purge", "--dir", cache_dir]) == 0
        assert "purged 6" in capsys.readouterr().out
        assert main(["cache", "stats", "--dir", cache_dir]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert (stats["entries"], stats["ref_index_entries"], stats["ref_index_bytes"]) == (0, 0, 0)

    def test_pipeline_command_with_cache(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cli-cache")
        out_path = tmp_path / "report.json"
        for _ in range(2):
            assert (
                main(
                    [
                        "pipeline",
                        "--documents",
                        "5",
                        "--seed",
                        "9",
                        "--cache",
                        "readwrite",
                        "--cache-dir",
                        cache_dir,
                        "--output",
                        str(out_path),
                    ]
                )
                == 0
            )
            capsys.readouterr()
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["cache"]["hits"] == 5

    def test_cache_subcommands_registered(self):
        from repro.cli import build_parser

        parser = build_parser()
        for sub in ("stats", "purge"):
            args = parser.parse_args(["cache", sub])
            assert args.command == "cache" and args.cache_command == sub
