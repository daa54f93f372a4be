"""Quickstart: build a corpus, train AdaParse, and run the parsing pipeline.

This is the 5-minute tour of the library:

1. generate a synthetic scientific corpus (the stand-in for a PDF collection),
2. train the AdaParse (FT) engine on a training split,
3. run the held-out split through the unified :class:`repro.pipeline.ParsePipeline`
   — a frozen ``ParseRequest`` in, a ``ParseReport`` (results + routing
   telemetry + throughput) out,
4. run the same request on two execution backends (serial vs thread) and
   diff the reports: identical parses, different ``execution`` telemetry,
5. replay the split against the content-addressed parse cache: the cold
   pass pays for parsing once, the warm pass serves every document from
   the cache (byte-identical results, ``report.cache`` tells the story),
6. print the paper-style quality table next to the routing statistics.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.training import AdaParseTrainer, TrainerSettings
from repro.documents.corpus import CorpusConfig, benchmark_splits, build_corpus
from repro.evaluation.harness import EvaluationHarness, HarnessConfig
from repro.obs.profiling import PhaseTimer
from repro.pipeline import ParsePipeline, request_for_documents


def main() -> None:
    timer = PhaseTimer()

    # 1. A small corpus: 120 synthetic scientific documents across domains,
    #    publishers, text-layer qualities and scan qualities.
    with timer.phase("build corpus"):
        corpus = build_corpus(CorpusConfig(n_documents=120, seed=7))
        splits = benchmark_splits(corpus)
    print("corpus:", corpus.described())
    print({name: len(split) for name, split in splits.items()})

    # 2. Train the fastText-based engine variant on the training split.  The
    #    trainer labels the split by running every parser once and scoring it.
    pipeline = ParsePipeline()
    with timer.phase("train AdaParse (FT)"):
        trainer = AdaParseTrainer(pipeline.registry, TrainerSettings(pretrain=False))
        engine = trainer.train_ft(splits["train"])
        pipeline.engines[engine.name] = engine

    # 3. Evaluate the engine next to its constituent parsers on the test
    #    split.  The harness runs every parser through the shared pipeline
    #    and collects the engine's routing telemetry as a return value.
    with timer.phase("evaluate"):
        harness = EvaluationHarness(HarnessConfig(), pipeline=pipeline)
        parsers = list(pipeline.registry) + [engine]
        report = harness.evaluate(splits["test"], parsers)

    # 4. The pipeline facade directly: replay the split at a doubled routing
    #    budget without retraining or mutating the engine (α is a per-request
    #    override).
    with timer.phase("parse via pipeline (2α)"):
        request = request_for_documents(
            engine.name, list(splits["test"]),
            alpha=2 * engine.config.alpha, batch_size=64,
            backend="thread", backend_options={"n_jobs": 2},
        )
        doubled = pipeline.run(request)

    # 4b. Execution backends: the same request on two backends.  Only the
    #     execution block differs — the parses (and routing decisions) are
    #     identical, which is the parity guarantee backends are held to.
    with timer.phase("same request, serial vs thread backend"):
        base = request_for_documents(
            "pymupdf", list(splits["test"]), batch_size=16, backend="serial"
        )
        on_serial = pipeline.run(base)
        on_thread = pipeline.run(
            replace(base, backend="thread", backend_options={"n_jobs": 4})
        )
    assert [r.text for r in on_serial.results] == [r.text for r in on_thread.results]
    report_diff = {
        name: (
            getattr(on_serial.execution, name),
            getattr(on_thread.execution, name),
        )
        for name in ("backend", "workers", "in_flight_high_water")
    }

    # 5. Warm vs cold: the same documents again, now through the parse
    #    cache.  The cold pass parses and stores; the warm pass is pure
    #    cache hits — identical output without touching a parser.
    docs = list(splits["test"])
    with timer.phase("cold pass (cache miss + store)"):
        cold = pipeline.run(request_for_documents("pymupdf", docs, cache="readwrite"))
    with timer.phase("warm pass (cache hits)"):
        warm = pipeline.run(request_for_documents("pymupdf", docs, cache="readwrite"))
    assert warm.cache.hits == len(docs)
    assert [r.page_texts for r in warm.results] == [r.page_texts for r in cold.results]

    # 6. Report.
    routing = report.routing_summary(engine.name)
    print()
    print(report.to_table("Quickstart: accuracy on the held-out split (all values %)").to_text())
    print()
    print("routing decisions:", routing.counts_by_stage())
    print(f"fraction routed to {engine.config.high_quality_parser}: "
          f"{routing.fraction_routed():.3f} (budget α = {engine.config.alpha})")
    print(f"at a doubled budget (α = {request.alpha}): "
          f"{doubled.fraction_routed():.3f} routed, "
          f"{doubled.throughput_docs_per_second:.0f} docs/s")
    print("backend diff (serial vs thread), identical parses:", report_diff)
    print(f"cache: cold {cold.cache.misses} misses / warm {warm.cache.hits} hits "
          f"({warm.throughput_docs_per_second:.0f} docs/s warm vs "
          f"{cold.throughput_docs_per_second:.0f} cold, "
          f"{warm.cache.time_saved_seconds:.3f}s of parsing saved)")
    print()
    for name, row in timer.snapshot().items():
        print(f"{name}: {row['total_s']:.3f}s")


if __name__ == "__main__":
    main()
