"""Tests of the pluggable execution-backend API.

Covers the backend registry, the ordered-window execution contract (and
the thread backend's teardown regression), the serial/thread/remote
parity guarantee (byte-identical reports modulo timings, including
α-budget boundaries and cache ``readwrite``), the HPC adapter, the
``n_jobs`` deprecation path, and the execution telemetry round trip.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cache import ParseCache
from repro.core.config import AdaParseConfig
from repro.core.engine import AdaParseEngine
from repro.documents.corpus import CorpusConfig, build_corpus
from repro.parsers.registry import default_registry
from repro.pipeline import (
    ExecutionStats,
    ParsePipeline,
    ParseReport,
    ParseRequest,
    ThreadBackend,
    backend_names,
    create_backend,
    request_for_documents,
)
from repro.pipeline.backends import (
    BackendError,
    ExecutionBackend,
    ExecutionRecorder,
    HPCBackend,
    SerialBackend,
    normalize_backend_spec,
    resolve_execution,
)
from repro.pipeline.backends.thread import THREAD_NAME_PREFIX
from repro.serve import ParseService, ServiceConfig

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "ingest"

#: A backend that takes each positive-integer option: ``auto`` takes only
#: ``n_jobs``, so ``window`` is checked on ``thread``.
PARALLEL_BACKEND_OF = {"n_jobs": "auto", "window": "thread"}


class ScriptedEngine(AdaParseEngine):
    """Engine double with deterministic improvement scores (no training)."""

    name = "scripted-backend"

    def improvement_scores(self, documents, extracted_texts) -> np.ndarray:
        return np.linspace(0.1, 1.0, len(documents))


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def corpus_100():
    return build_corpus(CorpusConfig(n_documents=100, seed=17, min_pages=2, max_pages=4))


@pytest.fixture(scope="module")
def small_corpus():
    return build_corpus(CorpusConfig(n_documents=16, seed=19, min_pages=2, max_pages=3))


@pytest.fixture()
def engine(registry):
    # batch_size=40 over 100 documents puts the α budget on 40/40/20 batch
    # boundaries, the regression surface of the per-batch cap.
    return ScriptedEngine(registry, AdaParseConfig(alpha=0.05, batch_size=40))


def _create(kind: str, options: dict | None = None):
    """Build a backend the way a request does (``async`` and ``process``
    name ``thread``)."""
    return create_backend(*normalize_backend_spec(kind, options))


def _backend_threads() -> list[threading.Thread]:
    return [
        t for t in threading.enumerate() if t.name.startswith(THREAD_NAME_PREFIX)
    ]


# ---------------------------------------------------------------------- #
# Registry & resolution
# ---------------------------------------------------------------------- #
class TestRegistry:
    def test_builtin_backends_registered(self):
        names = set(backend_names())
        assert {"serial", "thread", "hpc", "remote"} <= names
        # Accepted names resolve to ``thread``; they are not backends.
        assert "process" not in names and "async" not in names

    def test_create_by_name(self):
        backend = create_backend("thread", {"n_jobs": 2})
        assert isinstance(backend, ThreadBackend)
        assert backend.workers == 2
        backend.close()

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="serial"):
            create_backend("quantum")

    def test_unknown_option_lists_known(self):
        with pytest.raises(ValueError, match="n_jobs"):
            create_backend("thread", {"bogus": 1})

    def test_invalid_option_value(self):
        with pytest.raises(ValueError, match="positive"):
            create_backend("thread", {"n_jobs": 0})

    @pytest.mark.parametrize(
        "backend,options,expected",
        [
            ("auto", None, ("serial", {})),
            ("auto", {"n_jobs": 1}, ("serial", {})),
            ("auto", {"n_jobs": 4}, ("thread", {"n_jobs": 4})),
            ("thread", {"n_jobs": 4}, ("thread", {"n_jobs": 4})),
            ("process", {"n_jobs": 2}, ("thread", {"n_jobs": 2})),
            ("serial", None, ("serial", {})),
            ("hpc", {"n_nodes": 2}, ("hpc", {"n_nodes": 2})),
            ("async", {"n_jobs": 4}, ("thread", {"n_jobs": 4})),
            ("async", None, ("thread", {})),
        ],
    )
    def test_normalize_spec(self, backend, options, expected):
        assert normalize_backend_spec(backend, options) == expected

    def test_normalize_spec_n_jobs_kwarg_removed(self):
        with pytest.raises(TypeError):
            normalize_backend_spec("auto", None, n_jobs=4)

    def test_auto_coerces_integral_float_n_jobs(self):
        # A CLI-coerced `--backend-opt n_jobs=4.0` must not silently run
        # serial; integral floats resolve to the thread backend.
        assert normalize_backend_spec("auto", {"n_jobs": 4.0}) == (
            "thread",
            {"n_jobs": 4},
        )

    @pytest.mark.parametrize("option", ["n_jobs", "window"])
    @pytest.mark.parametrize("bad", ["four", 2.5, True])
    def test_non_integral_n_jobs_rejected(self, bad, option):
        # Regression (window): 2.5 used to construct and then fail mid-stream
        # inside islice, and True silently ran a window of 1.
        with pytest.raises(ValueError, match=f"{option} must be an integer"):
            normalize_backend_spec(PARALLEL_BACKEND_OF[option], {option: bad})

    @pytest.mark.parametrize("option", ["n_jobs", "window"])
    @pytest.mark.parametrize("bad", [0, -3])
    def test_non_positive_n_jobs_rejected_not_silently_serial(self, bad, option):
        # Regression: n_jobs=0 under auto used to degrade to serial quietly.
        backend = PARALLEL_BACKEND_OF[option]
        with pytest.raises(ValueError, match=f"{option} must be positive"):
            normalize_backend_spec(backend, {option: bad})
        with pytest.raises(ValueError, match="positive"):
            ParseRequest(parser="pymupdf", backend=backend, backend_options={option: bad})

    def test_auto_with_thread_options_but_no_parallelism_names_auto(self):
        # window is a thread option; failing it against serial would blame a
        # backend the caller never mentioned.
        with pytest.raises(ValueError, match="auto.*explicitly"):
            normalize_backend_spec("auto", {"window": 8})

    @pytest.mark.parametrize(
        "backend,options",
        [("process", {"mp_context": "fork"}), ("async", {"max_window": 3})],
    )
    def test_bogus_mp_context_fails_at_request_construction(self, backend, options):
        # The refusal names the caller's name, not the ``thread`` it resolves to.
        (option,) = options
        with pytest.raises(
            ValueError,
            match=rf"\['{option}'\] for backend '{backend}', an accepted name for 'thread'",
        ):
            ParseRequest(backend=backend, backend_options=options)

    def test_instance_passthrough_is_not_owned(self):
        backend = SerialBackend()
        resolved, owned = resolve_execution(backend)
        assert resolved is backend and not owned
        with pytest.raises(ValueError, match="instance"):
            resolve_execution(backend, {"n_jobs": 2})


# ---------------------------------------------------------------------- #
# map_ordered contract
# ---------------------------------------------------------------------- #
#: The backends that run the one ordered-window loop in-process.  ``async``
#: and ``process`` are the alias rows: both names resolve to ``thread``.
WINDOW_LOOP_BACKENDS = ["thread", "async", "process"]


class TestMapOrdered:
    def test_serial_order_and_stats(self):
        backend = SerialBackend()
        out = list(backend.map_ordered(lambda x: x * x, range(7)))
        assert out == [x * x for x in range(7)]
        stats = backend.stats()
        assert stats.backend == "serial"
        assert stats.workers == 1
        assert stats.batches_dispatched == stats.batches_completed == 7
        assert stats.in_flight_high_water == 1
        assert stats.queue_wait_seconds_high_water == 0.0
        assert set(stats.batch_latency_seconds) == {"mean", "p50", "p90", "p99", "max"}
        backend.close()

    @pytest.mark.parametrize("kind", WINDOW_LOOP_BACKENDS)
    def test_order_preserved_under_jitter(self, kind):
        backend = _create(kind, {"n_jobs": 4})

        def jittery(x: int) -> int:
            time.sleep(0.001 * (x % 5))
            return x

        with backend:
            assert list(backend.map_ordered(jittery, range(40))) == list(range(40))
        stats = backend.stats()
        assert stats.backend == normalize_backend_spec(kind)[0]
        assert stats.workers == 4
        assert stats.batches_completed == 40
        assert 1 <= stats.in_flight_high_water <= backend.window

    @pytest.mark.parametrize(
        "kind,options,bound",
        [
            ("thread", {"n_jobs": 2, "window": 3}, 3),
            ("async", {"n_jobs": 2, "window": 5}, 5),
        ],
    )
    def test_window_bounds_in_flight(self, kind, options, bound):
        backend = _create(kind, options)
        with backend:
            list(backend.map_ordered(lambda x: x, range(50)))
        assert backend.stats().in_flight_high_water <= bound

    @pytest.mark.parametrize("kind", WINDOW_LOOP_BACKENDS)
    def test_worker_error_propagates(self, kind):
        backend = _create(kind, {"n_jobs": 2})

        def boom(x: int) -> int:
            if x == 3:
                raise RuntimeError("bad batch")
            return x

        with backend:
            with pytest.raises(RuntimeError, match="bad batch"):
                list(backend.map_ordered(boom, range(10)))
        # The accounting invariant survives errored runs: the batch that
        # raised still executed, so it counts as completed, and everything
        # dispatched is accounted for.
        stats = backend.stats()
        assert stats.batches_completed + stats.batches_cancelled == stats.batches_dispatched

    @pytest.mark.parametrize("kind", WINDOW_LOOP_BACKENDS)
    def test_closed_backend_refuses_work(self, kind):
        backend = _create(kind, {"n_jobs": 2})
        backend.close()
        with pytest.raises(BackendError, match="closed"):
            list(backend.map_ordered(lambda x: x, [1]))
        backend.close()  # idempotent

    @pytest.mark.parametrize(
        "kind,options",
        [
            ("thread", {"n_jobs": 2, "window": 6}),
            ("async", {"n_jobs": 2, "window": 6}),
        ],
    )
    def test_early_close_cancels_pending_and_leaks_no_threads(self, kind, options):
        """Regression: abandoning the stream used to leave queued batches
        uncancelled and the pool's threads behind.  Now the iterator's
        teardown cancels everything that hasn't started and close() joins
        the workers."""
        assert _backend_threads() == []
        backend = _create(kind, options)

        def slow(x: int) -> int:
            time.sleep(0.05)
            return x

        stream = backend.map_ordered(slow, range(50))
        assert next(stream) == 0  # window submitted, first batch consumed
        stream.close()  # abandon mid-stream
        backend.close()  # joins workers
        stats = backend.stats()
        assert stats.batches_dispatched == 6
        assert stats.batches_cancelled >= 1
        # Whatever wasn't cancelled actually ran; nothing is unaccounted for.
        assert stats.batches_completed + stats.batches_cancelled == stats.batches_dispatched
        assert stats.batches_completed < 50
        assert _backend_threads() == []

    @pytest.mark.parametrize("kind", ["thread", "async"])
    def test_concurrent_maps_share_one_backend(self, kind):
        """Two threads streaming through one instance interleave safely —
        the invariant the parse service relies on."""
        backend = _create(kind, {"n_jobs": 4})
        results: dict[str, list[int]] = {}

        def run(label: str, offset: int) -> None:
            results[label] = list(
                backend.map_ordered(
                    lambda x: (time.sleep(0.002), x + offset)[1], range(20)
                )
            )

        threads = [
            threading.Thread(target=run, args=("a", 0)),
            threading.Thread(target=run, args=("b", 100)),
        ]
        with backend:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert results["a"] == list(range(20))
        assert results["b"] == list(range(100, 120))
        stats = backend.stats()
        assert stats.batches_completed == 40

    @pytest.mark.parametrize("kind", WINDOW_LOOP_BACKENDS)
    def test_racing_first_maps_build_one_pool(self, kind, monkeypatch):
        """Concurrent first maps on one shared backend (the parse service's
        shape) share one pool; the unguarded creation built one per racer
        and close() joined only the last, leaving the others' threads."""
        import repro.pipeline.backends.thread as thread_module

        built = []

        class SlowPool(thread_module.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                time.sleep(0.01)  # hold creation open so every racer arrives
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(thread_module, "ThreadPoolExecutor", SlowPool)
        assert _backend_threads() == []
        backend = _create(kind, {"n_jobs": 2})
        n_racers = 4
        barrier = threading.Barrier(n_racers)
        outputs = []

        def first_map():
            barrier.wait(timeout=5)
            outputs.append(list(backend.map_ordered(lambda x: x, range(3))))

        racers = [threading.Thread(target=first_map) for _ in range(n_racers)]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join(timeout=10)
        assert not any(racer.is_alive() for racer in racers)
        backend.close()
        assert outputs == [[0, 1, 2]] * n_racers
        assert len(built) == 1
        assert _backend_threads() == []


class TestExecutionRecorder:
    def test_long_lived_recorder_keeps_a_bounded_latency_sample(self):
        """A shared backend's recorder lives as long as the service does:
        counts and mean/max stay exact, the percentile sample stays bounded."""
        from repro.pipeline.backends.base import LATENCY_SAMPLE_SIZE, ExecutionRecorder

        recorder = ExecutionRecorder("test")
        n = 10_000
        for i in range(n):
            recorder.record_dispatch()
            recorder.record_batch(0.0, 2.0 if i < n - LATENCY_SAMPLE_SIZE else 1.0)
        recorder.record_dispatch()
        recorder.record_cancelled(1)
        stats = recorder.snapshot("test", 1)
        assert stats.batches_completed == n
        assert stats.batches_completed + stats.batches_cancelled == stats.batches_dispatched
        assert len(recorder._latencies) == LATENCY_SAMPLE_SIZE
        latency = stats.batch_latency_seconds
        # Exact over every batch ...
        assert latency["max"] == 2.0
        assert latency["mean"] == pytest.approx(2.0 - LATENCY_SAMPLE_SIZE / n)
        # ... percentiles over the most recent LATENCY_SAMPLE_SIZE only.
        assert latency["p50"] == latency["p99"] == 1.0


# ---------------------------------------------------------------------- #
# Request / report plumbing
# ---------------------------------------------------------------------- #
class TestRequestBackendFields:
    def test_json_round_trip(self):
        request = ParseRequest(
            parser="pymupdf",
            source="synthetic:5",
            backend="process",
            backend_options={"n_jobs": 2},
        )
        rebuilt = ParseRequest.from_json_dict(json.loads(json.dumps(request.to_json_dict())))
        assert rebuilt.backend == "process"
        assert rebuilt.backend_options == {"n_jobs": 2}
        assert rebuilt == request

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="known"):
            ParseRequest(backend="quantum")

    def test_unknown_backend_option_rejected(self):
        with pytest.raises(ValueError, match="n_jobs"):
            ParseRequest(backend="thread", backend_options={"bogus": 1})

    def test_removed_autoscale_option_fails_as_unknown_remote_option(self):
        with pytest.raises(
            ValueError, match=r"unknown option\(s\) \['autoscale'\] for backend 'remote'"
        ):
            ParseRequest(
                backend="remote",
                backend_options={
                    "workers": "127.0.0.1:9",
                    "autoscale": {"min_workers": 1, "max_workers": 4},
                },
            )

    def test_remote_backend_declares_nine_options(self):
        from repro.pipeline.backends.base import backend_specs

        (spec,) = [spec for spec in backend_specs() if spec.name == "remote"]
        assert sorted(spec.options) == [
            "connect_timeout",
            "heartbeat_interval",
            "heartbeat_timeout",
            "ledger_dir",
            "listen",
            "placement",
            "window",
            "worker_cache",
            "workers",
        ]

    def test_removed_n_jobs_raises_pointing_at_backend_options(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'n_jobs'"):
            ParseRequest(parser="pymupdf", n_jobs=4)
        request = ParseRequest(parser="pymupdf", backend_options={"n_jobs": 4})
        assert request.resolved_backend() == ("thread", {"n_jobs": 4})

    def test_auto_resolves_serial_without_parallelism(self):
        assert ParseRequest(parser="pymupdf").resolved_backend() == ("serial", {})

    def test_execution_stats_round_trip(self):
        stats = ExecutionStats(
            backend="thread",
            workers=4,
            batches_dispatched=9,
            batches_completed=9,
            in_flight_high_water=8,
            queue_wait_seconds_high_water=0.25,
            batch_latency_seconds={"mean": 0.1, "p50": 0.1, "p90": 0.2, "p99": 0.2, "max": 0.2},
            extra={"note": 1},
        )
        assert ExecutionStats.from_json_dict(stats.to_json_dict()) == stats

    def test_report_round_trips_execution_block(self, registry, small_corpus):
        report = ParsePipeline(registry).run(
            request_for_documents(
                "pymupdf", list(small_corpus), batch_size=4,
                backend="thread", backend_options={"n_jobs": 2},
            )
        )
        assert report.execution.backend == "thread"
        assert report.execution.workers == 2
        assert report.execution.batches_dispatched == 4
        rebuilt = ParseReport.from_json_dict(report.to_json_dict())
        assert rebuilt.execution == report.execution
        assert rebuilt.summary()["execution"]["backend"] == "thread"


# ---------------------------------------------------------------------- #
# Backend parity: identical parse output on every backend
# ---------------------------------------------------------------------- #
#: Timing-dependent payload fields (zeroed before byte comparison).
_TIMING_KEYS = {
    "wall_time_seconds",
    "throughput_docs_per_second",
    "time_saved_seconds",
    "bytes_read",
    "bytes_written",
}
#: Fields that legitimately describe *how* a run executed, not what it
#: parsed (dropped before byte comparison).  ``phases`` is wall-clock
#: attribution — pure timing telemetry, pinned separately by
#: :class:`TestPhaseAttributionParity`.
_EXECUTION_KEYS = {"execution", "backend", "backend_options", "n_jobs", "phases"}


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


#: ``async`` and ``process`` are the alias rows: both names resolve to
#: ``thread``, and the parity contract holds under either name.
BACKEND_CASES = [
    ("serial", {}),
    ("thread", {"n_jobs": 3}),
    ("async", {"n_jobs": 3}),
    ("process", {"n_jobs": 2}),
]


class TestBackendParity:
    def _report(self, registry, engine, documents, backend, options, cache=""):
        pipeline = ParsePipeline(
            registry, engines={engine.name: engine}, cache=ParseCache()
        )
        overrides = {"cache": "readwrite"} if cache else {}
        request = request_for_documents(
            engine.name,
            documents,
            batch_size=40,
            backend=backend,
            backend_options=options,
            **overrides,
        )
        return pipeline.run(request)

    @pytest.mark.parametrize("backend,options", BACKEND_CASES)
    def test_engine_reports_byte_identical_modulo_timings(
        self, registry, engine, corpus_100, backend, options
    ):
        documents = list(corpus_100)
        baseline = self._report(registry, engine, documents, "serial", {})
        candidate = self._report(registry, engine, documents, backend, options)
        assert _normalized_bytes(candidate.to_json_dict(include_text=True)) == (
            _normalized_bytes(baseline.to_json_dict(include_text=True))
        )
        # The α budget holds per batch on every backend (40/40/20 boundaries).
        assert candidate.fraction_routed() <= engine.config.alpha + 1e-9
        assert len(candidate.decisions) == len(documents)
        assert candidate.execution.backend == normalize_backend_spec(backend)[0]

    @pytest.mark.parametrize("backend,options", BACKEND_CASES)
    def test_cache_readwrite_parity(
        self, registry, engine, small_corpus, backend, options
    ):
        documents = list(small_corpus)
        baseline = self._report(
            registry, engine, documents, "serial", {}, cache="readwrite"
        )
        candidate = self._report(
            registry, engine, documents, backend, options, cache="readwrite"
        )
        assert _normalized_bytes(candidate.to_json_dict(include_text=True)) == (
            _normalized_bytes(baseline.to_json_dict(include_text=True))
        )
        assert candidate.cache.misses == len(documents)
        assert candidate.cache.stores == len(documents)

    @pytest.mark.parametrize("backend,options", BACKEND_CASES)
    def test_base_parser_parity(self, registry, corpus_100, backend, options):
        documents = list(corpus_100)
        baseline = ParsePipeline(registry).run(
            request_for_documents("pymupdf", documents, batch_size=16)
        )
        candidate = ParsePipeline(registry).run(
            request_for_documents(
                "pymupdf", documents, batch_size=16,
                backend=backend, backend_options=options,
            )
        )
        assert _normalized_bytes(candidate.to_json_dict(include_text=True)) == (
            _normalized_bytes(baseline.to_json_dict(include_text=True))
        )


class TestRemoteBackendParity:
    """The backend-parity guarantee extended to a real 2-worker cluster.

    Workers are in-process daemons over localhost TCP whose pipelines
    carry the same ScriptedEngine instance, so the fingerprint handshake
    passes and reports must be byte-identical (modulo timings/telemetry)
    to the thread backend — including α-budget batch boundaries and
    cache ``readwrite``.
    """

    @pytest.fixture()
    def cluster(self, registry, engine):
        from repro.cluster.worker import WorkerDaemon

        workers = [
            WorkerDaemon(
                name=f"parity-{i}",
                pipeline=ParsePipeline(
                    registry, engines={engine.name: engine}, cache=ParseCache()
                ),
            ).start()
            for i in range(2)
        ]
        yield ",".join(worker.address for worker in workers)
        for worker in workers:
            worker.stop()

    def _report(self, registry, engine, documents, backend, options, cache=""):
        pipeline = ParsePipeline(
            registry, engines={engine.name: engine}, cache=ParseCache()
        )
        overrides = {"cache": "readwrite"} if cache else {}
        request = request_for_documents(
            engine.name,
            documents,
            batch_size=40,
            backend=backend,
            backend_options=options,
            **overrides,
        )
        return pipeline.run(request)

    def test_engine_report_matches_thread_over_alpha_boundaries(
        self, registry, engine, corpus_100, cluster
    ):
        documents = list(corpus_100)
        baseline = self._report(
            registry, engine, documents, "thread", {"n_jobs": 3}
        )
        candidate = self._report(
            registry, engine, documents, "remote", {"workers": cluster}
        )
        assert _normalized_bytes(candidate.to_json_dict(include_text=True)) == (
            _normalized_bytes(baseline.to_json_dict(include_text=True))
        )
        assert candidate.fraction_routed() <= engine.config.alpha + 1e-9
        assert len(candidate.decisions) == len(documents)
        assert candidate.execution.backend == "remote"

    def test_cache_readwrite_parity_with_thread(
        self, registry, engine, small_corpus, cluster
    ):
        documents = list(small_corpus)
        baseline = self._report(
            registry, engine, documents, "thread", {"n_jobs": 3}, cache="readwrite"
        )
        candidate = self._report(
            registry, engine, documents, "remote", {"workers": cluster},
            cache="readwrite",
        )
        assert _normalized_bytes(candidate.to_json_dict(include_text=True)) == (
            _normalized_bytes(baseline.to_json_dict(include_text=True))
        )
        assert candidate.cache.misses == len(documents)
        assert candidate.cache.stores == len(documents)

    def test_base_parser_parity_with_thread(self, registry, corpus_100, cluster):
        documents = list(corpus_100)
        baseline = ParsePipeline(registry).run(
            request_for_documents(
                "pymupdf", documents, batch_size=16,
                backend="thread", backend_options={"n_jobs": 3},
            )
        )
        candidate = ParsePipeline(registry).run(
            request_for_documents(
                "pymupdf", documents, batch_size=16,
                backend="remote", backend_options={"workers": cluster},
            )
        )
        assert _normalized_bytes(candidate.to_json_dict(include_text=True)) == (
            _normalized_bytes(baseline.to_json_dict(include_text=True))
        )


class TestFastTextEngineParity:
    """The parity contract with the real ``adaparse_ft`` engine: its fastText
    model keeps a word-id table that every thread of the pool shares."""

    def _report(self, registry, engine, documents, backend, options):
        pipeline = ParsePipeline(registry, engines={engine.name: engine})
        return pipeline.run(
            request_for_documents(
                engine.name, documents, batch_size=10, alpha=0.1,
                backend=backend, backend_options=options,
            )
        )

    def test_reports_byte_identical_with_a_shared_engine(
        self, registry, default_ft_engine, corpus_100
    ):
        documents = list(corpus_100)
        baseline = self._report(registry, default_ft_engine, documents, "serial", {})
        assert 0 < baseline.fraction_routed() <= 0.1
        candidate = self._report(
            registry, default_ft_engine, documents, "thread", {"n_jobs": 8}
        )
        assert _normalized_bytes(candidate.to_json_dict(include_text=True)) == (
            _normalized_bytes(baseline.to_json_dict(include_text=True))
        )


# ---------------------------------------------------------------------- #
# Phase attribution parity: identical phase keys on every backend
# ---------------------------------------------------------------------- #
#: The pinned ``ParseReport.phases`` key sets.  Every backend must produce
#: exactly these keys for a given pipeline shape — a new phase (or a phase
#: that only shows up on some backends) is an API change and must be
#: pinned here deliberately.
BASE_PHASE_KEYS = {"source.iter", "validate.type", "parse"}
ENGINE_PHASE_KEYS = BASE_PHASE_KEYS | {
    "parse.default",
    "route.validate",
    "route.score",
    "parse.high_quality",
}
CACHE_PHASE_KEYS = {"cache.key", "cache.lookup", "cache.store", "cache.flush"}
#: ...and per cache policy: reading looks up, writing stores and flushes.
CACHE_PHASE_KEYS_BY_POLICY = {
    "off": set(),
    "read": {"cache.key", "cache.lookup"},
    "write": {"cache.key", "cache.store", "cache.flush"},
    "readwrite": CACHE_PHASE_KEYS,
}

_PHASE_ROW_KEYS = {"total_s", "self_s", "cpu_s", "calls", "bytes"}


def _assert_phase_rows_well_formed(report: ParseReport) -> None:
    for name, row in report.phases.items():
        assert set(row) == _PHASE_ROW_KEYS, name
        assert row["total_s"] >= 0 and row["calls"] >= 1, name


class TestPhaseAttributionParity:
    """``ParseReport.phases`` carries the same key set on every backend.

    The timings differ (that's the point of the attribution), but the
    *shape* of the table is part of the backend contract: a dashboard
    built against the serial backend must read identically against a
    thread pool or a remote cluster.
    """

    def _report(self, registry, engine, documents, backend, options, cache=""):
        pipeline = ParsePipeline(
            registry, engines={engine.name: engine}, cache=ParseCache()
        )
        overrides = {"cache": "readwrite"} if cache else {}
        request = request_for_documents(
            engine.name,
            documents,
            batch_size=40,
            backend=backend,
            backend_options=options,
            **overrides,
        )
        return pipeline.run(request)

    @pytest.mark.parametrize("backend,options", BACKEND_CASES)
    def test_base_parser_phase_keys(self, registry, small_corpus, backend, options):
        report = ParsePipeline(registry).run(
            request_for_documents(
                "pymupdf", list(small_corpus), batch_size=4,
                backend=backend, backend_options=options,
            )
        )
        assert set(report.phases) == BASE_PHASE_KEYS
        _assert_phase_rows_well_formed(report)

    @pytest.mark.parametrize("backend,options", BACKEND_CASES)
    def test_engine_phase_keys(
        self, registry, engine, corpus_100, backend, options
    ):
        # corpus_100 guarantees the α budget routes documents in every
        # batch, so ``parse.high_quality`` must appear on every backend.
        report = self._report(registry, engine, list(corpus_100), backend, options)
        assert set(report.phases) == ENGINE_PHASE_KEYS
        _assert_phase_rows_well_formed(report)
        # attribution is meaningful, not just present
        assert report.phases["parse"]["total_s"] > 0

    @pytest.mark.parametrize("backend,options", BACKEND_CASES)
    def test_engine_cache_phase_keys(
        self, registry, engine, corpus_100, backend, options
    ):
        report = self._report(
            registry, engine, list(corpus_100), backend, options, cache="readwrite"
        )
        assert set(report.phases) == ENGINE_PHASE_KEYS | CACHE_PHASE_KEYS
        _assert_phase_rows_well_formed(report)

    @pytest.mark.parametrize("policy", sorted(CACHE_PHASE_KEYS_BY_POLICY))
    @pytest.mark.parametrize(
        "backend,options", BACKEND_CASES + [("served", {"n_jobs": 2})]
    )
    def test_cache_phase_keys_follow_the_policy(
        self, registry, small_corpus, backend, options, policy
    ):
        # ``cache.flush`` is the run's durability point: attributed whenever
        # the policy writes, absent (not a zero row) when it does not.  The
        # ``served`` row submits the same request through a ParseService:
        # a ticket's report has the table a direct run's has.
        pipeline = ParsePipeline(registry, cache=ParseCache())
        if backend == "served":
            request = request_for_documents(
                "pymupdf", list(small_corpus), batch_size=4, cache=policy
            )
            config = ServiceConfig(backend="thread", backend_options=options)
            with ParseService(pipeline, config) as service:
                report = service.submit(request).result(timeout=60)
        else:
            report = pipeline.run(
                request_for_documents(
                    "pymupdf", list(small_corpus), batch_size=4,
                    backend=backend, backend_options=options, cache=policy,
                )
            )
        assert set(report.phases) == BASE_PHASE_KEYS | CACHE_PHASE_KEYS_BY_POLICY[policy]
        _assert_phase_rows_well_formed(report)
        assert set(report.summary()["phases"]) == set(report.phases)
        if "cache.flush" in report.phases:
            assert report.phases["cache.flush"]["calls"] == 1

    def test_served_run_is_a_pipeline_run_span_under_the_ticket(
        self, registry, small_corpus
    ):
        from repro.obs.tracing import default_recorder

        request = request_for_documents("pymupdf", list(small_corpus), batch_size=4)
        with ParseService(ParsePipeline(registry), ServiceConfig("serial")) as service:
            ticket = service.submit(request)
            ticket.result(timeout=60)
        spans = {s["name"]: s for s in default_recorder().spans(ticket.trace_id)}
        assert spans["pipeline.run"]["parent_id"] == spans["service.ticket"]["span_id"]
        assert spans["backend.batch"]["parent_id"] == spans["pipeline.run"]["span_id"]

    def test_on_demand_training_is_the_engine_train_phase(
        self, registry, default_ft_engine, small_corpus, monkeypatch
    ):
        # The one report that waited for training says so; nobody else does.
        trained = []

        def train(variant, registry):
            trained.append(variant)
            return default_ft_engine

        monkeypatch.setattr("repro.pipeline.pipeline.build_default_engine", train)
        request = request_for_documents("adaparse_ft", list(small_corpus), batch_size=4)
        fresh = ParsePipeline(registry)
        first, second = fresh.run(request), fresh.run(request)
        assert set(first.phases) - set(second.phases) == {"engine.train"}
        assert first.phases["engine.train"]["calls"] == 1 and trained == ["ft"]
        given = ParsePipeline(registry, engines={"adaparse_ft": default_ft_engine})
        assert "engine.train" not in given.run(request).phases and trained == ["ft"]

    def test_phases_survive_json_round_trip(self, registry, engine, corpus_100):
        report = self._report(registry, engine, list(corpus_100), "serial", {})
        rebuilt = ParseReport.from_json_dict(report.to_json_dict())
        assert rebuilt.phases == report.phases
        assert set(rebuilt.summary()["phases"]) == ENGINE_PHASE_KEYS


class _CountingTimers:
    """Stand-in for ``profiling.PhaseTimer`` that logs every construction
    and which thread opened each phase."""

    def __init__(self, monkeypatch):
        from repro.obs import profiling

        log = self
        self.constructed = 0
        self.opened: list[tuple[str, str]] = []

        class CountingTimer(profiling.PhaseTimer):
            def __init__(self):
                log.constructed += 1
                super().__init__()

            def phase(self, name, n_bytes=0):
                log.opened.append((name, threading.current_thread().name))
                return super().phase(name, n_bytes=n_bytes)

        monkeypatch.setattr(profiling, "PhaseTimer", CountingTimer)


class MapOrderedOnly(ExecutionBackend):
    """A third-party backend: a name, a recorder, and ``map_ordered``."""

    name = "third-party"

    def __init__(self) -> None:
        self._recorder = ExecutionRecorder(self.name)

    def map_ordered(self, fn, items):
        return map(fn, items)


class TestExecutionSiteContract:
    """A backend is handed the parser and owns its own boundary: phases and
    trace context reach the site without the pipeline capturing, merging or
    re-activating anything around it."""

    def test_serial_run_constructs_one_phase_timer(
        self, registry, small_corpus, monkeypatch
    ):
        timers = _CountingTimers(monkeypatch)
        report = ParsePipeline(registry).run(
            request_for_documents("pymupdf", list(small_corpus), batch_size=4)
        )
        assert report.execution.batches_completed == 4
        assert timers.constructed == 1  # the run's own; none per batch
        assert report.phases["parse"]["calls"] == 4

    def test_thread_pool_records_into_the_run_timer_without_capture(
        self, registry, engine, corpus_100, monkeypatch
    ):
        timers = _CountingTimers(monkeypatch)
        pipeline = ParsePipeline(registry, engines={engine.name: engine})
        report = pipeline.run(
            request_for_documents(
                engine.name, list(corpus_100), batch_size=20,
                backend="thread", backend_options={"n_jobs": 2},
            )
        )
        assert timers.constructed == 1
        assert set(report.phases) == ENGINE_PHASE_KEYS
        nested = {name for name in ENGINE_PHASE_KEYS if name.startswith(("parse.", "route."))}
        assert report.phases["parse"]["calls"] == 5
        assert all(report.phases[name]["calls"] >= 5 for name in nested)  # one per batch
        opened_by = {thread for name, thread in timers.opened if name in nested | {"parse"}}
        assert opened_by and all(t.startswith(THREAD_NAME_PREFIX) for t in opened_by)
        # Nested under the pool thread's own open `parse` frame, not beside it.
        children = sum(report.phases[name]["total_s"] for name in nested)
        assert report.phases["parse"]["self_s"] <= report.phases["parse"]["total_s"]
        assert report.phases["parse"]["total_s"] >= 0.9 * children

    @pytest.mark.parametrize("parser", ["pymupdf", "engine"])
    def test_backend_implementing_only_map_ordered_matches_serial(
        self, registry, engine, corpus_100, parser
    ):
        name = engine.name if parser == "engine" else parser
        reports = {}
        for label, backend in (("serial", SerialBackend()), ("third-party", MapOrderedOnly())):
            pipeline = ParsePipeline(
                registry, engines={engine.name: engine}, cache=ParseCache()
            )
            request = request_for_documents(
                name, list(corpus_100), batch_size=40, cache="readwrite"
            )
            reports[label] = pipeline.execute(request, backend=backend)
        serial, third = reports["serial"], reports["third-party"]
        assert set(third.phases) == set(serial.phases)
        assert third.execution.backend == "third-party"
        assert [r.to_json_dict() for r in third.results] == [
            r.to_json_dict() for r in serial.results
        ]
        assert third.decisions == serial.decisions


class TestRemotePhaseAttributionParity:
    """The phase-key contract extends to a real 2-worker cluster: worker
    tables ship back over the wire and merge into the coordinator's
    timer, so the merged report pins the exact same key sets."""

    #: The worker composes the same site on *its* backend, so its shipped
    #: table has the same keys whichever local backend parses the shard.
    #: The ``process`` row is a ``worker --backend process`` daemon.
    @pytest.fixture(params=[case[0] for case in BACKEND_CASES if case[0] != "async"])
    def cluster(self, request, registry, engine):
        from repro.cluster.worker import WorkerDaemon

        options = dict(BACKEND_CASES)[request.param]
        workers = [
            WorkerDaemon(
                name=f"phase-parity-{i}",
                pipeline=ParsePipeline(
                    registry, engines={engine.name: engine}, cache=ParseCache()
                ),
                backend=request.param,
                backend_options=options,
            ).start()
            for i in range(2)
        ]
        yield ",".join(worker.address for worker in workers)
        for worker in workers:
            worker.stop()

    def _report(self, registry, engine, documents, options, cache=""):
        pipeline = ParsePipeline(
            registry, engines={engine.name: engine}, cache=ParseCache()
        )
        overrides = {"cache": "readwrite"} if cache else {}
        request = request_for_documents(
            engine.name,
            documents,
            batch_size=40,
            backend="remote",
            backend_options=options,
            **overrides,
        )
        return pipeline.run(request)

    def test_engine_phase_keys_match_local_backends(
        self, registry, engine, corpus_100, cluster
    ):
        # worker_cache must mirror the request's (off) cache policy or the
        # workers' own cache phases would leak extra keys into the table.
        report = self._report(
            registry, engine, list(corpus_100),
            {"workers": cluster, "worker_cache": "off"},
        )
        assert set(report.phases) == ENGINE_PHASE_KEYS
        _assert_phase_rows_well_formed(report)
        assert report.phases["parse.default"]["total_s"] > 0

    def test_engine_cache_phase_keys_match_local_backends(
        self, registry, engine, corpus_100, cluster
    ):
        report = self._report(
            registry, engine, list(corpus_100),
            {"workers": cluster}, cache="readwrite",
        )
        assert set(report.phases) == ENGINE_PHASE_KEYS | CACHE_PHASE_KEYS
        _assert_phase_rows_well_formed(report)


class TestOneRequestThreeRoutes:
    """A request gives the same report however it reaches the run path:
    ``ParsePipeline.run``, a ``ParseService`` ticket, or a cluster worker."""

    @pytest.fixture()
    def worker(self, registry, engine):
        from repro.cluster.worker import WorkerDaemon

        daemon = WorkerDaemon(
            name="three-routes",
            pipeline=ParsePipeline(registry, engines={engine.name: engine}),
            cache=ParseCache(),
        ).start()
        yield daemon
        daemon.stop()

    def test_reports_agree(self, registry, engine, corpus_100, worker):
        documents = list(corpus_100)

        def request(**backend):
            return request_for_documents(
                engine.name, documents, batch_size=40, cache="readwrite", **backend
            )

        def pipeline():
            return ParsePipeline(
                registry, engines={engine.name: engine}, cache=ParseCache()
            )

        remote_options = {"workers": worker.address}
        direct = pipeline().run(request())
        with ParseService(pipeline(), ServiceConfig("serial")) as service:
            served = service.submit(request()).result(timeout=60)
        remote = pipeline().run(request(backend="remote", backend_options=remote_options))

        baseline = _normalized_bytes(direct.to_json_dict(include_text=True))
        for report in (served, remote):
            # results, decisions, usage and the cache block, timings zeroed
            assert _normalized_bytes(report.to_json_dict(include_text=True)) == baseline
            assert set(report.phases) == set(direct.phases)
        assert set(direct.phases) == ENGINE_PHASE_KEYS | CACHE_PHASE_KEYS

        def execution(report):
            block = report.execution.to_json_dict()
            block["extra"].pop("shared_backend", None)
            return {k: v for k, v in block.items() if "seconds" not in k}

        assert execution(served) == execution(direct)
        assert "shared_backend" not in direct.execution.extra
        assert served.execution.extra["shared_backend"] is True
        assert remote.execution.backend == "remote"
        assert "shared_backend" not in remote.execution.extra

        # The worker's cache is warm now: the payloads cross again, and the
        # worker parses none of them.
        warm = pipeline().run(request(backend="remote", backend_options=remote_options))
        assert _normalized_bytes(warm.to_json_dict(include_text=True)) == baseline
        assert warm.execution.extra["cluster_doc_payloads_sent"] == len(documents)
        assert warm.execution.extra["cluster_remote_cache_hits"] == len(documents)
        assert worker.counters["docs_parsed"] == len(documents)


class TestRemoteByReferenceParity:
    """The parity guarantee where the remote backend ships no documents.

    An uncached request over a source that can list its documents without
    reading them reaches the workers as ``source + locator`` references:
    each worker rebuilds the source and reads its own share.  The report
    must not be able to tell — byte-identical to the serial backend, α
    applied per batch as ever — while the wire counters can.
    """

    @pytest.fixture()
    def cluster(self, registry, default_ft_engine):
        from repro.cluster.worker import WorkerDaemon

        workers = [
            WorkerDaemon(
                name=f"by-ref-{i}",
                pipeline=ParsePipeline(
                    registry, engines={default_ft_engine.name: default_ft_engine}
                ),
            ).start()
            for i in range(2)
        ]
        yield workers
        for worker in workers:
            worker.stop()

    @staticmethod
    def _source(kind: str, tmp_path) -> tuple[str, int]:
        if kind == "synthetic":
            return "synthetic:24?seed=23&min_pages=1&max_pages=2", 24
        if kind == "html-dir":
            return f"html-dir:{FIXTURES / 'html'}", 2
        from repro.documents.simpdf import SimPdfWriter

        writer = SimPdfWriter(tmp_path / "pool")
        corpus = build_corpus(CorpusConfig(n_documents=24, seed=29, min_pages=1, max_pages=2))
        for document in corpus:
            writer.write(document)
        return f"simpdf-dir:{tmp_path / 'pool'}", 24

    def _pair(self, registry, engine, parser, source, cluster, **overrides):
        """The serial report, the remote one, and the remote backend (closed)."""
        request = dict(parser=parser, source=source, batch_size=5, **overrides)
        engines = {engine.name: engine}
        serial = ParsePipeline(registry, engines=engines).run(ParseRequest(**request))
        backend = create_backend(
            "remote", {"workers": ",".join(worker.address for worker in cluster)}
        )
        try:
            remote = ParsePipeline(registry, engines=engines).execute(
                ParseRequest(**request), backend=backend
            )
        finally:
            backend.close()
        assert _normalized_bytes(remote.to_json_dict(include_text=True)) == (
            _normalized_bytes(serial.to_json_dict(include_text=True))
        )
        return serial, remote, backend

    @pytest.mark.parametrize("kind", ["simpdf-dir", "synthetic", "html-dir"])
    def test_base_parser_report_matches_serial_and_nothing_is_shipped(
        self, registry, default_ft_engine, cluster, tmp_path, kind
    ):
        source, n_documents = self._source(kind, tmp_path)
        _, remote, backend = self._pair(
            registry, default_ft_engine, "pymupdf", source, cluster
        )
        assert remote.n_succeeded == n_documents
        extra = remote.execution.extra
        assert extra["cluster_doc_refs_sent"] == n_documents
        assert extra["cluster_doc_payloads_sent"] == 0
        inventory = [worker.describe() for worker in cluster]
        assert sum(w["docs_loaded"] for w in inventory) == n_documents
        assert sum(w["docs_received"] for w in inventory) == 0
        # Reading moved to the workers and is attributed there.
        assert set(remote.phases) == BASE_PHASE_KEYS | {"source.load"}
        _assert_phase_rows_well_formed(remote)
        assert remote.phases["source.load"]["calls"] == remote.execution.batches_completed
        assert remote.phases["source.load"]["total_s"] > 0

    def test_adaparse_ft_routes_per_batch_exactly_as_serial(
        self, registry, default_ft_engine, cluster, tmp_path
    ):
        source, n_documents = self._source("synthetic", tmp_path)
        serial, remote, _ = self._pair(
            registry, default_ft_engine, default_ft_engine.name, source, cluster,
            alpha=0.2,
        )
        assert remote.execution.extra["cluster_doc_refs_sent"] == n_documents
        assert remote.execution.extra["cluster_doc_payloads_sent"] == 0
        def routed(report):
            return [
                d.stage in ("routed_high_quality", "cls1_invalid")
                for d in report.decisions
            ]

        assert routed(remote) == routed(serial)
        # batch_size 5 at alpha 0.2: the budget is one document per batch.
        assert 0 < sum(routed(remote)) <= remote.execution.batches_completed
        for start in range(0, n_documents, 5):
            assert sum(routed(remote)[start : start + 5]) <= 1


# ---------------------------------------------------------------------- #
# ``async`` and ``process``: accepted names for the thread backend
# ---------------------------------------------------------------------- #
class TestAsyncBackend:
    """Neither ``async`` nor ``process`` names a backend of its own; the
    ``map_ordered`` contract is covered, for the aliases too, by
    ``TestMapOrdered``."""

    @pytest.mark.parametrize("alias", ["async", "process"])
    def test_async_report_is_the_thread_report(self, registry, small_corpus, alias):
        reports = {
            name: ParsePipeline(registry).run(
                request_for_documents(
                    "pymupdf", list(small_corpus), batch_size=4,
                    backend=name, backend_options={} if name == "serial" else {"n_jobs": 2},
                )
            )
            for name in ("serial", "thread", alias)
        }
        as_serial, as_thread, as_alias = (
            reports[name].to_json_dict(include_text=True)
            for name in ("serial", "thread", alias)
        )
        assert _normalized_bytes(as_alias) == _normalized_bytes(as_thread)
        assert _normalized_bytes(as_alias) == _normalized_bytes(as_serial)
        assert as_alias["execution"]["backend"] == "thread"
        assert as_alias["execution"]["extra"] == as_thread["execution"]["extra"] == {}
        assert {k: v for k, v in as_alias["execution"].items() if isinstance(v, int)} == {
            k: v for k, v in as_thread["execution"].items() if isinstance(v, int)
        }
        assert reports[alias].request.resolved_backend() == ("thread", {"n_jobs": 2})

    @pytest.mark.parametrize(
        "options", [{"max_window": 5}, {"min_window": 1}, {"adaptive": False}]
    )
    def test_removed_options_fail_as_unknown_thread_options(self, options):
        with pytest.raises(ValueError, match=r"unknown option.*'thread'.*n_jobs.*window"):
            ParseRequest(parser="pymupdf", backend="async", backend_options=options)

    def test_aimd_names_are_no_longer_exported(self):
        import importlib.util

        import repro.pipeline
        import repro.pipeline.backends as backends

        for name in ("AsyncBackend", "AdaptiveWindow"):
            assert name not in backends.__all__
            assert not hasattr(backends, name)
        assert not hasattr(repro.pipeline, "AsyncBackend")
        assert importlib.util.find_spec("repro.pipeline.backends.async_") is None

    def test_map_runs_on_exactly_n_jobs_threads_and_no_loop_thread(self):
        seen: set[str] = set()
        backend = _create("async", {"n_jobs": 2})
        with backend:
            for _ in backend.map_ordered(lambda x: time.sleep(0.01), range(8)):
                seen.update(t.name for t in _backend_threads())
        assert len(seen) == 2
        assert all(name.startswith(f"{THREAD_NAME_PREFIX}-thread") for name in seen)

    def test_async_request_never_imports_asyncio(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import sys, repro\n"
            "report = repro.ParsePipeline().run(repro.ParseRequest(\n"
            "    parser='pymupdf', source='synthetic:6?seed=2', batch_size=2,\n"
            "    backend='async', backend_options={'n_jobs': 2}))\n"
            "assert report.execution.backend == 'thread', report.execution\n"
            "assert report.execution.batches_completed == 3, report.execution\n"
            "assert 'asyncio' not in sys.modules, 'asyncio imported'\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


# ---------------------------------------------------------------------- #
# HPC adapter
# ---------------------------------------------------------------------- #
class TestHPCBackend:
    def test_results_match_serial_and_extra_has_simulation(self, registry, small_corpus):
        documents = list(small_corpus)
        baseline = ParsePipeline(registry).run(
            request_for_documents("pymupdf", documents, batch_size=4)
        )
        report = ParsePipeline(registry).run(
            request_for_documents(
                "pymupdf", documents, batch_size=4,
                backend="hpc",
                backend_options={"n_nodes": 2, "docs_per_archive": 8},
            )
        )
        assert [r.text for r in report.results] == [r.text for r in baseline.results]
        assert report.execution.backend == "hpc"
        assert report.execution.workers == 2
        extra = report.execution.extra
        assert extra["sim_nodes"] == 2
        assert extra["sim_time_s"] > 0
        assert extra["sim_docs_per_s"] > 0
        assert extra["sim_documents_completed"] == len(documents)

    def test_direct_adapter_replay_is_cached_until_new_work(self):
        backend = HPCBackend(n_nodes=1, docs_per_archive=4)
        assert backend.stats().extra == {}  # nothing ran, nothing simulated
        backend.close()

    def test_reused_instance_labels_mixed_parsers(self):
        from repro.parsers.base import ParseResult

        backend = HPCBackend(n_nodes=1, docs_per_archive=4)
        batches = [
            ([ParseResult(parser_name="pymupdf", doc_id="a", page_texts=["x"])], []),
            ([ParseResult(parser_name="nougat", doc_id="b", page_texts=["y"])], []),
        ]
        list(backend.map_ordered(lambda batch: batch, batches))
        # The aggregated replay is honestly labelled rather than attributed
        # to whichever parser happened to run first.
        assert backend._parser_name == "mixed"
        assert backend.stats().extra["sim_documents_completed"] == 2
        backend.close()


# ---------------------------------------------------------------------- #
# Consumers accept backend specs
# ---------------------------------------------------------------------- #
class TestConsumers:
    def test_pipeline_accepts_backend_instance_and_reports_stats(
        self, registry, small_corpus
    ):
        backend = ThreadBackend(n_jobs=2)
        pipeline = ParsePipeline(registry)
        with backend:
            results, _ = pipeline.parse_with_telemetry(
                "pymupdf", list(small_corpus), batch_size=4, backend=backend
            )
        assert len(results) == len(small_corpus)
        assert backend.stats().batches_dispatched == 4

    def test_dataset_builder_backend_spec_matches_serial(self, registry, small_corpus):
        from repro.datasets.assembly import DatasetBuildConfig, DatasetBuilder

        parser = registry.get("pymupdf")
        threaded = DatasetBuilder(
            parser,
            DatasetBuildConfig(
                min_tokens=10, backend="thread", backend_options={"n_jobs": 2}
            ),
        ).build(small_corpus)
        serial = DatasetBuilder(parser, DatasetBuildConfig(min_tokens=10)).build(
            small_corpus
        )
        assert threaded.summary() == serial.summary()

    def test_dataset_builder_rejects_unknown_backend(self):
        from repro.datasets.assembly import DatasetBuildConfig

        with pytest.raises(ValueError, match="known"):
            DatasetBuildConfig(backend="quantum")

    def test_dataset_builder_rejects_unknown_backend_option(self):
        from repro.datasets.assembly import DatasetBuildConfig

        with pytest.raises(ValueError, match="njobs"):
            DatasetBuildConfig(backend="thread", backend_options={"njobs": 8})

    def test_harness_config_rejects_unknown_backend_option(self):
        from repro.evaluation.harness import HarnessConfig

        with pytest.raises(ValueError, match="known"):
            HarnessConfig(backend="quantum")
        with pytest.raises(ValueError, match="njobs"):
            HarnessConfig(backend="thread", backend_options={"njobs": 8})

    def test_config_n_jobs_aliases_raise_like_the_request(self):
        from repro.datasets.assembly import DatasetBuildConfig
        from repro.evaluation.harness import HarnessConfig

        with pytest.raises(TypeError, match="unexpected keyword argument 'n_jobs'"):
            DatasetBuildConfig(n_jobs=2)
        with pytest.raises(TypeError, match="unexpected keyword argument 'n_jobs'"):
            HarnessConfig(n_jobs=2)

    def test_serial_request_never_imports_hpc_stack(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import sys, repro\n"
            "repro.ParseRequest(parser='pymupdf', source='synthetic:2', backend='serial')\n"
            "assert not any(m.startswith('repro.hpc') for m in sys.modules), 'hpc leaked'\n"
            "assert not any(m.startswith('repro.serve') for m in sys.modules), 'serve leaked'\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_harness_backend_spec(self, registry, small_corpus):
        from repro.evaluation.harness import EvaluationHarness, HarnessConfig

        harness = EvaluationHarness(
            HarnessConfig(backend="thread", backend_options={"n_jobs": 2})
        )
        report = harness.evaluate(
            small_corpus, [registry.get("pymupdf")], compute_win_rate=False
        )
        assert "pymupdf" in report.aggregates


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
class TestCli:
    def test_pipeline_backend_flags(self, capsys):
        from repro.cli import main

        exit_code = main(
            [
                "pipeline",
                "--documents", "6",
                "--seed", "4",
                "--backend", "thread",
                "--backend-opt", "n_jobs=2",
                "--backend-opt", "window=4",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["execution"]["backend"] == "thread"
        assert payload["execution"]["workers"] == 2
        assert payload["request"]["backend"] == "thread"
        assert payload["request"]["backend_options"] == {"n_jobs": 2, "window": 4}

    @pytest.mark.parametrize(
        "argv",
        [
            ["pipeline", "--documents", "4"],
            ["dataset", "--documents", "4", "--min-tokens", "5"],
            ["cache", "warm", "--documents", "4"],
        ],
    )
    def test_jobs_flag_is_an_unrecognized_argument(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_autoscale_flag_is_an_unrecognized_argument(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["cluster", "--workers", "1", "--autoscale"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --autoscale" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--min-workers", "--max-workers"])
    def test_worker_bound_flags_are_unrecognized_arguments(self, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["cluster", "--workers", "1", f"{flag}=2"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}=2" in capsys.readouterr().err

    def test_dataset_backend_flags(self, capsys):
        from repro.cli import main

        exit_code = main(
            [
                "dataset",
                "--documents", "4",
                "--min-tokens", "5",
                "--backend", "serial",
            ]
        )
        assert exit_code == 0
        assert '"retention_rate"' in capsys.readouterr().out

    def test_malformed_backend_opt_exits(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="key=value"):
            main(["pipeline", "--documents", "2", "--backend-opt", "n_jobs"])
