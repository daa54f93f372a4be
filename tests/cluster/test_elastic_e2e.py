"""Acceptance tests of the elastic cluster (ISSUE PR 8).

The three survival scenarios, all compared byte-for-byte against an
uninterrupted serial run:

* one worker SIGKILLed mid-campaign (socket severed abruptly);
* a replacement worker joining mid-campaign through the membership
  listener;
* the coordinator killed and the campaign resumed from the shard ledger.

Plus the import-hygiene contract: ``import repro`` must not import
``repro.cluster`` on the serial path.
"""

from __future__ import annotations

import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.cluster.worker import WorkerDaemon
from repro.documents.corpus import CorpusConfig, build_corpus
from repro.parsers.base import Parser, ParserCost
from repro.parsers.registry import default_registry
from repro.pipeline import ParsePipeline, request_for_documents


class TortoiseParser(Parser):
    """Deterministic, slow-enough-to-interrupt parser double."""

    name = "tortoise"
    version = "1.0"
    cost = ParserCost(cpu_seconds_per_page=0.001)

    def __init__(self, sleep_seconds: float = 0.03) -> None:
        self.sleep_seconds = sleep_seconds

    def _parse_pages(self, document, rng):
        time.sleep(self.sleep_seconds)
        return [f"{document.doc_id}:p{i}" for i in range(document.n_pages)]


def tortoise_pipeline(registry, sleep_seconds: float = 0.03) -> ParsePipeline:
    pipeline = ParsePipeline(registry)
    pipeline.engines["tortoise"] = TortoiseParser(sleep_seconds)
    return pipeline


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def corpus_30():
    return build_corpus(CorpusConfig(n_documents=30, seed=11, min_pages=1, max_pages=2))


def free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def result_dicts(report):
    return [r.to_json_dict() for r in report.results]


class TestImportHygiene:
    def test_import_repro_does_not_import_elastic(self):
        code = (
            "import sys, repro, repro.pipeline\n"
            "from repro.pipeline import ParseRequest\n"
            "ParseRequest()\n"
            "from repro.pipeline.backends import backend_names\n"
            "assert 'remote' in backend_names()\n"
            "bad = [m for m in sys.modules\n"
            "       if m.startswith('repro.cluster')]\n"
            "assert not bad, f'cluster imported on the serial path: {bad}'\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=_subprocess_env())


def _subprocess_env():
    import os
    from pathlib import Path

    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class TestKillAndJoinMidRun:
    def test_campaign_survives_kill_and_mid_run_join_byte_identical(
        self, registry, corpus_30
    ):
        """Kill one worker mid-run while a replacement joins mid-run.

        The campaign must finish with byte-identical output to a serial
        run: exactly-once results, input order preserved, and the
        membership history showing 2 fixed admissions + 1 join + 1 death.
        """
        documents = list(corpus_30)
        serial = tortoise_pipeline(registry).run(
            request_for_documents("tortoise", documents, batch_size=3)
        )
        workers = [
            WorkerDaemon(
                name=f"e2e-{i}", pipeline=tortoise_pipeline(registry)
            ).start()
            for i in range(2)
        ]
        replacement = WorkerDaemon(
            name="e2e-replacement", pipeline=tortoise_pipeline(registry)
        ).start()
        listen_port = free_port()
        pipeline = tortoise_pipeline(registry)
        request = request_for_documents(
            "tortoise",
            documents,
            batch_size=3,
            backend="remote",
            backend_options={
                "workers": ",".join(w.address for w in workers),
                "listen": listen_port,
            },
        )
        outcome: dict = {}

        def run():
            outcome["report"] = pipeline.run(request)

        thread = threading.Thread(target=run)
        thread.start()
        try:
            victim = workers[1]
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if victim.counters["docs_received"] or victim.counters[
                    "shards_completed"
                ]:
                    break
                time.sleep(0.005)
            else:
                pytest.fail("the victim worker never received a shard")
            # The replacement joins mid-run, then the victim dies abruptly.
            replacement.join(f"127.0.0.1:{listen_port}", retries=40, retry_delay=0.25)
            victim.kill()
            thread.join(timeout=120)
            assert not thread.is_alive(), "run hung after kill + join"
        finally:
            for worker in workers:
                worker.stop()
            replacement.stop()
        report = outcome["report"]
        assert result_dicts(report) == result_dicts(serial)
        extra = report.execution.extra
        assert extra["cluster_workers_seen"] == 3
        assert extra["cluster_workers_lost"] == 1
        assert extra["cluster_shards_completed"] == report.execution.batches_dispatched
        assert extra["cluster_duplicate_results_ignored"] >= 0


class TestLedgerResume:
    def test_resumed_campaign_is_byte_identical_and_skips_completed(
        self, registry, corpus_30, tmp_path
    ):
        """Coordinator killed mid-campaign, re-run resumes from the ledger.

        The kill is emulated deterministically: a first campaign over the
        corpus prefix records its shards to the ledger and "dies" (the
        coordinator goes away with the run); the re-run over the full
        corpus must replay exactly those shards — the workers never see
        them — and produce byte-identical output to an uninterrupted
        serial run.
        """
        documents = list(corpus_30)
        ledger_dir = tmp_path / "campaign-ledger"
        serial = tortoise_pipeline(registry).run(
            request_for_documents("tortoise", documents, batch_size=5)
        )

        def run_remote(docs, workers):
            return tortoise_pipeline(registry).run(
                request_for_documents(
                    "tortoise",
                    docs,
                    batch_size=5,
                    backend="remote",
                    backend_options={
                        "workers": ",".join(w.address for w in workers),
                        "ledger_dir": str(ledger_dir),
                    },
                )
            )

        # Phase 1: the campaign completes 3 of 6 shards, then the
        # coordinator is gone (batching is deterministic, so the prefix's
        # shards are exactly the full run's first three).
        workers = [
            WorkerDaemon(
                name=f"resume-{i}", pipeline=tortoise_pipeline(registry)
            ).start()
            for i in range(2)
        ]
        try:
            run_remote(documents[:15], workers)
        finally:
            for worker in workers:
                worker.stop()
        from repro.cluster.ledger import ShardLedger

        assert len(ShardLedger(ledger_dir)) == 3

        # Phase 2: fresh workers (cold caches — replay must not need
        # them), same ledger, full corpus.
        workers = [
            WorkerDaemon(
                name=f"resume-{i}", pipeline=tortoise_pipeline(registry)
            ).start()
            for i in range(2)
        ]
        try:
            resumed = run_remote(documents, workers)
            docs_parsed = sum(w.counters["docs_parsed"] for w in workers)
        finally:
            for worker in workers:
                worker.stop()
        assert result_dicts(resumed) == result_dicts(serial)
        extra = resumed.execution.extra
        assert extra["cluster_shards_replayed"] == 3
        # The workers only parsed the un-checkpointed half of the corpus.
        assert docs_parsed == 15
        assert len(ShardLedger(ledger_dir)) == 6

    def test_fully_completed_campaign_replays_everything(
        self, registry, corpus_30, tmp_path
    ):
        documents = list(corpus_30)[:10]
        ledger_dir = tmp_path / "full-ledger"

        def run_remote(workers):
            return tortoise_pipeline(registry).run(
                request_for_documents(
                    "tortoise",
                    documents,
                    batch_size=5,
                    backend="remote",
                    backend_options={
                        "workers": ",".join(w.address for w in workers),
                        "ledger_dir": str(ledger_dir),
                    },
                )
            )

        workers = [
            WorkerDaemon(
                name="full-0", pipeline=tortoise_pipeline(registry)
            ).start()
        ]
        try:
            first = run_remote(workers)
            second = run_remote(workers)
            docs_parsed = workers[0].counters["docs_parsed"]
        finally:
            workers[0].stop()
        assert result_dicts(second) == result_dicts(first)
        assert second.execution.extra["cluster_shards_replayed"] == 2
        assert docs_parsed == len(documents)  # run 2 parsed nothing new
