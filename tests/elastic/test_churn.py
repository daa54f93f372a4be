"""Churn properties: joins and leaves disrupt the minimal shard set.

The rendezvous-hashing property under test (satellite of the elastic PR):
adding or removing one worker re-places only the shards that prefer the
changed worker — about ``1/n`` of them — and a shard that already
completed (or is in flight) never moves at all.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.protocol import rank_workers
from repro.cluster.worker import WorkerDaemon
from repro.parsers.base import Parser, ParserCost
from repro.parsers.registry import default_registry
from repro.pipeline import ParsePipeline
from repro.utils.hashing import stable_hash_hex


class TortoiseParser(Parser):
    """Deterministic, slow-enough-to-queue parser double."""

    name = "tortoise"
    version = "1.0"
    cost = ParserCost(cpu_seconds_per_page=0.001)

    def __init__(self, sleep_seconds: float = 0.05) -> None:
        self.sleep_seconds = sleep_seconds

    def _parse_pages(self, document, rng):
        time.sleep(self.sleep_seconds)
        return [f"{document.doc_id}:p{i}" for i in range(document.n_pages)]


def tortoise_pipeline(registry, sleep_seconds: float = 0.05) -> ParsePipeline:
    pipeline = ParsePipeline(registry)
    pipeline.engines["tortoise"] = TortoiseParser(sleep_seconds)
    return pipeline


@pytest.fixture(scope="module")
def registry():
    return default_registry()


# ---------------------------------------------------------------------- #
# Pure rendezvous properties (no sockets)
# ---------------------------------------------------------------------- #
N_KEYS = 400


def placement_keys(n: int = N_KEYS) -> list[str]:
    return [stable_hash_hex("churn-key", i) for i in range(n)]


def top_choice(key: str, workers: list[str]) -> str:
    return rank_workers(key, workers)[0]


class TestRendezvousChurnProperties:
    def test_join_moves_at_most_the_expected_fraction(self):
        workers = [f"w{i}" for i in range(4)]
        before = {key: top_choice(key, workers) for key in placement_keys()}
        grown = workers + ["w4"]
        after = {key: top_choice(key, grown) for key in placement_keys()}
        moved = [key for key in before if before[key] != after[key]]
        # Expected fraction is 1/5; allow generous sampling slack but stay
        # far under the 100% a modulo scheme would shuffle.
        assert len(moved) / N_KEYS <= 2.0 * (1 / len(grown))
        assert len(moved) > 0  # the newcomer does take a share

    def test_every_moved_shard_moves_to_the_newcomer(self):
        workers = [f"w{i}" for i in range(4)]
        grown = workers + ["w4"]
        for key in placement_keys():
            old = top_choice(key, workers)
            new = top_choice(key, grown)
            if new != old:
                assert new == "w4"

    def test_leave_moves_only_the_departed_workers_shards(self):
        workers = [f"w{i}" for i in range(4)]
        shrunk = [w for w in workers if w != "w2"]
        for key in placement_keys():
            old = top_choice(key, workers)
            new = top_choice(key, shrunk)
            if old != "w2":
                # Shards on the survivors never move.
                assert new == old

    def test_join_then_leave_is_identity(self):
        workers = [f"w{i}" for i in range(4)]
        for key in placement_keys(100):
            assert top_choice(key, workers) == top_choice(key, list(workers))


# ---------------------------------------------------------------------- #
# Live-coordinator churn (sockets, queued shards, completions)
# ---------------------------------------------------------------------- #
class TestCoordinatorChurn:
    def test_mid_run_join_rebalances_only_queued_shards(self, registry):
        """A join re-places ≤ the queued set and never a completed shard."""
        from repro.cluster.protocol import WorkerSpec

        first = WorkerDaemon(
            name="churn-0", pipeline=tortoise_pipeline(registry)
        ).start()
        second = WorkerDaemon(
            name="churn-1", pipeline=tortoise_pipeline(registry)
        ).start()
        from repro.documents.corpus import CorpusConfig, build_corpus

        documents = list(
            build_corpus(CorpusConfig(n_documents=24, seed=3, min_pages=1, max_pages=1))
        )
        pipeline = tortoise_pipeline(registry)
        spec = WorkerSpec.for_parser(pipeline.engines["tortoise"])
        coordinator = ClusterCoordinator([first.address], window=1).connect()
        try:
            futures = [
                coordinator.submit(spec, documents[i : i + 2])
                for i in range(0, len(documents), 2)
            ]
            # Wait until at least one shard completed on the first worker,
            # so the no-completed-shard-moves property has a witness.
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if coordinator.counters["shards_completed"] >= 1:
                    break
                time.sleep(0.005)
            completed_before = coordinator.counters["shards_completed"]
            queued_before = sum(w["queued"] for w in coordinator.workers())
            coordinator.add_worker(second.address)
            rebalanced = coordinator.counters["shards_rebalanced"]
            # Only queued shards may move; completed and in-flight never do.
            assert rebalanced <= queued_before
            outputs = [future.result(timeout=60) for future in futures]
            assert all(len(results) == 2 for results, _ in outputs)
            # Exactly-once: every submitted shard completed exactly once
            # (replays of completed work would show up as duplicates).
            assert (
                coordinator.counters["shards_completed"]
                == coordinator.counters["shards_submitted"]
            )
            assert coordinator.counters["shards_completed"] >= completed_before
            assert coordinator.counters["workers_seen"] == 2
        finally:
            coordinator.close()
            first.stop()
            second.stop()

    def test_graceful_leave_requeues_and_completes_everything(self, registry):
        from repro.cluster.protocol import WorkerSpec
        from repro.documents.corpus import CorpusConfig, build_corpus

        workers = [
            WorkerDaemon(
                name=f"leave-{i}", pipeline=tortoise_pipeline(registry)
            ).start()
            for i in range(2)
        ]
        documents = list(
            build_corpus(CorpusConfig(n_documents=16, seed=5, min_pages=1, max_pages=1))
        )
        pipeline = tortoise_pipeline(registry)
        spec = WorkerSpec.for_parser(pipeline.engines["tortoise"])
        coordinator = ClusterCoordinator(
            [w.address for w in workers], window=1
        ).connect()
        try:
            futures = [
                coordinator.submit(spec, documents[i : i + 2])
                for i in range(0, len(documents), 2)
            ]
            coordinator.remove_worker("leave-1")
            outputs = [future.result(timeout=60) for future in futures]
            assert all(len(results) == 2 for results, _ in outputs)
            assert (
                coordinator.counters["shards_completed"]
                == coordinator.counters["shards_submitted"]
            )
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if coordinator.counters["workers_left"] == 1:
                    break
                time.sleep(0.01)
            assert coordinator.counters["workers_left"] == 1
            assert coordinator.counters["workers_lost"] == 0
        finally:
            coordinator.close()
            for worker in workers:
                worker.stop()

    def test_remove_unknown_worker_raises(self, registry):
        from repro.cluster.coordinator import ClusterError

        fixed = WorkerDaemon(pipeline=ParsePipeline(registry)).start()
        coordinator = ClusterCoordinator([fixed.address]).connect()
        try:
            with pytest.raises(ClusterError, match="no alive worker"):
                coordinator.remove_worker("nobody")
        finally:
            coordinator.close()
            fixed.stop()
