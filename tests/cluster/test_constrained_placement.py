"""GPU and balanced placement on a live coordinator.

A shard may ask for a GPU worker (a heavyweight parser's shards do).  The
coordinator keeps it to workers that advertise a GPU, relaxes the ask when no
alive worker does, and re-places queued shards toward a GPU joiner by the
same rule.  ``balanced`` placement picks the
least-backlogged worker, rendezvous rank breaking ties.  Each test checks
where shards land against :func:`~repro.cluster.protocol.rank_workers`.
"""

from __future__ import annotations

import threading

import pytest

from repro.cache.keys import document_content_hash
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.protocol import WorkerSpec, rank_workers, shard_placement_key
from repro.cluster.worker import WorkerDaemon
from repro.documents.corpus import CorpusConfig, build_corpus
from repro.parsers.base import Parser, ParserCost
from repro.parsers.registry import default_registry
from repro.pipeline import ParsePipeline, request_for_documents


class GateParser(Parser):
    """Parser double that holds every shard until its gate opens."""

    name = "gate"
    version = "1.0"
    cost = ParserCost(cpu_seconds_per_page=0.001)

    def __init__(self, gate: threading.Event) -> None:
        self.gate = gate

    def _parse_pages(self, document, rng):
        self.gate.wait(30)
        return [f"{document.doc_id}:p{i}" for i in range(document.n_pages)]


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def documents():
    corpus = build_corpus(CorpusConfig(n_documents=48, seed=13, min_pages=1, max_pages=1))
    return list(corpus)


def gated_worker(registry, gate, name, gpu=False) -> WorkerDaemon:
    pipeline = ParsePipeline(registry)
    pipeline.engines["gate"] = GateParser(gate)
    return WorkerDaemon(name=name, pipeline=pipeline, gpu=gpu).start()


def placement_key(batch) -> str:
    return shard_placement_key([document_content_hash(doc) for doc in batch])


def pairs(documents):
    return [documents[i : i + 2] for i in range(0, len(documents), 2)]


def queued_and_in_flight(coordinator) -> dict[str, list[str]]:
    return {
        link.worker_id: list(link.in_flight) + [s.shard_id for s in link.queued]
        for link in coordinator._links
    }


class TestConstrainedPlacement:
    def test_gpu_worker_takes_every_nougat_shard(self, registry, documents):
        workers = [
            WorkerDaemon(name="gpu-0", pipeline=ParsePipeline(registry), gpu=True).start(),
            WorkerDaemon(name="cpu-0", pipeline=ParsePipeline(registry)).start(),
            WorkerDaemon(name="cpu-1", pipeline=ParsePipeline(registry)).start(),
        ]
        batch = documents[:12]
        try:
            report = ParsePipeline(registry).run(
                request_for_documents(
                    "nougat", batch, batch_size=2, backend="remote",
                    backend_options={"workers": ",".join(w.address for w in workers)},
                )
            )
            parsed = {w.name: w.counters["docs_parsed"] for w in workers}
        finally:
            for worker in workers:
                worker.stop()
        assert report.n_succeeded == len(batch)
        assert parsed == {"gpu-0": len(batch), "cpu-0": 0, "cpu-1": 0}
        assert report.execution.extra["cluster_placement_relaxed"] == 0

    def test_no_gpu_worker_relaxes_each_shard_once(self, registry, documents):
        workers = [
            WorkerDaemon(name=f"plain-{i}", pipeline=ParsePipeline(registry)).start()
            for i in range(2)
        ]
        spec = WorkerSpec.for_parser(registry.get("nougat"))
        shards = pairs(documents[:16])
        coordinator = ClusterCoordinator([w.address for w in workers]).connect()
        try:
            futures = [coordinator.submit(spec, batch, gpu=True) for batch in shards]
            outputs = [future.result(timeout=60) for future in futures]
            relaxed = coordinator.counters["placement_relaxed"]
            parsed = {w.name: w.counters["docs_parsed"] for w in workers}
        finally:
            coordinator.close()
            for worker in workers:
                worker.stop()
        assert [len(results) for results, _ in outputs] == [2] * len(shards)
        assert relaxed == len(shards)
        # Relaxed shards rank over every worker, as CPU-only ones do.
        expected = {"plain-0": 0, "plain-1": 0}
        for batch in shards:
            expected[rank_workers(placement_key(batch), list(expected))[0]] += len(batch)
        assert parsed == expected

    def test_gpu_joiner_takes_exactly_the_queued_shards_it_ranks_first(
        self, registry, documents
    ):
        gate = threading.Event()
        fixed = [
            gated_worker(registry, gate, "g0", gpu=True),
            gated_worker(registry, gate, "u0"),
            gated_worker(registry, gate, "u1"),
        ]
        joiner = gated_worker(registry, gate, "j0", gpu=True)
        pipeline = ParsePipeline(registry)
        pipeline.engines["gate"] = GateParser(gate)
        spec = WorkerSpec.for_parser(pipeline.engines["gate"])
        shards = pairs(documents)
        coordinator = ClusterCoordinator([w.address for w in fixed], window=1).connect()
        try:
            futures = [
                coordinator.submit(spec, batch, gpu=i % 2 == 0)
                for i, batch in enumerate(shards)
            ]
            ids = {future.shard_id: i for i, future in enumerate(futures)}
            before = queued_and_in_flight(coordinator)
            in_flight = {sid for link in coordinator._links for sid in link.in_flight}
            coordinator.add_worker(joiner.address)
            moved = set(queued_and_in_flight(coordinator)["j0"])
            gate.set()
            outputs = [future.result(timeout=60) for future in futures]
        finally:
            gate.set()
            coordinator.close()
            for worker in fixed + [joiner]:
                worker.stop()
        assert all(len(results) == 2 for results, _ in outputs)
        # Before the join every GPU shard sat on the one GPU worker.
        assert {sid for sid in before["g0"] if ids[sid] % 2 == 0} == {
            sid for sid, i in ids.items() if i % 2 == 0
        }
        expected = set()
        for worker_id, held in before.items():
            for sid in held:
                if sid in in_flight:
                    continue
                i = ids[sid]
                candidates = ["g0", "j0"] if i % 2 == 0 else ["g0", "u0", "u1", "j0"]
                if rank_workers(placement_key(shards[i]), candidates)[0] == "j0":
                    expected.add(sid)
        assert moved == expected
        moved_kinds = {ids[sid] % 2 == 0 for sid in moved}
        assert moved_kinds == {True, False}  # witnesses of both kinds moved
        # A moved GPU shard that a CPU-only worker outranks j0 for: the GPU
        # filter, not the plain ranking, chose the joiner.
        assert any(
            rank_workers(placement_key(shards[ids[sid]]), ["g0", "u0", "u1", "j0"])[0]
            != "j0"
            for sid in moved
            if ids[sid] % 2 == 0
        )
        assert coordinator.counters["shards_rebalanced"] == len(expected)

    def test_balanced_picks_least_backlog_then_rendezvous_rank(
        self, registry, documents
    ):
        gate = threading.Event()
        names = ["b0", "b1", "b2"]
        workers = [gated_worker(registry, gate, name) for name in names]
        pipeline = ParsePipeline(registry)
        pipeline.engines["gate"] = GateParser(gate)
        spec = WorkerSpec.for_parser(pipeline.engines["gate"])
        shards = pairs(documents[:20])
        coordinator = ClusterCoordinator(
            [w.address for w in workers], window=1, placement="balanced"
        ).connect()
        backlog = dict.fromkeys(names, 0)
        expected, placed = [], []
        rank_decided = 0
        try:
            for batch in shards:
                ranked = rank_workers(placement_key(batch), names)
                tied = [wid for wid in names if backlog[wid] == min(backlog.values())]
                target = min(ranked, key=lambda wid: (backlog[wid], ranked.index(wid)))
                rank_decided += len(tied) > 1 and target != tied[0]
                backlog[target] += 1
                expected.append(target)
                future = coordinator.submit(spec, batch)
                placed.append(coordinator._shards[future.shard_id].assigned_worker)
        finally:
            gate.set()
            coordinator.close()
            for worker in workers:
                worker.stop()
        assert placed == expected
        # Some ties went against the workers' list order: rank broke them.
        assert rank_decided > 0
