"""Integration tests: obs wired through service, gateway, and cluster.

The acceptance centrepiece mirrors the README's observability story: one
request submitted through a :class:`GatewayClient` over a 2-worker
cluster must yield a *single* trace id visible in the client's streamed
event payloads and in both workers' shard logs.
"""

from __future__ import annotations

import logging
import sys
import subprocess
import textwrap

import pytest

from repro.cache import ParseCache
from repro.cluster.worker import WorkerDaemon
from repro.gateway import GatewayClient, GatewayServer
from repro.obs import metrics
from repro.pipeline import ParsePipeline, ParseRequest
from repro.serve import ParseService, ServiceConfig


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Fresh metric series around every test."""
    metrics.reset()
    yield
    metrics.reset()


def request_for(n_documents: int = 8, seed: int = 11, **overrides) -> ParseRequest:
    options = {"parser": "pymupdf", "source": f"synthetic:{n_documents}?seed={seed}"}
    options.update(overrides)
    return ParseRequest(**options)


# ---------------------------------------------------------------------- #
# Lazy import
# ---------------------------------------------------------------------- #
def test_import_repro_does_not_import_obs():
    code = textwrap.dedent(
        """
        import sys
        import repro
        assert "repro.obs" not in sys.modules, "repro.obs imported eagerly"
        import repro.obs  # the lazy attribute still resolves
        assert repro.obs.default_registry() is not None
        """
    )
    subprocess.run([sys.executable, "-c", code], check=True)


# ---------------------------------------------------------------------- #
# Service layer
# ---------------------------------------------------------------------- #
class TestServiceInstrumentation:
    def test_events_carry_one_trace_id_and_elapsed(self):
        with ParseService(pipeline=ParsePipeline()) as service:
            ticket = service.submit(request_for(batch_size=4))
            ticket.result(timeout=60)
            events = list(ticket.events(timeout=1))
        trace_ids = {e.payload.get("trace_id") for e in events}
        assert len(trace_ids) == 1 and None not in trace_ids
        for event in events:
            if event.kind in ("batch", "completed", "failed", "cancelled"):
                assert event.payload["elapsed_s"] >= 0.0

    def test_admission_wait_is_the_queued_to_started_gap(self):
        with ParseService(pipeline=ParsePipeline()) as service:
            ticket = service.submit(request_for())
            ticket.result(timeout=60)
            events = {e.kind: e for e in ticket.events(timeout=1)}
        assert events["started"].timestamp >= events["queued"].timestamp > 0

    def test_ticket_lifecycle_counters(self):
        with ParseService(pipeline=ParsePipeline()) as service:
            service.submit(request_for()).result(timeout=60)
        tickets = metrics.default_registry().get("repro_service_tickets_total")
        assert tickets.value(state="submitted") == 1
        assert tickets.value(state="completed") == 1
        admission = metrics.default_registry().get(
            "repro_service_admission_wait_seconds"
        )
        assert admission.value()["count"] == 1

    def test_cancelled_ticket_counted_with_elapsed(self):
        config = ServiceConfig(max_active=1, backend_options={"n_jobs": 2})
        with ParseService(pipeline=ParsePipeline(), config=config) as service:
            running = service.submit(request_for(16))
            queued = service.submit(request_for(16, seed=99))
            assert service.cancel(queued)
            running.result(timeout=60)
            terminal = list(queued.events(timeout=1))[-1]
        assert terminal.kind == "cancelled"
        assert terminal.payload["elapsed_s"] >= 0.0
        tickets = metrics.default_registry().get("repro_service_tickets_total")
        assert tickets.value(state="cancelled") == 1

    def test_cache_counters_feed_from_pipeline(self):
        pipeline = ParsePipeline(cache=ParseCache())
        with ParseService(pipeline=pipeline) as service:
            service.submit(request_for(cache="readwrite")).result(timeout=60)
            service.submit(request_for(cache="readwrite")).result(timeout=60)
        registry = metrics.default_registry()
        assert registry.get("repro_cache_misses_total").value() >= 1
        assert registry.get("repro_cache_hits_total").value() >= 1


# ---------------------------------------------------------------------- #
# Gateway layer
# ---------------------------------------------------------------------- #
class TestGatewayInstrumentation:
    @pytest.fixture()
    def gateway(self):
        with ParseService(pipeline=ParsePipeline()) as service:
            with GatewayServer(service, port=0) as server:
                yield server

    def connect(self, server: GatewayServer) -> GatewayClient:
        return GatewayClient("127.0.0.1", server.port, client="obs-test").connect()

    def test_trace_id_on_submitted_reply_and_ticket_events(self, gateway):
        with self.connect(gateway) as client:
            ticket = client.submit(request_for())
            assert ticket.trace_id
            events = list(ticket.events())
            assert {e.payload.get("trace_id") for e in events} == {ticket.trace_id}

    def test_metrics_rpc_text_and_json(self, gateway):
        with self.connect(gateway) as client:
            client.submit(request_for()).events()
            text = client.metrics(format="text")
            snap = client.metrics(format="json")
        assert "repro_gateway_submitted_total 1" in text
        assert isinstance(snap, dict)
        assert snap["repro_gateway_submitted_total"]["values"][0]["value"] == 1

    def test_rejections_counted_by_reason(self, gateway):
        with self.connect(gateway) as client:
            from repro.gateway import protocol

            reply = client._rpc(
                {"type": protocol.SUBMIT, "request": {"source": "synthetic:-5"}}
            )
            assert reply.get("type") == protocol.REJECTED
            text = client.metrics(format="text")
        assert 'repro_gateway_rejected_total{reason="bad_request"} 1' in text


# ---------------------------------------------------------------------- #
# The acceptance criterion: one trace across gateway + 2-worker cluster
# ---------------------------------------------------------------------- #
def test_one_trace_id_across_gateway_service_and_cluster_workers(
    registry, caplog, monkeypatch
):
    # A daemon command run in-process earlier may have detached the
    # ``repro`` logger tree from the root, where caplog listens.
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    caplog.set_level(logging.DEBUG, logger="repro.cluster.worker")
    workers = [
        WorkerDaemon(name=f"obs-worker-{i}", pipeline=ParsePipeline(registry)).start()
        for i in range(2)
    ]
    addresses = ",".join(f"127.0.0.1:{w.port}" for w in workers)
    config = ServiceConfig(backend="remote", backend_options={"workers": addresses})
    try:
        with ParseService(pipeline=ParsePipeline(registry), config=config) as service:
            with GatewayServer(service, port=0) as server:
                with GatewayClient(
                    "127.0.0.1", server.port, client="obs-e2e"
                ).connect() as client:
                    ticket = client.submit(
                        request_for(8, batch_size=2, cache="off")
                    )
                    events = list(ticket.events())
    finally:
        for worker in workers:
            worker.stop()

    # One trace id, everywhere.
    assert ticket.trace_id
    assert {e.payload.get("trace_id") for e in events} == {ticket.trace_id}

    # Both workers logged every shard they ran under the ticket's trace id.
    completed = [
        record
        for record in caplog.records
        if record.name == "repro.cluster.worker"
        and record.getMessage() == "shard_completed"
    ]
    assert all(worker.counters["shards_completed"] > 0 for worker in workers)
    assert len(completed) == sum(w.counters["shards_completed"] for w in workers)
    assert {r.repro_fields["trace_id"] for r in completed} == {ticket.trace_id}

    # Cluster metrics counted the shards.
    shards = metrics.default_registry().get("repro_cluster_shards_total")
    assert shards.value(outcome="completed") == 4


def test_submit_over_cluster_merges_worker_phases(registry):
    """A submit through the gateway over a 2-worker cluster yields the
    workers' phase tables merged into the report."""
    workers = [
        WorkerDaemon(
            name=f"phase-worker-{i}", pipeline=ParsePipeline(registry)
        ).start()
        for i in range(2)
    ]
    addresses = ",".join(f"127.0.0.1:{w.port}" for w in workers)
    config = ServiceConfig(backend="remote", backend_options={"workers": addresses})
    try:
        with ParseService(pipeline=ParsePipeline(registry), config=config) as service:
            with GatewayServer(service, port=0) as server:
                with GatewayClient(
                    "127.0.0.1", server.port, client="phase-e2e"
                ).connect() as client:
                    ticket = client.submit(
                        request_for(8, batch_size=2, cache="off")
                    )
                    report = client.result(ticket, timeout=60)
    finally:
        for worker in workers:
            worker.stop()

    # Worker phase tables crossed the wire and merged into the report.
    phases = report["phases"]
    assert {"source.iter", "parse"} <= set(phases)
    assert phases["parse"]["total_s"] > 0


# ---------------------------------------------------------------------- #
# Satellite: backend `extra` key-family parity
# ---------------------------------------------------------------------- #
class TestBackendExtraParity:
    def extra_for(self, backend: str, registry, **options) -> dict:
        request = request_for(6, backend=backend, backend_options=options)
        report = ParsePipeline(registry).run(request)
        return report.execution.to_json_dict()["extra"]

    def test_remote_publishes_cluster_family(self, registry):
        worker = WorkerDaemon(
            name="parity-worker", pipeline=ParsePipeline(registry)
        ).start()
        try:
            extra = self.extra_for(
                "remote", registry, workers=f"127.0.0.1:{worker.port}"
            )
        finally:
            worker.stop()
        cluster_keys = {k for k in extra if k.startswith("cluster_")}
        for key in (
            "cluster_workers_configured",
            "cluster_placement",
            "cluster_shards_completed",
        ):
            assert key in cluster_keys, f"remote extra missing {key}"
