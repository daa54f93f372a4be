"""Benchmark: gateway concurrency — sustained requests/sec through the wire.

Runs the same many-client workload twice: ``direct`` submits straight to
an in-process :class:`~repro.serve.ParseService` from N threads, and
``gateway`` routes every submission through a
:class:`~repro.gateway.GatewayServer` over localhost TCP with one
:class:`~repro.gateway.GatewayClient` per worker (handshake, framed
submit, live event stream, result fetch).  Both modes share a
read-write cache over one corpus spec, so the run doubles as an
exactly-once check: across *all* clients and requests each document is
parsed once, everyone else is served by a hit or a coalesced wait.

The gated metric is the hardware-portable ratio
``gateway_relative_throughput`` (gateway requests/s over the same
machine's direct requests/s) — it tracks the per-request wire overhead
(framing, event fan-out, result marshalling), not runner speed.
``gateway_exactly_once`` pins the cross-client dedup invariant (1.0 or
the run asserts).  The run also hard-asserts **zero rejections** at
fitting load and an immediate ``rejected`` (never a hang) once capacity
or a client's rate limit is exhausted.

Run standalone (the CI smoke + regression-gate invocation)::

    PYTHONPATH=src python benchmarks/bench_gateway_concurrency.py
    PYTHONPATH=src python benchmarks/bench_gateway_concurrency.py --json BENCH_gateway.json
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
from pathlib import Path
from time import perf_counter

from repro.cache import ParseCache
from repro.gateway import ClientQuota, GatewayClient, GatewayRejected, GatewayServer
from repro.parsers.base import Parser, ParserCost
from repro.parsers.registry import ParserRegistry
from repro.pipeline import ParsePipeline, ParseRequest
from repro.serve import ParseService, ServiceConfig

N_CLIENTS = int(os.environ.get("REPRO_BENCH_GATEWAY_CLIENTS", 8))
REQUESTS_PER_CLIENT = int(os.environ.get("REPRO_BENCH_GATEWAY_REQUESTS", 3))
N_DOCUMENTS = int(os.environ.get("REPRO_BENCH_GATEWAY_DOCS", 24))
SLEEP_SECONDS = float(os.environ.get("REPRO_BENCH_GATEWAY_SLEEP", 0.005))
BATCH_SIZE = 6
MAX_ACTIVE = 8


class SleepyGatewayParser(Parser):
    """Off-GIL I/O stand-in: parse time dominates framing overhead."""

    name = "sleepy-gateway"
    version = "1.0"
    cost = ParserCost(cpu_seconds_per_page=0.01)

    def __init__(self, sleep_seconds: float = SLEEP_SECONDS) -> None:
        self.sleep_seconds = sleep_seconds

    def _parse_pages(self, document, rng):
        time.sleep(self.sleep_seconds)
        return [f"{document.doc_id}:page-{i}" for i in range(document.n_pages)]


def _service(sleep_seconds: float) -> ParseService:
    registry = ParserRegistry()
    registry.register(SleepyGatewayParser(sleep_seconds))
    return ParseService(
        pipeline=ParsePipeline(registry=registry, cache=ParseCache()),
        config=ServiceConfig(max_active=MAX_ACTIVE, backend_options={"n_jobs": 4}),
    )


def _request(n_documents: int) -> ParseRequest:
    return ParseRequest(
        parser=SleepyGatewayParser.name,
        source=f"synthetic:{n_documents}?seed=41",
        batch_size=BATCH_SIZE,
        cache="readwrite",
    )


def _run_threads(n_clients: int, worker) -> list[list[dict]]:
    """Run ``worker(i)`` on N threads; returns per-client cache counters."""
    counters: list[list[dict]] = [[] for _ in range(n_clients)]
    errors: list[BaseException] = []

    def run(i: int) -> None:
        try:
            counters[i] = worker(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return counters


def _measure_direct(
    n_clients: int, requests_per_client: int, n_documents: int, sleep_seconds: float
) -> tuple[float, list[dict]]:
    with _service(sleep_seconds) as service:

        def worker(i: int) -> list[dict]:
            out = []
            for _ in range(requests_per_client):
                ticket = service.submit(_request(n_documents), client=f"client-{i}")
                out.append(ticket.result(timeout=120).cache.to_json_dict())
            return out

        started = perf_counter()
        counters = _run_threads(n_clients, worker)
        elapsed = perf_counter() - started
    return elapsed, [c for per_client in counters for c in per_client]


def _measure_gateway(
    n_clients: int, requests_per_client: int, n_documents: int, sleep_seconds: float
) -> tuple[float, list[dict], dict]:
    with _service(sleep_seconds) as service:
        with GatewayServer(service, port=0, max_queue_depth=4 * n_clients) as server:

            def worker(i: int) -> list[dict]:
                out = []
                with GatewayClient(
                    "127.0.0.1", server.port, client=f"client-{i}"
                ) as client:
                    for _ in range(requests_per_client):
                        ticket = client.submit(_request(n_documents))
                        for _event in ticket.events(timeout=120):
                            pass  # consume the live stream, like a real client
                        out.append(client.result(ticket, timeout=120)["cache"])
                return out

            started = perf_counter()
            counters = _run_threads(n_clients, worker)
            elapsed = perf_counter() - started
            stats = server.stats()
    return elapsed, [c for per_client in counters for c in per_client], stats


def _assert_backpressure_rejects(sleep_seconds: float) -> None:
    """Saturation and rate limits must answer ``rejected`` immediately."""
    with _service(sleep_seconds) as service:
        with GatewayServer(service, port=0, max_queue_depth=0) as server:
            server.auth.default_quota = ClientQuota(
                max_active=100, rate_per_second=0.001, burst=1
            )
            with GatewayClient("127.0.0.1", server.port, client="probe") as client:
                ticket = client.submit(_request(8))
                started = perf_counter()
                try:
                    client.submit(_request(8))
                except GatewayRejected as exc:
                    assert exc.reason in ("rate_limited", "saturated"), exc.reason
                else:
                    raise AssertionError("second submission was not rejected")
                assert perf_counter() - started < 5.0, "rejection was not immediate"
                client.result(ticket, timeout=120)


def run_gateway_concurrency(
    n_clients: int = N_CLIENTS,
    requests_per_client: int = REQUESTS_PER_CLIENT,
    n_documents: int = N_DOCUMENTS,
    sleep_seconds: float = SLEEP_SECONDS,
) -> list[dict[str, object]]:
    """Measure direct vs through-the-gateway submission; one row per mode."""
    n_requests = n_clients * requests_per_client
    rows: list[dict[str, object]] = []

    direct_elapsed, direct_counters = _measure_direct(
        n_clients, requests_per_client, n_documents, sleep_seconds
    )
    gateway_elapsed, gateway_counters, stats = _measure_gateway(
        n_clients, requests_per_client, n_documents, sleep_seconds
    )

    # Exactly-once across every client and request, in both modes.
    for label, counters in (("direct", direct_counters), ("gateway", gateway_counters)):
        misses = sum(c["misses"] for c in counters)
        assert misses == n_documents, (
            f"{label}: expected exactly-once parsing ({n_documents} misses "
            f"across the fleet), saw {misses}"
        )
    # Fitting load must sail through admission untouched.
    assert stats["rejected"] == 0, f"rejected at fitting load: {stats}"
    assert stats["submitted"] == n_requests, stats

    for label, elapsed, counters in (
        ("direct", direct_elapsed, direct_counters),
        ("gateway", gateway_elapsed, gateway_counters),
    ):
        rows.append(
            {
                "case": label,
                "clients": n_clients,
                "requests": n_requests,
                "req/s": n_requests / elapsed if elapsed > 0 else float("inf"),
                "misses": sum(c["misses"] for c in counters),
                "hits+coalesced": sum(
                    c["hits"] + c["coalesced"] for c in counters
                ),
            }
        )
    rows[1]["bytes on wire"] = stats["bytes_in"] + stats["bytes_out"]
    rows[1]["backlog high-water"] = stats["event_backlog_high_water"]

    _assert_backpressure_rejects(sleep_seconds)
    return rows


def rows_to_metrics(rows: list[dict[str, object]]) -> dict[str, float]:
    """The machine-portable metrics the CI regression gate compares.

    ``gateway_relative_throughput`` is the gateway's requests/s over the
    same machine's direct in-process requests/s — the wire tax, not the
    runner speed.  ``gateway_exactly_once`` is 1.0 by construction (the
    run asserts it); gating it keeps the dedup invariant in the baseline
    contract.  Higher is better for both.
    """
    by_case = {str(row["case"]): row for row in rows}
    return {
        "gateway_relative_throughput": (
            float(by_case["gateway"]["req/s"]) / float(by_case["direct"]["req/s"])
        ),
        "gateway_exactly_once": 1.0,
    }


def _rows_to_table(rows: list[dict[str, object]]):
    from repro.utils.tables import Table

    columns: list[str] = []
    for row in rows:
        columns.extend(k for k in row.keys() if k not in columns)
    table = Table(
        title=f"Gateway concurrency ({rows[0]['clients']} clients x "
        f"{REQUESTS_PER_CLIENT} requests, {N_DOCUMENTS} docs, shared cache)",
        columns=columns,
    )
    for row in rows:
        table.add_row(row)
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=N_CLIENTS)
    parser.add_argument("--requests-per-client", type=int, default=REQUESTS_PER_CLIENT)
    parser.add_argument("--documents", type=int, default=N_DOCUMENTS)
    parser.add_argument("--sleep", type=float, default=SLEEP_SECONDS)
    parser.add_argument(
        "--json",
        type=str,
        default="",
        metavar="PATH",
        help="write the regression-gate metrics payload here",
    )
    args = parser.parse_args()
    rows = run_gateway_concurrency(
        args.clients, args.requests_per_client, args.documents, args.sleep
    )
    print(_rows_to_table(rows).to_text(precision=2))
    print("exactly-once dedup, zero rejections at fitting load, immediate "
          "rejection at saturation: OK")
    if args.json:
        payload = {
            "benchmark": "gateway_concurrency",
            "config": {
                "n_clients": args.clients,
                "requests_per_client": args.requests_per_client,
                "n_documents": args.documents,
                "sleep_seconds": args.sleep,
                "batch_size": BATCH_SIZE,
            },
            "metrics": rows_to_metrics(rows),
            "rows": rows,
        }
        Path(args.json).write_text(json.dumps(payload, indent=2), encoding="utf-8")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
