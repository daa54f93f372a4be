"""Command-line interface of the reproduction.

Examples
--------
Build a corpus and write it to disk as SimPDF archives::

    adaparse-repro corpus --documents 200 --output /tmp/corpus

Regenerate the quality tables at a reduced scale::

    adaparse-repro tables --documents 240 --output results.md

Run the scalability sweep (Figure 5)::

    adaparse-repro scaling --nodes 1 2 4 8 16 --docs-per-node 100

Run the preference-alignment analysis (Section 7.1)::

    adaparse-repro alignment --documents 120

Assemble an LLM-training dataset (parse → filter → dedup → shard)::

    adaparse-repro dataset --documents 200 --parser pymupdf --output /tmp/dataset

Run the unified parsing pipeline and dump the ``ParseReport`` as JSON::

    adaparse-repro pipeline --documents 100 --parser pymupdf \
        --backend thread --backend-opt n_jobs=4

Parse a directory of SimPDF files instead of the synthetic corpus — either
document source kind works (``--source KIND:VALUE``)::

    adaparse-repro pipeline --source simpdf-dir:corpus --parser pymupdf
    adaparse-repro dataset --source simpdf-dir:corpus --output /tmp/dataset

Run the same corpus through worker daemons::

    adaparse-repro cluster --workers 4 --documents 100

Run against the persistent parse cache (the first run fills it, a second
one is all hits), inspect it, and empty it::

    adaparse-repro pipeline --documents 200 --cache readwrite --cache-dir /tmp/parse-cache
    adaparse-repro cache stats --dir /tmp/parse-cache
    adaparse-repro cache purge --dir /tmp/parse-cache

Serve requests from other processes: a gateway daemon runs one parse
service (one backend, one cache, cross-request single-flight), and
``submit`` sends it a request and streams its NDJSON progress events::

    adaparse-repro gateway --port 9100 --backend thread --backend-opt n_jobs=8 \
        --cache-dir /tmp/parse-cache
    adaparse-repro submit --host 127.0.0.1 --port 9100 --documents 50 \
        --cache readwrite --priority 5

Run a distributed cluster: worker daemons plus a coordinated request
(``cluster`` spawns local workers, runs end to end, and prints the
placement/dedup summary; ``worker`` is the long-running daemon mode)::

    adaparse-repro worker --port 9101 --slots 2
    adaparse-repro cluster --workers 2 --documents 100 --parser pymupdf
    adaparse-repro pipeline --documents 100 --backend remote \
        --backend-opt workers=127.0.0.1:9101,127.0.0.1:9102

Observability: scrape a live gateway's metrics (Prometheus text or JSON)::

    adaparse-repro obs metrics --host 127.0.0.1 --port 9900

The daemon subcommands (``gateway``/``worker``/``cluster``)
accept ``--log-level`` and ``--log-json``; structured logs go to stderr,
leaving stdout for machine-readable output (the ready line, reports).

Splice the benchmark harness's measured results into ``EXPERIMENTS.md``::

    adaparse-repro fill-experiments

All parsing subcommands are built on :class:`repro.pipeline.ParsePipeline`:
one facade resolves parser/engine names, batches documents, enforces the α
routing budget, and returns results plus routing telemetry.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    import subprocess


def _positive_int(raw: str) -> int:
    """An argparse ``type``: a positive integer, else a usage error (exit 2)."""
    try:
        value = int(raw)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")


def _coerce_opt_value(raw: str):
    """Coerce a ``--backend-opt`` value: bool (``true``/``false``), int,
    float, then string."""
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for convert in (int, float):
        try:
            return convert(raw)
        except ValueError:
            continue
    return raw


def _parse_backend_opts(pairs: list[str] | None) -> dict:
    """Turn repeated ``--backend-opt key=value`` flags into an options dict."""
    options: dict = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep or not key.strip():
            raise SystemExit(
                f"invalid --backend-opt {pair!r}: expected key=value (e.g. n_jobs=4)"
            )
        options[key.strip()] = _coerce_opt_value(raw.strip())
    return options


def _validate_backend_spec_or_exit(backend: str, options: dict) -> None:
    """Fail fast — and cleanly — on a bad backend name or option.

    An unknown ``--backend-opt`` name (or a bad value) used to surface as
    a ``ValueError`` traceback out of ``ParseRequest``; a CLI user gets
    the message (which lists the known names/options) without the stack.
    """
    from repro.pipeline.backends.base import validate_backend_spec

    try:
        validate_backend_spec(backend, options)
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"error: {exc}") from exc


def _backend_options_or_exit(args: argparse.Namespace) -> dict:
    """Backend options from the CLI flags, validated against ``--backend``."""
    options = _parse_backend_opts(getattr(args, "backend_opt", None))
    _validate_backend_spec_or_exit(getattr(args, "backend", "auto"), options)
    return options


def _add_logging_arguments(parser: argparse.ArgumentParser) -> None:
    """The daemon logging flags (see :mod:`repro.obs.logging`)."""
    parser.add_argument(
        "--log-level",
        type=str,
        default="info",
        choices=["debug", "info", "warning", "error", "critical"],
        help="structured-log threshold (diagnostics go to stderr)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit logs as NDJSON (one JSON object per line) instead of text",
    )


def _setup_logging(args: argparse.Namespace) -> None:
    from repro.obs import logging as obs_logging

    obs_logging.setup(
        level=getattr(args, "log_level", "info"),
        json_mode=bool(getattr(args, "log_json", False)),
    )


def _add_backend_arguments(
    parser: argparse.ArgumentParser, default: str = "auto"
) -> None:
    parser.add_argument(
        "--backend",
        type=str,
        default=default,
        help=f"execution backend: auto, serial, thread, remote; async "
        f"and process are accepted names for thread; for CPU-bound work past "
        f"one core, use remote (default: {default})",
    )
    parser.add_argument(
        "--backend-opt",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="backend option (repeatable), e.g. n_jobs=4, "
        "workers=127.0.0.1:9101,127.0.0.1:9102",
    )


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.documents.corpus import CorpusConfig, build_corpus
    from repro.documents.simpdf import SimPdfArchive

    corpus = build_corpus(CorpusConfig(n_documents=args.documents, seed=args.seed))
    print(f"built corpus: {corpus.described()}")
    if args.output:
        output = Path(args.output)
        output.mkdir(parents=True, exist_ok=True)
        archive_path = output / "corpus.simpdfarch"
        SimPdfArchive.write(archive_path, corpus.documents)
        print(f"wrote {len(corpus)} documents to {archive_path}")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.evaluation.reporting import ExperimentRecord, print_table
    from repro.evaluation.tables import (
        ExperimentScale,
        build_experiment_context,
        table1_born_digital,
        table2_scanned,
        table3_degraded_text,
        table4_selector_models,
    )

    scale = ExperimentScale(n_documents=args.documents, seed=args.seed)
    print(f"building experiment context ({args.documents} documents)...", flush=True)
    context = build_experiment_context(scale)
    record = ExperimentRecord()
    tables = {
        "table1": table1_born_digital(context),
        "table2": table2_scanned(context),
        "table3": table3_degraded_text(context),
    }
    if not args.skip_table4:
        tables["table4"] = table4_selector_models(context)
    for key, table in tables.items():
        print_table(table)
        record.add_table(key, table)
    if args.output:
        path = record.save(args.output)
        print(f"wrote report to {path}")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.evaluation.figures import figure5_scalability, throughput_ratio_summary
    from repro.evaluation.reporting import print_table
    from repro.pipeline import ParsePipeline

    registry = ParsePipeline().registry
    series = figure5_scalability(
        registry, node_counts=args.nodes, docs_per_node=args.docs_per_node
    )
    print_table(series.to_table(), precision=2)
    print(
        f"{series.node_counts[0]}-node throughput relative to Nougat:",
        throughput_ratio_summary(series),
    )
    return 0


def _cmd_alignment(args: argparse.Namespace) -> int:
    from repro.documents.corpus import CorpusConfig, build_corpus
    from repro.evaluation.alignment import preference_alignment_statistics
    from repro.parsers.registry import default_registry
    from repro.preferences.study import StudyConfig

    corpus = build_corpus(CorpusConfig(n_documents=args.documents, seed=args.seed))
    stats = preference_alignment_statistics(
        corpus, default_registry(), StudyConfig(n_pages=args.pages, seed=args.seed)
    )
    for key, value in stats.as_dict().items():
        print(f"{key}: {value}")
    return 0


def _add_cache_arguments(
    parser: argparse.ArgumentParser,
    policy_default: str | None = "off",
    dir_help: str | None = "persistent cache directory",
) -> None:
    """The shared cache flags: ``--cache`` (policy) and ``--cache-dir``.

    ``policy_default=None`` omits the policy flag for commands whose policy
    is carried by each submitted request (``gateway``, ``worker``);
    ``dir_help=None`` omits the directory flag for ``submit``, whose
    request runs over the gateway's cache.
    """
    if policy_default is not None:
        parser.add_argument(
            "--cache",
            type=str,
            default=policy_default,
            choices=["off", "read", "write", "readwrite"],
            help=f"parse-result cache policy (default: {policy_default})",
        )
    if dir_help is not None:
        parser.add_argument("--cache-dir", type=str, default="", help=dir_help)


def resolve_cache_config(args: argparse.Namespace):
    """``(policy, cache)`` from the shared cache flags.

    ``cache`` is a :class:`~repro.cache.ParseCache` over ``--cache-dir``,
    or ``None`` for the pipeline's in-memory default.
    """
    policy = getattr(args, "cache", "off")
    if args.cache_dir:
        from repro.cache import ParseCache

        return policy, ParseCache(args.cache_dir)
    return policy, None


def _add_source_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--source",
        type=str,
        default="",
        metavar="KIND:VALUE",
        help="document source, e.g. synthetic:200?seed=7 or simpdf-dir:corpus/ "
        "(overrides --documents/--seed)",
    )


#: ``--parser`` names: the default registry's base parsers and the engines.
_PARSER_CHOICES = (
    "adaparse_ft",
    "adaparse_llm",
    "grobid",
    "marker",
    "nougat",
    "pymupdf",
    "pypdf",
    "tesseract",
)


def _add_parser_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--parser",
        type=str,
        default="pymupdf",
        choices=_PARSER_CHOICES,
        help="parser or engine (default: pymupdf)",
    )


def _cli_source(args: argparse.Namespace) -> str:
    """The request's source string: ``--source``, or the synthetic default."""
    return (
        getattr(args, "source", "")
        or f"synthetic:{args.documents}?seed={args.seed}"
    )


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.datasets.assembly import DatasetBuildConfig, DatasetBuilder
    from repro.documents.sources import create_source, parse_source_arg
    from repro.pipeline import ENGINE_VARIANTS, ParsePipeline

    cache_policy, cache = resolve_cache_config(args)
    pipeline = ParsePipeline(cache=cache)
    try:
        source = create_source(parse_source_arg(_cli_source(args)))
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    if args.parser in ENGINE_VARIANTS:
        print("training the AdaParse engine on a small corpus...", flush=True)
    parser = pipeline.resolve_parser(args.parser)
    builder = DatasetBuilder(
        parser,
        DatasetBuildConfig(
            output_dir=args.output or None,
            quality_threshold=args.quality_threshold,
            min_tokens=args.min_tokens,
            backend=args.backend,
            backend_options=_backend_options_or_exit(args),
            cache=cache_policy,
        ),
        pipeline=pipeline,
    )
    print(f"assembling dataset from {source.kind} source with {parser.name}...", flush=True)
    report = builder.build(source)
    print(json.dumps(report.summary(), indent=2, default=str))
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.pipeline import ENGINE_VARIANTS, ParsePipeline, ParseRequest

    cache_policy, cache = resolve_cache_config(args)
    try:
        request = ParseRequest(
            parser=args.parser,
            source=_cli_source(args),
            batch_size=args.batch_size,
            alpha=args.alpha,
            backend=args.backend,
            backend_options=_backend_options_or_exit(args),
            cache=cache_policy,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    if args.parser in ENGINE_VARIANTS:
        print("training the AdaParse engine on a small corpus...", flush=True)
    report = ParsePipeline(cache=cache).run(request)
    payload = report.to_json_dict(include_text=args.include_text)
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        print(f"wrote ParseReport to {path}")
        print(json.dumps(report.summary(), indent=2))
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    from repro.cache import ParseCache

    cache = ParseCache(args.dir)
    print(json.dumps(cache.describe(), indent=2))
    return 0


def _cmd_cache_purge(args: argparse.Namespace) -> int:
    from repro.cache import ParseCache

    cache = ParseCache(args.dir)
    removed = cache.purge(config_fingerprint=args.fingerprint or None)
    scope = f"fingerprint {args.fingerprint}" if args.fingerprint else "all entries"
    print(f"purged {removed} cache entr{'y' if removed == 1 else 'ies'} ({scope})")
    return 0


class _GracefulShutdown:
    """Route SIGTERM (and keep SIGINT) onto the KeyboardInterrupt path.

    CLI commands that run a service or daemon wrap their main loop in
    ``try/except KeyboardInterrupt`` for a drain→close shutdown;
    installing this makes ``kill <pid>`` take the same graceful path a
    Ctrl-C does instead of dying mid-write with a traceback.
    """

    def __enter__(self) -> "_GracefulShutdown":
        import signal

        def _raise(signum, frame):
            raise KeyboardInterrupt

        try:
            self._previous = signal.signal(signal.SIGTERM, _raise)
        except ValueError:  # not the main thread (e.g. under a test runner)
            self._previous = None
        return self

    def __exit__(self, *exc_info: object) -> None:
        import signal

        if self._previous is not None:
            try:
                signal.signal(signal.SIGTERM, self._previous)
            except ValueError:
                pass


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one request to a running gateway daemon and stream its events.

    Progress events print live, one flushed NDJSON line each, as the
    gateway streams them.
    """
    from repro.gateway import GatewayClient, GatewayError, GatewayRejected
    from repro.pipeline import ParseRequest
    from repro.pipeline.report import ParseReport

    try:
        if args.request_file:
            payload = json.loads(Path(args.request_file).read_text(encoding="utf-8"))
            request = ParseRequest.from_json_dict(payload)
        else:
            request = ParseRequest(
                parser=args.parser,
                source=_cli_source(args),
                batch_size=args.batch_size,
                alpha=args.alpha,
                cache=args.cache,
            )
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: invalid request: {exc}") from exc
    try:
        with GatewayClient(
            args.host, args.port, token=args.token or None, client=args.client
        ) as client:
            try:
                ticket = client.submit(request, priority=args.priority)
            except GatewayRejected as exc:
                hint = (
                    f" (retry after {exc.retry_after}s)"
                    if exc.retry_after is not None
                    else ""
                )
                print(f"rejected: {exc.reason}{hint}", file=sys.stderr, flush=True)
                return 75  # EX_TEMPFAIL: back off and retry
            for event in ticket.events():
                if not args.quiet:
                    print(json.dumps(event.to_json_dict()), flush=True)
            payload = client.result(ticket, include_text=args.include_text)
    except (GatewayError, OSError) as exc:
        raise SystemExit(f"error: gateway {args.host}:{args.port}: {exc}") from exc
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        print(f"wrote ParseReport to {path}")
    print(json.dumps(ParseReport.from_json_dict(payload).summary(), indent=2, default=str))
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    """Run the submission gateway daemon until SIGINT/SIGTERM (then drain)."""
    import os

    from repro.gateway import AuthRegistry, ClientQuota, GatewayServer
    from repro.obs.logging import get_logger, log_event
    from repro.pipeline import ParsePipeline
    from repro.serve import ParseService, ServiceConfig

    _setup_logging(args)
    options = _parse_backend_opts(args.backend_opt)
    _validate_backend_spec_or_exit(args.backend, options)
    quota = ClientQuota(
        max_active=args.client_max_active,
        rate_per_second=args.client_rate,
        burst=args.client_burst,
        max_request_bytes=args.max_request_bytes,
    )
    auth = AuthRegistry(allow_anonymous=not args.require_token, default_quota=quota)
    for spec in args.token or []:
        token, sep, client_id = spec.partition("=")
        if not sep or not token or not client_id:
            raise SystemExit(f"error: --token expects TOKEN=CLIENT, got {spec!r}")
        auth.register(token, client_id, quota)
    _, cache = resolve_cache_config(args)
    pipeline = ParsePipeline(cache=cache)
    config = ServiceConfig(
        backend=args.backend, backend_options=options, max_active=args.max_active
    )
    service = ParseService(pipeline=pipeline, config=config)
    gateway = GatewayServer(
        service,
        host=args.host,
        port=args.port,
        auth=auth,
        max_queue_depth=args.max_queue_depth,
        retry_after=args.retry_after,
    )
    gateway.start()
    with _GracefulShutdown():
        try:
            # The machine-readable ready line: clients (and spawning
            # scripts) read the bound address from here, so --port 0 just
            # works.  It is the ONLY stdout output of the daemon — every
            # diagnostic (and the final stopped summary) goes to stderr
            # through the structured logger, so a pipe reader can
            # readline() stdout without parsing around chatter.  Printed
            # inside the graceful-shutdown scope: a supervisor may SIGTERM
            # the instant it sees this line.
            print(
                json.dumps(
                    {
                        "event": "listening",
                        "address": gateway.address,
                        "pid": os.getpid(),
                        "backend": args.backend,
                        "max_active": args.max_active,
                        "max_queue_depth": args.max_queue_depth,
                        "tokens": auth.n_tokens,
                        "anonymous": auth.allow_anonymous,
                    }
                ),
                flush=True,
            )
            gateway.serve_forever()
        except KeyboardInterrupt:
            pass
    # Graceful exit for both signals: stop accepting, let open tickets
    # settle (their terminal events still stream), then close the service.
    gateway.stop(drain=True)
    stats = gateway.stats()
    service.close()
    log_event(get_logger("cli.gateway"), "info", "stopped", **stats)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Run one cluster worker daemon until SIGINT/SIGTERM (then drain)."""
    import os

    from repro.cluster.worker import WorkerDaemon
    from repro.obs.logging import get_logger, log_event

    if args.backend != "serial":
        print(
            f"error: worker --backend {args.backend!r}: a worker parses each shard "
            f"on its own slot thread; for concurrent shards pass --slots N",
            file=sys.stderr,
        )
        return 2
    _setup_logging(args)
    _, cache = resolve_cache_config(args)
    daemon = WorkerDaemon(
        host=args.host,
        port=args.port,
        cache=cache,
        name=args.name or None,
        slots=args.slots,
        heartbeat_interval=args.heartbeat_interval,
        gpu=args.gpu,
    )
    daemon.start()
    with _GracefulShutdown():
        try:
            # The machine-readable ready line: `cluster` (and any spawner)
            # reads the bound address from here, so --port 0 just works.
            # As with the gateway daemon, this line is the only stdout
            # output — diagnostics (and the final stopped summary) go to
            # stderr via the logger.  Printed inside the graceful-shutdown
            # scope so an immediate SIGTERM from the spawner still exits
            # gracefully.
            print(
                json.dumps(
                    {
                        "event": "listening",
                        "address": daemon.address,
                        "worker_id": daemon.name,
                        "pid": os.getpid(),
                        "cache": bool(cache),
                    }
                ),
                flush=True,
            )
            if args.join:
                from repro.cluster.protocol import ProtocolError

                try:
                    daemon.join(args.join)
                except (ProtocolError, ValueError, RuntimeError) as exc:
                    print(f"error: {exc}", file=sys.stderr, flush=True)
                    daemon.stop(drain=False)
                    return 1
            daemon.serve_forever()
        except KeyboardInterrupt:
            pass
    # Graceful exit for both signals: announce the departure (so the
    # coordinator records a leave, not a death), finish in-flight
    # shards, send BYE, join slot/reader threads, flush the cache.
    if args.join:
        daemon.leave(args.join)
    daemon.stop(drain=True)
    log_event(get_logger("cli.worker"), "info", "stopped", **daemon.describe())
    return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    """Query a running campaign's membership listener and print the JSON:
    its ``counters`` and its ``workers``, each with a ``state``."""
    from repro.cluster import protocol as _protocol
    from repro.utils import rpc

    if not args.at:
        raise SystemExit(
            "error: cluster status needs --at HOST:PORT (the --listen "
            "address of the running campaign)"
        )
    try:
        reply = rpc.call(args.at, {"type": _protocol.STATUS}, timeout=5.0)
    except (OSError, ValueError, rpc.ProtocolError) as exc:
        raise SystemExit(f"error: --at {args.at}: {exc}") from exc
    if reply.get("type") != _protocol.STATUS_RESULT:
        raise SystemExit(f"error: unexpected status reply: {reply!r}")
    reply.pop("type", None)
    print(json.dumps(reply, indent=2, sort_keys=True, default=str))
    return 0


def spawn_local_worker(
    name: str, *, cache_dir: "str | Path | None" = None
) -> "subprocess.Popen":
    """Start one ``adaparse-repro worker --port 0`` process from this checkout.

    ``PYTHONPATH`` carries this checkout, and stdout is a pipe whose first
    line is the JSON ready line :func:`ready_address` reads.  Returning
    before that line lets a caller start several workers and then collect
    their addresses.
    """
    import os
    import subprocess

    import repro

    command = [sys.executable, "-m", "repro.cli", "worker", "--port", "0", "--name", name]
    if cache_dir:
        command += ["--cache-dir", str(cache_dir)]
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)


def ready_address(proc: "subprocess.Popen") -> str:
    """The bound ``host:port`` from a spawned worker's ready line."""
    assert proc.stdout is not None
    line = proc.stdout.readline()
    try:
        return str(json.loads(line)["address"])
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(
            f"did not report a listening address (got {line!r}): {exc}"
        ) from exc


def reap_local_workers(procs: "list[subprocess.Popen]") -> None:
    """Stop spawned workers: SIGTERM all, wait 15 s each, kill stragglers."""
    import signal
    import subprocess

    procs = [proc for proc in procs if proc.poll() is None]
    for proc in procs:
        proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=5)


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Spawn local workers (or use running ones) and run one request.

    The end-to-end demonstration of ``repro.cluster``: N worker
    processes, rendezvous shard placement, optional live membership
    (``--listen``, for ``worker --join`` daemons), and a checkpoint ledger
    (``--ledger-dir``) — with a
    ``ParseReport`` whose ``execution.extra`` block carries the
    wire/dedup/fault/elastic telemetry this command summarises.
    """
    from repro.pipeline import ENGINE_VARIANTS, ParsePipeline, ParseRequest

    _setup_logging(args)
    if args.action == "status":
        return _cmd_cluster_status(args)
    if args.resume and not args.ledger_dir:
        raise SystemExit("error: --resume needs --ledger-dir (the campaign ledger)")
    procs: list = []
    addresses: list[str] = []
    try:
        if args.workers_at:
            addresses = [a.strip() for a in args.workers_at.split(",") if a.strip()]
        else:
            for i in range(args.workers):  # start them all, then collect
                procs.append(
                    spawn_local_worker(
                        f"cluster-worker-{i}",
                        cache_dir=Path(args.cache_dir) / f"worker-{i}" if args.cache_dir else None,
                    )
                )
            for i, proc in enumerate(procs):
                try:
                    addresses.append(ready_address(proc))
                except ValueError as exc:
                    raise SystemExit(f"error: worker {i} {exc}") from exc
            print(f"spawned {len(procs)} worker(s): {', '.join(addresses)}", flush=True)
        options: dict[str, object] = {
            "workers": ",".join(addresses),
            "window": args.window,
            "placement": args.placement,
        }
        if args.listen is not None:
            options["listen"] = args.listen
        if args.ledger_dir:
            options["ledger_dir"] = args.ledger_dir
            from repro.cluster.ledger import ShardLedger

            completed = len(ShardLedger(args.ledger_dir))
            if completed:
                print(
                    f"resuming from ledger {args.ledger_dir}: "
                    f"{completed} completed shard(s) will replay",
                    flush=True,
                )
            elif args.resume:
                print(
                    f"--resume: ledger {args.ledger_dir} is empty, "
                    f"running the campaign from the start",
                    flush=True,
                )
        _validate_backend_spec_or_exit("remote", options)
        cache_policy, cache = resolve_cache_config(args)
        try:
            request = ParseRequest(
                parser=args.parser,
                source=_cli_source(args),
                batch_size=args.batch_size,
                backend="remote",
                backend_options=options,
                cache=cache_policy,
            )
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from exc
        if args.parser in ENGINE_VARIANTS:
            print("training the AdaParse engine on a small corpus...", flush=True)
        from repro.pipeline.backends import BackendError

        with _GracefulShutdown():
            try:
                report = ParsePipeline(cache=cache).run(request)
            except BackendError as exc:
                raise SystemExit(f"error: {exc}") from exc
        extra = report.execution.to_json_dict()["extra"]
        cluster = {
            key.removeprefix("cluster_"): value
            for key, value in sorted(extra.items())
            if key.startswith("cluster_")
        }
        summary = {**report.summary(), "cluster": cluster}
        print(json.dumps(summary, indent=2, default=str))
        if args.output:
            path = Path(args.output)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(summary, indent=2), encoding="utf-8")
            print(f"wrote cluster summary to {path}")
        return 0
    except KeyboardInterrupt:
        print("interrupted: stopping workers...", file=sys.stderr, flush=True)
        return 130
    finally:
        reap_local_workers(procs)


def _cmd_obs_metrics(args: argparse.Namespace) -> int:
    """Dump a metrics registry: this process's, or a live gateway's.

    Without ``--host`` the local process-default registry is rendered —
    mostly useful from tests and embedding code; the interesting mode is
    ``--host/--port``, which scrapes a running ``repro gateway`` daemon
    over the METRICS protocol message.  A half-given address is refused:
    dumping the local registry instead would pass for a successful scrape.
    """
    if bool(args.host) != bool(args.port):
        given, missing = ("--host", "--port") if args.host else ("--port", "--host")
        raise SystemExit(f"error: {given} without {missing}: a gateway scrape needs both")
    if args.host:
        from repro.gateway import GatewayClient, GatewayError

        try:
            with GatewayClient(
                args.host, args.port, token=args.token or None, client=args.client
            ) as client:
                payload = client.metrics(format="json" if args.json else "text")
        except (GatewayError, OSError) as exc:
            raise SystemExit(f"error: {exc}") from exc
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            sys.stdout.write(str(payload))
            sys.stdout.flush()
        return 0
    from repro.obs import metrics as obs_metrics

    if args.json:
        print(json.dumps(obs_metrics.snapshot(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(obs_metrics.render_text())
        sys.stdout.flush()
    return 0


def _cmd_fill_experiments(args: argparse.Namespace) -> int:
    from repro.evaluation.measured import MeasuredStore, fill_experiments_file

    store = MeasuredStore(args.measured_dir)
    if not store.available():
        print(
            f"no measured fragments in {args.measured_dir}; "
            "run `pytest benchmarks/ --benchmark-only` first"
        )
        return 1
    result = fill_experiments_file(args.experiments_file, store)
    print(f"filled {result.n_filled} section(s): {', '.join(sorted(set(result.filled))) or '-'}")
    if result.missing:
        print(f"still missing: {', '.join(sorted(set(result.missing)))}")
    return 0


#: ``cluster``'s actions; the first is the default.
_CLUSTER_ACTIONS = ("run", "status")


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser; ``actions`` lists its optional ``action`` positional's values.

    A flag is taken only as spelled in full: with abbreviations allowed,
    ``cluster --a 1 --b 2`` ran a campaign as ``--at 1 --batch-size 2``.

    argparse hands a bare token to that positional even when it follows an
    unknown flag, so ``cluster --worker-jobs 2`` made ``2`` the action and
    the error blamed the action.  Here such a token stays beside its flag
    among the unrecognized arguments, the rest is parsed again, and only
    then is the action checked.  ``--at`` belongs to ``status``: a run
    given it is refused.
    """

    def __init__(self, *args: Any, actions: tuple[str, ...] = (), **kwargs: Any) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self.actions = actions

    def parse_known_args(  # type: ignore[override]
        self, args: list[str] | None = None, namespace: argparse.Namespace | None = None
    ) -> tuple[argparse.Namespace, list[str]]:
        if not self.actions:
            return super().parse_known_args(args, namespace)
        args = list(sys.argv[1:] if args is None else args)
        parsed, extras = super().parse_known_args(args, copy.copy(namespace))
        if parsed.action in self.actions:
            if parsed.action != "status" and parsed.at:
                self.error(
                    "argument --at: a campaign run does not take it; query a "
                    "live campaign with `cluster status --at HOST:PORT`"
                )
            return parsed, extras
        for at in range(1, len(args)):
            flag = args[at - 1]
            if args[at] == parsed.action and flag.startswith("-") and flag in extras:
                parsed, extras = self.parse_known_args(args[:at] + args[at + 1 :], namespace)
                nth = args[:at].count(flag)  # the same unknown flag may recur
                spot = [i for i, token in enumerate(extras) if token == flag][nth - 1]
                extras.insert(spot + 1, args[at])
                return parsed, extras
        self.error(
            f"argument action: invalid choice: {parsed.action!r} "
            f"(choose from {', '.join(map(repr, self.actions))})"
        )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="adaparse-repro",
        description="AdaParse (MLSys 2025) reproduction: corpora, tables, figures.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    corpus = sub.add_parser("corpus", help="build a synthetic corpus (optionally write SimPDF archive)")
    corpus.add_argument("--documents", type=_positive_int, default=200)
    corpus.add_argument("--seed", type=int, default=2025)
    corpus.add_argument("--output", type=str, default="")
    corpus.set_defaults(func=_cmd_corpus)

    tables = sub.add_parser("tables", help="regenerate Tables 1-4")
    tables.add_argument("--documents", type=_positive_int, default=240)
    tables.add_argument("--seed", type=int, default=2025)
    tables.add_argument("--output", type=str, default="")
    tables.add_argument("--skip-table4", action="store_true")
    tables.set_defaults(func=_cmd_tables)

    scaling = sub.add_parser("scaling", help="run the Figure 5 scalability sweep")
    scaling.add_argument(
        "--nodes", type=_positive_int, nargs="+", default=[1, 2, 4, 8, 16, 32, 64, 128]
    )
    scaling.add_argument("--docs-per-node", type=_positive_int, default=100)
    scaling.set_defaults(func=_cmd_scaling)

    alignment = sub.add_parser("alignment", help="preference-alignment statistics (Section 7.1)")
    alignment.add_argument("--documents", type=_positive_int, default=120)
    alignment.add_argument("--pages", type=int, default=80)
    alignment.add_argument("--seed", type=int, default=2025)
    alignment.set_defaults(func=_cmd_alignment)

    dataset = sub.add_parser(
        "dataset", help="assemble an LLM-training dataset (parse, filter, dedup, shard)"
    )
    dataset.add_argument("--documents", type=_positive_int, default=200)
    dataset.add_argument("--seed", type=int, default=2025)
    _add_parser_argument(dataset)
    dataset.add_argument("--output", type=str, default="", help="shard output directory")
    dataset.add_argument("--quality-threshold", type=float, default=0.35)
    dataset.add_argument("--min-tokens", type=int, default=50)
    _add_source_argument(dataset)
    _add_backend_arguments(dataset)
    _add_cache_arguments(dataset)
    dataset.set_defaults(func=_cmd_dataset)

    pipe = sub.add_parser(
        "pipeline",
        help="run the unified parsing pipeline and dump the ParseReport as JSON",
    )
    pipe.add_argument("--documents", type=_positive_int, default=100)
    pipe.add_argument("--seed", type=int, default=2025)
    _add_parser_argument(pipe)
    pipe.add_argument("--batch-size", type=int, default=None)
    pipe.add_argument("--alpha", type=float, default=None, help="engine α-budget override")
    _add_source_argument(pipe)
    _add_backend_arguments(pipe)
    pipe.add_argument("--include-text", action="store_true", help="embed page texts in the JSON")
    pipe.add_argument("--output", type=str, default="", help="write the report JSON here")
    _add_cache_arguments(pipe)
    pipe.set_defaults(func=_cmd_pipeline)

    cache = sub.add_parser(
        "cache", help="inspect or purge the content-addressed parse cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    cache_stats = cache_sub.add_parser("stats", help="inventory of a cache directory")
    cache_stats.add_argument("--dir", type=str, default=".parse-cache", help="cache directory")
    cache_stats.set_defaults(func=_cmd_cache_stats)

    cache_purge = cache_sub.add_parser("purge", help="drop cache entries")
    cache_purge.add_argument("--dir", type=str, default=".parse-cache", help="cache directory")
    cache_purge.add_argument(
        "--fingerprint",
        type=str,
        default="",
        help="only purge entries of one parser config fingerprint",
    )
    cache_purge.set_defaults(func=_cmd_cache_purge)

    submit = sub.add_parser(
        "submit",
        help="submit one request to a running gateway daemon, stream its "
        "progress events and print its report",
    )
    submit.add_argument(
        "--host", type=str, required=True, help="address of the gateway daemon"
    )
    submit.add_argument("--port", type=int, required=True, help="gateway port")
    submit.add_argument("--token", type=str, default="", help="gateway auth token")
    submit.add_argument("--documents", type=_positive_int, default=20)
    submit.add_argument("--seed", type=int, default=2025)
    _add_parser_argument(submit)
    submit.add_argument("--batch-size", type=int, default=None)
    submit.add_argument("--alpha", type=float, default=None, help="engine α-budget override")
    submit.add_argument(
        "--request-file",
        type=str,
        default="",
        help="JSON file with a serialised ParseRequest (replaces the request flags)",
    )
    submit.add_argument("--priority", type=int, default=0, help="admission priority (higher first)")
    submit.add_argument("--client", type=str, default="cli", help="fair-share client identity")
    submit.add_argument("--quiet", action="store_true", help="suppress the NDJSON event stream")
    submit.add_argument("--include-text", action="store_true", help="embed page texts in --output")
    submit.add_argument("--output", type=str, default="", help="write the full report JSON here")
    _add_source_argument(submit)
    _add_cache_arguments(submit, dir_help=None)
    submit.set_defaults(func=_cmd_submit)

    gateway = sub.add_parser(
        "gateway",
        help="run the networked submission gateway: remote clients submit "
        "requests over TCP onto one shared parse service "
        "(drains gracefully on SIGINT/SIGTERM)",
    )
    gateway.add_argument("--host", type=str, default="127.0.0.1", help="bind address")
    gateway.add_argument(
        "--port", type=int, default=0, help="bind port (0 picks a free one)"
    )
    gateway.add_argument(
        "--max-active", type=int, default=4, help="requests executing at once"
    )
    gateway.add_argument(
        "--max-queue-depth",
        type=int,
        default=16,
        help="tickets allowed to wait beyond --max-active before submissions "
        "are rejected saturated",
    )
    gateway.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        help="backoff hint (s) attached to saturated/quota rejections",
    )
    gateway.add_argument(
        "--token",
        action="append",
        default=None,
        metavar="TOKEN=CLIENT",
        help="register an auth token for a client id (repeatable)",
    )
    gateway.add_argument(
        "--require-token", action="store_true", help="refuse anonymous clients"
    )
    gateway.add_argument(
        "--client-max-active",
        type=int,
        default=4,
        help="per-client cap on concurrently open tickets",
    )
    gateway.add_argument(
        "--client-rate",
        type=float,
        default=0.0,
        help="per-client sustained submissions/s (0 disables rate limiting)",
    )
    gateway.add_argument(
        "--client-burst", type=int, default=8, help="per-client submission burst"
    )
    gateway.add_argument(
        "--max-request-bytes",
        type=int,
        default=1024 * 1024,
        help="largest submit frame accepted from one client",
    )
    _add_logging_arguments(gateway)
    _add_backend_arguments(gateway, default="thread")
    _add_cache_arguments(
        gateway,
        policy_default=None,
        dir_help="persistent cache directory shared by every client's requests",
    )
    gateway.set_defaults(func=_cmd_gateway)

    worker = sub.add_parser(
        "worker",
        help="run one cluster worker daemon (parses shards for a coordinator; "
        "drains gracefully on SIGINT/SIGTERM)",
    )
    worker.add_argument("--host", type=str, default="127.0.0.1", help="bind address")
    worker.add_argument(
        "--port", type=int, default=0, help="bind port (0 picks a free one)"
    )
    worker.add_argument(
        "--name",
        type=str,
        default="",
        help="stable worker identity for rendezvous placement (default: "
        "derived from the bound address)",
    )
    worker.add_argument(
        "--slots", type=_positive_int, default=1, help="concurrent shards, a thread each"
    )
    worker.add_argument(
        "--heartbeat-interval", type=float, default=1.0, help="liveness beacon period (s)"
    )
    worker.add_argument(
        "--join",
        type=str,
        default="",
        metavar="HOST:PORT",
        help="announce this worker to a running campaign's membership "
        "listener (the coordinator's --listen address); the worker joins "
        "mid-run and leaves gracefully on shutdown",
    )
    worker.add_argument(
        "--gpu",
        action="store_true",
        help="advertise a GPU to coordinators: heavyweight-parser (nougat, "
        "marker) shards go to GPU workers while any is alive",
    )
    worker.add_argument(
        "--backend",
        type=str,
        default="serial",
        help="accepted only as serial, the one way a worker runs shards; "
        "for concurrent shards use --slots N",
    )
    _add_logging_arguments(worker)
    _add_cache_arguments(
        worker,
        policy_default=None,
        dir_help="local parse-cache directory (a warm cache answers shards "
        "without re-parsing); several workers may share "
        "one directory — the disk store appends on flush, so "
        "concurrent writers are safe",
    )
    worker.set_defaults(func=_cmd_worker)

    cluster = sub.add_parser(
        "cluster",
        actions=_CLUSTER_ACTIONS,
        help="spawn N local workers (or join --workers-at), run one request "
        "on the remote backend, and print the placement/dedup summary; "
        "`cluster status --at HOST:PORT` queries a live campaign",
    )
    cluster.add_argument(
        "action",
        nargs="?",
        default=_CLUSTER_ACTIONS[0],
        metavar=f"{{{','.join(_CLUSTER_ACTIONS)}}}",
        help="run a campaign (default), or query a live coordinator's "
        "membership listener with status --at HOST:PORT",
    )
    cluster.add_argument("--workers", type=int, default=2, help="local workers to spawn")
    cluster.add_argument(
        "--workers-at",
        type=str,
        default="",
        help="join existing workers at host:port,host:port instead of spawning",
    )
    cluster.add_argument("--documents", type=_positive_int, default=50)
    cluster.add_argument("--seed", type=int, default=2025)
    _add_parser_argument(cluster)
    cluster.add_argument("--batch-size", type=int, default=None)
    cluster.add_argument(
        "--window", type=int, default=2, help="in-flight shards per worker"
    )
    cluster.add_argument(
        "--placement",
        type=str,
        default="rendezvous",
        choices=["rendezvous", "balanced"],
        help="shard placement: cache-affine rendezvous hashing, or least-"
        "backlog balancing",
    )
    _add_source_argument(cluster)
    _add_cache_arguments(
        cluster,
        dir_help="cache root: coordinator cache plus one subdirectory per "
        "spawned worker (worker-0, worker-1, ...)",
    )
    cluster.add_argument(
        "--at",
        type=str,
        default="",
        metavar="HOST:PORT",
        help="membership listener of the campaign to query (status action)",
    )
    cluster.add_argument(
        "--listen",
        type=int,
        default=None,
        metavar="PORT",
        help="start a membership listener on PORT so `worker --join` "
        "daemons can join mid-campaign and `cluster status --at` can query it",
    )
    cluster.add_argument(
        "--ledger-dir",
        type=str,
        default="",
        help="checkpoint directory: completed shards are durably recorded "
        "to a shard ledger there, and a re-run with the same directory "
        "replays them instead of re-parsing (see --resume)",
    )
    cluster.add_argument(
        "--resume",
        action="store_true",
        help="resume a killed campaign from --ledger-dir (completed shards "
        "are skipped exactly-once; requires --ledger-dir)",
    )
    cluster.add_argument("--output", type=str, default="", help="write the summary JSON here")
    _add_logging_arguments(cluster)
    cluster.set_defaults(func=_cmd_cluster)

    obs = sub.add_parser(
        "obs",
        help="observability tools: metrics exposition",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_metrics = obs_sub.add_parser(
        "metrics",
        help="dump a metrics registry (local process, or a live gateway "
        "with --host/--port)",
    )
    obs_metrics.add_argument(
        "--host", type=str, default="", help="scrape a running gateway at this address"
    )
    obs_metrics.add_argument("--port", type=int, default=0, help="gateway port (with --host)")
    obs_metrics.add_argument("--token", type=str, default="", help="gateway auth token")
    obs_metrics.add_argument("--client", type=str, default="obs-cli", help="client identity")
    obs_metrics.add_argument(
        "--json",
        action="store_true",
        help="JSON snapshot instead of Prometheus text exposition",
    )
    obs_metrics.set_defaults(func=_cmd_obs_metrics)

    fill = sub.add_parser(
        "fill-experiments",
        help="splice measured benchmark results into EXPERIMENTS.md",
    )
    fill.add_argument("--experiments-file", type=str, default="EXPERIMENTS.md")
    fill.add_argument("--measured-dir", type=str, default="results/measured")
    fill.set_defaults(func=_cmd_fill_experiments)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.documents.sources import StaleReference

    try:
        return int(args.func(args))
    except (FileNotFoundError, StaleReference) as exc:
        # A source directory is checked where it is read, deep inside a run,
        # and so is each file it listed.
        raise SystemExit(f"error: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
