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

Parse a real document tree instead of the synthetic corpus — any
registered document source works (``--source KIND:VALUE``)::

    adaparse-repro pipeline --source html-dir:docs/site --parser pymupdf
    adaparse-repro dataset --source crawl-dump:/data/crawl --output /tmp/webset

Run the same corpus through worker daemons or the simulated cluster::

    adaparse-repro cluster --workers 4 --documents 100
    adaparse-repro pipeline --documents 100 --backend hpc --backend-opt n_nodes=16

Warm the persistent parse cache, inspect it, and run against it::

    adaparse-repro cache warm --dir /tmp/parse-cache --documents 200
    adaparse-repro cache stats --dir /tmp/parse-cache
    adaparse-repro pipeline --documents 200 --cache readwrite --cache-dir /tmp/parse-cache
    adaparse-repro cache purge --dir /tmp/parse-cache

Serve many concurrent requests from one backend + one cache (streams
NDJSON progress events; identical corpora dedup via cross-request
single-flight), or submit a single request the client-side way::

    adaparse-repro serve --documents 100 --requests 4 --backend thread \
        --backend-opt n_jobs=8 --cache readwrite
    adaparse-repro submit --documents 50 --parser pymupdf --priority 5

Run a distributed cluster: worker daemons plus a coordinated request
(``cluster`` spawns local workers, runs end to end, and prints the
placement/dedup summary; ``worker`` is the long-running daemon mode)::

    adaparse-repro worker --port 9101 --backend thread --backend-opt n_jobs=2
    adaparse-repro cluster --workers 2 --documents 100 --parser pymupdf
    adaparse-repro pipeline --documents 100 --backend remote \
        --backend-opt workers=127.0.0.1:9101,127.0.0.1:9102

Observability: scrape a live gateway's metrics (Prometheus text or JSON,
one-shot or watched), pretty-print one ticket's distributed span tree or
sampled stack profile, and keep a live top view of the whole service::

    adaparse-repro obs metrics --host 127.0.0.1 --port 9900
    adaparse-repro obs metrics --host 127.0.0.1 --port 9900 --watch
    adaparse-repro obs trace TICKET-ID --port 9900
    adaparse-repro obs profile TICKET-ID --port 9900 --top 10
    adaparse-repro obs top --port 9900

Profile any run directly with ``--profile`` (collapsed stacks on
stderr; on ``serve``/``gateway``/``worker`` it samples per ticket/shard
instead, feeding the PROFILE RPC)::

    adaparse-repro pipeline --documents 100 --profile
    adaparse-repro cluster --workers 2 --documents 100 --profile

The daemon subcommands (``serve``/``gateway``/``worker``/``cluster``)
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
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import subprocess


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


def _add_profile_argument(
    parser: argparse.ArgumentParser, help: str | None = None
) -> None:
    parser.add_argument(
        "--profile",
        action="store_true",
        help=help
        or "run the sampling profiler and print collapsed stacks to stderr",
    )


def _start_profile_sampler(args: argparse.Namespace):
    """``--profile`` on a one-shot command: sample this process for the
    whole run.  Returns the running sampler, or ``None`` without the flag."""
    if not getattr(args, "profile", False):
        return None
    from repro.obs import profiling as _profiling

    _profiling.set_profiling_enabled(True)
    return _profiling.StackSampler().start()


def _print_profile(profile, key: str = "") -> None:
    """One collapsed-stack profile to stderr (stdout stays machine-readable)."""
    label = f" {key}" if key else ""
    print(
        f"# profile{label}: {profile.n_samples} sample(s) at "
        f"{profile.interval * 1000:.0f}ms",
        file=sys.stderr,
    )
    collapsed = profile.collapsed()
    if collapsed:
        print(collapsed, file=sys.stderr)
    sys.stderr.flush()


def _finish_profile_sampler(sampler) -> None:
    if sampler is not None:
        _print_profile(sampler.stop())


def _enable_service_profiling(args: argparse.Namespace) -> None:
    """``--profile`` on a daemon/service command: sample per ticket into the
    process :class:`~repro.obs.profiling.ProfileStore` (the PROFILE RPC)."""
    if getattr(args, "profile", False):
        from repro.obs import profiling as _profiling

        _profiling.set_profiling_enabled(True)


def _add_backend_arguments(
    parser: argparse.ArgumentParser, default: str = "auto"
) -> None:
    parser.add_argument(
        "--backend",
        type=str,
        default=default,
        help=f"execution backend: auto, serial, thread, hpc, remote; async "
        f"and process are accepted names for thread; for CPU-bound work past "
        f"one core, use remote (default: {default})",
    )
    parser.add_argument(
        "--backend-opt",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="backend option (repeatable), e.g. n_jobs=4, n_nodes=16, "
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
    print("single-node throughput relative to Nougat:", throughput_ratio_summary(series))
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
    dir_help: str = "persistent cache directory",
) -> None:
    """The shared cache flags: ``--cache`` (policy) and ``--cache-dir``.

    ``policy_default=None`` omits the policy flag for commands whose policy
    is fixed (``cache warm``) or carried by each submitted request
    (``gateway``, ``worker``).
    """
    if policy_default is not None:
        parser.add_argument(
            "--cache",
            type=str,
            default=policy_default,
            choices=["off", "read", "write", "readwrite"],
            help=f"parse-result cache policy (default: {policy_default})",
        )
    parser.add_argument("--cache-dir", type=str, default="", help=dir_help)


def resolve_cache_config(args: argparse.Namespace):
    """``(policy, cache)`` from the shared cache flags.

    ``cache`` is a :class:`~repro.cache.ParseCache` over the directory flag,
    or ``None`` for the pipeline's in-memory default.  Accepts both
    directory spellings (``--cache-dir``, and the ``cache`` subcommands'
    ``--dir``) so every subcommand resolves through this one helper.
    """
    policy = getattr(args, "cache", "off")
    directory = getattr(args, "cache_dir", "") or getattr(args, "dir", "")
    if directory:
        from repro.cache import ParseCache

        return policy, ParseCache(directory)
    return policy, None


def _add_source_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--source",
        type=str,
        default="",
        metavar="KIND:VALUE",
        help="document source, e.g. synthetic:200?seed=7, html-dir:docs/, "
        "markdown-dir:notes/, simpdf-dir:corpus/, crawl-dump:dump/ "
        "(overrides --documents/--seed)",
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
    info = source.describe()
    count = info.get("n_documents")
    print(
        f"assembling dataset from {info.get('kind')} source"
        f"{f' ({count} documents)' if count is not None else ''}"
        f" with {parser.name}...",
        flush=True,
    )
    sampler = _start_profile_sampler(args)
    try:
        report = builder.build(source)
    finally:
        _finish_profile_sampler(sampler)
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
    sampler = _start_profile_sampler(args)
    try:
        report = ParsePipeline(cache=cache).run(request)
    finally:
        _finish_profile_sampler(sampler)
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


def _cmd_cache_warm(args: argparse.Namespace) -> int:
    from repro.cache import ParseCache
    from repro.pipeline import ENGINE_VARIANTS, ParsePipeline, ParseRequest

    if args.parser in ENGINE_VARIANTS:
        print("training the AdaParse engine on a small corpus...", flush=True)
    pipeline = ParsePipeline(cache=ParseCache(args.dir))
    try:
        report = pipeline.run(
            ParseRequest(
                parser=args.parser,
                source=_cli_source(args),
                backend=args.backend,
                backend_options=_backend_options_or_exit(args),
                cache="readwrite",
            )
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    print(json.dumps(report.summary(), indent=2))
    print(json.dumps(pipeline.cache.describe(), indent=2))
    return 0


def _ndjson_event_sink(quiet: bool = False):
    """A ProgressEvent sink that prints one NDJSON line per event, live.

    Each line is flushed as it is emitted: a piped consumer (``| jq``,
    a log shipper) sees events while the run is in progress, not in one
    burst when the process exits and stdio's block buffering drains.
    """
    import threading

    print_lock = threading.Lock()

    def sink(event) -> None:
        if quiet:
            return
        with print_lock:
            print(json.dumps(event.to_json_dict()), flush=True)

    return sink


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


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the parse service over N concurrent requests, streaming events.

    The in-process demonstration of :class:`repro.serve.ParseService`:
    submissions share one backend and one cache, so identical corpora
    (the default; ``--distinct`` varies the seeds) are parsed exactly
    once with cross-request single-flight — the summary's
    ``cache_totals`` block shows the dedup.  SIGINT/SIGTERM drain
    gracefully: queued tickets are cancelled (their terminal events
    still stream), running requests finish, workers are joined.
    """
    from repro.pipeline import ENGINE_VARIANTS, ParsePipeline, ParseRequest
    from repro.serve import ParseService, ServiceConfig

    _setup_logging(args)
    _enable_service_profiling(args)
    options = _parse_backend_opts(args.backend_opt)
    _validate_backend_spec_or_exit(args.backend, options)
    if args.parser in ENGINE_VARIANTS:
        print("training the AdaParse engine on a small corpus...", flush=True)
    cache_policy, cache = resolve_cache_config(args)
    pipeline = ParsePipeline(cache=cache)
    config = ServiceConfig(
        backend=args.backend, backend_options=options, max_active=args.max_active
    )
    service = ParseService(
        pipeline=pipeline, config=config, event_sink=_ndjson_event_sink(args.quiet)
    )
    reports = {}
    with _GracefulShutdown():
        try:
            tickets = {}
            for i in range(args.requests):
                client = f"client-{i}"
                seed = args.seed + (i if args.distinct else 0)
                request = ParseRequest(
                    parser=args.parser,
                    source=args.source or f"synthetic:{args.documents}?seed={seed}",
                    batch_size=args.batch_size,
                    cache=cache_policy,
                )
                tickets[client] = service.submit(request, client=client)
            for client, ticket in tickets.items():
                reports[client] = ticket.result()
            summary = {
                "service": service.describe(),
                "tickets": {
                    client: {"ticket": tickets[client].id, **report.summary()}
                    for client, report in reports.items()
                },
                "cache_totals": {
                    "misses": sum(r.cache.misses for r in reports.values()),
                    "hits": sum(r.cache.hits for r in reports.values()),
                    "coalesced": sum(r.cache.coalesced for r in reports.values()),
                    "stores": sum(r.cache.stores for r in reports.values()),
                },
            }
        except KeyboardInterrupt:
            print(
                "interrupted: cancelling queued requests, draining running ones...",
                file=sys.stderr,
                flush=True,
            )
            service.close(drain=False)
            return 130
        finally:
            # Idempotent: a no-op after the interrupt path's close.  Also
            # covers failure exits (a request error re-raised by
            # result()), which must still release the backend and flush
            # the shared cache.
            service.close()
    if args.profile:
        # One profile per ticket, keyed the same way the gateway PROFILE
        # RPC keys them — collapsed stacks go to stderr, summary to stdout.
        from repro.obs import profiling as _profiling

        store = _profiling.default_store()
        for client, ticket in tickets.items():
            profile = store.get(ticket.id)
            if profile is not None:
                _print_profile(profile, key=f"{client}/{ticket.id}")
    print(json.dumps(summary, indent=2, default=str))
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one request to a fresh service (the client-side smoke path).

    Progress events stream live (one flushed NDJSON line each, as they
    are emitted) rather than being replayed after the report lands.
    """
    from repro.pipeline import ENGINE_VARIANTS, ParsePipeline, ParseRequest
    from repro.serve import ParseService, ServiceConfig

    cache_policy, cache = resolve_cache_config(args)
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
                cache=cache_policy,
            )
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: invalid request: {exc}") from exc
    if args.host:
        # Remote mode: the request runs on a `repro gateway` daemon's
        # shared service; backend/cache flags describe *that* service and
        # are ignored here.
        return _submit_remote(args, request)
    options = _parse_backend_opts(args.backend_opt)
    _validate_backend_spec_or_exit(args.backend, options)
    if request.parser in ENGINE_VARIANTS:
        print("training the AdaParse engine on a small corpus...", flush=True)
    pipeline = ParsePipeline(cache=cache)
    config = ServiceConfig(backend=args.backend, backend_options=options, max_active=1)
    service = ParseService(
        pipeline=pipeline, config=config, event_sink=_ndjson_event_sink(args.quiet)
    )
    with _GracefulShutdown():
        try:
            ticket = service.submit(request, priority=args.priority, client=args.client)
            report = ticket.result()
        except KeyboardInterrupt:
            print(
                "interrupted: draining the parse service...", file=sys.stderr, flush=True
            )
            service.close(drain=False)
            return 130
        finally:
            service.close()  # idempotent; also runs on failure exits
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(report.to_json_dict(include_text=args.include_text), indent=2),
            encoding="utf-8",
        )
        print(f"wrote ParseReport to {path}")
    print(json.dumps(report.summary(), indent=2, default=str))
    return 0


def _submit_remote(args: argparse.Namespace, request) -> int:
    """Submit one request to a running gateway daemon and stream its events."""
    from repro.gateway import GatewayClient, GatewayError, GatewayRejected
    from repro.pipeline.report import ParseReport

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
    _enable_service_profiling(args)
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
                        "profiling": bool(args.profile),
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


def _parse_worker_tags(pairs: list[str]) -> dict[str, str]:
    """``--tag key=value`` pairs into a tag dict (values coerced later)."""
    tags: dict[str, str] = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key.strip():
            raise SystemExit(f"error: --tag expects key=value, got {pair!r}")
        tags[key.strip()] = value.strip()
    return tags


def _cmd_worker(args: argparse.Namespace) -> int:
    """Run one cluster worker daemon until SIGINT/SIGTERM (then drain)."""
    import os

    from repro.cluster.worker import WorkerDaemon
    from repro.obs.logging import get_logger, log_event

    _setup_logging(args)
    _enable_service_profiling(args)
    options = _parse_backend_opts(args.backend_opt)
    _validate_backend_spec_or_exit(args.backend, options)
    _, cache = resolve_cache_config(args)
    daemon = WorkerDaemon(
        host=args.host,
        port=args.port,
        backend=args.backend,
        backend_options=options,
        cache=cache,
        name=args.name or None,
        slots=args.slots,
        heartbeat_interval=args.heartbeat_interval,
        tags=_parse_worker_tags(args.tag),
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
                        "backend": args.backend,
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
    # shards, send BYE, join slot/reader threads, release the backend.
    if args.join:
        daemon.leave(args.join)
    daemon.stop(drain=True)
    log_event(get_logger("cli.worker"), "info", "stopped", **daemon.describe())
    return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    """Query a running campaign's membership listener and print the JSON."""
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
    name: str,
    *,
    backend: str = "serial",
    jobs: int = 1,
    cache_dir: "str | Path | None" = None,
    profile: bool = False,
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

    command = [
        sys.executable, "-m", "repro.cli", "worker",
        "--port", "0", "--name", name, "--backend", backend,
    ]
    if jobs > 1:
        command += ["--backend-opt", f"n_jobs={jobs}"]
    if cache_dir:
        command += ["--cache-dir", str(cache_dir)]
    if profile:
        command += ["--profile"]
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

    The end-to-end demonstration of ``repro.cluster`` and
    ``repro.elastic``: N worker processes, rendezvous shard placement,
    optional live membership (``--listen``, for ``worker --join``
    daemons), and a checkpoint ledger (``--ledger-dir``) — with a
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
                        backend=args.worker_backend,
                        jobs=args.worker_jobs,
                        cache_dir=Path(args.cache_dir) / f"worker-{i}" if args.cache_dir else None,
                        profile=args.profile,
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
            from repro.elastic.ledger import ShardLedger

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

        sampler = _start_profile_sampler(args)
        with _GracefulShutdown():
            try:
                report = ParsePipeline(cache=cache).run(request)
            except BackendError as exc:
                raise SystemExit(f"error: {exc}") from exc
            finally:
                _finish_profile_sampler(sampler)
        if args.profile:
            # Workers ship their sampled profiles inside batch_result
            # frames; the coordinator merged them per shard.
            from repro.obs import profiling as _profiling

            store = _profiling.default_store()
            for key in sorted(store.keys()):
                shard_profile = store.get(key)
                if shard_profile is not None:
                    _print_profile(shard_profile, key=key)
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
    over the METRICS protocol message.  ``--watch`` polls instead of
    dumping once and prints per-interval deltas.
    """
    if args.watch:
        return _watch_metrics(args)
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


def _format_number(value: float) -> str:
    """Compact numeric rendering for delta/rate tables (ints stay ints)."""
    if float(value) == int(value):
        return str(int(value))
    return f"{value:.4g}"


def _watch_loop(history, args: argparse.Namespace) -> int:
    """The ``obs metrics --watch`` poll-and-print loop.

    Each tick samples the registry into the :class:`MetricsHistory` ring
    buffer and prints the non-zero per-interval deltas (with per-second
    rates).  Runs until ``--count`` ticks, or forever until Ctrl-C.
    """
    import time as _time

    history.sample()
    ticks = 0
    try:
        while args.count <= 0 or ticks < args.count:
            _time.sleep(args.interval)
            history.sample()
            ticks += 1
            delta = {k: v for k, v in history.delta().items() if v}
            rate = history.rate()
            if args.json:
                print(
                    json.dumps(
                        {"tick": ticks, "delta": delta}, sort_keys=True
                    ),
                    flush=True,
                )
                continue
            stamp = _time.strftime("%H:%M:%S")
            print(f"-- {stamp}  ({len(delta)} changed series)")
            for key in sorted(delta):
                print(
                    f"  {key}  +{_format_number(delta[key])}"
                    f"  ({_format_number(rate.get(key, 0.0))}/s)"
                )
            sys.stdout.flush()
    except KeyboardInterrupt:
        pass
    return 0


def _watch_metrics(args: argparse.Namespace) -> int:
    """``obs metrics --watch``: per-interval deltas of a live registry."""
    from repro.obs.history import MetricsHistory

    if args.host:
        from repro.gateway import GatewayClient, GatewayError

        try:
            with GatewayClient(
                args.host, args.port, token=args.token or None, client=args.client
            ) as client:

                class _RemoteRegistry:
                    """Duck-typed registry: snapshot() scrapes the gateway."""

                    def snapshot(self) -> dict:
                        payload = client.metrics(format="json")
                        return payload if isinstance(payload, dict) else {}

                return _watch_loop(
                    MetricsHistory(registry=_RemoteRegistry()), args
                )
        except (GatewayError, OSError) as exc:
            raise SystemExit(f"error: {exc}") from exc
    return _watch_loop(MetricsHistory(), args)


def _format_span_tree(roots: list, indent: str = "") -> list[str]:
    """Render ``build_tree`` output as an indented duration-annotated tree."""
    lines: list[str] = []
    for node in roots:
        duration_ms = float(node.get("duration_s") or 0.0) * 1000.0
        attributes = node.get("attributes") or {}
        attr_text = (
            " " + " ".join(f"{k}={v}" for k, v in sorted(attributes.items()))
            if attributes
            else ""
        )
        status = node.get("status", "ok")
        flag = "" if status == "ok" else f" [{status}]"
        lines.append(
            f"{indent}{node.get('name', '?')}  {duration_ms:.1f}ms{flag}{attr_text}"
        )
        lines.extend(_format_span_tree(node.get("children") or [], indent + "  "))
    return lines


def _cmd_obs_trace(args: argparse.Namespace) -> int:
    """Fetch and pretty-print one ticket's distributed span tree."""
    from repro.gateway import GatewayClient, GatewayError
    from repro.obs.tracing import build_tree

    try:
        with GatewayClient(
            args.host, args.port, token=args.token or None, client=args.client
        ) as client:
            payload = client.trace(args.ticket_id)
    except (GatewayError, OSError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    spans = payload.get("spans") or []
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not spans:
        # An owned-but-untraced ticket used to print a bare header and
        # exit 0, indistinguishable from success in scripts.
        print(
            f"error: no spans recorded for ticket {args.ticket_id} "
            f"(state {payload.get('state')})",
            file=sys.stderr,
        )
        return 1
    print(
        f"ticket {payload.get('ticket_id')}  trace {payload.get('trace_id')}  "
        f"state {payload.get('state')}  ({len(spans)} span(s))"
    )
    for line in _format_span_tree(build_tree(spans)):
        print(line)
    return 0


def _cmd_obs_profile(args: argparse.Namespace) -> int:
    """Fetch and render one gateway ticket's sampled stack profile."""
    from repro.gateway import GatewayClient, GatewayError
    from repro.obs.profiling import Profile

    try:
        with GatewayClient(
            args.host, args.port, token=args.token or None, client=args.client
        ) as client:
            payload = client.profile(args.ticket_id)
    except (GatewayError, OSError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    raw = payload.get("profile")
    if raw is None:
        # Same contract as `obs trace`: an owned ticket with nothing
        # recorded is a failure, not a silent empty success.
        print(
            f"error: no profile recorded for ticket {args.ticket_id} "
            f"(state {payload.get('state')}; was the gateway started "
            f"with --profile?)",
            file=sys.stderr,
        )
        return 1
    profile = Profile.from_dict(raw)
    # A stored profile without samples is a fast ticket, not a missing one.
    note = "" if profile.counts else " — the ticket finished inside one sampler tick"
    print(
        f"ticket {payload.get('ticket_id')}  state {payload.get('state')}  "
        f"({profile.n_samples} sample(s) at {profile.interval * 1000:.0f}ms{note})"
    )
    if not profile.counts:
        return 0
    if args.top:
        width = max(len(frame) for frame, _ in profile.top(args.top))
        for frame, count in profile.top(args.top):
            share = 100.0 * count / max(1, profile.n_samples)
            print(f"  {frame:<{width}}  {count:>7}  {share:5.1f}%")
    else:
        print(profile.collapsed())
    return 0


def _gauge_total(snapshot: dict, name: str) -> "float | None":
    """Sum a counter/gauge over all its label sets; None when absent."""
    body = snapshot.get(name)
    if not body:
        return None
    return sum(float(s.get("value", 0.0)) for s in body.get("values", ()))


def _histogram_quantile(snapshot: dict, name: str, q: float) -> "float | None":
    """A quantile upper bound from a snapshot histogram's buckets.

    Aggregates cumulative bucket counts across label sets and returns
    the smallest bucket boundary covering quantile ``q`` — the standard
    Prometheus-style estimate (an upper bound, not an interpolation).
    """
    body = snapshot.get(name)
    if not body:
        return None
    merged: dict[float, float] = {}
    total = 0.0
    for series in body.get("values", ()):
        total += float(series.get("count", 0))
        for le, cumulative in (series.get("buckets") or {}).items():
            bound = float("inf") if le == "+Inf" else float(le)
            merged[bound] = merged.get(bound, 0.0) + float(cumulative)
    if total <= 0:
        return None
    target = q * total
    for bound in sorted(merged):
        if merged[bound] >= target:
            return bound
    return None


def _phase_shares(snapshot: dict) -> list[tuple[str, float, float]]:
    """``(phase, share, seconds)`` rows from the phase-duration histogram."""
    body = snapshot.get("repro_phase_duration_seconds")
    if not body:
        return []
    sums: dict[str, float] = {}
    for series in body.get("values", ()):
        phase_name = str((series.get("labels") or {}).get("phase", "?"))
        sums[phase_name] = sums.get(phase_name, 0.0) + float(
            series.get("sum", 0.0)
        )
    total = sum(sums.values())
    if total <= 0:
        return []
    rows = [(name, seconds / total, seconds) for name, seconds in sums.items()]
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows


def _render_top(
    address: str,
    snapshot: dict,
    flat: dict,
    previous: "dict | None",
    elapsed: float,
) -> str:
    """One ``obs top`` frame as plain text (the caller adds ANSI)."""
    import time as _time

    def _rate(series: str) -> "float | None":
        if previous is None:
            return None
        # Sum across label sets: flattened keys are `name` or `name{...}`.
        keys = [k for k in flat if k == series or k.startswith(series + "{")]
        if not keys:
            return None
        delta = sum(max(0.0, flat[k] - previous.get(k, 0.0)) for k in keys)
        return delta / max(1e-9, elapsed)

    def _cell(value: "float | None", fmt: str = "{:.1f}") -> str:
        return "-" if value is None else fmt.format(value)

    lines = [
        f"repro obs top — {address} — {_time.strftime('%H:%M:%S')}"
        f"  (interval {elapsed:.1f}s)",
        "",
    ]
    workers = _gauge_total(snapshot, "repro_elastic_workers")
    queue = _gauge_total(snapshot, "repro_service_queue_depth")
    active = _gauge_total(snapshot, "repro_service_active")
    in_flight = _gauge_total(snapshot, "repro_backend_in_flight")
    lines.append(
        f"  workers alive  {_cell(workers, '{:.0f}'):>8}"
        f"   queue depth  {_cell(queue, '{:.0f}'):>6}"
        f"   active  {_cell(active, '{:.0f}'):>4}"
        f"   batches in flight  {_cell(in_flight, '{:.0f}'):>4}"
    )
    docs_rate = _rate("repro_pipeline_documents_total")
    docs_total = _gauge_total(snapshot, "repro_pipeline_documents_total")
    lines.append(
        f"  docs/sec       {_cell(docs_rate):>8}"
        f"   docs total   {_cell(docs_total, '{:.0f}'):>6}"
    )
    hits = _gauge_total(snapshot, "repro_cache_hits_total")
    misses = _gauge_total(snapshot, "repro_cache_misses_total")
    if hits is not None or misses is not None:
        lookups = (hits or 0.0) + (misses or 0.0)
        ratio = 100.0 * (hits or 0.0) / lookups if lookups else None
        lines.append(
            f"  cache hit rate {_cell(ratio):>7}%"
            f"   (hits {_cell(hits, '{:.0f}')} / lookups"
            f" {_cell(lookups, '{:.0f}')})"
        )
    p95 = _histogram_quantile(
        snapshot, "repro_backend_batch_latency_seconds", 0.95
    )
    batch_rate = _rate("repro_backend_batches_completed_total")
    lines.append(
        f"  batch p95      {_cell(p95, '≤{:.3g}s'):>8}"
        f"   batches/sec  {_cell(batch_rate):>6}"
    )
    shares = _phase_shares(snapshot)
    if shares:
        lines.append("")
        lines.append(f"  {'phase':<20} {'share':>7} {'time(s)':>9}")
        for phase_name, share, seconds in shares:
            lines.append(
                f"  {phase_name:<20} {100.0 * share:>6.1f}% {seconds:>9.2f}"
            )
    return "\n".join(lines)


def _cmd_obs_top(args: argparse.Namespace) -> int:
    """A live text view of a gateway's service/cluster health (obs top).

    Curses-free: each frame repaints with ANSI clear-screen when stdout
    is a terminal, and appends frames sequentially when piped — so the
    output stays greppable from scripts and CI.
    """
    import time as _time

    from repro.gateway import GatewayClient, GatewayError
    from repro.obs.history import flatten_snapshot

    address = f"{args.host}:{args.port}"
    is_tty = sys.stdout.isatty()
    previous: "dict | None" = None
    previous_ts: "float | None" = None
    frames = 0
    try:
        with GatewayClient(
            args.host, args.port, token=args.token or None, client=args.client
        ) as client:
            while args.count <= 0 or frames < args.count:
                if frames:
                    _time.sleep(args.interval)
                snapshot = client.metrics(format="json")
                if not isinstance(snapshot, dict):
                    snapshot = {}
                flat = flatten_snapshot(snapshot)
                now = _time.time()
                elapsed = (
                    now - previous_ts if previous_ts is not None else args.interval
                )
                frame = _render_top(address, snapshot, flat, previous, elapsed)
                if is_tty:
                    sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
                else:
                    print(frame)
                    print()
                sys.stdout.flush()
                previous, previous_ts = flat, now
                frames += 1
    except KeyboardInterrupt:
        return 0
    except (GatewayError, OSError) as exc:
        raise SystemExit(f"error: gateway {address}: {exc}") from exc
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


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="adaparse-repro",
        description="AdaParse (MLSys 2025) reproduction: corpora, tables, figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    corpus = sub.add_parser("corpus", help="build a synthetic corpus (optionally write SimPDF archive)")
    corpus.add_argument("--documents", type=int, default=200)
    corpus.add_argument("--seed", type=int, default=2025)
    corpus.add_argument("--output", type=str, default="")
    corpus.set_defaults(func=_cmd_corpus)

    tables = sub.add_parser("tables", help="regenerate Tables 1-4")
    tables.add_argument("--documents", type=int, default=240)
    tables.add_argument("--seed", type=int, default=2025)
    tables.add_argument("--output", type=str, default="")
    tables.add_argument("--skip-table4", action="store_true")
    tables.set_defaults(func=_cmd_tables)

    scaling = sub.add_parser("scaling", help="run the Figure 5 scalability sweep")
    scaling.add_argument("--nodes", type=int, nargs="+", default=[1, 2, 4, 8, 16, 32, 64, 128])
    scaling.add_argument("--docs-per-node", type=int, default=100)
    scaling.set_defaults(func=_cmd_scaling)

    alignment = sub.add_parser("alignment", help="preference-alignment statistics (Section 7.1)")
    alignment.add_argument("--documents", type=int, default=120)
    alignment.add_argument("--pages", type=int, default=80)
    alignment.add_argument("--seed", type=int, default=2025)
    alignment.set_defaults(func=_cmd_alignment)

    dataset = sub.add_parser(
        "dataset", help="assemble an LLM-training dataset (parse, filter, dedup, shard)"
    )
    dataset.add_argument("--documents", type=int, default=200)
    dataset.add_argument("--seed", type=int, default=2025)
    dataset.add_argument(
        "--parser",
        type=str,
        default="pymupdf",
        help="parser or engine: pymupdf, pypdf, tesseract, grobid, nougat, marker, "
        "adaparse_ft, adaparse_llm",
    )
    dataset.add_argument("--output", type=str, default="", help="shard output directory")
    dataset.add_argument("--quality-threshold", type=float, default=0.35)
    dataset.add_argument("--min-tokens", type=int, default=50)
    _add_source_argument(dataset)
    _add_backend_arguments(dataset)
    _add_cache_arguments(dataset)
    _add_profile_argument(dataset)
    dataset.set_defaults(func=_cmd_dataset)

    pipe = sub.add_parser(
        "pipeline",
        help="run the unified parsing pipeline and dump the ParseReport as JSON",
    )
    pipe.add_argument("--documents", type=int, default=100)
    pipe.add_argument("--seed", type=int, default=2025)
    pipe.add_argument(
        "--parser",
        type=str,
        default="pymupdf",
        help="parser or engine: pymupdf, pypdf, tesseract, grobid, nougat, marker, "
        "adaparse_ft, adaparse_llm",
    )
    pipe.add_argument("--batch-size", type=int, default=None)
    pipe.add_argument("--alpha", type=float, default=None, help="engine α-budget override")
    _add_source_argument(pipe)
    _add_backend_arguments(pipe)
    pipe.add_argument("--include-text", action="store_true", help="embed page texts in the JSON")
    pipe.add_argument("--output", type=str, default="", help="write the report JSON here")
    _add_cache_arguments(pipe)
    _add_profile_argument(pipe)
    pipe.set_defaults(func=_cmd_pipeline)

    cache = sub.add_parser(
        "cache", help="inspect, purge, or warm the content-addressed parse cache"
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

    cache_warm = cache_sub.add_parser(
        "warm", help="pre-populate a cache directory by parsing a corpus"
    )
    cache_warm.add_argument("--dir", type=str, default=".parse-cache", help="cache directory")
    cache_warm.add_argument("--documents", type=int, default=100)
    cache_warm.add_argument("--seed", type=int, default=2025)
    cache_warm.add_argument(
        "--parser",
        type=str,
        default="pymupdf",
        help="parser or engine: pymupdf, pypdf, tesseract, grobid, nougat, marker, "
        "adaparse_ft, adaparse_llm",
    )
    _add_source_argument(cache_warm)
    _add_backend_arguments(cache_warm)
    cache_warm.set_defaults(func=_cmd_cache_warm)

    serve = sub.add_parser(
        "serve",
        help="run the parse service: N concurrent requests, one shared "
        "backend and cache, streamed NDJSON progress events",
    )
    serve.add_argument("--documents", type=int, default=50, help="documents per request")
    serve.add_argument("--seed", type=int, default=2025)
    serve.add_argument("--requests", type=int, default=4, help="concurrent requests to submit")
    serve.add_argument(
        "--parser",
        type=str,
        default="pymupdf",
        help="parser or engine: pymupdf, pypdf, tesseract, grobid, nougat, marker, "
        "adaparse_ft, adaparse_llm",
    )
    serve.add_argument("--batch-size", type=int, default=None)
    serve.add_argument("--max-active", type=int, default=4, help="requests executing at once")
    serve.add_argument(
        "--distinct",
        action="store_true",
        help="give each request its own corpus seed (default: identical corpora, "
        "showcasing cross-request single-flight)",
    )
    serve.add_argument("--quiet", action="store_true", help="suppress the NDJSON event stream")
    _add_source_argument(serve)
    _add_logging_arguments(serve)
    _add_backend_arguments(serve, default="thread")
    _add_cache_arguments(serve, policy_default="readwrite")
    _add_profile_argument(
        serve,
        help="sample each ticket's execution and print per-ticket collapsed "
        "stacks to stderr",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit one request to a parse service and print its report "
        "(client-side smoke path)",
    )
    submit.add_argument("--documents", type=int, default=20)
    submit.add_argument("--seed", type=int, default=2025)
    submit.add_argument(
        "--parser",
        type=str,
        default="pymupdf",
        help="parser or engine: pymupdf, pypdf, tesseract, grobid, nougat, marker, "
        "adaparse_ft, adaparse_llm",
    )
    submit.add_argument("--batch-size", type=int, default=None)
    submit.add_argument("--alpha", type=float, default=None, help="engine α-budget override")
    submit.add_argument(
        "--request-file",
        type=str,
        default="",
        help="JSON file with a serialised ParseRequest (overrides the flags above)",
    )
    submit.add_argument("--priority", type=int, default=0, help="admission priority (higher first)")
    submit.add_argument("--client", type=str, default="cli", help="fair-share client identity")
    submit.add_argument("--quiet", action="store_true", help="suppress the NDJSON event stream")
    submit.add_argument("--include-text", action="store_true", help="embed page texts in --output")
    submit.add_argument("--output", type=str, default="", help="write the full report JSON here")
    _add_source_argument(submit)
    _add_backend_arguments(submit, default="thread")
    _add_cache_arguments(submit)
    submit.add_argument(
        "--host",
        type=str,
        default="",
        help="submit to a running `repro gateway` daemon at this address "
        "instead of a fresh local service",
    )
    submit.add_argument("--port", type=int, default=0, help="gateway port (with --host)")
    submit.add_argument(
        "--token", type=str, default="", help="gateway auth token (with --host)"
    )
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
    _add_profile_argument(
        gateway,
        help="sample each ticket's execution; profiles are served back over "
        "the PROFILE RPC (`repro obs profile TICKET-ID`)",
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
        "--slots", type=int, default=None, help="concurrent shards (default: backend workers)"
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
        "--tag",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="capability tag advertised to coordinators (repeatable), e.g. "
        "--tag gpu=true --tag cpu_class=large; heavyweight-parser shards "
        "prefer workers whose tags satisfy them",
    )
    _add_logging_arguments(worker)
    _add_backend_arguments(worker, default="serial")
    _add_cache_arguments(
        worker,
        policy_default=None,
        dir_help="local parse-cache directory (a warm cache answers shards "
        "without re-parsing); several workers may share "
        "one directory — the disk store appends on flush, so "
        "concurrent writers are safe",
    )
    _add_profile_argument(
        worker,
        help="sample each shard's execution and ship the profile back to the "
        "coordinator inside batch_result",
    )
    worker.set_defaults(func=_cmd_worker)

    cluster = sub.add_parser(
        "cluster",
        help="spawn N local workers (or join --workers-at), run one request "
        "on the remote backend, and print the placement/dedup summary; "
        "`cluster status --at HOST:PORT` queries a live campaign",
    )
    cluster.add_argument(
        "action",
        nargs="?",
        choices=["run", "status"],
        default="run",
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
    cluster.add_argument("--documents", type=int, default=50)
    cluster.add_argument("--seed", type=int, default=2025)
    cluster.add_argument(
        "--parser",
        type=str,
        default="pymupdf",
        help="parser or engine: pymupdf, pypdf, tesseract, grobid, nougat, marker, "
        "adaparse_ft, adaparse_llm",
    )
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
    cluster.add_argument(
        "--worker-backend",
        type=str,
        default="serial",
        help="execution backend of each spawned worker",
    )
    cluster.add_argument(
        "--worker-jobs", type=int, default=1, help="n_jobs of each spawned worker"
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
    _add_profile_argument(
        cluster,
        help="sample the coordinator and every spawned worker; collapsed "
        "stacks (local run + per-shard worker profiles) go to stderr",
    )
    cluster.set_defaults(func=_cmd_cluster)

    obs = sub.add_parser(
        "obs",
        help="observability tools: metrics exposition, trace trees, stack "
        "profiles, and a live top view",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_metrics = obs_sub.add_parser(
        "metrics",
        help="dump a metrics registry (local process, or a live gateway "
        "with --host/--port); --watch polls and prints deltas",
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
        help="JSON snapshot instead of Prometheus text exposition "
        "(with --watch: one JSON delta object per tick)",
    )
    obs_metrics.add_argument(
        "--watch",
        action="store_true",
        help="poll the registry and print per-interval deltas instead of "
        "dumping once",
    )
    obs_metrics.add_argument(
        "--interval", type=float, default=2.0, help="--watch poll period (s)"
    )
    obs_metrics.add_argument(
        "--count",
        type=int,
        default=0,
        help="--watch ticks before exiting (0 = until Ctrl-C)",
    )
    obs_metrics.set_defaults(func=_cmd_obs_metrics)
    obs_trace = obs_sub.add_parser(
        "trace",
        help="pretty-print the recorded span tree of one gateway ticket",
    )
    obs_trace.add_argument("ticket_id", type=str, help="ticket id (from SUBMITTED/submit output)")
    obs_trace.add_argument("--host", type=str, default="127.0.0.1", help="gateway address")
    obs_trace.add_argument("--port", type=int, required=True, help="gateway port")
    obs_trace.add_argument("--token", type=str, default="", help="gateway auth token")
    obs_trace.add_argument(
        "--client",
        type=str,
        default="cli",
        help="client identity (must own the ticket; default matches `repro submit`)",
    )
    obs_trace.add_argument("--json", action="store_true", help="raw JSON instead of the tree")
    obs_trace.set_defaults(func=_cmd_obs_trace)
    obs_profile = obs_sub.add_parser(
        "profile",
        help="fetch one gateway ticket's sampled stack profile "
        "(collapsed flamegraph lines, or --top N hottest frames)",
    )
    obs_profile.add_argument(
        "ticket_id", type=str, help="ticket id (from SUBMITTED/submit output)"
    )
    obs_profile.add_argument("--host", type=str, default="127.0.0.1", help="gateway address")
    obs_profile.add_argument("--port", type=int, required=True, help="gateway port")
    obs_profile.add_argument("--token", type=str, default="", help="gateway auth token")
    obs_profile.add_argument(
        "--client",
        type=str,
        default="cli",
        help="client identity (must own the ticket; default matches `repro submit`)",
    )
    obs_profile.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="print the N hottest leaf frames instead of collapsed stacks",
    )
    obs_profile.add_argument(
        "--json", action="store_true", help="raw JSON instead of text"
    )
    obs_profile.set_defaults(func=_cmd_obs_profile)
    obs_top = obs_sub.add_parser(
        "top",
        help="live service/cluster view of a running gateway (workers, "
        "queue depth, docs/sec, cache hit rate, p95 latency, phase shares)",
    )
    obs_top.add_argument("--host", type=str, default="127.0.0.1", help="gateway address")
    obs_top.add_argument("--port", type=int, required=True, help="gateway port")
    obs_top.add_argument("--token", type=str, default="", help="gateway auth token")
    obs_top.add_argument("--client", type=str, default="obs-cli", help="client identity")
    obs_top.add_argument(
        "--interval", type=float, default=2.0, help="refresh period (s)"
    )
    obs_top.add_argument(
        "--count",
        type=int,
        default=0,
        help="frames before exiting (0 = until Ctrl-C)",
    )
    obs_top.set_defaults(func=_cmd_obs_top)

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
    return int(args.func(args))


if __name__ == "__main__":
    sys.exit(main())
