"""The cluster worker daemon: a process that parses shards for a coordinator.

A :class:`WorkerDaemon` listens on a TCP port and speaks the
:mod:`repro.cluster.protocol`.  For every shard it

1. resolves the shard's :class:`~repro.cluster.protocol.WorkerSpec`
   through its **own** :class:`~repro.pipeline.ParsePipeline` — registry
   parser names, ``adaparse_*`` engine names (trained locally on first
   use), or engines pre-installed on the pipeline — and refuses the shard
   unless the locally built parser reproduces the coordinator's
   ``config_fingerprint()`` exactly;
2. decodes the shard's descriptors to *items*: an inline payload becomes
   its document, and a descriptor that carries a
   :class:`~repro.documents.sources.DocumentRef` becomes that reference.
   A shard holding a reference that does not load here (no such
   directory, a changed stamp) is answered with a ``shard_error`` coded
   ``unresolved_reference``, and the coordinator re-sends it with payloads;
3. runs the items through :func:`repro.cache.run_cached_batch` — the loop
   the parent-side cache wrapper runs, keyed by the same
   :meth:`~repro.cache.ParseCache.key_items` — so the cache misses are
   parsed as **one sub-batch** (preserving the engine's per-batch α
   semantics) by :func:`~repro.pipeline.backends.parse_items` on the
   shard's slot thread, which is where references are read; fresh parses
   are stored policy-permitting and made durable before the shard is
   acknowledged, and a document two overlapping shards share is parsed
   once, and
4. streams an ordered ``batch_result`` back.

Shards execute on a pool of slot threads (one by default), so transfer and
parse overlap; a heartbeat thread beacons liveness, at the period the
coordinator's ``hello`` sets, so the coordinator can distinguish *slow*
from *dead*.  Besides its name, cache and slot count, a worker advertises
one placement capability: ``gpu``, which draws the heavyweight parsers'
shards to it.

The daemon is embeddable (tests and benchmarks run several in one
process, each on its own port) and is what ``adaparse-repro worker``
runs in daemon mode.
"""

from __future__ import annotations

import os
import queue
import threading
from time import perf_counter
from typing import TYPE_CHECKING, Any, Mapping

from repro.cache import CachePolicy, CacheStatsRecorder, ParseCache, run_cached_batch
from repro.cluster import protocol
from repro.cluster.protocol import (
    MessageChannel,
    MessageTooLarge,
    ProtocolError,
    WorkerSpec,
)
from repro.documents.simpdf import document_from_dict
from repro.documents.sources import BadReference, DocumentRef, Item, StaleReferences
from repro.obs import profiling as _profiling
from repro.obs import tracing as _tracing
from repro.obs.logging import get_logger, log_event
from repro.obs.tracing import TraceContext
from repro.parsers.base import ParseResult
from repro.pipeline.backends.base import parse_items
from repro.utils import rpc

if TYPE_CHECKING:
    from repro.parsers.base import Parser

#: Thread-name prefix of daemon-owned threads (accept/reader/slots/heartbeat).
WORKER_THREAD_PREFIX = "repro-cluster-worker"

_LOG = get_logger("cluster.worker")


class SpecError(RuntimeError):
    """A shard's worker spec could not be satisfied on this daemon."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class _ShardJob:
    """One shard queued for execution on the slot pool."""

    __slots__ = ("shard_id", "spec", "descriptors", "trace")

    def __init__(
        self,
        shard_id: str,
        spec: WorkerSpec,
        descriptors: list[dict[str, Any]],
        trace: TraceContext | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.spec = spec
        self.descriptors = descriptors
        self.trace = trace


class WorkerDaemon(rpc.Server):
    """Serve parse shards over TCP (see the module docstring).

    The connection lifecycle (accept, handshake, error replies, stop) is
    :class:`repro.utils.rpc.Server`'s; this class adds shard execution.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    pipeline:
        The pipeline shards resolve parsers through.  Pass one with
        pre-installed ``engines`` to serve custom parsers; by default a
        fresh pipeline over the default registry is built.
    cache:
        Optional local :class:`~repro.cache.ParseCache` (or a directory
        path for a persistent one).  A warm cache lets the worker answer
        shards without parsing their documents, or reading its references.
    slots:
        Shards executing concurrently, one per slot thread.
    name:
        Stable worker identity used for rendezvous placement.  Give
        long-lived workers stable names so repeated runs land shards on
        the same (cache-warm) worker; the default derives from the bound
        address.
    gpu:
        Advertise a GPU in the ``hello_ack`` handshake (``"tags":
        {"gpu": true}``); coordinators place heavyweight-parser shards on
        GPU workers while any is alive.
    """

    role = "worker"
    thread_prefix = WORKER_THREAD_PREFIX
    protocol_version = protocol.PROTOCOL_VERSION

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        pipeline: Any | None = None,
        cache: "ParseCache | str | None" = None,
        slots: int = 1,
        name: str | None = None,
        gpu: bool = False,
    ) -> None:
        super().__init__(host, port)
        if slots < 1:
            raise ValueError(f"slots must be a positive integer, got {slots!r}")
        self._pipeline = pipeline
        if isinstance(cache, (str, os.PathLike)):
            cache = ParseCache(cache)
        self.cache = cache
        self._slots = slots
        self._name = name
        self.gpu = gpu

        #: Resolved specs: config fingerprint → parser.
        self._resolved: "dict[str, Parser]" = {}
        self._resolve_lock = threading.Lock()
        #: Counters exposed in ``describe()`` and CLI logging.  Updated
        #: from concurrent slot threads, so bumps go through ``_bump``.
        self.counters = {
            "shards_completed": 0,
            "shards_failed": 0,
            "docs_parsed": 0,
            "docs_from_cache": 0,
            "docs_received": 0,
            "docs_loaded": 0,
        }
        self._counters_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        if self._name is not None:
            return self._name
        return f"worker-{self.address}"

    @property
    def pipeline(self):
        if self._pipeline is None:
            from repro.pipeline.pipeline import ParsePipeline

            self._pipeline = ParsePipeline()
        return self._pipeline

    def start(self) -> "WorkerDaemon":
        """Bind and begin accepting coordinators."""
        super().start()
        log_event(
            _LOG, "info", "listening",
            worker=self.name, host=self._host, port=self.port,
        )
        return self

    def new_session(self, channel: MessageChannel) -> "_ConnectionHandler":
        return _ConnectionHandler(self, channel)

    def stop(self, drain: bool = True) -> None:
        """Stop accepting and shut down; ``drain`` finishes in-flight shards."""
        super().stop(drain)
        if self.cache is not None:
            self.cache.flush()

    def drain(self, timeout: float | None) -> None:
        for handler in self.sessions():
            if not handler.channel.closed:  # a dead link has nobody to drain for
                handler.drain(timeout)

    def kill(self) -> None:
        """Die abruptly: sever every connection without drain or goodbye.

        The crash double for fault-tolerance tests — from the
        coordinator's point of view this is indistinguishable from the
        worker process being SIGKILLed (immediate EOF on the socket).
        """
        self._stop_accepting()
        self._end_sessions(bye_reason=None)

    # ------------------------------------------------------------------ #
    # Live membership
    # ------------------------------------------------------------------ #
    def _announce(
        self,
        coordinator_address: str,
        message: Mapping[str, Any],
        *,
        timeout: float,
        retries: int,
        retry_delay: float,
    ) -> dict[str, Any]:
        """One request-response on a coordinator's membership listener."""
        from time import sleep

        last_error: Exception | None = None
        for attempt in range(max(1, retries)):
            if attempt:
                sleep(retry_delay)
            try:
                return rpc.call(coordinator_address, message, timeout)
            except (OSError, ProtocolError) as exc:
                # The membership listener may start moments after us
                # (the coordinator dials lazily); keep knocking.
                last_error = exc
        raise ProtocolError(
            f"could not announce to coordinator at {coordinator_address}: "
            f"{last_error}"
        )

    def join(
        self,
        coordinator_address: str,
        *,
        timeout: float = 5.0,
        retries: int = 20,
        retry_delay: float = 0.5,
    ) -> str:
        """Announce this (started) worker to a running coordinator.

        Sends a ``join`` to the coordinator's membership listener; the
        coordinator dials back through the ordinary handshake, so after
        this returns the worker is a full cluster member receiving
        shards.  Retries while the listener is still coming up.
        """
        if self._listener is None:
            raise RuntimeError("start the worker before joining a coordinator")
        reply = self._announce(
            coordinator_address,
            {
                "type": protocol.JOIN,
                "protocol": protocol.PROTOCOL_VERSION,
                "address": self.address,
            },
            timeout=timeout,
            retries=retries,
            retry_delay=retry_delay,
        )
        if reply.get("type") != protocol.JOIN_ACK or not reply.get("accepted"):
            raise ProtocolError(
                f"coordinator refused the join: {reply.get('message', reply)}"
            )
        log_event(
            _LOG, "info", "joined_coordinator",
            worker=self.name, coordinator=coordinator_address,
        )
        return str(reply.get("worker_id", self.name))

    def leave(
        self,
        coordinator_address: str,
        *,
        timeout: float = 5.0,
    ) -> bool:
        """Ask the coordinator to drain this worker out gracefully.

        Best-effort: returns ``False`` (never raises on wire errors)
        when the coordinator is unreachable — it will then observe the
        departure as an EOF/timeout death instead, which is safe, just
        noisier.
        """
        try:
            reply = self._announce(
                coordinator_address,
                {"type": protocol.LEAVE, "worker_id": self.name},
                timeout=timeout,
                retries=1,
                retry_delay=0.0,
            )
        except (OSError, ProtocolError, ValueError):
            return False
        return bool(reply.get("accepted"))

    def _bump(self, counter: str, n: int = 1) -> None:
        """Increment a counter (slot threads race on plain ``+=``)."""
        with self._counters_lock:
            self.counters[counter] += n

    def describe(self) -> dict[str, Any]:
        """Inventory of this worker (counters, identity, capabilities)."""
        with self._counters_lock:
            description: dict[str, Any] = dict(self.counters)
        description.update(
            {
                "name": self.name,
                "address": self.address if self._listener is not None else None,
                "slots": self._slots,
                "gpu": self.gpu,
                "cache": self.cache is not None,
            }
        )
        return description

    # ------------------------------------------------------------------ #
    # Shard execution (called from connection slot threads)
    # ------------------------------------------------------------------ #
    def _resolve_spec(self, spec: WorkerSpec) -> "Parser":
        """The parser for one spec, fingerprint-checked and memoised per spec."""
        with self._resolve_lock:
            resolved = self._resolved.get(spec.fingerprint)
            if resolved is not None:
                return resolved
            try:
                parser = self.pipeline.resolve_parser(spec.parser, alpha=spec.alpha)
            except KeyError as exc:
                raise SpecError("unknown_parser", str(exc)) from exc
            fingerprint = parser.config_fingerprint()
            if fingerprint != spec.fingerprint:
                raise SpecError(
                    "fingerprint_mismatch",
                    f"worker built {spec.parser!r} with fingerprint {fingerprint}, "
                    f"but the coordinator expects {spec.fingerprint}; parser "
                    f"versions or trained weights differ between the hosts",
                )
            self._resolved[spec.fingerprint] = parser
            return parser

    def _item(self, descriptor: Mapping[str, Any]) -> Item:
        """What one descriptor carries: a document, or a reference."""
        if "payload" in descriptor:
            self._bump("docs_received")
            return document_from_dict(descriptor["payload"])
        if "ref" not in descriptor:
            raise SpecError(
                "bad_descriptor",
                f"descriptor {descriptor.get('content_hash')!r} carries "
                f"neither a payload nor a reference",
            )
        try:
            return DocumentRef.from_json_dict(descriptor["ref"])
        except ValueError as exc:
            raise SpecError("bad_reference", str(exc)) from exc

    def run_shard(
        self, spec: WorkerSpec, descriptors: list[dict[str, Any]]
    ) -> tuple[list[ParseResult], list, int, int]:
        """Execute one shard of descriptors (each a document or a reference).

        Returns ``(results, decisions, cache_hits, cache_misses)`` with
        results in descriptor order.  With a local cache the shard runs
        through :func:`repro.cache.run_cached_batch` — the loop the
        pipeline's own batches run through — so a hit is never parsed and
        overlapping shards parse a shared document once (the later one
        counts it as a hit); a writing shard is flushed before it returns,
        so what is acknowledged is durable.  Without a cache, every item
        goes straight to :func:`~repro.pipeline.backends.parse_items`.

        An inline descriptor is keyed by the content hash it carries.  A
        by-reference descriptor's hash is ``ref.key()``, which names a
        location: its content hash comes from the cache's reference index
        (:meth:`~repro.cache.ParseCache.key_items`, what the pipeline's
        cached batches use), so a reference this worker has read before is
        read again — by the parse — only if its parse is not cached either.
        A reference that does not load here raises a :class:`SpecError`
        coded ``unresolved_reference``; one that never could, ``bad_reference``.
        """
        parser = self._resolve_spec(spec)
        policy = CachePolicy.coerce(spec.cache) if self.cache is not None else CachePolicy.OFF
        items = [self._item(descriptor) for descriptor in descriptors]

        def inner(sub_batch: "list[Item]"):
            """The misses, parsed as one sub-batch on this slot thread."""
            output = parse_items(parser, sub_batch)
            self._bump("docs_loaded", sum(isinstance(item, DocumentRef) for item in sub_batch))
            return output

        try:
            if policy is CachePolicy.OFF:
                results, decisions = inner(items)
                if len(results) != len(descriptors):
                    raise SpecError(
                        "bad_worker_output",
                        f"worker returned {len(results)} results for "
                        f"{len(descriptors)} documents",
                    )
                hits, misses = 0, len(descriptors)
            else:
                recorder = CacheStatsRecorder()
                keys, keyed = self.cache.key_items(
                    items,
                    spec.fingerprint,
                    [None if "ref" in d else str(d["content_hash"]) for d in descriptors],
                )
                self._bump("docs_loaded", sum(a is not b for a, b in zip(items, keyed)))
                results, decisions = run_cached_batch(
                    self.cache, policy, keys, keyed.__getitem__, inner, recorder
                )
                stats = recorder.snapshot()
                hits, misses = stats.hits + stats.coalesced, stats.misses
                if policy.writes:
                    with _profiling.phase("cache.flush"):
                        self.cache.flush()
        except StaleReferences as exc:
            raise SpecError(protocol.UNRESOLVED_REFERENCE, str(exc)) from exc
        except BadReference as exc:
            raise SpecError("bad_reference", str(exc)) from exc
        self._bump("docs_parsed", misses)
        self._bump("docs_from_cache", hits)
        return results, decisions, hits, misses


class _ConnectionHandler(rpc.Session):
    """One coordinator connection: reader + slot pool + heartbeat."""

    def __init__(self, daemon: WorkerDaemon, channel: MessageChannel) -> None:
        super().__init__(daemon, channel)
        self.daemon = daemon
        self._queue: "queue.Queue[_ShardJob | None]" = queue.Queue()
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()
        self._idle = threading.Condition(self._in_flight_lock)
        self._draining = threading.Event()

    def on_hello(self, hello: dict[str, Any]) -> dict[str, Any]:
        # The coordinator's hello sets the beacon period; a peer that sets
        # none (a probe) hears one a second.
        interval = float(hello.get("heartbeat_interval", 1.0))
        if not 0 < interval < float("inf"):
            raise rpc.HandshakeRefused(
                f"heartbeat_interval must be a positive number of seconds, got {interval}"
            )
        self._heartbeat_interval = interval
        return {
            "worker_id": self.daemon.name,
            "pid": os.getpid(),
            "capabilities": {
                "slots": self.daemon._slots,
                "cache": self.daemon.cache is not None,
                "tags": {"gpu": True} if self.daemon.gpu else {},
            },
        }

    def on_open(self) -> None:
        for index in range(self.daemon._slots):
            self.spawn(f"slot-{index}", self._slot_loop)
        self.spawn("heartbeat", self._heartbeat_loop)

    def drain(self, timeout: float | None) -> None:
        """Refuse new shards and wait for the in-flight ones."""
        self._draining.set()
        # Queued-but-unstarted jobs already count in ``_in_flight`` (the
        # counter moves at enqueue time), so this is the whole condition.
        with self._idle:
            self._idle.wait_for(lambda: self._in_flight == 0, timeout)

    def close(self) -> None:
        super().close()
        self._draining.set()
        self._queue.put(None)  # release the slot pool

    # ------------------------------------------------------------------ #
    # Requests (reader thread)
    # ------------------------------------------------------------------ #
    def _on_drain(self, message: dict[str, Any]) -> None:
        self.drain(timeout=None)
        self.say_bye("drained")
        self.close()

    def _on_submit(self, message: dict[str, Any]) -> None:
        if self._draining.is_set():
            self._shard_error(message.get("shard_id"), "draining", "worker is draining")
            return
        job = _ShardJob(
            str(message["shard_id"]),
            WorkerSpec.from_json_dict(message["spec"]),
            list(message.get("docs", [])),
            trace=TraceContext.from_wire(message.get("trace")),
        )
        with self._in_flight_lock:
            self._in_flight += 1
        self._queue.put(job)

    def _shard_error(self, shard_id: Any, code: str, error: str) -> None:
        self.send_safely(
            {
                "type": protocol.SHARD_ERROR,
                "shard_id": shard_id,
                "code": code,
                "error": error,
            }
        )

    def _fail(self, job: _ShardJob, code: str, error: str) -> None:
        """Tell the coordinator why a shard did not run; it counts as failed
        here unless it only goes back for payloads."""
        if code != protocol.UNRESOLVED_REFERENCE:
            self.daemon._bump("shards_failed")
        self._shard_error(job.shard_id, code, error)

    # ------------------------------------------------------------------ #
    # Slot pool
    # ------------------------------------------------------------------ #
    def _slot_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                self._queue.put(None)  # release sibling slots
                return
            try:
                self._run_job(job)
            finally:
                with self._in_flight_lock:
                    self._in_flight -= 1
                    self._idle.notify_all()

    def _run_job(self, job: _ShardJob) -> None:
        started = perf_counter()
        # A private per-shard timer (never the daemon's ambient state —
        # shards from many coordinators share this daemon) whose table
        # rides the batch_result frame back to the coordinator.
        timer: "_profiling.PhaseTimer | None" = (
            _profiling.PhaseTimer() if _profiling.phases_enabled() else None
        )
        trace = job.trace if _tracing.enabled() else None
        try:
            with _profiling.use_timer(timer), _tracing.activate(trace):
                results, decisions, hits, misses = self.daemon.run_shard(
                    job.spec, job.descriptors
                )
        except SpecError as exc:
            self._fail(job, exc.code, str(exc))
            return
        except Exception as exc:  # noqa: BLE001 - shard failures must travel
            self._fail(job, "worker_exception", f"{type(exc).__name__}: {exc}")
            return
        self.daemon._bump("shards_completed")
        log_event(
            _LOG, "debug", "shard_completed",
            shard_id=job.shard_id, cache_hits=hits, cache_misses=misses,
            trace_id=job.trace.trace_id if job.trace is not None else None,
        )
        serialize_started = perf_counter()
        message = protocol.batch_result_message(
            job.shard_id,
            results,
            decisions,
            worker_id=self.daemon.name,
            elapsed_seconds=perf_counter() - started,
            cache_hits=hits,
            cache_misses=misses,
            phases=timer.snapshot() if timer is not None else None,
        )
        if timer is not None:
            # Result serialization is a wire-path cost, not a parse phase:
            # it lands in the shared duration histogram (where the
            # raw-speed work will read it), keeping `phases` keys
            # identical across backends that never serialize.
            _profiling.phase_seconds_histogram().observe(
                perf_counter() - serialize_started, phase="serialize.result"
            )
        try:
            self.channel.send(message)
        except MessageTooLarge as exc:
            # The results cannot cross the wire: report a shard error so
            # the coordinator fails this shard instead of waiting forever.
            self._shard_error(job.shard_id, "result_too_large", str(exc))
        except (ProtocolError, OSError):
            pass  # connection death; the reader loop handles it

    # ------------------------------------------------------------------ #
    # Heartbeat
    # ------------------------------------------------------------------ #
    def _heartbeat_loop(self) -> None:
        while not self._closed.wait(self._heartbeat_interval):
            with self._in_flight_lock:
                in_flight = self._in_flight
            if not self.send_safely(
                {
                    "type": protocol.HEARTBEAT,
                    "worker_id": self.daemon.name,
                    "in_flight": in_flight,
                }
            ):
                return

    handlers = {
        protocol.SUBMIT_SHARD: _on_submit,
        protocol.DRAIN: _on_drain,
        # Coordinators may echo beacons; nothing to do.
        protocol.HEARTBEAT: lambda self, message: None,
    }
