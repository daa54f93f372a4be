"""The cluster coordinator: shard planning, dispatch, and fault tolerance.

The coordinator owns the client side of every worker connection.  Its
contract with the :class:`~repro.cluster.backend.RemoteBackend` is small:
:meth:`ClusterCoordinator.submit` takes one shard (a
:class:`~repro.cluster.protocol.WorkerSpec` plus a batch of items —
documents and :class:`~repro.documents.sources.DocumentRef` values, freely
mixed) and returns a future; the coordinator guarantees every future
eventually resolves — with the shard's ordered results, or with a
:class:`ClusterError`.

Behind that contract it implements the distribution policy:

* **Placement** — shards are placed by rendezvous hashing over the
  shard's per-slot hashes — a document's content hash, a reference's
  ``ref.key()`` — (:func:`~repro.cluster.protocol.rank_workers`), so
  repeated runs over the same corpus land each shard on the same worker,
  whose parse cache is then warm.  ``placement="balanced"`` trades that
  affinity for load balancing (least-backlogged worker, rendezvous rank as
  the tie-break).
* **Windowing** — at most ``window`` shards are in flight per worker;
  excess placements wait in that worker's queue, so a slow worker
  backpressures its own shards without stalling the others.
* **Transfer** — a slot crosses as what it is.  A reference goes as a
  reference: the worker reads its own document and nothing is read, hashed
  or serialised here.  A document goes with its payload.  A worker that
  cannot load a reference answers ``shard_error`` with the code
  ``unresolved_reference``; the shard goes back on that worker's queue,
  neither failed nor reassigned, and from then on the link is sent
  payloads (a reference is read here for it — the only place the
  coordinator reads).
* **Fault tolerance** — a worker is dead on socket EOF/reset or after
  ``heartbeat_timeout`` without a beacon.  Both detection paths converge
  on one reap-and-requeue code path (:meth:`ClusterCoordinator.
  _on_worker_death`), idempotent under the link's ``alive`` flag — a
  worker dying *between* a heartbeat timeout and the EOF landing is
  reaped exactly once, never double-requeued.  Orphaned queued and
  in-flight shards are re-placed on the survivors (**at-least-once**
  dispatch); results are deduplicated by shard id, first writer wins, so
  the caller still observes **exactly-once** results.  When the last
  worker dies, every outstanding future fails with a
  :class:`ClusterError` rather than hanging.

The elastic operations build on the same machinery:
:meth:`ClusterCoordinator.add_worker` admits a worker to a *running*
coordinator (re-placing only the queued shards whose rendezvous preference
moved — in-flight and completed shards never move),
:meth:`ClusterCoordinator.remove_worker` drains one gracefully, a
heavyweight parser's shards go to the workers that advertise a GPU, and
an optional
:class:`~repro.cluster.ledger.ShardLedger` checkpoints every completed
shard so a killed campaign resumes with completed work replayed, not
re-parsed.  The links are the one membership record: a link is never
dropped from :meth:`ClusterCoordinator.workers`, and its ``alive`` and
``draining`` flags give its ``state``.
"""

from __future__ import annotations

import threading
from collections import deque
from time import monotonic
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.cache.keys import document_content_hash
from repro.cluster import protocol
from repro.cluster.protocol import (
    MessageChannel,
    MessageTooLarge,
    ProtocolError,
    WorkerSpec,
    rank_workers,
    shard_placement_key,
)
from repro.core.engine import RoutingDecision
from repro.documents.document import SciDocument
from repro.documents.simpdf import document_to_dict
from repro.documents.sources import DocumentRef, Item, create_source
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.obs.logging import get_logger, log_event
from repro.obs.tracing import TraceContext
from repro.parsers.base import ParseResult
from repro.utils import rpc

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.ledger import ShardLedger

#: Thread-name prefix of coordinator-owned threads (readers + monitor).
COORDINATOR_THREAD_PREFIX = "repro-cluster-coord"

_LOG = get_logger("cluster")

_CLUSTER_SHARDS = _metrics.counter(
    "repro_cluster_shards_total",
    "Shard outcomes observed by the coordinator "
    "(completed/failed/reassigned/duplicate).",
    ("outcome",),
)
_CLUSTER_WORKERS_LOST = _metrics.counter(
    "repro_cluster_workers_lost_total",
    "Workers declared dead (EOF, reset, or heartbeat timeout).",
)
_CLUSTER_BYTES = _metrics.gauge(
    "repro_cluster_bytes_on_wire",
    "Total bytes sent/received across all worker links.",
    ("direction",),
)

#: One shard's resolved output.
ShardOutput = tuple[list[ParseResult], list[RoutingDecision]]


class ClusterError(RuntimeError):
    """The cluster could not complete a shard (or could not start at all)."""


class ShardFuture:
    """Minimal thread-safe future for one shard's output."""

    def __init__(self, shard_id: str) -> None:
        self.shard_id = shard_id
        self._done = threading.Event()
        self._output: ShardOutput | None = None
        self._error: BaseException | None = None
        #: The worker-side phase table that rode the batch_result frame
        #: (set before the result resolves); the remote backend merges it
        #: into the submitting request's ambient timer.
        self.phases: "dict[str, Any] | None" = None

    def set_result(self, output: ShardOutput) -> None:
        self._output = output
        self._done.set()

    def set_exception(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> ShardOutput:
        if not self._done.wait(timeout):
            raise TimeoutError(f"shard {self.shard_id} not done within {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._output is not None
        return self._output


class _Shard:
    """Coordinator-side state of one dispatched batch of items.

    ``content_hashes[slot]`` is how the slot is addressed on the wire:
    ``ref.key()`` while ``items[slot]`` is a :class:`DocumentRef`, the
    content hash once it is a document.
    """

    __slots__ = (
        "shard_id",
        "spec",
        "items",
        "content_hashes",
        "placement_key",
        "future",
        "attempts",
        "excluded_workers",
        "assigned_worker",
        "trace",
        "gpu",
    )

    def __init__(
        self,
        shard_id: str,
        spec: WorkerSpec,
        items: list[Item],
        trace: TraceContext | None = None,
        gpu: bool = False,
    ) -> None:
        self.shard_id = shard_id
        self.spec = spec
        self.items = items
        self.content_hashes = [
            item.key() if isinstance(item, DocumentRef) else document_content_hash(item)
            for item in items
        ]
        #: Fixed at construction: placement affinity and the ledger key must
        #: not move when a referenced slot is later sent inline.
        self.placement_key = shard_placement_key(self.content_hashes)
        self.future = ShardFuture(shard_id)
        self.attempts = 0
        self.excluded_workers: set[str] = set()
        self.assigned_worker: str | None = None
        self.trace = trace
        #: Whether the shard wants a GPU worker (a heavyweight parser's);
        #: relaxed when no alive worker has one.
        self.gpu = gpu


def _read_here(ref: DocumentRef) -> SciDocument:
    """What ``ref`` names *now*, for a link that cannot take the reference:
    this process is where the request was planned, so a moved stamp is not a
    disagreement with anyone."""
    return create_source(ref.source).load(ref, check_stamp=False)


class _WorkerLink:
    """One connected worker: channel, identity, window, and backlog."""

    def __init__(self, address: str, channel: MessageChannel, window: int) -> None:
        self.address = address
        self.channel = channel
        self.window = window
        self.worker_id = address  # replaced by the hello_ack identity
        self.capabilities: dict[str, Any] = {}
        #: Whether the worker advertises a GPU (``"tags": {"gpu": true}``).
        self.gpu = False
        #: How the worker arrived: "fixed" list or mid-run "join".
        self.source = "fixed"
        self.alive = True
        #: Draining workers finish their in-flight shards but receive no
        #: new placements; set by graceful removal (leave).
        self.draining = False
        self.last_seen = monotonic()
        self.in_flight: dict[str, _Shard] = {}
        self.queued: deque[_Shard] = deque()
        #: Whether by-reference shards go to this worker as references:
        #: until it answers one with ``unresolved_reference``.
        self.takes_refs = True
        self.reader: threading.Thread | None = None

    @property
    def backlog(self) -> int:
        return len(self.in_flight) + len(self.queued)


class ClusterCoordinator:
    """Dispatch shards to worker daemons (see the module docstring).

    Parameters
    ----------
    addresses:
        Worker endpoints as ``"host:port"`` strings.
    window:
        In-flight shards per worker; further placements queue.
    placement:
        ``"rendezvous"`` (cache-affine, the default) or ``"balanced"``
        (least-backlogged worker first, rendezvous rank as tie-break).
    connect_timeout:
        Per-worker TCP connect + handshake budget.  Workers that fail to
        connect are skipped; the coordinator starts as long as one
        worker answered, and :meth:`connect` raises otherwise.
    heartbeat_interval / heartbeat_timeout:
        Beacon period requested from workers, and the silence after
        which a worker is declared dead and its shards re-queued.
    ledger:
        Optional :class:`~repro.cluster.ledger.ShardLedger`.  Completed
        shards are durably recorded before their futures resolve, and
        submissions whose (placement key × fingerprint) the ledger
        already holds are replayed without dispatch — the
        checkpoint/resume path of ``cluster --ledger-dir``.
    """

    def __init__(
        self,
        addresses: Sequence[str],
        *,
        window: int = 2,
        placement: str = "rendezvous",
        connect_timeout: float = 5.0,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 15.0,
        ledger: "ShardLedger | None" = None,
    ) -> None:
        if not addresses:
            raise ClusterError("remote backend needs at least one worker address")
        if window < 1:
            raise ClusterError("window must be positive")
        if placement not in ("rendezvous", "balanced"):
            raise ClusterError(
                f"unknown placement {placement!r}; known: rendezvous, balanced"
            )
        self.addresses = list(addresses)
        self.window = window
        self.placement = placement
        self.connect_timeout = connect_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.ledger = ledger
        self._lock = threading.Lock()
        self._links: list[_WorkerLink] = []
        self._shards: dict[str, _Shard] = {}
        self._next_shard = 0
        self._closed = False
        self._monitor: threading.Thread | None = None
        self._monitor_stop = threading.Event()
        self.counters: dict[str, int] = {
            "workers_seen": 0,
            "workers_lost": 0,
            "workers_left": 0,
            "shards_submitted": 0,
            "shards_completed": 0,
            "shards_failed": 0,
            "shards_reassigned": 0,
            "shards_rebalanced": 0,
            "shards_replayed": 0,
            "duplicate_results_ignored": 0,
            "doc_payloads_sent": 0,
            "doc_refs_sent": 0,
            "remote_cache_hits": 0,
            "remote_cache_misses": 0,
            "placement_relaxed": 0,
        }

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #
    def connect(self) -> "ClusterCoordinator":
        """Dial every worker; start with the ones that answer."""
        errors: list[str] = []
        for address in self.addresses:
            try:
                self._connect_one(address)
            except (OSError, ProtocolError, ClusterError) as exc:
                errors.append(f"{address}: {exc}")
        if not self._links:
            raise ClusterError(
                f"no cluster workers reachable: {'; '.join(errors) or self.addresses}"
            )
        self._monitor = threading.Thread(
            target=self._monitor_loop,
            name=f"{COORDINATOR_THREAD_PREFIX}-monitor",
            daemon=True,
        )
        self._monitor.start()
        return self

    def _connect_one(self, address: str, source: str = "fixed") -> _WorkerLink:
        try:
            channel = rpc.dial(address, self.connect_timeout)
            ack = rpc.handshake(
                channel,
                {
                    "type": protocol.HELLO,
                    "protocol": protocol.PROTOCOL_VERSION,
                    "heartbeat_interval": self.heartbeat_interval,
                },
                protocol.PROTOCOL_VERSION,
            )
        except (ValueError, rpc.HandshakeRefused) as exc:
            raise ClusterError(f"worker at {address}: {exc}") from exc
        link = _WorkerLink(address, channel, self.window)
        link.source = source
        link.worker_id = str(ack.get("worker_id", address))
        link.capabilities = dict(ack.get("capabilities", {}))
        link.gpu = bool((link.capabilities.get("tags") or {}).get("gpu"))
        link.reader = threading.Thread(
            target=self._read_loop,
            args=(link,),
            name=f"{COORDINATOR_THREAD_PREFIX}-reader-{link.worker_id}",
            daemon=True,
        )
        # The dial ran outside the lock, so a close() may have run since:
        # the link is admitted (and its reader started) only while the
        # coordinator is open, or close() would never see it.
        with self._lock:
            if self._closed:
                channel.close()
                raise ClusterError("coordinator is closed")
            if any(peer.worker_id == link.worker_id for peer in self._links):
                channel.close()
                raise ClusterError(
                    f"duplicate worker id {link.worker_id!r} at {address}; give "
                    f"workers distinct --name values for stable placement"
                )
            self._links.append(link)
            self.counters["workers_seen"] += 1
            link.reader.start()
        return link

    # ------------------------------------------------------------------ #
    # Live membership
    # ------------------------------------------------------------------ #
    def add_worker(self, address: str) -> str:
        """Admit a worker to a *running* coordinator; returns its id.

        The new worker goes through the ordinary handshake and then only
        the **queued** shards whose rendezvous preference moved to it are
        re-placed (:meth:`_rebalance_after_join`) — in-flight shards stay
        where they are and completed shards are gone, so a join disrupts
        the minimal shard set.
        """
        with self._lock:
            if self._closed:
                raise ClusterError("coordinator is closed")
        link = self._connect_one(address, source="join")
        self._rebalance_after_join(link)
        log_event(
            _LOG, "info", "worker_added",
            worker=link.worker_id, address=address, source="join",
        )
        return link.worker_id

    def remove_worker(self, worker_id: str) -> None:
        """Gracefully drain one worker out of the cluster.

        The link stops receiving placements immediately, its queued
        shards re-place onto the other workers, and a ``drain`` asks it
        to finish in-flight work and say ``bye`` — at which point the
        departure is recorded as a *leave*, not a death.
        """
        with self._lock:
            link = next(
                (
                    peer
                    for peer in self._links
                    if peer.worker_id == worker_id and peer.alive
                ),
                None,
            )
            if link is None:
                raise ClusterError(f"no alive worker {worker_id!r} to remove")
            if link.draining:
                return  # removal already underway
            link.draining = True
            requeued = list(link.queued)
            link.queued.clear()
            for shard in requeued:
                self._place_locked(shard)
            sends = self._pump_locked()
        self._send_planned(sends)
        try:
            link.channel.send({"type": protocol.DRAIN})
        except (OSError, ProtocolError) as exc:
            self._on_worker_death(link, f"send failed during drain: {exc}")

    def _rebalance_after_join(self, link: _WorkerLink) -> None:
        """Move queued shards that now rendezvous-prefer the new worker.

        Only queued (never dispatched) shards move, and only those whose
        top-ranked worker *is* the newcomer — the minimal-disruption
        property of rendezvous hashing, applied to a join.  Balanced
        placement skips this: its queues drain least-backlogged-first
        and the newcomer's empty backlog attracts new work naturally.
        """
        if self.placement != "rendezvous":
            return
        moved = 0
        with self._lock:
            if not link.alive or self._closed:
                return
            for peer in self._links:
                if peer is link or not peer.alive:
                    continue
                kept: deque[_Shard] = deque()
                for shard in peer.queued:
                    ranked, _ = self._rank_locked(shard)
                    if ranked and ranked[0] is link:
                        shard.assigned_worker = link.worker_id
                        link.queued.append(shard)
                        moved += 1
                    else:
                        kept.append(shard)
                peer.queued = kept
            self.counters["shards_rebalanced"] += moved
            sends = self._pump_locked()
        self._send_planned(sends)
        if moved:
            log_event(
                _LOG, "info", "shards_rebalanced",
                worker=link.worker_id, moved=moved,
            )

    # ------------------------------------------------------------------ #
    # Submission and placement
    # ------------------------------------------------------------------ #
    def submit(
        self,
        spec: WorkerSpec,
        items: Iterable[Item],
        trace: TraceContext | None = None,
        gpu: bool = False,
    ) -> ShardFuture:
        """Plan one shard onto the cluster; returns its future immediately.

        The batch is any mix of documents and
        :class:`~repro.documents.sources.DocumentRef` values.

        ``trace`` (default: the caller's active trace) rides the
        ``submit_shard`` frame so the worker's logs for the shard carry the
        submitting request's trace id.  A ``gpu`` shard goes to a worker
        that advertises a GPU (relaxed when no alive worker does).  With a
        ledger attached, a shard the ledger already holds resolves
        immediately from the checkpoint — the resume path — and is never
        dispatched.
        """
        batch = list(items)
        if trace is None:
            trace = _tracing.current_trace()
        with self._lock:
            if self._closed:
                raise ClusterError("coordinator is closed")
            shard_id = f"s{self._next_shard:06d}"
            self._next_shard += 1
            self.counters["shards_submitted"] += 1
        # Built outside the lock: hashing inline documents takes ~0.5 ms
        # each, and every reader thread's result handling waits on the lock.
        shard = _Shard(shard_id, spec, batch, trace=trace, gpu=gpu)
        if self.ledger is not None:
            replay = self.ledger.completed_output(shard.placement_key, spec.fingerprint)
            if replay is not None:
                with self._lock:
                    self.counters["shards_replayed"] += 1
                _CLUSTER_SHARDS.inc(outcome="replayed")
                shard.future.set_result(replay)
                return shard.future
        with self._lock:
            if self._closed:
                raise ClusterError("coordinator is closed")
            self._shards[shard.shard_id] = shard
            self._place_locked(shard)
            sends = self._pump_locked()
        self._send_planned(sends)
        return shard.future

    def _fail_shard_locked(self, shard: _Shard, error: BaseException) -> None:
        """Settle a shard that can no longer run anywhere (lock held)."""
        self._shards.pop(shard.shard_id, None)
        self.counters["shards_failed"] += 1
        shard.future.set_exception(error)

    def _fail_unsendable(
        self, link: _WorkerLink, shard: _Shard, error: Exception
    ) -> None:
        """Fail one shard whose message cannot be built or cross the wire."""
        with self._lock:
            link.in_flight.pop(shard.shard_id, None)
            if shard.shard_id in self._shards:
                self._fail_shard_locked(shard, ClusterError(str(error)))
            sends = self._pump_locked()
        self._send_planned(sends)

    def _rank_locked(self, shard: _Shard) -> tuple[list[_WorkerLink], bool]:
        """A shard's candidate links in rendezvous order (lock held).

        Candidates are the links that may take new shards (alive, not
        draining), minus the workers the shard already failed on unless that
        is every one of them.  A ``gpu`` shard keeps the workers that
        advertise a GPU; when none do it relaxes — any worker *can* run a
        heavyweight parser, just more slowly — and the second value says so.
        """
        survivors = [link for link in self._links if link.alive and not link.draining]
        candidates = [
            link for link in survivors if link.worker_id not in shard.excluded_workers
        ] or survivors
        relaxed = False
        if shard.gpu:
            gpus = [link for link in candidates if link.gpu]
            relaxed = not gpus
            candidates = gpus or candidates
        by_id = {link.worker_id: link for link in candidates}
        return [by_id[wid] for wid in rank_workers(shard.placement_key, by_id)], relaxed

    def _place_locked(self, shard: _Shard) -> None:
        """Pick a worker for a shard and queue it there (lock held)."""
        ranked, relaxed = self._rank_locked(shard)
        if not ranked:
            self._fail_shard_locked(
                shard, ClusterError("no alive cluster workers to place shards on")
            )
            return
        if relaxed:
            self.counters["placement_relaxed"] += 1
        if self.placement == "balanced":
            ranked.sort(key=lambda link: link.backlog)  # stable: rank breaks ties
        target = ranked[0]
        shard.assigned_worker = target.worker_id
        shard.attempts += 1
        target.queued.append(shard)

    def _pump_locked(self) -> list[tuple[_WorkerLink, _Shard]]:
        """Move queued shards into free windows (lock held); returns sends."""
        sends: list[tuple[_WorkerLink, _Shard]] = []
        for link in self._links:
            if not link.alive or link.draining:
                continue
            while link.queued and len(link.in_flight) < link.window:
                shard = link.queued.popleft()
                link.in_flight[shard.shard_id] = shard
                sends.append((link, shard))
        return sends

    def _send_planned(self, sends: list[tuple[_WorkerLink, _Shard]]) -> None:
        """Transmit planned submissions outside the lock, slot by slot.

        A reference goes to a link that takes references as a
        ``{"content_hash": ref.key(), "ref": {...}}`` descriptor; for any
        other link it is read here first — the slot holds the document
        from then on.  A document goes as ``{doc_id, content_hash,
        payload}``.
        """
        for link, shard in sends:
            descriptors: list[dict[str, Any]] = []
            refs_sent = 0
            try:
                for slot, item in enumerate(shard.items):
                    if isinstance(item, DocumentRef):
                        if link.takes_refs:
                            descriptors.append(
                                {
                                    "content_hash": shard.content_hashes[slot],
                                    "ref": item.to_json_dict(),
                                }
                            )
                            refs_sent += 1
                            continue
                        item = shard.items[slot] = _read_here(item)
                        shard.content_hashes[slot] = document_content_hash(item)
                    descriptors.append(
                        {
                            "doc_id": item.doc_id,
                            "content_hash": shard.content_hashes[slot],
                            "payload": document_to_dict(item),
                        }
                    )
            except Exception as exc:  # noqa: BLE001 - fails the shard, not this thread
                self._fail_unsendable(link, shard, exc)
                continue
            message = {
                "type": protocol.SUBMIT_SHARD,
                "shard_id": shard.shard_id,
                "spec": shard.spec.to_json_dict(),
                "docs": descriptors,
            }
            if shard.trace is not None:
                message["trace"] = shard.trace.to_json_dict()
            try:
                link.channel.send(message)
            except MessageTooLarge as exc:
                # The shard itself is unsendable — fail it alone (nothing
                # was written, the connection is fine); declaring the
                # worker dead would just re-bounce the shard around the
                # cluster until every worker was "lost".
                self._fail_unsendable(link, shard, exc)
                continue
            except (OSError, ProtocolError) as exc:
                self._on_worker_death(link, f"send failed: {exc}")
                continue
            with self._lock:
                self.counters["doc_refs_sent"] += refs_sent
                self.counters["doc_payloads_sent"] += len(descriptors) - refs_sent

    # ------------------------------------------------------------------ #
    # Reader / message handling
    # ------------------------------------------------------------------ #
    def _read_loop(self, link: _WorkerLink) -> None:
        reason = "connection closed by worker"
        try:
            while True:
                message = link.channel.recv()
                if message is None:
                    break
                link.last_seen = monotonic()
                kind = message.get("type")
                if kind == protocol.BATCH_RESULT:
                    self._on_batch_result(link, message)
                elif kind == protocol.SHARD_ERROR:
                    self._on_shard_error(link, message)
                elif kind == protocol.HEARTBEAT:
                    pass  # last_seen already refreshed
                elif kind == protocol.BYE:
                    reason = f"worker said bye: {message.get('reason')}"
                    break
                elif kind == protocol.ERROR:
                    reason = f"worker error: {message.get('message')}"
                    break
                else:
                    reason = f"unexpected message type {kind!r}"
                    break
        except (OSError, ProtocolError) as exc:
            reason = str(exc)
        self._on_worker_death(link, reason)

    def _on_batch_result(self, link: _WorkerLink, message: Mapping[str, Any]) -> None:
        shard_id = str(message.get("shard_id"))
        # The whole frame is read before the shard leaves the books: a frame
        # that cannot be read fails its shard, where an error raised after
        # the pop would kill this reader with nothing left to re-dispatch.
        error: "str | None" = None
        try:
            batch = protocol.parse_batch_result(message)
        except (KeyError, TypeError, ValueError) as exc:
            batch, error = None, f"malformed batch_result for {shard_id}: {exc}"
        with self._lock:
            shard = self._shards.pop(shard_id, None)
            link.in_flight.pop(shard_id, None)
            if batch is not None and shard is not None and (
                len(batch.results) != len(shard.content_hashes)
            ):
                error = (
                    f"worker {link.worker_id} returned {len(batch.results)} results "
                    f"for shard {shard_id} of {len(shard.content_hashes)} documents"
                )
            if shard is None:
                # A worker we gave up on still answered after the shard was
                # re-run elsewhere: at-least-once dispatch, exactly-once
                # results — first writer won, this copy is dropped.
                self.counters["duplicate_results_ignored"] += 1
            elif error is not None:
                self.counters["shards_failed"] += 1
            else:
                self.counters["shards_completed"] += 1
                self.counters["remote_cache_hits"] += batch.cache_hits
                self.counters["remote_cache_misses"] += batch.cache_misses
            sends = self._pump_locked()
        self._send_planned(sends)
        if shard is None:
            _CLUSTER_SHARDS.inc(outcome="duplicate")
            return
        if error is not None:
            _CLUSTER_SHARDS.inc(outcome="failed")
            shard.future.set_exception(ClusterError(error))
            return
        _CLUSTER_SHARDS.inc(outcome="completed")
        # The worker's phase table rides the result frame; it is stashed on
        # the future, and the submitting thread merges it into its run's
        # timer when the result resolves.
        shard.future.phases = batch.phases
        if self.ledger is not None:
            # Checkpoint *before* resolving the future: once the caller
            # observes the shard complete, a coordinator kill cannot
            # un-complete it on resume.
            try:
                self.ledger.record(
                    shard.placement_key,
                    shard.spec.fingerprint,
                    message.get("results", []),
                    message.get("decisions", []),
                    worker_id=link.worker_id,
                )
            except OSError as exc:
                log_event(
                    _LOG, "warning", "ledger_record_failed",
                    shard_id=shard_id, reason=str(exc),
                )
        shard.future.set_result((batch.results, batch.decisions))

    def _on_shard_error(self, link: _WorkerLink, message: Mapping[str, Any]) -> None:
        shard_id = str(message.get("shard_id"))
        with self._lock:
            shard = link.in_flight.pop(shard_id, None)
            if (
                shard is not None
                and message.get("code") == protocol.UNRESOLVED_REFERENCE
                and any(isinstance(item, DocumentRef) for item in shard.items)
            ):
                # The worker cannot load what this link's references name:
                # the link is sent payloads from now on, this shard first.
                link.takes_refs = False
                link.queued.appendleft(shard)
                shard = None
            else:
                shard = self._shards.pop(shard_id, None)
                if shard is not None:
                    self.counters["shards_failed"] += 1
            sends = self._pump_locked()
        self._send_planned(sends)
        if shard is None:
            return
        _CLUSTER_SHARDS.inc(outcome="failed")
        log_event(
            _LOG, "warning", "shard_failed",
            shard_id=shard_id, worker=link.worker_id,
            code=message.get("code", "error"),
            trace_id=shard.trace.trace_id if shard.trace is not None else None,
        )
        shard.future.set_exception(
            ClusterError(
                f"shard {shard_id} failed on worker {link.worker_id} "
                f"[{message.get('code', 'error')}]: {message.get('error')}"
            )
        )

    # ------------------------------------------------------------------ #
    # Fault handling
    # ------------------------------------------------------------------ #
    def _reap_link_locked(
        self, link: _WorkerLink
    ) -> "tuple[int, list[tuple[_WorkerLink, _Shard]], bool] | None":
        """Mark one link dead and requeue its orphans (lock held).

        **The single dedup/requeue code path** for every way a worker
        leaves: socket EOF/reset (reader loop), heartbeat timeout
        (monitor loop), a failed send, and graceful drains all land
        here.  The ``link.alive`` flip under the coordinator lock is the
        double-requeue guard — when a worker dies *between* a heartbeat
        timeout and the EOF landing, whichever path arrives second
        observes ``alive == False`` and returns ``None`` without
        touching a single shard.  The per-shard ``future.done`` /
        ``not in self._shards`` checks additionally skip shards that
        already completed or were re-placed, so a completed shard never
        moves.

        Returns ``(reassigned, sends, closing)``; ``None`` if the link
        was already reaped.
        """
        if not link.alive:
            return None
        link.alive = False
        closing = self._closed
        reassigned = 0
        if not closing:
            if link.draining:
                self.counters["workers_left"] += 1
            else:
                self.counters["workers_lost"] += 1
        orphans = list(link.in_flight.values()) + list(link.queued)
        link.in_flight.clear()
        link.queued.clear()
        sends: list[tuple[_WorkerLink, _Shard]] = []
        for shard in orphans:
            if shard.future.done or shard.shard_id not in self._shards:
                continue  # completed or already re-placed: never moved twice
            shard.excluded_workers.add(link.worker_id)
            if not closing:
                self.counters["shards_reassigned"] += 1
                reassigned += 1
            self._place_locked(shard)
        if not closing:
            sends = self._pump_locked()
        return reassigned, sends, closing

    def _on_worker_death(self, link: _WorkerLink, reason: str) -> None:
        with self._lock:
            reaped = self._reap_link_locked(link)
        if reaped is None:
            return  # another detection path won the race; nothing to redo
        reassigned, sends, closing = reaped
        link.channel.close()
        if not closing:
            if link.draining:
                log_event(
                    _LOG, "info", "worker_left",
                    worker=link.worker_id, reason=reason,
                    shards_reassigned=reassigned,
                )
            else:
                _CLUSTER_WORKERS_LOST.inc()
                log_event(
                    _LOG, "warning", "worker_lost",
                    worker=link.worker_id, reason=reason,
                    shards_reassigned=reassigned,
                )
            if reassigned:
                _CLUSTER_SHARDS.inc(reassigned, outcome="reassigned")
        self._send_planned(sends)

    def _monitor_loop(self) -> None:
        poll = max(0.05, min(self.heartbeat_interval, self.heartbeat_timeout / 4))
        while not self._monitor_stop.wait(poll):
            now = monotonic()
            for link in list(self._links):
                if link.alive and now - link.last_seen > self.heartbeat_timeout:
                    self._on_worker_death(
                        link,
                        f"no heartbeat for {self.heartbeat_timeout:.1f}s",
                    )

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """Cluster telemetry (the ``cluster_*`` block of ``ExecutionStats``)."""
        with self._lock:
            stats: dict[str, Any] = dict(self.counters)
            stats["workers_alive"] = sum(1 for link in self._links if link.alive)
            stats["workers_draining"] = sum(
                1 for link in self._links if link.alive and link.draining
            )
            stats["bytes_sent"] = sum(link.channel.bytes_sent for link in self._links)
            stats["bytes_received"] = sum(
                link.channel.bytes_received for link in self._links
            )
        if self.ledger is not None:
            stats["ledger_entries"] = len(self.ledger)
        _CLUSTER_BYTES.set(stats["bytes_sent"], direction="sent")
        _CLUSTER_BYTES.set(stats["bytes_received"], direction="received")
        return stats

    def workers(self) -> list[dict[str, Any]]:
        """Every worker ever admitted, its state and live backlog.

        ``state`` is ``alive`` or ``draining`` while the link is up, then
        ``left`` (it was draining) or ``dead``.
        """
        with self._lock:
            return [
                {
                    "worker_id": link.worker_id,
                    "address": link.address,
                    "state": (
                        ("draining" if link.draining else "alive")
                        if link.alive
                        else ("left" if link.draining else "dead")
                    ),
                    "alive": link.alive,
                    "draining": link.draining,
                    "source": link.source,
                    "in_flight": len(link.in_flight),
                    "queued": len(link.queued),
                    "capabilities": dict(link.capabilities),
                }
                for link in self._links
            ]

    def status(self) -> dict[str, Any]:
        """The counters and the workers (what ``cluster status`` prints)."""
        return {"counters": self.stats(), "workers": self.workers()}

    def close(self) -> None:
        """Fail outstanding shards, say goodbye, and join the threads."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            outstanding = list(self._shards.values())
            self._shards.clear()
            links = list(self._links)
        for shard in outstanding:
            if not shard.future.done:
                shard.future.set_exception(
                    ClusterError(f"coordinator closed with shard {shard.shard_id} pending")
                )
        self._monitor_stop.set()
        for link in links:
            if link.alive:
                rpc.send_safely(link.channel, {"type": protocol.DRAIN})
        for link in links:
            link.channel.close()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        for link in links:
            if link.reader is not None and link.reader is not threading.current_thread():
                link.reader.join(timeout=5.0)

    def __enter__(self) -> "ClusterCoordinator":
        return self.connect() if not self._links else self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
