"""The ``remote`` execution backend: the cluster behind ``map_ordered``.

:class:`RemoteBackend` makes a worker cluster look like any other
:class:`~repro.pipeline.backends.ExecutionBackend`: the pipeline (and
:class:`~repro.serve.ParseService`) compose the parent-side cache layer
around :meth:`RemoteBackend.site` exactly as they do for every backend,
and ``map_ordered`` keeps its bounded-window, input-ordered contract.
This is the repo's one out-of-process path: CPU-bound parsing past one
core runs here.

The split of responsibilities:

* **site** names the parser in a
  :class:`~repro.cluster.protocol.WorkerSpec` — its *registry name*, α
  override, and ``config_fingerprint()`` — instead of pickling it.
  Workers rebuild the engine from the spec on their side and refuse
  shards whose fingerprint they cannot reproduce, so nothing executable
  ever crosses the wire.  A heavyweight parser's shards
  (:data:`HEAVYWEIGHT_PARSERS`) ask for a worker that advertises a GPU.
* The returned stub submits each batch of items as it is — a
  :class:`~repro.documents.sources.DocumentRef` crosses as a reference and
  is read by the worker that parses it — to the
  :class:`~repro.cluster.coordinator.ClusterCoordinator` (rendezvous
  placement, per-worker windows, heartbeat fault detection, re-queue on
  worker loss) and blocks for the shard future.
* The inherited thread orchestration (window, ordering, cancellation
  accounting) then guarantees ``completed + cancelled == dispatched``
  and input-ordered yielding, unchanged.

``ExecutionStats.extra`` carries the cluster telemetry under
``cluster_*`` keys: workers seen/alive/lost, shards reassigned after
worker loss, duplicate results dropped by the exactly-once filter, and
bytes/payload counts on the wire.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.cluster.coordinator import ClusterCoordinator, ClusterError
from repro.cluster.protocol import WorkerSpec
from repro.obs import profiling as _profiling
from repro.pipeline.backends.base import BackendError, ExecutionStats
from repro.pipeline.backends.thread import ThreadBackend
from repro.utils.rpc import parse_address

if TYPE_CHECKING:
    from repro.cache.cache import BatchWorker
    from repro.parsers.base import Parser

#: Parsers the paper runs on accelerator-class nodes.  Their shards go to
#: workers that advertise a GPU; when none is alive the placement relaxes
#: (any worker *can* run them — slowly).
HEAVYWEIGHT_PARSERS = frozenset({"nougat", "marker"})


def _parse_addresses(workers: "str | Sequence[str] | None") -> list[str]:
    """Worker endpoints from the option value (comma string or sequence)."""
    if workers is None:
        raise ValueError(
            "remote backend needs worker addresses: pass backend_options="
            '{"workers": "host:port,host:port"} (start daemons with '
            "`adaparse-repro worker`, or `adaparse-repro cluster` to spawn "
            "a local fleet)"
        )
    if isinstance(workers, str):
        addresses = [part.strip() for part in workers.split(",") if part.strip()]
    else:
        addresses = [str(part).strip() for part in workers]
    if not addresses:
        raise ValueError("remote backend needs at least one worker address")
    for address in addresses:
        parse_address(address)
    return addresses


class RemoteBackend(ThreadBackend):
    """Execute batches on a cluster of worker daemons (see module docstring).

    Parameters
    ----------
    workers:
        Worker endpoints, ``"host:port,host:port"`` (or a sequence).
    window:
        In-flight shards per worker; the backend's total orchestration
        window is ``len(workers) * window``.
    placement:
        ``"rendezvous"`` (cache-affine; default) or ``"balanced"``.
    worker_cache:
        Cache policy workers apply to their local
        :class:`~repro.cache.ParseCache` (``"off"`` to force re-parses
        even on cache-carrying workers).
    connect_timeout / heartbeat_interval / heartbeat_timeout:
        See :class:`~repro.cluster.coordinator.ClusterCoordinator`.
    listen:
        Membership listener port (0 picks a free one; ``None`` disables).
        When set, ``worker --join`` daemons can join the running
        campaign — the one way to add capacity mid-campaign — and
        ``cluster status`` can query it.
    ledger_dir:
        Campaign checkpoint directory.  Completed shards are durably
        recorded to a :class:`~repro.cluster.ledger.ShardLedger` there;
        re-running with the same directory resumes, replaying completed
        shards instead of dispatching them.

    Construction is lazy: addresses are validated eagerly (so queued
    :class:`~repro.pipeline.request.ParseRequest` objects fail fast) but
    the cluster is dialled — and any listener started — on first use.
    """

    name = "remote"

    def __init__(
        self,
        workers: "str | Sequence[str] | None" = None,
        window: int = 2,
        placement: str = "rendezvous",
        worker_cache: str = "readwrite",
        connect_timeout: float = 5.0,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 15.0,
        listen: "int | None" = None,
        ledger_dir: "str | None" = None,
    ) -> None:
        self.addresses = _parse_addresses(workers)
        if window < 1:
            raise ValueError("window must be positive")
        if placement not in ("rendezvous", "balanced"):
            raise ValueError(
                f"unknown placement {placement!r}; known: rendezvous, balanced"
            )
        from repro.cache import CachePolicy

        CachePolicy.coerce(worker_cache)  # validate eagerly
        super().__init__(
            n_jobs=len(self.addresses) * window,
            window=len(self.addresses) * window,
        )
        self.per_worker_window = window
        self.placement = placement
        self.worker_cache = worker_cache
        self.connect_timeout = connect_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        if listen is not None and (not isinstance(listen, int) or listen < 0):
            raise ValueError("listen must be a port number (0 picks a free one)")
        self.listen = listen
        self.ledger_dir = ledger_dir
        self._coordinator: ClusterCoordinator | None = None
        self._listener = None

    @property
    def workers(self) -> int:
        return len(self.addresses)

    # ------------------------------------------------------------------ #
    def _ensure_coordinator(self) -> ClusterCoordinator:
        # The first dial runs under the lifecycle lock: concurrent first
        # requests share one coordinator (not each connect one and leak the
        # loser's threads), and a racing close() waits for the dial and then
        # closes what it connected.
        with self._lifecycle_lock:
            self._check_open()
            if self._coordinator is None:
                self._dial()
            return self._coordinator

    def _dial(self) -> None:
        """Connect the cluster, then start its listener.

        The coordinator is published only once both are up: a listener
        that cannot bind closes it, so the next request dials again.
        """
        ledger = None
        if self.ledger_dir:
            from repro.cluster.ledger import ShardLedger

            ledger = ShardLedger(self.ledger_dir)
        coordinator = ClusterCoordinator(
            self.addresses,
            window=self.per_worker_window,
            placement=self.placement,
            connect_timeout=self.connect_timeout,
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_timeout=self.heartbeat_timeout,
            ledger=ledger,
        )
        try:
            coordinator.connect()
        except ClusterError as exc:
            raise BackendError(str(exc)) from exc
        if self.listen is not None:
            from repro.cluster.membership import MembershipListener

            try:
                self._listener = MembershipListener(
                    coordinator, port=self.listen
                ).start()
            except OSError as exc:
                coordinator.close()
                raise BackendError(
                    f"membership listener on port {self.listen}: {exc}"
                ) from exc
        self._coordinator = coordinator

    def site(self, parser: "Parser") -> "BatchWorker":
        spec = WorkerSpec.for_parser(parser, cache=self.worker_cache)
        gpu = spec.parser in HEAVYWEIGHT_PARSERS
        coordinator = self._ensure_coordinator()

        def remote(batch: list):
            # submit() adopts the calling thread's active trace, so the
            # shard frame carries it to the worker.
            future = coordinator.submit(spec, batch, gpu=gpu)
            try:
                output = future.result()
            except ClusterError as exc:
                raise BackendError(str(exc)) from exc
            # The worker's phase table rode the result frame; merging
            # it here — inside the orchestration thread's open `parse`
            # phase — attributes remote work under its own phase keys
            # while the round-trip overhead stays in `parse` self time.
            timer = _profiling.current_timer()
            if timer is not None and future.phases:
                timer.merge_table(future.phases)
            return output

        return remote

    def stats(self) -> ExecutionStats:
        stats = super().stats()
        extra: dict[str, Any] = {
            "cluster_workers_configured": len(self.addresses),
            "cluster_placement": self.placement,
        }
        if self._coordinator is not None:
            extra.update(
                {
                    f"cluster_{key}": value
                    for key, value in self._coordinator.stats().items()
                }
            )
        stats.extra.update(extra)
        return stats

    def close(self) -> None:
        # The listener goes first (no more joins), then the coordinator:
        # it fails any still-pending shard futures, which unblocks
        # orchestration threads so the inherited close() can join the
        # pool without deadlocking on them.
        with self._lifecycle_lock:
            self._closed = True
            listener = self._listener
            coordinator = self._coordinator  # stays readable for stats()
        if listener is not None:
            listener.stop()
        if coordinator is not None:
            coordinator.close()
        super().close()
