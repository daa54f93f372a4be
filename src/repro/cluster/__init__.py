"""Multi-process distributed execution: workers, a coordinator, a backend.

``repro.cluster`` turns the simulator's campaign model into something you
can actually run across processes and hosts:

* :mod:`repro.cluster.protocol` — length-prefixed NDJSON messages over
  TCP, with content-hash-addressed document payloads;
* :mod:`repro.cluster.worker` — :class:`WorkerDaemon`, the process that
  parses shards (``adaparse-repro worker`` runs one);
* :mod:`repro.cluster.coordinator` — :class:`ClusterCoordinator`,
  rendezvous shard placement, per-worker windows, heartbeat fault
  detection, and exactly-once result collection;
* :mod:`repro.cluster.backend` — :class:`RemoteBackend`, registered as
  ``"remote"`` in the execution-backend registry, so
  ``ParseRequest(backend="remote", backend_options={"workers": ...})``
  and :class:`repro.serve.ParseService` run on a cluster unchanged;
* :mod:`repro.cluster.membership` and :mod:`repro.cluster.ledger` — the
  elastic side: the listener through which workers join and leave a
  running campaign, and the shard ledger a killed campaign resumes from.

Public names resolve lazily (PEP 562): importing :mod:`repro` — or even
this package — does not pull in sockets, the pipeline, or any backend
until a cluster component is actually used.
"""

from __future__ import annotations

#: Public name → "module:attribute", resolved on first access.
_LAZY_EXPORTS: dict[str, str] = {
    "ClusterCoordinator": "repro.cluster.coordinator:ClusterCoordinator",
    "ClusterError": "repro.cluster.coordinator:ClusterError",
    "MessageChannel": "repro.cluster.protocol:MessageChannel",
    "PROTOCOL_VERSION": "repro.cluster.protocol:PROTOCOL_VERSION",
    "ProtocolError": "repro.cluster.protocol:ProtocolError",
    "RemoteBackend": "repro.cluster.backend:RemoteBackend",
    "ShardFuture": "repro.cluster.coordinator:ShardFuture",
    "WorkerDaemon": "repro.cluster.worker:WorkerDaemon",
    "WorkerSpec": "repro.cluster.protocol:WorkerSpec",
    "rank_workers": "repro.cluster.protocol:rank_workers",
    "shard_placement_key": "repro.cluster.protocol:shard_placement_key",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str):
    """Resolve lazily exported public names (delegates to repro.utils.lazy)."""
    from repro.utils.lazy import resolve_lazy

    return resolve_lazy(__name__, globals(), _LAZY_EXPORTS, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
