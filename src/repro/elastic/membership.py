"""Live cluster membership: the registry and the join/leave listener.

The v1 cluster takes its worker list at construction and only ever
shrinks it (deaths).  This module adds the two pieces that make
membership *live* on a running coordinator:

* :class:`MembershipRegistry` — the coordinator's authoritative record
  of every worker it has ever talked to: how it arrived (``fixed`` list
  or mid-run ``join``), its advertised capability tags,
  and its current state (``alive`` → ``draining`` → ``left``, or
  ``dead``).  The registry is bookkeeping only — shard placement still
  lives in the coordinator — which keeps it trivially thread-safe.
* :class:`MembershipListener` — a small TCP listener speaking the same
  length-prefixed NDJSON wire as the cluster protocol.  A starting
  ``worker --join`` daemon announces itself with a ``join`` message; the
  listener dials the worker back through the coordinator's ordinary
  connect path (handshake, reader thread, rendezvous integration), so a
  joined worker is indistinguishable from a fixed-list one once
  admitted.  ``leave`` asks the coordinator to drain a worker, and
  ``status`` answers with the coordinator's membership/counters snapshot
  (what ``adaparse-repro cluster status`` prints).

Membership needs nothing from the handshake: no capability flag says a
peer takes part, because every worker that passes the cluster wire's
version check (protocol 2; version-1 peers are refused) can be joined,
drained and dialled back like any other.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import monotonic
from typing import TYPE_CHECKING, Any, Mapping

from repro.cluster import protocol
from repro.cluster.protocol import MessageChannel, ProtocolError
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger, log_event
from repro.utils import rpc

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.coordinator import ClusterCoordinator

#: Thread-name prefix of membership listener threads.
MEMBERSHIP_THREAD_PREFIX = "repro-elastic-membership"

_LOG = get_logger("elastic.membership")

_MEMBERSHIP_EVENTS = _metrics.counter(
    "repro_elastic_membership_events_total",
    "Cluster membership transitions (joined/left/died).",
    ("event",),
)
_MEMBERSHIP_WORKERS = _metrics.gauge(
    "repro_elastic_workers",
    "Workers per membership state on the coordinator.",
    ("state",),
)

#: Worker lifecycle states tracked by the registry.
STATES = ("alive", "draining", "left", "dead")


@dataclass
class WorkerRecord:
    """One worker's membership history on a coordinator."""

    worker_id: str
    address: str
    source: str = "fixed"  # fixed | join
    tags: dict[str, Any] = field(default_factory=dict)
    state: str = "alive"
    joined_at: float = field(default_factory=monotonic)
    ended_at: float | None = None

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "address": self.address,
            "source": self.source,
            "tags": dict(self.tags),
            "state": self.state,
        }


class MembershipRegistry:
    """Thread-safe record of every worker a coordinator has admitted."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: dict[str, WorkerRecord] = {}
        self.counters = {"joined": 0, "left": 0, "died": 0}

    def record_join(
        self,
        worker_id: str,
        address: str,
        *,
        source: str = "fixed",
        tags: Mapping[str, Any] | None = None,
    ) -> WorkerRecord:
        record = WorkerRecord(
            worker_id=worker_id,
            address=address,
            source=source,
            tags=dict(tags or {}),
        )
        with self._lock:
            self._records[worker_id] = record
            self.counters["joined"] += 1
        _MEMBERSHIP_EVENTS.inc(event="joined")
        self._export_states()
        return record

    def _transition(self, worker_id: str, state: str) -> WorkerRecord | None:
        with self._lock:
            record = self._records.get(worker_id)
            if record is None or record.state in ("left", "dead"):
                return None
            record.state = state
            if state in ("left", "dead"):
                record.ended_at = monotonic()
                self.counters["left" if state == "left" else "died"] += 1
        return record

    def mark_draining(self, worker_id: str) -> None:
        self._transition(worker_id, "draining")
        self._export_states()

    def record_leave(self, worker_id: str) -> None:
        if self._transition(worker_id, "left") is not None:
            _MEMBERSHIP_EVENTS.inc(event="left")
        self._export_states()

    def record_death(self, worker_id: str) -> None:
        if self._transition(worker_id, "dead") is not None:
            _MEMBERSHIP_EVENTS.inc(event="died")
        self._export_states()

    def get(self, worker_id: str) -> WorkerRecord | None:
        with self._lock:
            return self._records.get(worker_id)

    def tags_of(self, worker_id: str) -> dict[str, Any]:
        with self._lock:
            record = self._records.get(worker_id)
            return dict(record.tags) if record is not None else {}

    def snapshot(self) -> list[dict[str, Any]]:
        with self._lock:
            return [record.to_json_dict() for record in self._records.values()]

    def states(self) -> dict[str, int]:
        counts = dict.fromkeys(STATES, 0)
        with self._lock:
            for record in self._records.values():
                counts[record.state] = counts.get(record.state, 0) + 1
        return counts

    def _export_states(self) -> None:
        for state, count in self.states().items():
            _MEMBERSHIP_WORKERS.set(count, state=state)


class MembershipListener(rpc.Server):
    """Accept ``join``/``leave``/``status`` announcements for a coordinator.

    One short request-response conversation per connection (no ``hello``;
    the lifecycle is :class:`repro.utils.rpc.Server`'s); the admitted
    worker's actual shard traffic flows over the coordinator-dialled link,
    not this socket.  Start with :meth:`start`; ``port=0`` picks a free
    port (read :attr:`address` back).
    """

    role = "membership listener"
    thread_prefix = MEMBERSHIP_THREAD_PREFIX

    def __init__(
        self,
        coordinator: "ClusterCoordinator",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host, port)
        self.coordinator = coordinator

    def start(self) -> "MembershipListener":
        super().start()
        log_event(_LOG, "info", "membership_listening", host=self._host, port=self.port)
        return self

    def new_session(self, channel: MessageChannel) -> "_Announcement":
        return _Announcement(self, channel)


class _Announcement(rpc.Session):
    """One announcement: a single request, its reply, then close."""

    reader_name = "conn"
    expects_hello = False

    def dispatch(self, message: dict[str, Any]) -> None:
        super().dispatch(message)
        self.close()

    def _on_status(self, message: Mapping[str, Any]) -> None:
        self.channel.send(
            {"type": protocol.STATUS_RESULT, **self.server.coordinator.status()}
        )

    def _on_join(self, message: Mapping[str, Any]) -> None:
        from repro.cluster.coordinator import ClusterError

        address = str(message.get("address", ""))
        try:
            rpc.check_version(message, protocol.PROTOCOL_VERSION, "coordinator")
            worker_id = self.server.coordinator.add_worker(address)
        except (ClusterError, OSError, ProtocolError) as exc:
            log_event(
                _LOG, "warning", "join_refused", address=address, reason=str(exc)
            )
            reply = {"type": protocol.JOIN_ACK, "accepted": False, "message": str(exc)}
        else:
            log_event(_LOG, "info", "worker_joined", worker=worker_id, address=address)
            reply = {
                "type": protocol.JOIN_ACK,
                "accepted": True,
                "worker_id": worker_id,
                "protocol": protocol.PROTOCOL_VERSION,
            }
        self.channel.send(reply)

    def _on_leave(self, message: Mapping[str, Any]) -> None:
        from repro.cluster.coordinator import ClusterError

        worker_id = str(message.get("worker_id", ""))
        try:
            self.server.coordinator.remove_worker(worker_id)
        except ClusterError as exc:
            reply = {"type": protocol.LEAVE_ACK, "accepted": False, "message": str(exc)}
        else:
            log_event(_LOG, "info", "worker_leaving", worker=worker_id)
            reply = {"type": protocol.LEAVE_ACK, "accepted": True, "worker_id": worker_id}
        self.channel.send(reply)

    handlers = {
        protocol.JOIN: _on_join,
        protocol.LEAVE: _on_leave,
        protocol.STATUS: _on_status,
    }
