"""Live cluster membership: the registry and the join/leave listener.

The v1 cluster takes its worker list at construction and only ever
shrinks it (deaths).  This module adds the two pieces that make
membership *live* on a running coordinator:

* :class:`MembershipRegistry` — the coordinator's authoritative record
  of every worker it has ever talked to: how it arrived (``fixed`` list,
  mid-run ``join``, or ``autoscaler``), its advertised capability tags,
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

Backward compatibility is capability-flagged, not version-bumped: the
coordinator's ``hello`` advertises ``capabilities: {"membership": true}``
and workers advertise the same in ``hello_ack``; v1 peers ignore the
unknown key and keep working as a fixed-list cluster.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass, field
from time import monotonic
from typing import TYPE_CHECKING, Any, Mapping

from repro.cluster import protocol
from repro.cluster.protocol import MessageChannel, ProtocolError
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger, log_event
from repro.utils.wire import Listener

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
    source: str = "fixed"  # fixed | join | autoscaler
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


class MembershipListener:
    """Accept ``join``/``leave``/``status`` announcements for a coordinator.

    One short request-response conversation per connection; the admitted
    worker's actual shard traffic flows over the coordinator-dialled link,
    not this socket.  Start with :meth:`start`; ``port=0`` picks a free
    port (read :attr:`address` back).
    """

    def __init__(
        self,
        coordinator: "ClusterCoordinator",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.coordinator = coordinator
        self._host = host
        self._requested_port = port
        self._listener: Listener | None = None

    @property
    def port(self) -> int:
        if self._listener is None:
            raise RuntimeError("membership listener is not started")
        return self._listener.port

    @property
    def address(self) -> str:
        return f"{self._host}:{self.port}"

    def start(self) -> "MembershipListener":
        self._listener = Listener(
            self._host, self._requested_port, self._on_connection, MEMBERSHIP_THREAD_PREFIX
        )
        self._listener.start()
        log_event(_LOG, "info", "membership_listening", host=self._host, port=self.port)
        return self

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.stop()

    def __enter__(self) -> "MembershipListener":
        return self.start() if self._listener is None else self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    def _on_connection(self, sock: socket.socket) -> None:
        threading.Thread(
            target=self._serve_one,
            args=(MessageChannel(sock),),
            name=f"{MEMBERSHIP_THREAD_PREFIX}-conn",
            daemon=True,
        ).start()

    def _serve_one(self, channel: MessageChannel) -> None:
        try:
            message = channel.recv()
            if message is None:
                return
            reply = self._handle(message)
            channel.send(reply)
        except (OSError, ProtocolError, ValueError):
            pass  # announcement sockets are best-effort; the peer retries
        finally:
            channel.close()

    def _handle(self, message: Mapping[str, Any]) -> dict[str, Any]:
        kind = message.get("type")
        if kind == protocol.JOIN:
            return self._on_join(message)
        if kind == protocol.LEAVE:
            return self._on_leave(message)
        if kind == protocol.STATUS:
            return {"type": protocol.STATUS_RESULT, **self.coordinator.status()}
        return {
            "type": protocol.ERROR,
            "message": f"unexpected membership message type {kind!r}",
        }

    def _on_join(self, message: Mapping[str, Any]) -> dict[str, Any]:
        from repro.cluster.coordinator import ClusterError

        version = int(message.get("protocol", -1))
        if version != protocol.PROTOCOL_VERSION:
            return {
                "type": protocol.JOIN_ACK,
                "accepted": False,
                "message": f"protocol version mismatch: coordinator speaks "
                f"{protocol.PROTOCOL_VERSION}, worker sent {version}",
            }
        address = str(message.get("address", ""))
        try:
            worker_id = self.coordinator.add_worker(address, source="join")
        except (ClusterError, OSError, ProtocolError) as exc:
            log_event(
                _LOG, "warning", "join_refused", address=address, reason=str(exc)
            )
            return {"type": protocol.JOIN_ACK, "accepted": False, "message": str(exc)}
        log_event(_LOG, "info", "worker_joined", worker=worker_id, address=address)
        return {
            "type": protocol.JOIN_ACK,
            "accepted": True,
            "worker_id": worker_id,
            "protocol": protocol.PROTOCOL_VERSION,
        }

    def _on_leave(self, message: Mapping[str, Any]) -> dict[str, Any]:
        from repro.cluster.coordinator import ClusterError

        worker_id = str(message.get("worker_id", ""))
        try:
            self.coordinator.remove_worker(worker_id)
        except ClusterError as exc:
            return {"type": protocol.LEAVE_ACK, "accepted": False, "message": str(exc)}
        log_event(_LOG, "info", "worker_leaving", worker=worker_id)
        return {"type": protocol.LEAVE_ACK, "accepted": True, "worker_id": worker_id}
