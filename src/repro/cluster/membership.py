"""The membership listener: live join, leave and status on a coordinator.

A :class:`MembershipListener` is a small TCP listener speaking the same
length-prefixed NDJSON wire as the cluster protocol.  A starting
``worker --join`` daemon announces itself with a ``join`` message carrying
its listen address; the listener dials the worker back through the
coordinator's ordinary connect path (handshake, reader thread, rendezvous
integration), so a joined worker is indistinguishable from a fixed-list one
once admitted — its identity and capabilities come from the dial-back
``hello_ack``.  ``leave`` asks the coordinator to drain a worker, and
``status`` answers with :meth:`ClusterCoordinator.status` — the counters
and every worker the coordinator has admitted, each with its ``state``
(what ``adaparse-repro cluster status`` prints).

Membership needs nothing from the handshake: no capability flag says a
peer takes part, because every worker that passes the cluster wire's
version check can be joined,
drained and dialled back like any other.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.cluster import protocol
from repro.cluster.coordinator import ClusterCoordinator, ClusterError
from repro.cluster.protocol import MessageChannel, ProtocolError
from repro.obs.logging import get_logger, log_event
from repro.utils import rpc

#: Thread-name prefix of membership listener threads.
MEMBERSHIP_THREAD_PREFIX = "repro-elastic-membership"

_LOG = get_logger("elastic.membership")


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
        coordinator: ClusterCoordinator,
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
