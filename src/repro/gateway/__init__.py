"""Networked submission frontend: many remote clients, one ParseService.

:class:`GatewayServer` listens on TCP, authenticates clients by bearer
token, and multiplexes their :class:`~repro.pipeline.request.ParseRequest`
submissions onto one shared :class:`~repro.serve.ParseService` — so
cross-client cache dedup, fair-share admission, and progress streaming
all hold *across processes and machines*.  :class:`GatewayClient` is the
SDK side: ``submit()``, live ``events()``, ``result()``, and
reconnect-and-resume by ticket id.  A result crosses the wire once: the
report rides the frame of the ``completed`` event (since gateway protocol 2),
so ``result()`` sends nothing.

Example (server)
----------------
>>> from repro.serve import ParseService
>>> from repro.gateway import GatewayServer
>>> with ParseService() as service:
...     with GatewayServer(service, port=0) as gateway:
...         print(gateway.port)  # doctest: +SKIP

Example (client, possibly another machine)
------------------------------------------
>>> from repro.gateway import GatewayClient  # doctest: +SKIP
>>> with GatewayClient("127.0.0.1", 9100) as client:  # doctest: +SKIP
...     ticket = client.submit({"parser": "pymupdf", "source": "synthetic:8?seed=3"})
...     for event in ticket.events():
...         print(event.kind)
...     report = client.result(ticket)

The CLI front ends are ``repro gateway`` (the daemon) and
``repro submit --host/--port`` (remote submission).

Public names resolve lazily (PEP 562): importing :mod:`repro` must not
import this package, and importing this package must not open sockets.
"""

from __future__ import annotations

#: Public name → "module:attribute", resolved on first access.
_LAZY_EXPORTS: dict[str, str] = {
    "AuthError": "repro.gateway.auth:AuthError",
    "AuthRegistry": "repro.gateway.auth:AuthRegistry",
    "ClientQuota": "repro.gateway.auth:ClientQuota",
    "GATEWAY_PROTOCOL_VERSION": "repro.gateway.protocol:GATEWAY_PROTOCOL_VERSION",
    "GatewayClient": "repro.gateway.client:GatewayClient",
    "GatewayConnectionLost": "repro.gateway.client:GatewayConnectionLost",
    "GatewayError": "repro.gateway.client:GatewayError",
    "GatewayRejected": "repro.gateway.client:GatewayRejected",
    "GatewayServer": "repro.gateway.server:GatewayServer",
    "RemoteTicket": "repro.gateway.client:RemoteTicket",
    "TokenBucket": "repro.gateway.auth:TokenBucket",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str):
    """Resolve lazily exported public names (delegates to repro.utils.lazy)."""
    from repro.utils.lazy import resolve_lazy

    return resolve_lazy(__name__, globals(), _LAZY_EXPORTS, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
