"""The cluster wire's vocabulary: message types, schemas and builders.

Framing (length-prefixed NDJSON) is :mod:`repro.utils.wire`'s; how a
coordinator and a worker connect, introduce themselves, fail and part is
:mod:`repro.utils.rpc`'s.  This module only says what they talk about.

Message types
-------------
``hello`` / ``hello_ack``
    The :mod:`repro.utils.rpc` handshake.  The coordinator's ``hello``
    adds its heartbeat interval; the worker's ack adds its identity and
    ``capabilities``: its slot count, whether it runs a local parse cache,
    and ``tags``, which is ``{"gpu": true}`` on a worker that advertises a
    GPU and ``{}`` otherwise.
``submit_shard``
    One shard of work: a :class:`WorkerSpec` (parser name, α override,
    and the coordinator-side ``config_fingerprint()`` the worker must
    reproduce) plus one descriptor per slot, each what the slot is.  A
    document crosses as ``{doc_id, content_hash, payload}``; a
    :class:`~repro.documents.sources.DocumentRef` crosses as
    ``{content_hash: ref.key(), ref}`` and the worker loads it from its own
    copy of the source.  A worker that cannot load a reference (no such
    directory on its host, a changed stamp) answers ``shard_error`` with the
    code ``unresolved_reference``, and the coordinator re-sends that shard
    with payloads.  An optional ``trace`` field carries the submitting
    request's :class:`~repro.obs.tracing.TraceContext` as JSON so the
    worker's logs for the shard carry the same trace id.
``batch_result``
    One shard's ordered results and routing decisions, plus worker-side
    cache counters, timing and the shard's phase table.  The results'
    page texts ride the frame's text section (:class:`PageTexts`).
``shard_error``
    A shard did not run on the worker (bad spec fingerprint, unknown
    parser, an unresolved reference, worker-side crash); carries the error
    text and a machine-checkable ``code``.
``heartbeat``
    Worker liveness beacon, sent every ``heartbeat_interval`` seconds.
    The coordinator declares a silent worker dead after its timeout and
    re-queues the worker's in-flight shards.
``drain`` / ``bye``
    Graceful shutdown: ``drain`` asks the peer to finish in-flight work
    and reply ``bye``; ``bye`` ends the conversation in either direction.
``join`` / ``join_ack`` / ``leave`` / ``leave_ack``
    Live-membership announcements (:mod:`repro.cluster.membership`): a
    starting worker sends ``join`` (its listen address) to a coordinator's
    membership listener, which dials the worker back over the ordinary
    ``hello`` path — identity and capabilities come from that ``hello_ack`` — and
    answers ``join_ack``; ``leave`` asks the coordinator to drain one
    worker gracefully.
``status`` / ``status_result``
    Membership-listener introspection: the coordinator ``counters`` and its
    ``workers``, each with its ``state`` and capabilities (``cluster status``).
``error``
    Fatal connection-level failure (before/outside any shard); see
    :mod:`repro.utils.rpc` for what produces one.

Documents cross the wire as :func:`repro.documents.simpdf.document_to_dict`
payloads — the same JSON schema the on-disk SimPDF container uses — so
the cluster introduces no second serialisation format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.core.engine import AdaParseEngine, RoutingDecision
from repro.parsers.base import Parser, ParseResult

# The lifecycle's message types and the framing machinery are shared with
# the gateway wire; the names are re-exported unchanged so every
# historical `from repro.cluster.protocol import ...` keeps working.
from repro.utils.rpc import BYE, ERROR, HELLO, HELLO_ACK  # noqa: F401
from repro.utils.wire import (  # noqa: F401  (re-exports)
    MAX_MESSAGE_BYTES,
    TEXTS_KEY,
    MessageChannel,
    MessageTooLarge,
    PageTexts,
    ProtocolError,
    encode_message,
)

#: Wire protocol version.  Additions ride capability flags; removing a
#: message kind bumps it, and both sides refuse to talk across versions (the
#: handshake checks it).  Version 2 removed hash-only descriptors and the
#: payload top-up round trip they needed.  Version 3 sends a
#: ``batch_result``'s page texts in the frame's UTF-8 text section.
PROTOCOL_VERSION = 3


# ---------------------------------------------------------------------- #
# Message type names (hello / hello_ack / error / bye come from rpc)
# ---------------------------------------------------------------------- #
SUBMIT_SHARD = "submit_shard"
BATCH_RESULT = "batch_result"
SHARD_ERROR = "shard_error"
HEARTBEAT = "heartbeat"
DRAIN = "drain"
# Live-membership messages (repro.cluster.membership).
JOIN = "join"
JOIN_ACK = "join_ack"
LEAVE = "leave"
LEAVE_ACK = "leave_ack"
STATUS = "status"
STATUS_RESULT = "status_result"

#: The ``shard_error`` code of a shard holding a reference its worker cannot
#: load; the coordinator re-sends the shard with payloads.
UNRESOLVED_REFERENCE = "unresolved_reference"


# ---------------------------------------------------------------------- #
# The worker spec
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class WorkerSpec:
    """What a worker must execute a shard with.

    The worker resolves ``parser`` through its *own*
    :class:`~repro.pipeline.ParsePipeline` (registry names, engine names,
    or pre-installed engine instances), applies the α override, and then
    proves it built the same thing the coordinator holds by comparing
    ``config_fingerprint()`` output against :attr:`fingerprint` — a
    mismatched worker (different version, different trained weights)
    refuses the shard rather than silently parsing differently.
    """

    parser: str
    fingerprint: str
    alpha: float | None = None
    #: Worker-side cache policy for this shard ("off"/"read"/"write"/
    #: "readwrite"); applied only when the worker runs a local cache.
    cache: str = "readwrite"

    @classmethod
    def for_parser(cls, parser: Parser, cache: str = "readwrite") -> "WorkerSpec":
        """What a worker needs to rebuild ``parser`` by name and prove it did.

        Nothing executable crosses the wire: a parser the worker's pipeline
        cannot resolve by this name fails there with ``unknown_parser``.
        """
        alpha = parser.config.alpha if isinstance(parser, AdaParseEngine) else None
        return cls(parser.name, parser.config_fingerprint(), alpha, cache)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "parser": self.parser,
            "fingerprint": self.fingerprint,
            "alpha": self.alpha,
            "cache": self.cache,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "WorkerSpec":
        return cls(
            parser=str(payload["parser"]),
            fingerprint=str(payload["fingerprint"]),
            alpha=None if payload.get("alpha") is None else float(payload["alpha"]),
            cache=str(payload.get("cache", "readwrite")),
        )


# ---------------------------------------------------------------------- #
# Batch results (results and decisions in their own JSON schemas)
# ---------------------------------------------------------------------- #
def batch_result_message(
    shard_id: str,
    results: Iterable[ParseResult],
    decisions: Iterable[RoutingDecision],
    worker_id: str,
    elapsed_seconds: float,
    cache_hits: int = 0,
    cache_misses: int = 0,
    phases: "Mapping[str, Any] | None" = None,
) -> dict[str, Any]:
    """Build a ``batch_result`` message from worker-side objects.

    ``phases`` optionally ships the shard's
    :meth:`~repro.obs.PhaseTimer.snapshot` table back to the coordinator,
    which merges it into the submitting request's timer.  The field is
    version-tolerant: old coordinators ignore it.
    """
    message = {
        "type": BATCH_RESULT,
        "shard_id": shard_id,
        "worker_id": worker_id,
        "elapsed_seconds": elapsed_seconds,
        "results": [_result_payload(result) for result in results],
        "decisions": [decision.to_json_dict() for decision in decisions],
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
    }
    if phases:
        message["phases"] = dict(phases)
    return message


def _result_payload(result: ParseResult) -> dict[str, Any]:
    payload = result.to_json_dict()
    payload[TEXTS_KEY] = PageTexts(payload[TEXTS_KEY])
    return payload


@dataclass(frozen=True)
class BatchResult:
    """The payload of one ``batch_result`` frame, every field checked."""

    results: list[ParseResult]
    decisions: list[RoutingDecision]
    cache_hits: int
    cache_misses: int
    phases: "dict[str, dict[str, float]] | None"


def _is_amount(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value >= 0
    )


def _counter(message: Mapping[str, Any], key: str) -> int:
    value = message.get(key, 0)
    if not (_is_amount(value) and isinstance(value, int)):
        raise ValueError(f"{key} must be a non-negative integer, got {value!r}")
    return value


def _phase_table(raw: Any) -> "dict[str, dict[str, float]] | None":
    """A worker's phase table, or ``None`` without one: every row a
    mapping of finite, non-negative numbers (what
    :meth:`~repro.obs.PhaseTimer.merge_table` can fold)."""
    if raw is None:
        return None
    if not isinstance(raw, Mapping):
        raise ValueError(f"phases must be a table, got {raw!r}")
    for name, row in raw.items():
        if not (isinstance(row, Mapping) and all(map(_is_amount, row.values()))):
            raise ValueError(
                f"phases row {name!r} must map to finite non-negative numbers, "
                f"got {row!r}"
            )
    return {str(name): dict(row) for name, row in raw.items()} or None


def parse_batch_result(message: Mapping[str, Any]) -> BatchResult:
    """Rehydrate and check a whole ``batch_result`` message.

    Raises ``KeyError``, ``TypeError`` or ``ValueError`` on any field the
    coordinator could not use, so a malformed frame fails its shard
    before any bookkeeping moves.
    """
    return BatchResult(
        results=[ParseResult.from_json_dict(item) for item in message.get("results", [])],
        decisions=[
            RoutingDecision.from_json_dict(item) for item in message.get("decisions", [])
        ],
        cache_hits=_counter(message, "cache_hits"),
        cache_misses=_counter(message, "cache_misses"),
        phases=_phase_table(message.get("phases")),
    )


# ---------------------------------------------------------------------- #
# Rendezvous placement
# ---------------------------------------------------------------------- #
def shard_placement_key(content_hashes: Iterable[str]) -> str:
    """Stable placement key of one shard (order-sensitive over its docs).

    Repeated runs over the same corpus chunk into the same batches, so the
    same key — and therefore, under rendezvous hashing against a stable
    worker set, the same worker — which is what keeps that worker's local
    parse cache warm across runs.
    """
    from repro.utils.hashing import stable_hash_hex

    return stable_hash_hex("shard-placement", *content_hashes)


def rank_workers(placement_key: str, worker_ids: Iterable[str]) -> list[str]:
    """Rendezvous (highest-random-weight) order of workers for one shard.

    Every (shard, worker) pair gets an independent stable score; the
    shard prefers workers in descending score order.  Removing a worker
    only re-places the shards that preferred it — every other shard keeps
    its worker, which is exactly the cache-friendly property plain modulo
    hashing lacks.
    """
    from repro.utils.hashing import stable_hash

    return sorted(
        worker_ids,
        key=lambda worker_id: stable_hash("rendezvous", placement_key, worker_id),
        reverse=True,
    )
