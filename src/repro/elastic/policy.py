"""Pure placement decision functions: capability tags and constraints.

Everything here is deliberately free of sockets, threads, and clocks so
it can be tested exhaustively with plain values.  Workers advertise
``tags`` in their ``hello_ack`` capabilities (``--tag gpu=true --tag
cpu_class=large``); the coordinator matches shard *constraints* against
them and routes heavyweight-parser shards to capable nodes
(:func:`satisfies`, :func:`constraints_for_parser`).
"""

from __future__ import annotations

from typing import Any, Mapping

#: Parsers the paper runs on accelerator-class nodes.  Shards carrying
#: them prefer workers advertising ``gpu=true``; when no such worker is
#: alive the constraint relaxes (any worker *can* run them — slowly).
HEAVYWEIGHT_PARSERS = frozenset({"nougat", "marker"})


def coerce_tag(value: Any) -> Any:
    """Normalise one tag value from CLI/wire strings (``"true"``, ``"8"``)."""
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "yes", "on"):
            return True
        if lowered in ("false", "no", "off"):
            return False
        try:
            return int(lowered)
        except ValueError:
            return value.strip()
    return value


def coerce_tags(tags: Mapping[str, Any] | None) -> dict[str, Any]:
    return {str(key): coerce_tag(value) for key, value in (tags or {}).items()}


def tags_from_capabilities(capabilities: Mapping[str, Any]) -> dict[str, Any]:
    """A worker's effective tag set from its ``hello_ack`` capabilities.

    Explicit ``tags`` win; the implicit ``cache`` (cache-warm) and
    ``slots`` capabilities every worker already reports are folded in so
    constraints can target them without any worker-side change.
    """
    tags = coerce_tags(capabilities.get("tags"))
    tags.setdefault("cache", bool(capabilities.get("cache")))
    if capabilities.get("slots") is not None:
        tags.setdefault("slots", int(capabilities["slots"]))
    return tags


def satisfies(tags: Mapping[str, Any], constraints: Mapping[str, Any] | None) -> bool:
    """Does a worker's tag set satisfy a shard's placement constraints?

    Boolean constraints require truthiness, numeric constraints are
    minimums (``{"slots": 4}`` reads "at least 4 slots"), and everything
    else is equality after :func:`coerce_tag` normalisation.
    """
    for key, wanted in (constraints or {}).items():
        actual = coerce_tag(tags.get(key))
        wanted = coerce_tag(wanted)
        if isinstance(wanted, bool):
            if bool(actual) is not wanted:
                return False
        elif isinstance(wanted, (int, float)) and not isinstance(actual, bool):
            if actual is None or not isinstance(actual, (int, float)):
                return False
            if actual < wanted:
                return False
        elif actual != wanted:
            return False
    return True


def constraints_for_parser(parser_name: str) -> dict[str, Any]:
    """Default placement constraints of one parser (empty = anywhere)."""
    if parser_name in HEAVYWEIGHT_PARSERS:
        return {"gpu": True}
    return {}
