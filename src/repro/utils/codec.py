"""The body codec of a framed message, without the transport.

A message body is one JSON object on one line.  A message that carries page
texts (a :class:`PageTexts` value) has them lifted out of the JSON into one
UTF-8 text section that follows the body; inside the JSON each text list is
its texts' encoded lengths in bytes.  :func:`encode_body` does the lift and
:func:`decode_body` puts the texts back.

This module does no I/O and imports no socket: :mod:`repro.utils.wire` frames
bodies onto connections, and the parse cache's disk tier
(:mod:`repro.cache.disk`) writes the same bodies into its shard records.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any, Iterator, Mapping, Sequence

#: Upper bound on one message body (a guard against garbage prefixes, not
#: a practical limit: a 64 MiB shard would be ~1000 dense documents).
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


class ProtocolError(RuntimeError):
    """The peer sent something that is not a valid framed message."""


#: The JSON member a :class:`PageTexts` value must be put under; in a
#: frame with a text section, every such member holds text lengths.
TEXTS_KEY = "page_texts"


class PageTexts:
    """Page texts that cross in the frame's text section, not its JSON.

    Put one as the value of a :data:`TEXTS_KEY` member of a message; the
    peer's :meth:`~repro.utils.wire.MessageChannel.recv` reads that member
    back as the list of ``str``.  The receiver takes the texts in the order the objects
    holding them close, so no object holding one may hold another.
    Outside a frame it iterates as its texts.
    """

    __slots__ = ("texts",)

    def __init__(self, texts: Sequence[str]) -> None:
        self.texts = texts

    def __iter__(self) -> Iterator[str]:
        return iter(self.texts)


def encode_body(
    message: Mapping[str, Any], ensure_ascii: bool = True
) -> tuple[bytes, list[bytes] | None]:
    """A message's JSON body (newline included) and its lifted texts.

    Every :class:`PageTexts` value becomes its texts' byte lengths in the
    JSON; the texts, each encoded UTF-8 with surrogates passed through, are
    returned in section order (``None`` when the message holds no
    :class:`PageTexts`).  The body is ASCII by default; ``ensure_ascii=False``
    writes JSON strings as UTF-8 with surrogates passed through instead, so
    a split surrogate pair in a JSON field survives too (the parse cache's
    disk records).  :func:`decode_body` is the inverse.
    """
    lifted: list[list[bytes]] = []

    def lift(value: Any) -> list[int]:
        if not isinstance(value, PageTexts):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        encoded = [text.encode("utf-8", "surrogatepass") for text in value.texts]
        lifted.append(encoded)
        return [len(text) for text in encoded]

    text = json.dumps(message, separators=(",", ":"), ensure_ascii=ensure_ascii, default=lift)
    body = text.encode("utf-8", "surrogatepass") + b"\n"
    return body, (list(chain.from_iterable(lifted)) if lifted else None)


def decode_body(body: str, section: bytes) -> Any:
    """The message a body and its text section encode, texts put back.

    Every object holding a :data:`TEXTS_KEY` list of byte lengths gets the
    texts those lengths cut from ``section``, in order; the lengths must
    add up to the whole section.  Raises :class:`ProtocolError` when they
    do not, and :class:`ValueError` on invalid JSON or UTF-8.
    """
    end = 0

    def restore(member: dict[str, Any]) -> dict[str, Any]:
        nonlocal end
        lengths = member.get(TEXTS_KEY)
        if lengths is None:
            return member
        if not isinstance(lengths, list):
            raise ProtocolError(f"{TEXTS_KEY} must be a list of byte lengths")
        pages = []
        for length in lengths:
            if type(length) is not int or length < 0:
                raise ProtocolError(f"{TEXTS_KEY} must be a list of byte lengths")
            pages.append(section[end : end + length].decode("utf-8", "surrogatepass"))
            end += length
        member[TEXTS_KEY] = pages
        return member

    message = json.loads(body, object_hook=restore)
    if end != len(section):
        raise ProtocolError(
            f"text lengths add up to {end} bytes, the text section holds {len(section)}"
        )
    return message
