"""Stable, process-independent hashing helpers.

Python's built-in :func:`hash` is salted per process (``PYTHONHASHSEED``), so it
cannot be used to derive reproducible random seeds or sharding decisions.  The
helpers here are based on BLAKE2b and are stable across processes, platforms,
and Python versions.
"""

from __future__ import annotations

import hashlib
from typing import Iterable


def frame(*parts: bytes) -> bytes:
    """The parts, each preceded by its 8-byte length: what every hash here hashes.

    Length-prefixing makes ``("ab", "c")`` and ``("a", "bc")`` differ, and
    ``frame(a, b) + frame(c) == frame(a, b, c)``, so a shared head can be
    framed once and extended per hash (see :func:`framed_hash_hex`).
    """
    framed: list[bytes] = []
    for part in parts:
        framed.append(len(part).to_bytes(8, "little"))
        framed.append(part)
    return b"".join(framed)


def frame_text(*parts: object) -> bytes:
    """:func:`frame` of each part's ``str()`` as UTF-8: what :func:`stable_hash_hex` hashes."""
    # ``surrogatepass`` lets a lone surrogate (legal in JSON, so a document
    # can carry one) be hashed; every other string encodes to the same bytes.
    return frame(*[str(part).encode("utf-8", "surrogatepass") for part in parts])


def _digest(framed: bytes, digest_size: int) -> bytes:
    return hashlib.blake2b(framed, digest_size=digest_size).digest()


def framed_hash_hex(framed: bytes, digest_size: int = 16) -> str:
    """The fixed-width hex hash of already framed bytes (:func:`frame`)."""
    return _digest(framed, digest_size)[::-1].hex()


def stable_hash(*parts: object, digest_size: int = 8) -> int:
    """Hash arbitrary (stringifiable) objects into a non-negative integer.

    Each part is converted with ``str()`` and encoded as UTF-8.  Intended for
    seeds and bucketing, not cryptography.
    """
    return int.from_bytes(_digest(frame_text(*parts), digest_size), "little")


def stable_hashes(head: object, parts: Iterable[str], digest_size: int = 8) -> list[int]:
    """``[stable_hash(head, part) for part in parts]``, framing ``head`` once.

    Each digest is over the very bytes :func:`stable_hash` hashes (the framed
    head extended by the framed part, ``surrogatepass`` included), so the
    values are equal; only the per-part calls are saved.
    """
    framed_head = frame_text(head)
    return [
        int.from_bytes(
            _digest(framed_head + frame(part.encode("utf-8", "surrogatepass")), digest_size),
            "little",
        )
        for part in parts
    ]


def stable_hash_hex(*parts: object, digest_size: int = 16) -> str:
    """Hash arbitrary (stringifiable) objects into a fixed-width hex string.

    The hex form is what cache keys and config fingerprints are built from:
    it is filesystem- and JSON-friendly and sorts lexicographically.
    """
    return framed_hash_hex(frame_text(*parts), digest_size)


def hash_buffers(*buffers: bytes, digest_size: int = 16) -> str:
    """Hex digest over raw byte buffers (e.g. numpy array ``tobytes()``).

    Used to fingerprint trained model weights: pass each array's dtype/shape
    as part of the surrounding context and its contiguous bytes here.
    """
    return framed_hash_hex(frame(*buffers), digest_size)


def bucket(key: object, n_buckets: int, salt: str = "") -> int:
    """Deterministically map ``key`` to a bucket in ``[0, n_buckets)``."""
    if n_buckets <= 0:
        raise ValueError(f"n_buckets must be positive, got {n_buckets}")
    return stable_hash(salt, key) % n_buckets
