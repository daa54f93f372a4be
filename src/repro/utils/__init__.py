"""Shared utilities: deterministic seeding, hashing, text helpers, reporting."""

from __future__ import annotations

from repro.utils.rng import derive_seed, rng_from, spawn_rng
from repro.utils.hashing import stable_hash, stable_hash_bytes
from repro.utils.tables import Table, format_table

__all__ = [
    "derive_seed",
    "rng_from",
    "spawn_rng",
    "stable_hash",
    "stable_hash_bytes",
    "Table",
    "format_table",
]
