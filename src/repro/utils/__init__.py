"""Shared utilities: deterministic seeding, hashing, text helpers, reporting."""

from __future__ import annotations

from repro.utils.rng import derive_seed, rng_from
from repro.utils.hashing import stable_hash
from repro.utils.tables import Table, format_table

__all__ = [
    "derive_seed",
    "rng_from",
    "stable_hash",
    "Table",
    "format_table",
]
