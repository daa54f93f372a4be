"""Batching helpers shared by the parsers and the pipeline."""

from __future__ import annotations

from typing import Iterable, Iterator, TypeVar

_T = TypeVar("_T")


def chunked(items: Iterable[_T], size: int) -> Iterator[list[_T]]:
    """Split an iterable into consecutive lists of at most ``size`` items."""
    if size < 1:
        raise ValueError("batch size must be positive")
    batch: list[_T] = []
    for item in items:
        batch.append(item)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch
