"""Deterministic random-number-generator derivation.

Every stochastic component in the reproduction (document generation, parser
failure injection, annotator noise, scheduler jitter) draws from a
:class:`numpy.random.Generator` derived from a *root seed* plus a tuple of
string/integer qualifiers.  This makes every result a pure function of the
configuration: the corruption a parser applies to document ``i`` does not
depend on how many documents were generated before it or on thread timing.

:class:`DrawStream` serves the same stream from Python: code that makes
thousands of scalar draws (the synthetic-corpus generator) pays for a list
index per draw instead of a call into numpy, and gets the same values.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from typing import Generic, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from repro.utils.hashing import stable_hash


def derive_seed(root_seed: int, *qualifiers: object) -> int:
    """Derive a child seed from a root seed and a path of qualifiers."""
    return stable_hash(int(root_seed), *qualifiers) % (2**63 - 1)


def rng_from(root_seed: int, *qualifiers: object) -> np.random.Generator:
    """Create a generator seeded from ``root_seed`` and a qualifier path."""
    return np.random.default_rng(derive_seed(root_seed, *qualifiers))


T = TypeVar("T")

_UINT32_MASK = 0xFFFFFFFF
_TWO_32 = 0x100000000
_FIRST_BLOCK = 32  # words pulled after an attach; doubles per refill up to _MAX_BLOCK
_MAX_BLOCK = 512
_FLOYD_MAX = 10000  # above it numpy may sample by a tail shuffle instead


class WeightedTable(Generic[T]):
    """The cumulative table ``Generator.choice(names, p=weights / weights.sum())`` builds per call."""

    __slots__ = ("names", "cdf")

    def __init__(self, names: Iterable[T], weights: Iterable[float]) -> None:
        p = np.asarray(list(weights), dtype=float)
        cdf = (p / p.sum()).cumsum()
        cdf /= cdf[-1]
        self.names: tuple[T, ...] = tuple(names)
        self.cdf: list[float] = cdf.tolist()

    @classmethod
    def of(cls, options: Mapping[T, float]) -> "WeightedTable[T]":
        """Table over a ``{name: weight}`` mapping, in the mapping's order."""
        return cls(options.keys(), options.values())


class DrawStream:
    """A PCG64 :class:`numpy.random.Generator`'s draw stream, replayed in Python.

    The stream pulls raw 64-bit words from the bit generator in blocks and
    serves scalar draws from them with numpy's own rules, so every value is
    the one the Generator would have returned at that position: ``random()``
    is ``(word >> 11) * 2**-53``; a bounded integer is numpy's buffered
    32-bit Lemire draw (the low half of a fresh word first, its high half
    kept for the next 32-bit draw, doubles passing the kept half by).

    What is not replayed (``normal``, ``shuffle``, vectorised ``random(n)``)
    goes through :meth:`handover`, which returns the Generator at exactly the
    position numpy itself would be in.  The Generator then holds the position
    until the next draw from the stream, which picks it up from wherever the
    caller left it.  Functions that only call ``rng.random()`` accept a
    stream in place of a Generator.

    It refuses what it cannot replay instead of diverging: a bit generator
    other than PCG64, an integer range numpy would serve from its 64-bit
    path, a sample size numpy would serve by another algorithm.
    """

    __slots__ = (
        "_rng", "_bit_generator", "_halves", "_doubles", "_next", "_end", "_block",
        "_has_half", "_half",
    )  # fmt: skip

    def __init__(self, rng: np.random.Generator) -> None:
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError(
                f"DrawStream replays PCG64 only, got {type(rng.bit_generator).__name__}"
            )
        self._rng = rng
        self._bit_generator = rng.bit_generator
        self._halves: list[int] = []  # the block as 32-bit halves: low, high, low, high, ...
        self._doubles: list[float] = []  # the same block as doubles
        self._next = self._end = 0  # next unserved word, words in the block
        self._block = 0  # 0 while the Generator holds the position
        self._has_half = False  # numpy's has_uint32 / uinteger
        self._half = 0

    def _refill(self) -> None:
        """Pull the next block of raw words (attaching first, if the Generator holds the position)."""
        if self._block == 0:
            state = self._bit_generator.state
            self._has_half = bool(state["has_uint32"])
            self._half = int(state["uinteger"])
            self._block = _FIRST_BLOCK
        elif self._block < _MAX_BLOCK:
            self._block *= 2
        raw = self._bit_generator.random_raw(self._block)
        self._halves = raw.astype("<u8", copy=False).view("<u4").tolist()
        self._doubles = ((raw >> np.uint64(11)) * 2.0**-53).tolist()
        self._next, self._end = 0, self._block

    def handover(self) -> np.random.Generator:
        """The Generator, positioned where numpy would be after the draws served so far."""
        if self._block:
            self._bit_generator.advance(self._next - self._end)  # un-draw the words not served
            state = self._bit_generator.state  # advance() zeroes the buffered half
            state["has_uint32"], state["uinteger"] = int(self._has_half), self._half
            self._bit_generator.state = state
            self._next = self._end = self._block = 0
            self._has_half = False
        return self._rng

    def random(self) -> float:
        """≡ ``Generator.random()``."""
        i = self._next
        if i == self._end:
            self._refill()
            i = 0
        self._next = i + 1
        return self._doubles[i]

    def _next32(self) -> int:
        """numpy's ``next_uint32``: a fresh word serves its low half and buffers its high half."""
        if self._has_half:
            self._has_half = False
            return self._half
        i = self._next
        if i == self._end:
            self._refill()
            i = 0
            if self._has_half:  # the attach found a half numpy had buffered
                self._has_half = False
                return self._half
        self._next = i + 1
        self._half = self._halves[2 * i + 1]
        self._has_half = True
        return self._halves[2 * i]

    def integers(self, low: int, high: int) -> int:
        """≡ ``Generator.integers(low, high)`` for ``high - low <= 2**32``."""
        span = high - low
        if span == 1:
            return low  # numpy draws nothing for a one-value range
        if not 0 < span <= _TWO_32:
            raise ValueError(
                f"DrawStream.integers replays ranges of 1..2**32 values, got [{low}, {high})"
            )
        if span == _TWO_32:
            return low + self._next32()
        m = self._next32() * span
        if (m & _UINT32_MASK) < span:
            threshold = (_TWO_32 - span) % span
            while (m & _UINT32_MASK) < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def pick(self, table: Sequence[T]) -> T:
        """≡ ``Generator.choice(table)``."""
        return table[self.integers(0, len(table))]

    def picks(self, table: Sequence[T], k: int) -> list[T]:
        """≡ ``Generator.choice(table, size=k)``: ``k`` bounded draws, the state held in locals."""
        span = len(table)
        if span == 1:
            return [table[0]] * k
        halves, i, end = self._halves, self._next, self._end
        has_half, half = self._has_half, self._half
        picked: list[T] = []
        while k:
            if has_half:
                has_half = False
                value = half
            elif i < end:
                value = halves[2 * i]
                half = halves[2 * i + 1]
                has_half = True
                i += 1
            else:  # block exhausted: refill through the scalar path
                self._next, self._has_half = i, False
                value = self._next32()
                halves, i, end = self._halves, self._next, self._end
                has_half, half = self._has_half, self._half
            m = value * span
            if (m & _UINT32_MASK) < span and (m & _UINT32_MASK) < (_TWO_32 - span) % span:
                continue  # Lemire's rejection: the draw moves on to the next value
            picked.append(table[m >> 32])
            k -= 1
        self._next, self._has_half, self._half = i, has_half, half
        return picked

    def sample(self, n: int, k: int) -> list[int]:
        """≡ ``Generator.choice(n, size=k, replace=False)``: Floyd's algorithm, then a shuffle."""
        if not 0 <= k <= n <= _FLOYD_MAX:
            raise ValueError(f"DrawStream.sample replays k <= n <= {_FLOYD_MAX}, got n={n}, k={k}")
        chosen: list[int] = []
        for j in range(n - k, n):
            value = self.integers(0, j + 1)
            chosen.append(j if value in chosen else value)
        for i in range(k - 1, 0, -1):
            j = self.integers(0, i + 1)
            chosen[i], chosen[j] = chosen[j], chosen[i]
        return chosen

    def weighted(self, table: WeightedTable[T]) -> T:
        """≡ ``Generator.choice(names, p=weights / weights.sum())``."""
        return table.names[bisect_right(table.cdf, self.random())]


@contextmanager
def replayed(rng: "np.random.Generator | DrawStream") -> Iterator[DrawStream]:
    """Draw from ``rng`` through a :class:`DrawStream`.

    A stream is passed through: its owner decides when the Generator gets
    its position back.  A bare Generator is attached to, and handed back on
    exit where numpy would have left it.
    """
    if isinstance(rng, DrawStream):
        yield rng
        return
    draws = DrawStream(rng)
    try:
        yield draws
    finally:
        draws.handover()
