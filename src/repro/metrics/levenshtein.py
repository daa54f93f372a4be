"""Levenshtein (edit) distance with a vectorised and an optionally banded DP.

The paper discusses edit distance as the traditional character-level metric
and notes that it is computationally prohibitive for ultra-long parses.  The
implementation here vectorises the inner loop with numpy and supports a
Ukkonen-style band so the character-accuracy metric stays tractable on long
page texts.
"""

from __future__ import annotations

import numpy as np


def levenshtein_distance(a: str, b: str, band: int | None = None) -> int:
    """Edit distance between two strings.

    Dispatches to Myers' bit-parallel algorithm (exact, ``O(n·m/w)``) when no
    band is requested, and to a numpy-vectorised banded dynamic program
    otherwise.

    Parameters
    ----------
    a, b:
        Input strings.
    band:
        Optional half-width of a diagonal band.  With a band the result is
        exact whenever the true distance is at most ``band`` (plus the length
        difference); otherwise it is an upper-bound approximation.  Use
        ``None`` for the exact unbanded computation.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if band is None:
        return _myers_distance(a, b)
    return _banded_distance(a, b, band)


def _myers_distance(a: str, b: str) -> int:
    """Myers/Hyyrö bit-parallel edit distance (exact, unit costs).

    The pattern's character positions are encoded as bits of arbitrary-
    precision integers, so each text character is processed with a constant
    number of big-integer operations.
    """
    # Use the shorter string as the pattern (bit vector width).
    if len(a) > len(b):
        a, b = b, a
    m = len(a)
    mask = (1 << m) - 1
    high_bit = 1 << (m - 1)
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    vp = mask
    vn = 0
    score = m
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | (~(xh | vp) & mask)
        hn = vp & xh
        if hp & high_bit:
            score += 1
        elif hn & high_bit:
            score -= 1
        hp = ((hp << 1) | 1) & mask
        hn = (hn << 1) & mask
        vp = hn | (~(xv | hp) & mask)
        vn = hp & xv
    return score


def _banded_distance(a: str, b: str, band: int) -> int:
    """Banded DP distance (numpy-vectorised rows).

    Notes
    -----
    Row ``i`` of the DP is computed with numpy.  The insertion recurrence
    ``current[j] = min(candidate[j], current[j-1] + 1)`` is a prefix-minimum:
    ``current[j] = j + min_{k<=j}(d[k] - k)`` where ``d`` is the row of
    deletion/substitution candidates, so it vectorises with
    ``np.minimum.accumulate``.
    """
    # Keep the inner (vectorised) dimension as the shorter string.
    if len(b) > len(a):
        a, b = b, a
    n, m = len(a), len(b)
    band = max(band, abs(n - m))
    b_codes = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
    previous = np.arange(m + 1, dtype=np.int64)
    big = np.int64(n + m + 1)
    js = np.arange(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        a_code = ord(a[i - 1])
        substitution_cost = (b_codes != a_code).astype(np.int64)
        # candidate[j-1] = min(previous[j] + 1, previous[j-1] + cost_j), j = 1..m
        candidate = np.minimum(previous[1:] + 1, previous[:-1] + substitution_cost)
        lo = max(1, i - band)
        hi = min(m, i + band)
        if lo > 1:
            candidate[: lo - 1] = big
        if hi < m:
            candidate[hi:] = big
        d = np.empty(m + 1, dtype=np.int64)
        d[0] = i
        d[1:] = candidate
        running = np.minimum.accumulate(d - js)
        current = js + running
        previous = current
    return int(previous[m])


def levenshtein_distance_reference(a: str, b: str) -> int:
    """Plain-Python reference implementation (used by tests as ground truth)."""
    n, m = len(a), len(b)
    if n == 0:
        return m
    if m == 0:
        return n
    previous = list(range(m + 1))
    for i in range(1, n + 1):
        current = [i] + [0] * m
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            current[j] = min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
        previous = current
    return previous[m]
