"""Levenshtein (edit) distance.

The paper discusses edit distance as the traditional character-level metric
and notes that it is computationally prohibitive for ultra-long parses.  The
distance here is exact, computed with Myers' bit-parallel algorithm; the
character-accuracy metric keeps it tractable by capping each page's length
(:mod:`repro.metrics.car`).
"""

from __future__ import annotations


def levenshtein_distance(a: str, b: str) -> int:
    """Exact edit distance between two strings (unit costs).

    Uses Myers' bit-parallel algorithm, ``O(n·m/w)``.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    return _myers_distance(a, b)


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
