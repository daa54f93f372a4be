"""Tokenisation and normalisation shared by the word-level metrics."""

from __future__ import annotations

import re
from collections import Counter
from typing import Sequence

_WHITESPACE_RE = re.compile(r"\s+")


def normalize_text(text: str, lowercase: bool = True, collapse_whitespace: bool = True) -> str:
    """Normalise text before metric computation.

    Parser outputs differ in incidental formatting (line breaks, casing of
    headings, runs of spaces); normalisation keeps the metrics focused on
    content rather than layout.
    """
    out = text
    if collapse_whitespace:
        out = _WHITESPACE_RE.sub(" ", out).strip()
    if lowercase:
        out = out.lower()
    return out


def word_tokenize(text: str, lowercase: bool = True) -> list[str]:
    """Split text into word tokens (whitespace-delimited, optional lowercase).

    ``str.split`` and ``re``'s ``\\s`` test whitespace with the same
    predicate, and lowercasing never makes or removes whitespace, so this is
    the runs of non-whitespace of :func:`normalize_text`'s output.
    """
    return (text.lower() if lowercase else text).split()


def ngrams(tokens: Sequence[str], n: int) -> Counter:
    """Multiset of n-grams of a token sequence."""
    if n <= 0:
        raise ValueError("n must be positive")
    return Counter(zip(*(tokens[i:] for i in range(n))))


def character_tokens(text: str, lowercase: bool = False) -> str:
    """Normalise text for character-level metrics (collapse whitespace runs)."""
    return normalize_text(text, lowercase=lowercase, collapse_whitespace=True)
