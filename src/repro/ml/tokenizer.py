"""Hashed word tokeniser shared by the fastText and Transformer models.

Real SciBERT/BERT checkpoints bring their own WordPiece vocabularies; offline
we use the hashing trick instead: every word (and, for fastText, character
n-gram) maps to a bucket through a stable hash.  Hashing keeps the
implementation dependency-free, gives a fixed vocabulary size, and — because
the hash is stable — keeps models reproducible across processes.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from repro.utils.hashing import stable_hash

_TOKEN_RE = re.compile(r"[a-z0-9]+|[^\sa-z0-9]")

#: Reserved token ids.
PAD_ID = 0
CLS_ID = 1
MASK_ID = 2
FIRST_HASH_ID = 3


# Text is Zipfian, so most occurrences repeat a token already hashed.  Memoised
# here, not on the tokenizer, which stays a frozen, hashable, picklable value;
# at ~250 B an entry the bound keeps the memo near 4 MB.
@functools.lru_cache(maxsize=1 << 14)
def _hashed_token_id(vocab_size: int, token: str) -> int:
    return FIRST_HASH_ID + stable_hash("tok", token) % (vocab_size - FIRST_HASH_ID)


@dataclass(frozen=True)
class HashingTokenizer:
    """Stable hashing tokeniser.

    Attributes
    ----------
    vocab_size:
        Total number of token ids, including the reserved PAD/CLS/MASK ids.
    max_length:
        Maximum sequence length (including the leading CLS token); longer
        texts are truncated, shorter ones padded with PAD.
    lowercase:
        Whether to lowercase before tokenising.
    """

    vocab_size: int = 4096
    max_length: int = 128
    lowercase: bool = True

    def __post_init__(self) -> None:
        if self.vocab_size <= FIRST_HASH_ID + 1:
            raise ValueError("vocab_size too small for reserved ids")
        if self.max_length < 2:
            raise ValueError("max_length must be at least 2")

    # ------------------------------------------------------------------ #
    def words(self, text: str) -> list[str]:
        """Split text into word/punctuation tokens."""
        if self.lowercase:
            text = text.lower()
        return _TOKEN_RE.findall(text)

    def token_id(self, token: str) -> int:
        """Stable id of one token."""
        return _hashed_token_id(self.vocab_size, token)

    def encode(self, text: str) -> np.ndarray:
        """Encode text into a fixed-length id array ``[CLS, tokens..., PAD...]``."""
        ids = [CLS_ID]
        for token in self.words(text):
            ids.append(self.token_id(token))
            if len(ids) >= self.max_length:
                break
        attention = len(ids)
        if len(ids) < self.max_length:
            ids.extend([PAD_ID] * (self.max_length - len(ids)))
        array = np.asarray(ids, dtype=np.int64)
        return array

    def encode_batch(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Encode a batch; returns ``(ids [B, L], attention_mask [B, L])``."""
        ids = np.stack([self.encode(t) for t in texts], axis=0)
        mask = (ids != PAD_ID).astype(np.float64)
        return ids, mask
