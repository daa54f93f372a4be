"""fastText-style text model: hashed bag-of-n-gram embeddings + linear head.

AdaParse (FT), the cheaper engine variant, does not run an LLM: it uses
pre-computed fastText word embeddings to decide whether the extracted text is
acceptable or the document should go straight to the high-quality parser.
This module provides that model: words and character n-grams are hashed into
an embedding table, averaged into a text vector, and fed to a linear head that
is trained either as a multi-output regressor (predicting per-parser accuracy)
or as a classifier.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.ml.tokenizer import HashingTokenizer
from repro.ml.trainer import (
    AdamOptimizer,
    TrainingHistory,
    minibatch_indices,
    require_training_rows,
)
from repro.utils.hashing import stable_hash, stable_hashes
from repro.utils.rng import rng_from

#: Bounds of a model's sub-word id table.  Each of its two generations holds
#: at most this many words, and only words up to this many characters are
#: kept (longer ones are dropped-whitespace runs that never repeat), so the
#: table stays under ~7 MB (2 x 4096 entries of at most 70 packed ids plus
#: the ``bytes``/``str``/``dict`` overheads, ~0.8 KB each).
_ID_TABLE_GENERATION_WORDS = 4096
_ID_TABLE_MAX_WORD_CHARS = 24

#: Embedding rows :meth:`FastTextModel._mean_embedding` gathers at once
#: (256 KB at the default 64 dimensions).
_MEAN_BLOCK_ROWS = 512

#: Most row shards one training step is split into (one thread each).
_FIT_MAX_SHARDS = 4

#: Name prefix of the threads a multi-shard :meth:`FastTextModel.fit` runs
#: its shards on; they live for that one call.
FIT_THREAD_PREFIX = "repro-fit"


@dataclass(frozen=True)
class FastTextConfig:
    """Hyper-parameters of the fastText-style model."""

    embedding_dim: int = 64
    n_buckets: int = 1 << 15
    char_ngram_min: int = 3
    char_ngram_max: int = 5
    max_tokens: int = 300
    learning_rate: float = 5e-3
    n_epochs: int = 25
    batch_size: int = 32
    l2: float = 1e-5
    seed: int = 17


def _fit_shards() -> int:
    """How many row shards :meth:`FastTextModel.fit` splits a step into.

    One per core this process may run on, up to ``_FIT_MAX_SHARDS``.  No
    count changes a result (see ``fit``), so none is configurable.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cores = os.cpu_count() or 1
    return max(1, min(cores, _FIT_MAX_SHARDS))


@contextmanager
def _shard_pool(n_shards: int) -> Iterator[Callable[[Callable[[int], None]], None]]:
    """A runner that calls ``work(shard)`` for every shard and returns when all have.

    More than one shard run on a pool of that many threads that lives as
    long as the ``with`` block; one shard runs inline and builds no pool.
    """
    if n_shards == 1:
        yield lambda work: work(0)
        return
    with ThreadPoolExecutor(n_shards, thread_name_prefix=f"{FIT_THREAD_PREFIX}-shard") as pool:
        yield lambda work: list(pool.map(work, range(n_shards)))


def _scatter_plans(ids: np.ndarray, bounds: Sequence[int]) -> list[tuple[np.ndarray, list[int]]]:
    """How to add one row to ``table[i]`` once per occurrence of ``i`` in ``ids``.

    One plan per row shard ``bounds[s]:bounds[s + 1]``, for the ids in it.  A
    plan is the shard's distinct ids ordered by falling occurrence count,
    and for k = 1, 2, ... the number of them that occur at least k times.
    Level k is then the first ``level_sizes[k - 1]`` of the gathered rows
    ``table[by_count]``; adding the row to each level in turn gives an id
    that occurs c times c successive additions — the sequential accumulation
    of ``ufunc.at`` (add, over ``ids``), bit for bit, at one gather, one
    scatter and a slice addition per level instead of a dispatch per
    occurrence.  An id's additions all happen in its own shard's plan, so
    the shards can be applied in any order, or at once.  One array and a
    few integers per text and shard: see ``_recent_word_ids`` for why not a
    list of arrays per text.
    """
    distinct, counts = np.unique(ids, return_counts=True)
    cuts = np.searchsorted(distinct, bounds)
    plans = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        shard_ids, shard_counts = distinct[lo:hi], counts[lo:hi]
        if not len(shard_ids):
            plans.append((shard_ids, []))
            continue
        by_count = shard_ids[np.argsort(-shard_counts, kind="stable")]
        ascending = np.sort(shard_counts)
        levels = np.arange(1, ascending[-1] + 1)
        level_sizes = len(ascending) - np.searchsorted(ascending, levels, side="left")
        plans.append((by_count, level_sizes.tolist()))
    return plans


class FastTextModel:
    """Hashed n-gram embedding model with a linear output head.

    Parameters
    ----------
    config:
        Model hyper-parameters.
    n_outputs:
        Output dimension (one accuracy per parser for the regression use, or
        number of classes for classification).
    task:
        ``"regression"`` (squared error) or ``"classification"`` (softmax
        cross-entropy).
    """

    def __init__(self, config: FastTextConfig, n_outputs: int, task: str = "regression") -> None:
        if task not in ("regression", "classification"):
            raise ValueError(f"unknown task {task!r}")
        self.config = config
        self.n_outputs = n_outputs
        self.task = task
        self._tokenizer = HashingTokenizer(vocab_size=1 << 20, max_length=config.max_tokens + 1)
        rng = rng_from(config.seed, "fasttext-init", n_outputs, task)
        scale = 1.0 / np.sqrt(config.embedding_dim)
        self.embeddings = rng.normal(0.0, scale, size=(config.n_buckets, config.embedding_dim))
        self.head_weight = rng.normal(0.0, scale, size=(config.embedding_dim, n_outputs))
        self.head_bias = np.zeros(n_outputs, dtype=np.float64)
        self.history = TrainingHistory()
        # word -> its sub-word ids (packed int64), in two generations: a word
        # found only in the old one is promoted, and when the recent one fills
        # up it becomes the old one.  The ids depend on the word and the frozen
        # config alone, so the table is not model state: not fingerprinted, not
        # pickled.  Threads sharing the model only get and set; a lost race
        # recomputes an equal entry.  Entries are ``bytes``, not arrays:
        # thousands of small array buffers on the malloc heap fragmented it
        # under training's 16 MB temporaries (+16-32 MB peak RSS), while small
        # ``bytes`` live in the interpreter's own arenas.
        self._recent_word_ids: dict[str, bytes] = {}
        self._old_word_ids: dict[str, bytes] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_recent_word_ids"] = {}
        state["_old_word_ids"] = {}
        return state

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def _hash_word(self, word: str) -> bytes:
        """Bucket ids of one word followed by its character n-grams (packed int64)."""
        cfg = self.config
        padded = f"<{word}>"
        ngrams = [
            padded[i : i + n]
            for n in range(cfg.char_ngram_min, cfg.char_ngram_max + 1)
            for i in range(len(padded) - n + 1)
        ]
        ids = [stable_hash("ft-word", word)] + stable_hashes("ft-char", ngrams)
        return np.asarray([h % cfg.n_buckets for h in ids], dtype=np.int64).tobytes()

    def _word_ids(self, word: str) -> bytes:
        """:meth:`_hash_word`, hashing each distinct word once while it is kept."""
        ids = self._recent_word_ids.get(word)
        if ids is not None:
            return ids
        ids = self._old_word_ids.get(word)
        if ids is None:
            ids = self._hash_word(word)
            if len(word) > _ID_TABLE_MAX_WORD_CHARS:
                return ids
        if len(self._recent_word_ids) >= _ID_TABLE_GENERATION_WORDS:
            self._old_word_ids, self._recent_word_ids = self._recent_word_ids, {}
        self._recent_word_ids[word] = ids
        return ids

    def bucket_ids(self, text: str) -> np.ndarray:
        """Hashed feature ids (words + character n-grams) of a text."""
        words = self._tokenizer.words(text)[: self.config.max_tokens]
        if not words:
            return np.zeros(1, dtype=np.int64)
        return np.frombuffer(bytearray().join(map(self._word_ids, words)), dtype=np.int64)

    def _mean_embedding(self, ids: np.ndarray) -> np.ndarray:
        """``self.embeddings[ids].mean(axis=0)``, bit for bit, gathered in blocks.

        numpy sums axis 0 of a gathered C-ordered block row by row, left to
        right; adding the running sum into each next block's first row
        continues that one sum, so the blocks add up in the order the whole
        gather would.  A block of ``_MEAN_BLOCK_ROWS`` rows stays in cache
        between its gather and its sum; a whole text's gather (~3300 ids of
        64 floats, ~1.7 MB) does not.
        """
        total = None
        for lo in range(0, len(ids), _MEAN_BLOCK_ROWS):
            block = self.embeddings.take(ids[lo : lo + _MEAN_BLOCK_ROWS], axis=0)
            if total is not None:
                block[0] += total
            total = np.add.reduce(block, axis=0)
        return total / len(ids)

    def text_vector(self, text: str) -> np.ndarray:
        """Mean embedding of a text's hashed features."""
        return self._mean_embedding(self.bucket_ids(text))

    def text_vectors(self, texts: Sequence[str]) -> np.ndarray:
        """Matrix of text vectors ``[n_texts, embedding_dim]``."""
        return np.stack([self.text_vector(t) for t in texts], axis=0)

    # ------------------------------------------------------------------ #
    # Forward / loss
    # ------------------------------------------------------------------ #
    def predict(self, texts: Sequence[str]) -> np.ndarray:
        """Model outputs: regression values or class probabilities."""
        hidden = self.text_vectors(texts)
        logits = hidden @ self.head_weight + self.head_bias
        if self.task == "classification":
            shifted = logits - logits.max(axis=1, keepdims=True)
            exp = np.exp(shifted)
            return exp / exp.sum(axis=1, keepdims=True)
        return logits

    def _loss_and_grad_logits(
        self, logits: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        n = logits.shape[0]
        if self.task == "regression":
            diff = logits - targets
            loss = float(np.mean(diff * diff))
            grad = 2.0 * diff / (n * max(1, logits.shape[1]))
            return loss, grad
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        labels = targets.astype(np.int64).reshape(-1)
        loss = float(-np.mean(np.log(probs[np.arange(n), labels] + 1e-12)))
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        return loss, grad / n

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(
        self,
        texts: Sequence[str],
        targets: np.ndarray,
        validation: tuple[Sequence[str], np.ndarray] | None = None,
    ) -> TrainingHistory:
        """Train the embedding table and head on (text, target) pairs."""
        cfg = self.config
        targets = np.asarray(targets, dtype=np.float64)
        require_training_rows(len(texts), targets)
        if self.task == "regression" and targets.ndim == 1:
            targets = targets[:, None]
        if self.task == "regression" and not np.any(self.head_bias):
            # Start the head at the marginal target means so early epochs fit
            # residuals rather than the global offset.
            self.head_bias = targets.mean(axis=0).astype(np.float64)
        cached_ids = [self.bucket_ids(t) for t in texts]
        lengths = np.asarray([len(ids) for ids in cached_ids], dtype=np.float64)
        n_shards = min(_fit_shards(), len(self.embeddings))
        bounds = [len(self.embeddings) * s // n_shards for s in range(n_shards + 1)]
        scatter_plans = [_scatter_plans(ids, bounds) for ids in cached_ids]
        optimizer = AdamOptimizer(learning_rate=cfg.learning_rate, weight_decay=cfg.l2)
        params = {
            "embeddings": self.embeddings,
            "head_weight": self.head_weight,
            "head_bias": self.head_bias,
        }
        grad_emb = np.empty_like(self.embeddings)
        hidden = np.empty((cfg.batch_size, cfg.embedding_dim))
        batch: np.ndarray
        shares: np.ndarray

        def forward(shard: int) -> None:
            # Rows shard, shard + n_shards, ... of the batch's mean embeddings.
            for row in range(shard, len(batch), n_shards):
                hidden[row] = self._mean_embedding(cached_ids[batch[row]])

        def backward(shard: int) -> None:
            # The shard's rows of the embedding gradient, then of the step.
            lo, hi = bounds[shard], bounds[shard + 1]
            grad_emb[lo:hi].fill(0.0)
            for row, i in enumerate(batch):
                by_count, level_sizes = scatter_plans[i][shard]
                if not level_sizes:
                    continue
                touched = grad_emb[by_count]
                for size in level_sizes:
                    touched[:size] += shares[row]
                grad_emb[by_count] = touched
            optimizer.update("embeddings", self.embeddings, grad_emb, lo, hi)

        # Every element of the tables sees the same operations in the same
        # order whatever the shard count: a text's mean embedding is one
        # left-to-right sum whichever thread runs it, an id's gradient
        # additions all happen in its own shard in batch order, and Adam is
        # elementwise.
        # What crosses rows (the loss, the head and its step, the step
        # count) runs once per step, here.
        with _shard_pool(n_shards) as run_shards:
            for epoch in range(cfg.n_epochs):
                epoch_loss = 0.0
                n_batches = 0
                for batch in minibatch_indices(len(texts), cfg.batch_size, cfg.seed, epoch):
                    run_shards(forward)
                    batch_hidden = hidden[: len(batch)]
                    logits = batch_hidden @ self.head_weight + self.head_bias
                    loss, grad_logits = self._loss_and_grad_logits(logits, targets[batch])
                    epoch_loss += loss
                    n_batches += 1
                    grad_head_w = batch_hidden.T @ grad_logits
                    grad_head_b = grad_logits.sum(axis=0)
                    shares = (grad_logits @ self.head_weight.T) / lengths[batch, None]
                    optimizer.begin_step(params)
                    run_shards(backward)
                    optimizer.update("head_weight", self.head_weight, grad_head_w)
                    optimizer.update("head_bias", self.head_bias, grad_head_b)
                train_loss = epoch_loss / max(1, n_batches)
                val_loss = None
                if validation is not None:
                    val_texts, val_targets = validation
                    val_targets = np.asarray(val_targets, dtype=np.float64)
                    val_loss = self.evaluate_loss(val_texts, val_targets)
                self.history.record(train_loss, val_loss)
        return self.history

    def evaluate_loss(self, texts: Sequence[str], targets: np.ndarray) -> float:
        """Loss of the current model on a labelled set."""
        targets = np.asarray(targets, dtype=np.float64)
        if self.task == "regression" and targets.ndim == 1:
            targets = targets[:, None]
        hidden = self.text_vectors(texts)
        logits = hidden @ self.head_weight + self.head_bias
        loss, _ = self._loss_and_grad_logits(logits, targets)
        return loss
