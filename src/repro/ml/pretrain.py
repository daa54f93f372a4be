"""Masked-token pre-training of the Transformer encoders.

Table 4 of the paper contrasts encoders pre-trained on scientific corpora
(SciBERT, SPECTER) with encoders pre-trained on web-scale text (BERT,
MiniLM-L6): the scientific ones transfer better to parser-accuracy prediction.
Offline we cannot load those checkpoints, so the distinction is reproduced
mechanistically: every encoder variant is pre-trained here with a small
masked-token objective, either on sentences drawn from the synthetic
*scientific* corpus or on *generic* web-style sentences, before being
fine-tuned on the selector task.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.documents import lexicon
from repro.documents.textgen import ScientificTextGenerator, generate_generic_sentences
from repro.ml.tokenizer import MASK_ID, PAD_ID
from repro.ml.trainer import AdamOptimizer, TrainingHistory, clip_gradients, minibatch_indices
from repro.ml.transformer import TransformerEncoder
from repro.utils.rng import DrawStream, rng_from


@dataclass(frozen=True)
class PretrainConfig:
    """Masked-token pre-training hyper-parameters."""

    n_sentences: int = 1500
    mask_probability: float = 0.15
    n_epochs: int = 2
    batch_size: int = 32
    learning_rate: float = 1e-3
    max_grad_norm: float = 5.0
    seed: int = 23


def scientific_sentences(n_sentences: int, seed: int) -> list[str]:
    """Sentences sampled across scientific domains (SciBERT-style corpus)."""
    # One stream down all domains: each generator starts where the last stopped.
    draws = DrawStream(rng_from(seed, "pretrain-scientific"))
    sentences: list[str] = []
    domains = list(lexicon.DOMAINS)
    per_domain = max(1, n_sentences // len(domains))
    for domain in domains:
        generator = ScientificTextGenerator(domain, draws)
        for _ in range(per_domain):
            sentences.append(generator.sentence())
    return sentences[:n_sentences]


def generic_sentences(n_sentences: int, seed: int) -> list[str]:
    """Web-style sentences (BERT/MiniLM-style corpus)."""
    rng = rng_from(seed, "pretrain-generic")
    return generate_generic_sentences(rng, n_sentences)


def masked_token_pretrain(
    encoder: TransformerEncoder,
    sentences: list[str],
    config: PretrainConfig | None = None,
) -> TrainingHistory:
    """Pre-train an encoder with a masked-token objective (tied output embedding).

    A random subset of non-padding positions is replaced with the MASK token;
    the encoder must recover the original token id through a softmax over the
    (tied) token-embedding matrix.  The procedure teaches the embeddings and
    attention layers the co-occurrence statistics of their pre-training corpus,
    which is exactly the property the downstream selector exploits.
    """
    config = config or PretrainConfig()
    history = TrainingHistory()
    if not sentences:
        return history
    ids_all, mask_all = encoder.encode_texts(sentences)
    rng = rng_from(config.seed, "mlm", len(sentences))
    optimizer = AdamOptimizer(learning_rate=config.learning_rate)
    vocab_size = encoder.config.vocab_size
    for epoch in range(config.n_epochs):
        epoch_loss = 0.0
        n_batches = 0
        for batch in minibatch_indices(len(sentences), config.batch_size, config.seed, epoch):
            ids = ids_all[batch].copy()
            mask = mask_all[batch]
            maskable = (mask > 0) & (ids != PAD_ID)
            maskable[:, 0] = False  # never mask the CLS position
            random_mask = rng.random(ids.shape) < config.mask_probability
            positions = maskable & random_mask
            if not positions.any():
                continue
            targets = ids[positions]
            masked_ids = ids.copy()
            masked_ids[positions] = MASK_ID
            hidden, cache = encoder.forward(masked_ids, mask)
            token_embedding = encoder.params["token_embedding"]
            masked_hidden = hidden[positions]  # [n_masked, D]
            logits = masked_hidden @ token_embedding.T  # [n_masked, V]
            logits -= logits.max(axis=1, keepdims=True)
            exp = np.exp(logits)
            probs = exp / exp.sum(axis=1, keepdims=True)
            n_masked = targets.shape[0]
            loss = float(-np.mean(np.log(probs[np.arange(n_masked), targets] + 1e-12)))
            epoch_loss += loss
            n_batches += 1
            grad_logits = probs
            grad_logits[np.arange(n_masked), targets] -= 1.0
            grad_logits /= n_masked
            # Tied output projection: gradients flow both into the masked
            # hidden states and into the embedding matrix.
            grad_masked_hidden = grad_logits @ token_embedding
            grad_token_embedding_out = grad_logits.T @ masked_hidden  # [V, D]
            grad_hidden = np.zeros_like(hidden)
            grad_hidden[positions] = grad_masked_hidden
            grads = encoder.backward(grad_hidden, cache)
            grads["token_embedding"] = grads["token_embedding"] + grad_token_embedding_out
            clip_gradients(grads, config.max_grad_norm)
            optimizer.step(encoder.params, grads)
        history.record(epoch_loss / max(1, n_batches))
    return history


def pretrain_encoder_variant(
    encoder: TransformerEncoder,
    corpus_kind: str,
    config: PretrainConfig | None = None,
) -> TrainingHistory:
    """Pre-train an encoder on a named corpus kind (``"scientific"`` or ``"generic"``)."""
    config = config or PretrainConfig()
    if corpus_kind == "scientific":
        sentences = scientific_sentences(config.n_sentences, config.seed)
    elif corpus_kind == "generic":
        sentences = generic_sentences(config.n_sentences, config.seed)
    else:
        raise ValueError(f"unknown pre-training corpus kind {corpus_kind!r}")
    return masked_token_pretrain(encoder, sentences, config)
