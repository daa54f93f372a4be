"""Per-parser accuracy regression: the model behind CLS III.

Given the default parser's (PyMuPDF's) first-page text, the predictor
regresses the accuracy (BLEU) every available parser would achieve on the
document — the quantity the AdaParse engine ranks and budgets on.  Two
backends are provided, matching the paper's two engine variants:

* ``"transformer"`` — a Transformer encoder (optionally LoRA-adapted and DPO
  post-trained) with a linear regression head: the AdaParse (LLM) path.
* ``"fasttext"`` — the hashed-n-gram embedding model: the AdaParse (FT) path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.fasttext import FastTextConfig, FastTextModel
from repro.ml.trainer import (
    AdamOptimizer,
    TrainingHistory,
    clip_gradients,
    minibatch_indices,
    require_training_rows,
)
from repro.ml.transformer import TransformerConfig, TransformerEncoder
from repro.utils.rng import rng_from


@dataclass(frozen=True)
class FineTuneConfig:
    """Supervised fine-tuning hyper-parameters for the transformer backend."""

    n_epochs: int = 6
    batch_size: int = 16
    learning_rate: float = 2e-3
    head_learning_rate: float = 5e-3
    lora_only: bool = True
    max_grad_norm: float = 5.0
    seed: int = 29


class ParserQualityPredictor:
    """Predicts a per-parser accuracy vector from extracted text."""

    def __init__(
        self,
        parser_names: list[str],
        backend: str = "transformer",
        encoder: TransformerEncoder | None = None,
        transformer_config: TransformerConfig | None = None,
        fasttext_config: FastTextConfig | None = None,
        finetune_config: FineTuneConfig | None = None,
    ) -> None:
        if backend not in ("transformer", "fasttext"):
            raise ValueError(f"unknown backend {backend!r}")
        if not parser_names:
            raise ValueError("parser_names must be non-empty")
        self.parser_names = list(parser_names)
        self.backend = backend
        self.finetune_config = finetune_config or FineTuneConfig()
        n_outputs = len(parser_names)
        if backend == "fasttext":
            self.fasttext = FastTextModel(
                fasttext_config or FastTextConfig(), n_outputs=n_outputs, task="regression"
            )
            self.encoder = None
            self.head_weight = None
            self.head_bias = None
        else:
            self.encoder = encoder or TransformerEncoder(
                transformer_config or TransformerConfig(), name="quality-encoder"
            )
            rng = rng_from(self.finetune_config.seed, "quality-head", n_outputs)
            d = self.encoder.config.d_model
            self.head_weight = rng.normal(0.0, 0.05, size=(d, n_outputs))
            self.head_bias = np.full(n_outputs, 0.5, dtype=np.float64)
            self.fasttext = None
        self.history = TrainingHistory()

    # ------------------------------------------------------------------ #
    # Fingerprinting
    # ------------------------------------------------------------------ #
    def weights_fingerprint(self) -> str:
        """Stable hex digest of the model's trained weights.

        Part of the engine's cache fingerprint: any change to the weights
        (more training, a different seed, a loaded checkpoint) must
        invalidate cached routing decisions.
        """
        from repro.utils.hashing import hash_buffers

        arrays: list[tuple[str, np.ndarray]] = []
        if self.backend == "fasttext":
            assert self.fasttext is not None
            arrays.extend(
                [
                    ("embeddings", self.fasttext.embeddings),
                    ("head_weight", self.fasttext.head_weight),
                    ("head_bias", self.fasttext.head_bias),
                ]
            )
        else:
            assert self.encoder is not None
            for name, value in sorted(self.encoder.clone_parameters().items()):
                arrays.append((name, value))
            arrays.append(("head_weight", self.head_weight))
            arrays.append(("head_bias", self.head_bias))
        buffers: list[bytes] = [self.backend.encode("utf-8")]
        buffers.append(",".join(self.parser_names).encode("utf-8"))
        for name, value in arrays:
            array = np.ascontiguousarray(value)
            buffers.append(name.encode("utf-8"))
            buffers.append(str(array.dtype).encode("utf-8"))
            buffers.append(str(array.shape).encode("utf-8"))
            buffers.append(array.tobytes())
        return hash_buffers(*buffers)

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict(self, texts: list[str]) -> np.ndarray:
        """Predicted accuracy matrix ``[n_texts, n_parsers]``."""
        if not texts:
            return np.zeros((0, len(self.parser_names)))
        if self.backend == "fasttext":
            assert self.fasttext is not None
            return self.fasttext.predict(texts)
        assert self.encoder is not None and self.head_weight is not None
        ids, mask = self.encoder.encode_texts(texts)
        hidden, _ = self.encoder.forward(ids, mask)
        pooled = self.encoder.pool(hidden, mask)
        return pooled @ self.head_weight + self.head_bias

    def predict_best_parser(self, texts: list[str]) -> list[str]:
        """Name of the parser with the highest predicted accuracy per text."""
        predictions = self.predict(texts)
        return [self.parser_names[int(i)] for i in predictions.argmax(axis=1)]

    def predicted_improvement(
        self, texts: list[str], baseline_parser: str
    ) -> np.ndarray:
        """Best predicted accuracy minus the baseline parser's predicted accuracy."""
        if baseline_parser not in self.parser_names:
            raise KeyError(f"unknown baseline parser {baseline_parser!r}")
        predictions = self.predict(texts)
        baseline = predictions[:, self.parser_names.index(baseline_parser)]
        return predictions.max(axis=1) - baseline

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(
        self,
        texts: list[str],
        targets: np.ndarray,
        validation: tuple[list[str], np.ndarray] | None = None,
        learning_rate: float | None = None,
        n_epochs: int | None = None,
    ) -> TrainingHistory:
        """Fit the predictor on (text, per-parser accuracy) pairs.

        ``learning_rate`` and ``n_epochs`` override the transformer backend's
        :class:`FineTuneConfig`.  The fasttext backend refuses them: its
        :class:`FastTextConfig` fixes both.
        """
        if self.backend == "fasttext" and (learning_rate is not None or n_epochs is not None):
            raise ValueError(
                "the fasttext backend takes its learning rate and epochs from its "
                "FastTextConfig, not from fit()"
            )
        targets = np.asarray(targets, dtype=np.float64)
        if targets.ndim != 2 or targets.shape[1] != len(self.parser_names):
            raise ValueError(
                f"targets must have shape [n, {len(self.parser_names)}], got {targets.shape}"
            )
        require_training_rows(len(texts), targets)
        if self.backend == "fasttext":
            assert self.fasttext is not None
            self.history = self.fasttext.fit(texts, targets, validation=validation)
            return self.history
        return self._fit_transformer(texts, targets, validation, learning_rate, n_epochs)

    def _fit_transformer(
        self,
        texts: list[str],
        targets: np.ndarray,
        validation: tuple[list[str], np.ndarray] | None,
        learning_rate: float | None,
        n_epochs: int | None,
    ) -> TrainingHistory:
        assert self.encoder is not None and self.head_weight is not None and self.head_bias is not None
        cfg = self.finetune_config
        lr = learning_rate if learning_rate is not None else cfg.learning_rate
        epochs = n_epochs if n_epochs is not None else cfg.n_epochs
        ids_all, mask_all = self.encoder.encode_texts(texts)
        encoder_param_names = (
            self.encoder.lora_parameter_names()
            if cfg.lora_only and self.encoder.config.lora_rank > 0
            else self.encoder.parameter_names()
        )
        encoder_optimizer = AdamOptimizer(learning_rate=lr)
        head_optimizer = AdamOptimizer(learning_rate=cfg.head_learning_rate)
        head_params = {"weight": self.head_weight, "bias": self.head_bias}
        n_outputs = len(self.parser_names)
        for epoch in range(epochs):
            epoch_loss = 0.0
            n_batches = 0
            for batch in minibatch_indices(len(texts), cfg.batch_size, cfg.seed, epoch):
                ids = ids_all[batch]
                mask = mask_all[batch]
                batch_targets = targets[batch]
                hidden, cache = self.encoder.forward(ids, mask)
                pooled = self.encoder.pool(hidden, mask)
                preds = pooled @ self.head_weight + self.head_bias
                diff = preds - batch_targets
                loss = float(np.mean(diff * diff))
                epoch_loss += loss
                n_batches += 1
                grad_preds = 2.0 * diff / (diff.shape[0] * n_outputs)
                grad_head_w = pooled.T @ grad_preds
                grad_head_b = grad_preds.sum(axis=0)
                grad_pooled = grad_preds @ self.head_weight.T
                grad_hidden = self.encoder.pool_backward(grad_pooled, hidden.shape, mask)
                grads = self.encoder.backward(grad_hidden, cache)
                encoder_grads = {name: grads[name] for name in encoder_param_names}
                clip_gradients(encoder_grads, cfg.max_grad_norm)
                encoder_optimizer.step(self.encoder.params, encoder_grads)
                head_optimizer.step(head_params, {"weight": grad_head_w, "bias": grad_head_b})
            val_loss = None
            if validation is not None:
                val_loss = self.evaluate_loss(validation[0], np.asarray(validation[1]))
            self.history.record(epoch_loss / max(1, n_batches), val_loss)
        return self.history

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate_loss(self, texts: list[str], targets: np.ndarray) -> float:
        """Mean squared error on a labelled set."""
        targets = np.asarray(targets, dtype=np.float64)
        preds = self.predict(texts)
        return float(np.mean((preds - targets) ** 2))

    def r2_scores(self, texts: list[str], targets: np.ndarray) -> dict[str, float]:
        """Per-parser coefficient of determination (the paper reports R² for
        PyMuPDF and Nougat predictions)."""
        targets = np.asarray(targets, dtype=np.float64)
        preds = self.predict(texts)
        scores: dict[str, float] = {}
        for j, name in enumerate(self.parser_names):
            ss_res = float(np.sum((targets[:, j] - preds[:, j]) ** 2))
            ss_tot = float(np.sum((targets[:, j] - targets[:, j].mean()) ** 2))
            scores[name] = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
        return scores

    def selection_accuracy(self, texts: list[str], targets: np.ndarray) -> float:
        """Fraction of texts where the predicted-best parser is the true best."""
        targets = np.asarray(targets, dtype=np.float64)
        preds = self.predict(texts)
        return float(np.mean(preds.argmax(axis=1) == targets.argmax(axis=1)))
