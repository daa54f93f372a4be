"""From-scratch numpy ML stack used by the AdaParse selection models.

The paper's selector is a fine-tuned language model (SciBERT) that regresses
per-parser BLEU scores from the default parser's first-page text, post-trained
on human preferences with DPO; cheaper variants use fastText embeddings,
metadata SVCs, or rule-based features.  None of those checkpoints are
available offline, so the whole stack is reimplemented here:

* :mod:`repro.ml.features` — aggregate text features (CLS I) and metadata
  featurisation (CLS II / SVC baselines).
* :mod:`repro.ml.tokenizer` — hashed word tokeniser shared by the encoders.
* :mod:`repro.ml.linear` / :mod:`repro.ml.svc` — ridge, logistic and linear
  SVM baselines.
* :mod:`repro.ml.fasttext` — hashed bag-of-n-gram embedding model
  (AdaParse (FT)).
* :mod:`repro.ml.transformer` — a trainable Transformer encoder with manual
  backprop and optional low-rank (LoRA) adapters on the attention projections
  (the SciBERT/BERT/MiniLM/SPECTER stand-ins).
* :mod:`repro.ml.pretrain` — masked-token pre-training that differentiates
  "scientific" from "web-scale" encoders.
* :mod:`repro.ml.dpo` — direct preference optimisation post-training.
* :mod:`repro.ml.quality_model` — the per-parser accuracy regressor used by
  CLS III.
"""

from __future__ import annotations

from repro.ml.features import MetadataFeaturizer, TextStatisticsExtractor
from repro.ml.fasttext import FastTextConfig, FastTextModel
from repro.ml.linear import LogisticRegression, RidgeRegression
from repro.ml.svc import LinearSVC
from repro.ml.tokenizer import HashingTokenizer
from repro.ml.transformer import TransformerConfig, TransformerEncoder
from repro.ml.quality_model import ParserQualityPredictor

__all__ = [
    "MetadataFeaturizer",
    "TextStatisticsExtractor",
    "FastTextModel",
    "FastTextConfig",
    "LogisticRegression",
    "RidgeRegression",
    "LinearSVC",
    "HashingTokenizer",
    "TransformerConfig",
    "TransformerEncoder",
    "ParserQualityPredictor",
]
