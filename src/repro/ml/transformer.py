"""A trainable Transformer encoder implemented with numpy (manual backprop).

This is the reproduction's stand-in for the pre-trained language models the
paper fine-tunes for parser selection (SciBERT; BERT, MiniLM and SPECTER as
baselines in Table 4).  The architecture is a standard post-LayerNorm encoder:

    token embedding + position embedding
    → [multi-head self-attention → residual → LayerNorm
       → feed-forward (GELU) → residual → LayerNorm] × n_layers
    → pooled representation (CLS token or masked mean)

The encoder exposes an explicit ``forward`` that returns a cache and a
``backward`` that turns gradients w.r.t. the hidden states into gradients
w.r.t. every parameter, so downstream heads (regression, DPO scoring, masked
token prediction) can be trained with the shared optimisers in
:mod:`repro.ml.trainer`.  Optional LoRA adapters on the attention query/value
projections provide the parameter-efficient fine-tuning path the paper uses
(Section 7.2).  Dropout is omitted: determinism across runs is worth more to
the reproduction than the small regularisation benefit at these model sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.ml.tokenizer import HashingTokenizer
from repro.utils.rng import rng_from

ParamDict = dict[str, np.ndarray]


@dataclass(frozen=True)
class TransformerConfig:
    """Architecture and tokenisation hyper-parameters."""

    vocab_size: int = 4096
    max_length: int = 128
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 128
    pooling: str = "cls"
    layer_norm_epsilon: float = 1e-5
    seed: int = 11
    lora_rank: int = 0
    lora_alpha: float = 8.0

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.pooling not in ("cls", "mean"):
            raise ValueError(f"unknown pooling {self.pooling!r}")
        if self.lora_rank < 0:
            raise ValueError("lora_rank must be non-negative")


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation)."""
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of the tanh-approximated GELU."""
    c = np.sqrt(2.0 / np.pi)
    u = c * (x + 0.044715 * x**3)
    tanh_u = np.tanh(u)
    du_dx = c * (1.0 + 3.0 * 0.044715 * x**2)
    return 0.5 * (1.0 + tanh_u) + 0.5 * x * (1.0 - tanh_u**2) * du_dx


class TransformerEncoder:
    """Numpy Transformer encoder with explicit forward/backward passes."""

    def __init__(self, config: TransformerConfig, name: str = "encoder") -> None:
        self.config = config
        self.name = name
        self.tokenizer = HashingTokenizer(
            vocab_size=config.vocab_size, max_length=config.max_length
        )
        self.params: ParamDict = {}
        self._init_parameters()

    # ------------------------------------------------------------------ #
    # Parameters
    # ------------------------------------------------------------------ #
    def _init_parameters(self) -> None:
        cfg = self.config
        rng = rng_from(cfg.seed, "transformer-init", self.name)
        d, f = cfg.d_model, cfg.d_ff
        scale = 0.02
        self.params["token_embedding"] = rng.normal(0.0, scale, size=(cfg.vocab_size, d))
        self.params["position_embedding"] = rng.normal(0.0, scale, size=(cfg.max_length, d))
        for layer in range(cfg.n_layers):
            prefix = f"layer{layer}."
            for proj in ("q", "k", "v", "o"):
                self.params[prefix + f"W{proj}"] = rng.normal(0.0, scale, size=(d, d))
                self.params[prefix + f"b{proj}"] = np.zeros(d)
            self.params[prefix + "ln1_gamma"] = np.ones(d)
            self.params[prefix + "ln1_beta"] = np.zeros(d)
            self.params[prefix + "W_ff1"] = rng.normal(0.0, scale, size=(d, f))
            self.params[prefix + "b_ff1"] = np.zeros(f)
            self.params[prefix + "W_ff2"] = rng.normal(0.0, scale, size=(f, d))
            self.params[prefix + "b_ff2"] = np.zeros(d)
            self.params[prefix + "ln2_gamma"] = np.ones(d)
            self.params[prefix + "ln2_beta"] = np.zeros(d)
            if cfg.lora_rank > 0:
                for proj in ("q", "v"):
                    self.params[prefix + f"lora_A{proj}"] = rng.normal(
                        0.0, scale, size=(d, cfg.lora_rank)
                    )
                    self.params[prefix + f"lora_B{proj}"] = np.zeros((cfg.lora_rank, d))

    def parameter_names(self) -> list[str]:
        """All parameter names."""
        return list(self.params)

    def lora_parameter_names(self) -> list[str]:
        """Names of the LoRA adapter parameters (empty when rank is 0)."""
        return [n for n in self.params if ".lora_" in n]

    def clone_parameters(self) -> ParamDict:
        """Deep copy of all parameters (used for DPO reference models)."""
        return {name: value.copy() for name, value in self.params.items()}

    def load_parameters(self, params: ParamDict) -> None:
        """Load a parameter dictionary produced by :meth:`clone_parameters`."""
        for name, value in params.items():
            if name in self.params and self.params[name].shape == value.shape:
                self.params[name] = value.copy()

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def _effective_projection(self, prefix: str, proj: str) -> np.ndarray:
        """Projection matrix including the LoRA update when adapters exist."""
        weight = self.params[prefix + f"W{proj}"]
        if self.config.lora_rank > 0 and proj in ("q", "v"):
            a = self.params[prefix + f"lora_A{proj}"]
            b = self.params[prefix + f"lora_B{proj}"]
            weight = weight + (self.config.lora_alpha / self.config.lora_rank) * (a @ b)
        return weight

    def encode_texts(self, texts: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
        """Tokenise texts into ``(ids [B, L], mask [B, L])``."""
        return self.tokenizer.encode_batch(list(texts))

    def forward(self, ids: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, dict]:
        """Run the encoder.

        Returns the final hidden states ``[B, L, D]`` and a cache holding all
        intermediate activations needed by :meth:`backward`.
        """
        cfg = self.config
        B, L = ids.shape
        d = cfg.d_model
        h = cfg.n_heads
        dk = d // h
        x = self.params["token_embedding"][ids] + self.params["position_embedding"][:L][None, :, :]
        cache: dict = {"ids": ids, "mask": mask, "layers": [], "embed_input": x.copy()}
        # Additive attention mask: 0 for real tokens, -1e9 for padding keys.
        key_bias = (1.0 - mask)[:, None, None, :] * -1e9
        for layer in range(cfg.n_layers):
            prefix = f"layer{layer}."
            layer_cache: dict = {"x_in": x}
            wq = self._effective_projection(prefix, "q")
            wk = self.params[prefix + "Wk"]
            wv = self._effective_projection(prefix, "v")
            wo = self.params[prefix + "Wo"]
            q = x @ wq + self.params[prefix + "bq"]
            k = x @ wk + self.params[prefix + "bk"]
            v = x @ wv + self.params[prefix + "bv"]
            # [B, H, L, dk]
            q_h = q.reshape(B, L, h, dk).transpose(0, 2, 1, 3)
            k_h = k.reshape(B, L, h, dk).transpose(0, 2, 1, 3)
            v_h = v.reshape(B, L, h, dk).transpose(0, 2, 1, 3)
            scores = q_h @ k_h.transpose(0, 1, 3, 2) / np.sqrt(dk) + key_bias
            scores -= scores.max(axis=-1, keepdims=True)
            exp_scores = np.exp(scores)
            attn = exp_scores / exp_scores.sum(axis=-1, keepdims=True)
            context = attn @ v_h  # [B, H, L, dk]
            context_merged = context.transpose(0, 2, 1, 3).reshape(B, L, d)
            attn_out = context_merged @ wo + self.params[prefix + "bo"]
            layer_cache.update(
                q=q, k=k, v=v, q_h=q_h, k_h=k_h, v_h=v_h, attn=attn,
                context_merged=context_merged, wq=wq, wk=wk, wv=wv, wo=wo,
            )
            # Residual + LayerNorm 1
            residual1 = x + attn_out
            normed1, ln1_cache = self._layer_norm_forward(
                residual1, self.params[prefix + "ln1_gamma"], self.params[prefix + "ln1_beta"]
            )
            # Feed-forward
            ff_pre = normed1 @ self.params[prefix + "W_ff1"] + self.params[prefix + "b_ff1"]
            ff_act = gelu(ff_pre)
            ff_out = ff_act @ self.params[prefix + "W_ff2"] + self.params[prefix + "b_ff2"]
            residual2 = normed1 + ff_out
            normed2, ln2_cache = self._layer_norm_forward(
                residual2, self.params[prefix + "ln2_gamma"], self.params[prefix + "ln2_beta"]
            )
            layer_cache.update(
                residual1=residual1, ln1_cache=ln1_cache, normed1=normed1,
                ff_pre=ff_pre, ff_act=ff_act, residual2=residual2, ln2_cache=ln2_cache,
            )
            cache["layers"].append(layer_cache)
            x = normed2
        cache["hidden"] = x
        return x, cache

    def _layer_norm_forward(
        self, x: np.ndarray, gamma: np.ndarray, beta: np.ndarray
    ) -> tuple[np.ndarray, dict]:
        eps = self.config.layer_norm_epsilon
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = (x - mean) * inv_std
        out = gamma * x_hat + beta
        return out, {"x_hat": x_hat, "inv_std": inv_std, "gamma": gamma}

    @staticmethod
    def _layer_norm_backward(grad_out: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x_hat = cache["x_hat"]
        inv_std = cache["inv_std"]
        gamma = cache["gamma"]
        d = x_hat.shape[-1]
        grad_gamma = np.sum(grad_out * x_hat, axis=tuple(range(grad_out.ndim - 1)))
        grad_beta = np.sum(grad_out, axis=tuple(range(grad_out.ndim - 1)))
        grad_x_hat = grad_out * gamma
        grad_x = (
            grad_x_hat
            - grad_x_hat.mean(axis=-1, keepdims=True)
            - x_hat * (grad_x_hat * x_hat).mean(axis=-1, keepdims=True)
        ) * inv_std
        return grad_x, grad_gamma, grad_beta

    # ------------------------------------------------------------------ #
    # Pooling
    # ------------------------------------------------------------------ #
    def pool(self, hidden: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Pool the sequence into one vector per example."""
        if self.config.pooling == "cls":
            return hidden[:, 0, :]
        weights = mask / np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
        return np.einsum("bld,bl->bd", hidden, weights)

    def pool_backward(
        self, grad_pooled: np.ndarray, hidden_shape: tuple[int, ...], mask: np.ndarray
    ) -> np.ndarray:
        """Scatter a pooled-gradient back to the per-position hidden states."""
        grad_hidden = np.zeros(hidden_shape, dtype=np.float64)
        if self.config.pooling == "cls":
            grad_hidden[:, 0, :] = grad_pooled
            return grad_hidden
        weights = mask / np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
        grad_hidden += weights[:, :, None] * grad_pooled[:, None, :]
        return grad_hidden

    # ------------------------------------------------------------------ #
    # Backward
    # ------------------------------------------------------------------ #
    def backward(self, grad_hidden: np.ndarray, cache: dict) -> ParamDict:
        """Backpropagate gradients w.r.t. the final hidden states.

        Returns gradients for every parameter (including LoRA adapters when
        present).  Base projection matrices still receive gradients; callers
        doing parameter-efficient fine-tuning simply restrict the optimiser to
        :meth:`lora_parameter_names`.
        """
        cfg = self.config
        ids = cache["ids"]
        B, L = ids.shape
        d = cfg.d_model
        h = cfg.n_heads
        dk = d // h
        grads: ParamDict = {name: np.zeros_like(value) for name, value in self.params.items()}
        grad_x = grad_hidden
        for layer in reversed(range(cfg.n_layers)):
            prefix = f"layer{layer}."
            lc = cache["layers"][layer]
            # LayerNorm 2
            grad_residual2, g_gamma2, g_beta2 = self._layer_norm_backward(grad_x, lc["ln2_cache"])
            grads[prefix + "ln2_gamma"] += g_gamma2
            grads[prefix + "ln2_beta"] += g_beta2
            # Feed-forward branch
            grad_ff_out = grad_residual2
            grad_normed1 = grad_residual2.copy()
            grads[prefix + "W_ff2"] += np.einsum("blf,bld->fd", lc["ff_act"], grad_ff_out)
            grads[prefix + "b_ff2"] += grad_ff_out.sum(axis=(0, 1))
            grad_ff_act = grad_ff_out @ self.params[prefix + "W_ff2"].T
            grad_ff_pre = grad_ff_act * gelu_grad(lc["ff_pre"])
            grads[prefix + "W_ff1"] += np.einsum("bld,blf->df", lc["normed1"], grad_ff_pre)
            grads[prefix + "b_ff1"] += grad_ff_pre.sum(axis=(0, 1))
            grad_normed1 += grad_ff_pre @ self.params[prefix + "W_ff1"].T
            # LayerNorm 1
            grad_residual1, g_gamma1, g_beta1 = self._layer_norm_backward(grad_normed1, lc["ln1_cache"])
            grads[prefix + "ln1_gamma"] += g_gamma1
            grads[prefix + "ln1_beta"] += g_beta1
            # Residual split: into attention output and into the layer input.
            grad_attn_out = grad_residual1
            grad_x_in = grad_residual1.copy()
            # Output projection
            grads[prefix + "Wo"] += np.einsum("bld,ble->de", lc["context_merged"], grad_attn_out)
            grads[prefix + "bo"] += grad_attn_out.sum(axis=(0, 1))
            grad_context_merged = grad_attn_out @ lc["wo"].T
            grad_context = grad_context_merged.reshape(B, L, h, dk).transpose(0, 2, 1, 3)
            # Attention
            attn = lc["attn"]
            grad_attn = grad_context @ lc["v_h"].transpose(0, 1, 3, 2)
            grad_v_h = attn.transpose(0, 1, 3, 2) @ grad_context
            # Softmax backward
            grad_scores = attn * (grad_attn - np.sum(grad_attn * attn, axis=-1, keepdims=True))
            grad_scores /= np.sqrt(dk)
            grad_q_h = grad_scores @ lc["k_h"]
            grad_k_h = grad_scores.transpose(0, 1, 3, 2) @ lc["q_h"]
            grad_q = grad_q_h.transpose(0, 2, 1, 3).reshape(B, L, d)
            grad_k = grad_k_h.transpose(0, 2, 1, 3).reshape(B, L, d)
            grad_v = grad_v_h.transpose(0, 2, 1, 3).reshape(B, L, d)
            x_in = lc["x_in"]
            grads[prefix + "Wq"] += np.einsum("bld,ble->de", x_in, grad_q)
            grads[prefix + "bq"] += grad_q.sum(axis=(0, 1))
            grads[prefix + "Wk"] += np.einsum("bld,ble->de", x_in, grad_k)
            grads[prefix + "bk"] += grad_k.sum(axis=(0, 1))
            grads[prefix + "Wv"] += np.einsum("bld,ble->de", x_in, grad_v)
            grads[prefix + "bv"] += grad_v.sum(axis=(0, 1))
            if cfg.lora_rank > 0:
                scale = cfg.lora_alpha / cfg.lora_rank
                for proj, grad_proj in (("q", grad_q), ("v", grad_v)):
                    a = self.params[prefix + f"lora_A{proj}"]
                    b = self.params[prefix + f"lora_B{proj}"]
                    grad_w = np.einsum("bld,ble->de", x_in, grad_proj)
                    grads[prefix + f"lora_A{proj}"] += scale * (grad_w @ b.T)
                    grads[prefix + f"lora_B{proj}"] += scale * (a.T @ grad_w)
            grad_x_in += grad_q @ lc["wq"].T + grad_k @ lc["wk"].T + grad_v @ lc["wv"].T
            grad_x = grad_x_in
        # Embeddings
        grads["position_embedding"][:L] += grad_x.sum(axis=0)
        np.add.at(grads["token_embedding"], ids.reshape(-1), grad_x.reshape(-1, d))
        return grads
