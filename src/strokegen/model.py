"""Masked Transformer encoder over move-token streams.

Embedding with sinusoidal positional encoding, stacked layers of masked
multi-head self-attention (two attention sub-layers per layer by default,
matching the architecture drawing; collapsible to one for ablation) and a
position-wise feed-forward block, all post-normalized, followed by a linear
head to vocabulary logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .autodiff import (
    Tensor,
    add,
    attention,
    embedding,
    feed_forward,
    layer_norm,
    matmul,
    mul,
    reshape,
    transpose,
)


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    seq_len: int
    d_model: int = 52
    n_layers: int = 6
    n_heads: int = 4
    d_ff: int = 2048
    double_attention: bool = True

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.seq_len < 2:
            raise ValueError("seq_len must be >= 2")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by {self.n_heads} heads"
            )

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def attn_sublayers(self) -> int:
        return 2 if self.double_attention else 1

    def to_json_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "seq_len": self.seq_len,
            "d_model": self.d_model,
            "n_layers": self.n_layers,
            "n_heads": self.n_heads,
            "d_ff": self.d_ff,
            "double_attention": self.double_attention,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModelConfig":
        return cls(**data)


@lru_cache(maxsize=8)
def _positional_encoding_cached(length: int, d_model: int) -> np.ndarray:
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(0, d_model, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, i / d_model)
    pe = np.zeros((length, d_model))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : d_model // 2])
    return pe


def positional_encoding(length: int, d_model: int,
                        dtype=np.float64) -> np.ndarray:
    """Sinusoid table [length, d_model]: sin on even dims, cos on odd dims."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return _positional_encoding_cached(length, d_model).astype(dtype)


@lru_cache(maxsize=32)
def causal_mask(length: int) -> np.ndarray:
    """Boolean [L, L] mask; True where position i may attend to j (j <= i)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    mask = np.tril(np.ones((length, length), dtype=bool))
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=32)
def causal_bias(length: int, dtype) -> np.ndarray:
    """Additive [L, L] attention bias: 0 where causal_mask allows, else -inf."""
    bias = np.where(causal_mask(length), 0.0, -np.inf).astype(dtype)
    bias.setflags(write=False)
    return bias


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def init_encoder_params(config: ModelConfig, rng: np.random.Generator,
                        dtype=np.float32) -> dict[str, Tensor]:
    """Fresh parameter tensors, uniform in +-1/sqrt(fan_in)."""
    d, v, ff = config.d_model, config.vocab_size, config.d_ff

    def uniform(fan_in, shape):
        bound = 1.0 / math.sqrt(fan_in)
        return Tensor(rng.uniform(-bound, bound, shape).astype(dtype),
                      requires_grad=True)

    params: dict[str, Tensor] = {"embedding": uniform(d, (v, d))}
    for i in range(config.n_layers):
        for j in range(config.attn_sublayers):
            p = f"layer{i}.attn{j}."
            for name in ("wq", "wk", "wv", "wo"):
                params[p + name] = uniform(d, (d, d))
            params[p + "norm_gain"] = Tensor(np.ones(d, dtype=dtype),
                                             requires_grad=True)
            params[p + "norm_bias"] = Tensor(np.zeros(d, dtype=dtype),
                                             requires_grad=True)
        p = f"layer{i}.ff."
        params[p + "w1"] = uniform(d, (d, ff))
        params[p + "b1"] = Tensor(np.zeros(ff, dtype=dtype), requires_grad=True)
        params[p + "w2"] = uniform(ff, (ff, d))
        params[p + "b2"] = Tensor(np.zeros(d, dtype=dtype), requires_grad=True)
        params[p + "norm_gain"] = Tensor(np.ones(d, dtype=dtype),
                                         requires_grad=True)
        params[p + "norm_bias"] = Tensor(np.zeros(d, dtype=dtype),
                                         requires_grad=True)
    params["output.w"] = uniform(d, (d, v))
    return params


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def multi_head_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
                         wo: Tensor, n_heads: int,
                         bias: np.ndarray | None) -> Tensor:
    """Masked scaled dot-product attention over parallel heads.

    x: [batch, L, d]; ``bias`` is an additive [L, L] mask such as
    ``causal_bias(L, dtype)``, or None. The caller applies residual
    connection and norm.
    """
    b, l, d = x.shape
    hd = d // n_heads

    def project(w: Tensor) -> Tensor:
        p = matmul(reshape(x, (b * l, d)), w)
        p = transpose(reshape(p, (b, l, n_heads, hd)), (0, 2, 1, 3))
        return reshape(p, (b * n_heads, l, hd))

    ctx = attention(project(wq), project(wk), project(wv), bias)
    ctx = transpose(reshape(ctx, (b, n_heads, l, hd)), (0, 2, 1, 3))
    out = matmul(reshape(ctx, (b * l, d)), wo)
    return reshape(out, (b, l, d))


def encoder_forward(token_ids: np.ndarray, params: dict[str, Tensor],
                    config: ModelConfig) -> Tensor:
    """Next-token logits for each position; [.., L, vocab_size]."""
    ids = np.asarray(token_ids)
    single = ids.ndim == 1
    if single:
        ids = ids[None, :]
    if ids.ndim != 2:
        raise ValueError("token ids must be a 1-d or 2-d integer array")
    b, l = ids.shape
    if l > config.seq_len:
        raise ValueError(f"sequence length {l} exceeds model limit "
                         f"{config.seq_len}")

    d, v = config.d_model, config.vocab_size
    emb = mul(embedding(params["embedding"], ids), math.sqrt(d))
    pe = positional_encoding(l, d, dtype=emb.dtype)
    h = add(emb, pe)

    bias = causal_bias(l, emb.dtype)
    for i in range(config.n_layers):
        for j in range(config.attn_sublayers):
            p = f"layer{i}.attn{j}."
            attn = multi_head_attention(
                h, params[p + "wq"], params[p + "wk"], params[p + "wv"],
                params[p + "wo"], config.n_heads, bias,
            )
            h = layer_norm(add(h, attn), params[p + "norm_gain"],
                           params[p + "norm_bias"])
        p = f"layer{i}.ff."
        f = feed_forward(reshape(h, (b * l, d)), params[p + "w1"],
                         params[p + "b1"], params[p + "w2"], params[p + "b2"])
        h = layer_norm(add(h, reshape(f, (b, l, d))),
                       params[p + "norm_gain"], params[p + "norm_bias"])

    logits = reshape(matmul(reshape(h, (b * l, d)), params["output.w"]),
                     (b, l, v))
    if single:
        logits = reshape(logits, (l, v))
    return logits
