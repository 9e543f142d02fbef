"""Masked Transformer encoder over move-token streams.

Embedding with sinusoidal positional encoding, stacked layers of masked
multi-head self-attention (two attention sub-layers per layer by default,
matching the architecture drawing; collapsible to one for ablation) and a
position-wise feed-forward block, all post-normalized, followed by a linear
head to vocabulary logits. ``multi_head_attention`` is the autodiff node
that computes one attention sub-layer. The loss takes the final hidden
states and computes the head itself (``encoder_forward(..., head=False)``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .autodiff import (
    NonFiniteError,
    Tensor,
    add,
    add_layer_norm,
    checked_once,
    embedding,
    feed_forward,
    grad_enabled,
    matmul,
    mul,
    multi_head_attention,
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
        check_ints(self, vocab_size=2, seq_len=2)
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by "
                             f"{self.n_heads} heads")

    @property
    def attn_sublayers(self) -> int:
        return 2 if self.double_attention else 1


# the ModelConfig fields set by the data; TrainConfig repeats the others
_DATA_FIELDS = ("vocab_size", "seq_len")
MODEL_FIELDS = tuple(f.name for f in dataclasses.fields(ModelConfig)
                     if f.name not in _DATA_FIELDS)


# Per config-field annotation, the exact JSON types of its value (so a bool
# is no int)
FIELD_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,),
               "int | None": (int, type(None))}


def check_ints(cfg, **least: int) -> None:
    """Refuse an int field of a config dataclass below its bound: 1, unless
    a keyword gives another. An ``int | None`` field may be None."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "int" or (f.type == "int | None" and value is not None):
            bound = least.get(f.name, 1)
            if value < bound:
                raise ValueError(f"{f.name} must be >= {bound}, got {value}")


def config_from_json(cls, data, section: str, base=None):
    """A config dataclass from a JSON object of its settings, such as a
    checkpoint's ``train`` section or a ``train --config`` file, refusing
    anything but an object, unknown settings and values of the wrong JSON
    type by name. Settings the object leaves out keep ``base``'s values, or
    the defaults without one. A JSON integer for a float setting becomes a
    float, so ``2`` and ``2.0`` give the same config and checkpoint."""
    if not isinstance(data, dict):
        raise ValueError(f"{section} settings must be a JSON object, got "
                         f"{type(data).__name__}")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ValueError(f"unknown {section} settings: {unknown}")
    settings = {}
    for name, value in data.items():
        if type(value) not in FIELD_TYPES[types[name]]:
            raise ValueError(f"{section} setting {name!r} must be "
                             f"{types[name]}, got {value!r}")
        settings[name] = float(value) if types[name] == "float" else value
    if base is None:
        return cls(**settings)
    return dataclasses.replace(base, **settings)


@lru_cache(maxsize=32)
def positional_encoding(length: int, d_model: int,
                        dtype=np.float64) -> np.ndarray:
    """Read-only sinusoids [length, d_model]: sin on even dims, cos on odd."""
    if length < 1:
        raise ValueError("length must be >= 1")
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(0, d_model, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, i / d_model)
    pe = np.zeros((length, d_model))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : d_model // 2])
    pe = pe.astype(dtype)
    pe.setflags(write=False)
    return pe


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

def parameter_table(config: ModelConfig) -> dict[str, tuple[tuple, object]]:
    """Name -> (shape, init) of every encoder parameter, in the order
    init_encoder_params draws them. ``init`` is "ones", "zeros" or the fan-in
    of a uniform draw in +-1/sqrt(fan_in)."""
    d, v, ff = config.d_model, config.vocab_size, config.d_ff
    norm = {"norm_gain": ((d,), "ones"), "norm_bias": ((d,), "zeros")}
    table: dict[str, tuple[tuple, object]] = {"embedding": ((v, d), d)}
    for i in range(config.n_layers):
        for j in range(config.attn_sublayers):
            p = f"layer{i}.attn{j}."
            for name in ("wq", "wk", "wv", "wo"):
                table[p + name] = ((d, d), d)
            table.update({p + k: spec for k, spec in norm.items()})
        p = f"layer{i}.ff."
        table[p + "w1"] = ((d, ff), d)
        table[p + "b1"] = ((ff,), "zeros")
        table[p + "w2"] = ((ff, d), ff)
        table[p + "b2"] = ((d,), "zeros")
        table.update({p + k: spec for k, spec in norm.items()})
    table["output.w"] = ((d, v), d)
    return table


def init_encoder_params(config: ModelConfig, rng: np.random.Generator,
                        dtype=np.float32) -> dict[str, Tensor]:
    """Fresh parameter tensors, uniform in +-1/sqrt(fan_in)."""
    params: dict[str, Tensor] = {}
    for name, (shape, init) in parameter_table(config).items():
        if init == "ones":
            data = np.ones(shape, dtype=dtype)
        elif init == "zeros":
            data = np.zeros(shape, dtype=dtype)
        else:
            bound = 1.0 / math.sqrt(init)
            data = rng.uniform(-bound, bound, shape).astype(dtype)
        params[name] = Tensor(data, requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

class KVCache:
    """Keys and values of every attention sub-layer over the first
    ``length`` positions of a growing window (see ``encoder_forward``):
    ``buffer`` is [sub-layers, 2, rows, n_heads, seq_len, hd], sub-layer
    ``layer{i}.attn{j}`` at ``i * attn_sublayers + j``, keys then values,
    or None while the cache holds nothing."""

    def __init__(self):
        self.length = 0
        self.buffer: np.ndarray | None = None

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the batch rows ``rows`` (a boolean mask or indices)."""
        if self.buffer is not None:
            self.buffer = self.buffer[:, :, rows]


def encoder_forward(token_ids: np.ndarray, params: dict[str, Tensor],
                    config: ModelConfig, *, head: bool = True,
                    cache: KVCache | None = None) -> Tensor:
    """Next-token logits for each position; [.., L, vocab_size].

    Each sub-layer is one tape node plus one residual-and-norm node. A
    NonFiniteError names the sub-layer it came from: ``embedding``,
    ``layer{i}.attn{j}``, ``layer{i}.ff`` or ``output``, and then that
    sub-layer's parameters that hold a NaN or an infinity, if any.

    With a ``cache`` it returns the last position's logits only, [.., 1,
    vocab_size], as sampling needs: those of ``encoder_forward(...)[...,
    -1:, :]`` up to float rounding. It records no tape, so it raises
    ValueError while gradients are enabled, before it runs or touches the
    cache. A window one token longer than the cache extends it: only the
    newest position runs, at its own positional row, its one query
    attending over the cached keys and its own. Any other window runs in
    full except the last layer's final attention sub-layer, where only the
    last position queries (the rest of the forward then runs on it alone).
    While shorter than ``seq_len`` it refills the cache with every attention
    sub-layer's keys and values; a full window, which cannot grow, leaves
    the cache empty.

    ``head=False`` stops before the output head and returns the final hidden
    states, [.., L, d_model]. ``training.batch_loss`` passes them with
    ``params["output.w"]`` to ``cross_entropy((h, w), targets)``, which
    computes the head inside the loss.

    The forward runs through ``autodiff.checked_once``: its result is checked
    once, and a failure restores the cache and replays the forward with
    every op checked, for the error above.
    """
    if cache is not None and grad_enabled():
        raise ValueError("encoder_forward with a cache records no tape; "
                         "call it under no_grad()")
    ids = np.asarray(token_ids)
    if ids.ndim not in (1, 2):
        raise ValueError("token ids must be a 1-d or 2-d integer array")
    l = ids.shape[-1]
    if l > config.seq_len:
        raise ValueError(f"sequence length {l} exceeds model limit "
                         f"{config.seq_len}")

    def run():
        return _forward(ids, params, config, head, cache)

    if cache is None:
        return checked_once(run)
    saved = cache.length, cache.buffer

    def restore():
        cache.length, cache.buffer = saved

    return checked_once(run, restore)


def _forward(ids: np.ndarray, params: dict[str, Tensor], config: ModelConfig,
             head: bool, cache: KVCache | None) -> Tensor:
    """The body of ``encoder_forward`` for validated ``ids``."""
    l = ids.shape[-1]
    d = config.d_model
    n_attn = config.attn_sublayers
    start, buffer = 0, None  # positions cached; where the keys go
    if cache is not None:
        if cache.length and l == cache.length + 1:
            start, buffer = cache.length, cache.buffer
        elif l < config.seq_len:
            buffer = np.empty(
                (config.n_layers * n_attn, 2, math.prod(ids.shape[:-1]),
                 config.n_heads, config.seq_len, d // config.n_heads),
                params["embedding"].data.dtype)
        cache.length, cache.buffer = 0, None

    where = "embedding"
    try:
        emb = mul(embedding(params["embedding"], ids[..., start:]),
                  math.sqrt(d))
        h = add(emb, positional_encoding(l, d, dtype=emb.dtype)[start:])
        # one new position may attend to every cached one
        bias = None if start else causal_bias(l, emb.dtype)
        for i in range(config.n_layers):
            for j in range(n_attn):
                where = f"layer{i}.attn{j}"
                p = where + "."
                trim = (cache is not None and i == config.n_layers - 1
                        and j == n_attn - 1)
                attn = multi_head_attention(
                    h, params[p + "wq"], params[p + "wk"], params[p + "wv"],
                    params[p + "wo"], config.n_heads, bias, last_only=trim,
                    cache=None if buffer is None
                    else (buffer[i * n_attn + j], start),
                )
                if trim:  # the residual of the last position only
                    h = Tensor(h.data[..., -1:, :])
                h = add_layer_norm(h, attn, params[p + "norm_gain"],
                                   params[p + "norm_bias"])
            where = f"layer{i}.ff"
            p = where + "."
            f = feed_forward(h, params[p + "w1"], params[p + "b1"],
                             params[p + "w2"], params[p + "b2"])
            h = add_layer_norm(h, f, params[p + "norm_gain"],
                               params[p + "norm_bias"])
        if buffer is not None:
            cache.length, cache.buffer = l, buffer
        if not head:
            return h
        where = "output"
        return matmul(h, params["output.w"])
    except NonFiniteError as exc:
        raise sublayer_error(exc, where, params) from exc


def sublayer_error(exc, where: str, params) -> NonFiniteError:
    """``exc`` prefixed by the sub-layer ``where`` and ending with that
    sub-layer's parameters that hold a NaN or an infinity, if any."""
    bad = [name for name, p in params.items()
           if (name + ".").startswith(where + ".")
           and not np.isfinite(p.data).all()]
    found = f"; non-finite parameters: {', '.join(bad)}" if bad else ""
    return NonFiniteError(f"{where}: {exc}{found}")
