"""Autoregressive sampling from a trained checkpoint.

A random initialization vector (always terminated by the image-end token)
seeds the context; moves are then drawn with top-k sampling until the model
emits image-end again or hits the move cap. The init vector is discarded
from the output.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .autodiff import no_grad
from .geometry import Polyline
from .model import encoder_forward
from .svgout import render_svg  # re-exported: grids of sampled images
from .tokenizer import Vocabulary, decode, moves_to_image
from .training import SEED_SAMPLING, Checkpoint, derived_rng

__all__ = [
    "SamplerConfig",
    "GenerationResult",
    "center_polylines",
    "top_k_distribution",
    "top_k_sample",
    "make_init_vector",
    "generate_image",
    "generate_images",
    "render_svg",
]


@dataclass(frozen=True)
class SamplerConfig:
    """k: top-k cutoff; init_len/max_moves default to L/2 and 4*L."""

    k: int = 10
    init_len: int | None = None
    max_moves: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.init_len is not None and self.init_len < 1:
            raise ValueError("init_len must be >= 1")
        if self.max_moves is not None and self.max_moves < 1:
            raise ValueError("max_moves must be >= 1")

    def resolve(self, seq_len: int) -> tuple[int, int]:
        init_len = self.init_len if self.init_len is not None else max(
            1, seq_len // 2)
        max_moves = self.max_moves if self.max_moves is not None else 4 * seq_len
        return init_len, max_moves


@dataclass
class GenerationResult:
    token_ids: list[int]
    moves: np.ndarray  # [N, 3] (pen, dx, dy) rows
    polylines: list[Polyline]
    hit_cap: bool
    seed: int
    k: int
    init_len: int

    def metadata(self) -> dict:
        return {
            "seed": self.seed,
            "k": self.k,
            "init_len": self.init_len,
            "move_count": len(self.token_ids),
            "hit_cap": self.hit_cap,
        }


def center_polylines(polylines: list[Polyline],
                     boundary: float) -> list[Polyline]:
    """Translate polylines so their joint bbox is centered on the canvas.

    Generated moves are relative, so nothing anchors a sampled image to the
    canvas; replay from the origin can wander arbitrarily far. Centering is
    presentation only and never rescales.
    """
    if not polylines:
        return []
    pts = np.concatenate([p.points for p in polylines])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    shift = np.array([boundary, boundary]) / 2.0 - (lo + hi) / 2.0
    return [Polyline(p.points + shift) for p in polylines]


def top_k_distribution(logits: np.ndarray, k: int) -> np.ndarray:
    """Full-vocabulary distribution with mass only on the k highest logits.

    Ties at the k-th logit break toward the lower token id; tokens outside
    the top k have probability exactly zero.
    """
    logits = np.asarray(logits, dtype=np.float64).reshape(-1)
    if not 1 <= k <= len(logits):
        raise ValueError(f"k must be in [1, {len(logits)}]")
    top = np.argsort(-logits, kind="stable")[:k]
    z = logits[top] - logits[top].max()
    weights = np.exp(z)
    probs = np.zeros_like(logits)
    probs[top] = weights / weights.sum()
    return probs


def top_k_sample(logits: np.ndarray, k: int, rng: np.random.Generator) -> int:
    """Sample from the renormalized softmax over the k highest logits."""
    probs = top_k_distribution(logits, k)
    return int(rng.choice(len(probs), p=probs))


def make_init_vector(init_len: int, vocab: Vocabulary,
                     rng: np.random.Generator) -> list[int]:
    """init_len - 1 uniform random regular moves followed by IMAGE_END."""
    if init_len < 1:
        raise ValueError("init_len must be >= 1")
    ids = rng.integers(0, vocab.n_regular, init_len - 1).tolist()
    return [int(i) for i in ids] + [vocab.image_end_id]


def _sample(task) -> GenerationResult:
    """Sample image ``index`` of ``(ckpt, cfg, index)`` from its own stream
    (seed, SAMPLING, index); the body of both the serial and the pool path."""
    ckpt, cfg, index = task
    vocab, model_cfg, k = ckpt.vocab, ckpt.model, cfg.k
    if k > vocab.size:
        raise ValueError(f"k={k} exceeds vocabulary size {vocab.size}")
    seq_len = model_cfg.seq_len
    init_len, max_moves = cfg.resolve(seq_len)
    params = ckpt.param_tensors()
    rng = derived_rng(cfg.seed, SEED_SAMPLING, index)
    context = make_init_vector(init_len, vocab, rng)
    generated: list[int] = []
    hit_cap = False
    with no_grad():
        while True:
            if len(generated) >= max_moves:
                hit_cap = True
                break
            window = np.asarray(context[-seq_len:], dtype=np.int64)
            logits = encoder_forward(window, params, model_cfg).data[-1]
            token = top_k_sample(logits, k, rng)
            generated.append(token)
            context.append(token)
            if token == vocab.image_end_id:
                break
    moves = decode(generated, vocab)
    return GenerationResult(
        token_ids=generated,
        moves=moves,
        polylines=moves_to_image(moves),
        hit_cap=hit_cap,
        seed=cfg.seed,
        k=k,
        init_len=init_len,
    )


def generate_image(ckpt: Checkpoint, cfg: SamplerConfig) -> GenerationResult:
    """Sample one image; a pure function of (checkpoint, config)."""
    return generate_images(ckpt, cfg, 1)[0]


def generate_images(ckpt: Checkpoint, cfg: SamplerConfig, count: int,
                    jobs: int = 1) -> list[GenerationResult]:
    """Sample ``count`` images with per-sample derived rng streams.

    Results are identical for any ``jobs`` value; sample i always uses the
    stream (seed, SAMPLING, i).
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = [(ckpt, cfg, i) for i in range(count)]
    if jobs > 1 and count > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_sample, tasks,
                                 chunksize=max(1, count // jobs)))
    return [_sample(task) for task in tasks]
