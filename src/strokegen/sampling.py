"""Autoregressive sampling from a trained checkpoint.

A random initialization vector (always terminated by the image-end token)
seeds the context; moves are then drawn with top-k sampling until the model
emits image-end again or hits the move cap. The init vector is discarded
from the output. The images of a grid are sampled in lockstep: one forward
per step over the windows of every image still active, each image drawing
from its own rng stream. One ``KVCache`` per grid keeps every attention
sub-layer's keys and values while the windows grow, so each step after the
first runs only the newest position; once they slide, each step runs the
whole window.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .autodiff import no_grad
from .geometry import Polyline
from .model import KVCache, check_ints, encoder_forward
from .svgout import render_svg  # re-exported: grids of sampled images
from .tokenizer import Vocabulary, decode, moves_to_image
from .training import SEED_SAMPLING, Checkpoint, derived_rng

@dataclass(frozen=True)
class SamplerConfig:
    """k: top-k cutoff; init_len/max_moves default to L/2 and 4*L."""

    k: int = 10
    init_len: int | None = None
    max_moves: int | None = None
    seed: int = 0

    def __post_init__(self):
        check_ints(self, seed=0)

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
    # wall time from the start of decoding until the image left the batch,
    # per generated token
    seconds_per_token: float

    def metadata(self) -> dict:
        return {
            "seed": self.seed,
            "k": self.k,
            "init_len": self.init_len,
            "move_count": len(self.token_ids),
            "hit_cap": self.hit_cap,
            "seconds_per_token": self.seconds_per_token,
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


def top_k_ids(logits: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(-logits, kind="stable")[:k]``: the ids of the k highest
    logits, highest first, ties toward the lower id. Only the ids at or
    above the k-th value (more than k on a tie there) are sorted; a NaN
    sorts last in both, and ``~(neg > kth)`` keeps it a candidate."""
    neg = -logits
    kth = np.partition(neg, k - 1)[k - 1]
    candidates = np.flatnonzero(~(neg > kth))
    return candidates[np.argsort(neg[candidates], kind="stable")[:k]]


def top_k_distribution(logits: np.ndarray, k: int) -> np.ndarray:
    """Full-vocabulary distribution with mass only on the k highest logits.

    Ties at the k-th logit break toward the lower token id; tokens outside
    the top k have probability exactly zero.
    """
    top, probs = _top_k_probs(logits, k)
    full = np.zeros(np.size(logits))
    full[top] = probs
    return full


def top_k_sample(logits: np.ndarray, k: int, rng: np.random.Generator) -> int:
    """Sample from the renormalized softmax over the k highest logits.

    The draw is among the k ids in id order, so it returns the id and leaves
    the rng state of ``rng.choice(len(logits), p=top_k_distribution(logits,
    k))``: the cumulative sum only skips the zeros between them.
    """
    top, probs = _top_k_probs(logits, k)
    order = np.argsort(top)
    return int(top[order[rng.choice(k, p=probs[order])]])


def _top_k_probs(logits: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """top_k_ids and their softmax renormalized over them, highest first."""
    logits = np.asarray(logits, dtype=np.float64).reshape(-1)
    if not 1 <= k <= len(logits):
        raise ValueError(f"k must be in [1, {len(logits)}]")
    top = top_k_ids(logits, k)
    z = logits[top] - logits[top].max()
    weights = np.exp(z)
    return top, weights / weights.sum()


def make_init_vector(init_len: int, vocab: Vocabulary,
                     rng: np.random.Generator) -> list[int]:
    """init_len - 1 uniform random regular moves followed by IMAGE_END."""
    if init_len < 1:
        raise ValueError("init_len must be >= 1")
    ids = rng.integers(0, vocab.n_regular, init_len - 1).tolist()
    return [int(i) for i in ids] + [vocab.image_end_id]


def _sample_lockstep(task) -> list[GenerationResult]:
    """Sample images ``indices`` of ``(ckpt, cfg, indices)`` as one batch;
    the body of both the serial and the pool path.

    Image i draws from its own stream (seed, SAMPLING, i): its init vector,
    then one top-k draw per step. Every context grows by one token per step,
    so the windows of the images still active have one length and stack
    into one [n_active, w] forward. An image leaves the batch when it draws
    IMAGE_END, and its cache rows with it; the move cap ends the rest.
    """
    ckpt, cfg, indices = task
    vocab, model_cfg, k = ckpt.vocab, ckpt.model, cfg.k
    seq_len, end_id = model_cfg.seq_len, vocab.image_end_id
    init_len, max_moves = cfg.resolve(seq_len)
    params = ckpt.param_tensors()
    rngs = [derived_rng(cfg.seed, SEED_SAMPLING, i) for i in indices]
    # the last seq_len context tokens of each active image, one row each
    windows = np.array([make_init_vector(init_len, vocab, rng)[-seq_len:]
                        for rng in rngs], dtype=np.int64)
    generated: list[list[int]] = [[] for _ in indices]
    seconds = [0.0] * len(indices)  # decoding time until the last token
    active = np.arange(len(indices))  # batch slots still sampling
    cache = KVCache()
    t0 = time.perf_counter()
    with no_grad():
        for _ in range(max_moves):
            logits = encoder_forward(windows, params, model_cfg,
                                     cache=cache).data[:, -1]
            tokens = np.array([top_k_sample(logits[row], k, rngs[slot])
                               for row, slot in enumerate(active)])
            now = time.perf_counter() - t0
            for slot, token in zip(active.tolist(), tokens.tolist()):
                generated[slot].append(token)
                seconds[slot] = now
            going = tokens != end_id
            active = active[going]
            if not active.size:
                break
            if not going.all():
                cache.keep(going)
            windows = np.concatenate(
                (windows[going, 1 - seq_len:], tokens[going, None]), axis=1)
    capped = set(active.tolist())
    results = []
    for slot, ids in enumerate(generated):
        moves = decode(ids, vocab)
        results.append(GenerationResult(
            token_ids=ids,
            moves=moves,
            polylines=moves_to_image(moves),
            hit_cap=slot in capped,
            seed=cfg.seed,
            k=k,
            init_len=init_len,
            seconds_per_token=seconds[slot] / len(ids),
        ))
    return results


def generate_images(ckpt: Checkpoint, cfg: SamplerConfig, count: int,
                    jobs: int = 1) -> list[GenerationResult]:
    """Sample ``count`` images in lockstep, as one batch per process.

    Image i always uses the stream (seed, SAMPLING, i), so its tokens depend
    on neither ``count`` nor ``jobs`` up to float rounding: a row's logits
    come from a forward whose batch size varies with them, and BLAS need not
    round a one-row product as it rounds a many-row one, so a top-k draw at
    a near-tie could in principle flip. Each step is one ``encoder_forward(...,
    cache=...)`` over the stacked windows of the images still active, then
    one ``top_k_sample`` per active image. The first step runs the init
    windows and fills the grid's ``KVCache``, and each later step extends it
    by the newest position. A window that reaches ``seq_len`` leaves the
    cache empty: positions are absolute, so once the windows slide each step
    runs in full. With ``jobs > 1`` each worker process samples one
    contiguous chunk of images in lockstep.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if cfg.k > ckpt.vocab.size:
        raise ValueError(f"k={cfg.k} exceeds vocabulary size {ckpt.vocab.size}")
    chunks = [(ckpt, cfg, chunk.tolist())
              for chunk in np.array_split(np.arange(count), min(jobs, count))
              ] if count else []
    if len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            return [r for rs in pool.map(_sample_lockstep, chunks) for r in rs]
    return [r for task in chunks for r in _sample_lockstep(task)]
