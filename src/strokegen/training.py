"""Training loop: per-epoch regenerated patch corpora streamed as one
continuous token sequence, Adam with warmup/inverse-sqrt learning rate,
held-out loss tracking and JSON checkpoints."""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .augment import AugmentConfig, PatchSet, generate_patch_set
from .autodiff import NonFiniteError, Tensor, cross_entropy, no_grad
from .geometry import (
    DEFAULT_BOUNDARY,
    StrokeImage,
    _boundary_from_json,
    check_error_bound,
    load_json,
    write_atomically,
)
from .model import (
    FIELD_TYPES,
    MODEL_FIELDS,
    ModelConfig,
    check_ints,
    config_from_json,
    encoder_forward,
    init_encoder_params,
    parameter_table,
    sublayer_error,
)
from .tokenizer import (
    DEFAULT_FLATTEN_ERROR,
    DEFAULT_MAX_MOVE_LEN,
    Vocabulary,
    encode,
    image_to_move_sequence,
    move_sequences,
)

CHECKPOINT_VERSION = 2
EVAL_CHUNK = 100  # windows per forward pass during evaluation

# rng stream tags mixed into numpy SeedSequence entropy as (seed, tag[, index])
SEED_HELDOUT = 0
SEED_EPOCH = 1
SEED_SHUFFLE = 2
SEED_INIT = 3
SEED_FIXED = 4
SEED_SAMPLING = 5


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, *key)))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    patches_per_epoch: int = 500
    batch_size: int = 200
    warmup_steps: int = 4000
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-9
    seed: int = 0
    flatten_error: float = DEFAULT_FLATTEN_ERROR
    max_move_len: int = DEFAULT_MAX_MOVE_LEN
    heldout_patches: int = 500
    seq_ceiling: int = 512
    fixed_patch_set: int | None = None
    reversal_probability: float = AugmentConfig.reversal_probability
    scale_min: float = AugmentConfig.scale_min
    d_model: int = ModelConfig.d_model
    n_layers: int = ModelConfig.n_layers
    n_heads: int = ModelConfig.n_heads
    d_ff: int = ModelConfig.d_ff
    double_attention: bool = ModelConfig.double_attention

    def __post_init__(self):
        check_ints(self, seed=0)
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), "
                                 f"got {getattr(self, name)!r}")
        if not self.adam_eps > 0:
            raise ValueError(f"adam_eps must be positive, got {self.adam_eps!r}")
        check_error_bound("flatten_error", self.flatten_error)
        augment_config(self)
        model_config(self, 2, 2)  # the smallest data, to check the model sizes


def desk_preset(**overrides) -> TrainConfig:
    """Scaled-down configuration that preserves the qualitative loss trends
    of the full setup while training in about a minute on a laptop CPU.

    The short warmup and small batches push the model past its
    generalization optimum within a few epochs, so a fixed patch set shows
    the rising held-out curve inside the 30-epoch budget.
    """
    base = dict(
        epochs=30,
        patches_per_epoch=100,
        batch_size=10,
        warmup_steps=150,
        heldout_patches=100,
        seq_ceiling=64,
        d_model=32,
        n_layers=2,
        n_heads=4,
        d_ff=256,
    )
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def lr_schedule(step: int, d_model: int, warmup: int) -> float:
    """Linear ramp to the peak at step == warmup, then inverse-sqrt decay."""
    if step < 1:
        raise ValueError("step must be >= 1")
    return d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_adam_state(params: dict[str, Tensor]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p.data) for k, p in params.items()},
        v={k: np.zeros_like(p.data) for k, p in params.items()},
    )


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float, beta1: float = TrainConfig.beta1,
              beta2: float = TrainConfig.beta2,
              eps: float = TrainConfig.adam_eps):
    """Bias-corrected Adam update, in place. A non-finite gradient raises
    NonFiniteError before any parameter or state changes."""
    for name in params:
        g = grads.get(name)
        if g is not None and not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        m = state.m[name]
        v = state.v[name]
        m += (1.0 - beta1) * (g - m)
        v += (1.0 - beta2) * (g * g - v)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# Stream batching
# ---------------------------------------------------------------------------

def stream_windows(sequences: list[list[int]], seq_len: int,
                   order: np.ndarray | None = None) -> np.ndarray:
    """Concatenate token sequences and cut non-overlapping (seq_len+1) windows."""
    if order is None:
        order = np.arange(len(sequences))
    stream = np.concatenate([np.asarray(sequences[i], dtype=np.int64)
                             for i in order])
    n = len(stream) // (seq_len + 1)
    if n == 0:
        raise ValueError(
            f"stream of {len(stream)} tokens is shorter than a window "
            f"({seq_len + 1})"
        )
    return stream[: n * (seq_len + 1)].reshape(n, seq_len + 1)


def build_stream_batches(
    sequences: list[list[int]], seq_len: int, batch_size: int,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffled (input, target) batches of next-token windows.

    Patch sequences are concatenated in random order, so a window may span a
    patch boundary; windows never overlap and the trailing partial window is
    dropped. target[i] == input[i+1] within each window.
    """
    windows = stream_windows(sequences, seq_len,
                             order=rng.permutation(len(sequences)))
    windows = windows[rng.permutation(len(windows))]
    batches = []
    for i in range(0, len(windows), batch_size):
        chunk = windows[i: i + batch_size]
        batches.append((chunk[:, :-1].copy(), chunk[:, 1:].copy()))
    return batches


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    heldout_loss: float


@dataclass(frozen=True)
class EpochMetrics(EpochStats):
    """One epoch's losses and how the run got there; never checkpointed.

    ``data_s`` is patch generation, tokenizing and batching, ``step_s`` the
    optimizer steps and ``eval_s`` the held-out loss; ``tokens_per_s`` is
    the target tokens optimised over all three. ``lr`` and ``grad_norm``
    (global L2 norm of the gradients) are those of the epoch's last step.
    """

    data_s: float
    step_s: float
    eval_s: float
    tokens_per_s: float
    lr: float
    grad_norm: float


@dataclass
class Checkpoint:
    model: ModelConfig
    train: TrainConfig
    vocab: Vocabulary
    params: dict[str, np.ndarray]
    epoch: int
    loss_history: list[EpochStats]
    rng_state: dict
    boundary: float = DEFAULT_BOUNDARY  # canvas side of the training image

    def param_tensors(self) -> dict[str, Tensor]:
        return {k: Tensor(v) for k, v in self.params.items()}


def _derived(train: TrainConfig, seq_len: int
             ) -> tuple[Vocabulary, ModelConfig]:
    """The vocabulary and the model that train settings fix for a window."""
    if seq_len > max(2, train.seq_ceiling):
        raise ValueError(f"seq_len {seq_len} exceeds the train setting "
                         f"seq_ceiling {train.seq_ceiling}")
    vocab = Vocabulary(train.max_move_len)
    return vocab, model_config(train, vocab.size, seq_len)


def _facts(vocab: Vocabulary, model: ModelConfig, shapes: dict) -> dict:
    """What a Checkpoint holds beside its train settings, by field name."""
    return {"vocab.max_move_length": vocab.max_move_length,
            **{f"model.{k}": v for k, v in dataclasses.asdict(model).items()},
            **{f"parameter {k!r} shape": list(v) for k, v in shapes.items()}}


def checkpoint_to_json(ckpt: Checkpoint) -> dict:
    """The checkpoint document, refusing a Checkpoint whose model,
    vocabulary or parameter shapes are not those its train settings and
    window length derive: the document stores only the settings."""
    vocab, model = _derived(ckpt.train, ckpt.model.seq_len)
    held = _facts(ckpt.vocab, ckpt.model,
                  {k: v.shape for k, v in ckpt.params.items()})
    derived = _facts(vocab, model, {k: shape for k, (shape, _)
                                    in parameter_table(model).items()})
    for name in sorted(held.keys() | derived.keys()):
        if held.get(name) != derived.get(name):
            raise ValueError(f"{name} is {held.get(name)!r}, but train "
                             f"derives {derived.get(name)!r}")
    return {
        "version": CHECKPOINT_VERSION,
        "boundary": ckpt.boundary,
        "seq_len": model.seq_len,
        "train": dataclasses.asdict(ckpt.train),
        "epoch": ckpt.epoch,
        "loss_history": [
            [s.epoch, s.train_loss, s.heldout_loss] for s in ckpt.loss_history
        ],
        "rng_state": ckpt.rng_state,
        "params": {
            name: base64.b64encode(
                np.ascontiguousarray(arr.astype("<f4")).tobytes()
            ).decode("ascii")
            for name, arr in ckpt.params.items()
        },
    }


def checkpoint_from_json(data: dict) -> Checkpoint:
    """Load a checkpoint, deriving its vocabulary and model from its train
    settings and window length, and checking that the parameters have that
    model's names and sizes and are finite. A checkpoint without a canvas
    boundary is for the default canvas."""
    if not isinstance(data, dict):
        raise ValueError(f"checkpoint must be a JSON object, got "
                         f"{type(data).__name__}")
    if data.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {data.get('version')}")
    for name in ("train", "params", "rng_state"):
        if not isinstance(data.get(name), dict):
            raise ValueError(f"checkpoint {name!r} must be a JSON object, got "
                             f"{type(data.get(name)).__name__}")
    for name in ("seq_len", "epoch"):
        if type(data.get(name)) is not int:
            raise ValueError(f"checkpoint {name!r} must be an integer, got "
                             f"{data.get(name)!r}")
    # a resume would continue from optimizer_steps, the Adam step count
    for name, value in (("epoch", data["epoch"]),
                        ("rng_state.optimizer_steps",
                         data["rng_state"].get("optimizer_steps", 0))):
        if type(value) is not int or value < 0:
            raise ValueError(f"checkpoint {name!r} must be an integer >= 0, "
                             f"got {value!r}")
    history = data.get("loss_history")
    row_types = (FIELD_TYPES["int"],) + (FIELD_TYPES["float"],) * 2
    if not isinstance(history, list) or not all(
            isinstance(row, list) and len(row) == 3
            and all(type(v) in t for v, t in zip(row, row_types))
            for row in history):
        raise ValueError("checkpoint 'loss_history' must be a list of "
                         "[epoch, train_loss, heldout_loss] rows of an "
                         "integer and two numbers")
    history = [EpochStats(e, float(t), float(h)) for e, t, h in history]
    train = config_from_json(TrainConfig, data["train"], "train")
    vocab, model = _derived(train, data["seq_len"])
    table = parameter_table(model)
    names = set(data["params"])
    if names != set(table):
        raise ValueError(f"checkpoint params differ from the model's: missing "
                         f"{sorted(set(table) - names)}, unexpected "
                         f"{sorted(names - set(table))}")
    params = {}
    for name, (shape, _) in table.items():
        value = data["params"][name]
        if not isinstance(value, str):
            raise ValueError(f"parameter {name!r} must be a base64 string, "
                             f"got {type(value).__name__}")
        try:
            # bad base64 (binascii.Error), a non-ASCII string and a byte
            # count that is not whole float32s all raise ValueError
            raw = np.frombuffer(base64.b64decode(value, validate=True),
                                dtype="<f4")
        except ValueError as exc:
            raise ValueError(f"parameter {name!r} is not base64 float32 "
                             f"data: {exc}") from None
        if raw.size != math.prod(shape):
            raise ValueError(f"parameter {name!r} has {raw.size} values, "
                             f"expected {math.prod(shape)} for shape "
                             f"{list(shape)}")
        if not np.isfinite(raw).all():
            raise ValueError(f"parameter {name!r} has non-finite values")
        params[name] = raw.reshape(shape).astype(np.float32)
    return Checkpoint(
        model=model,
        train=train,
        vocab=vocab,
        params=params,
        epoch=data["epoch"],
        loss_history=history,
        rng_state=data["rng_state"],
        boundary=_boundary_from_json(data),
    )


def save_checkpoint(ckpt: Checkpoint, path):
    """Write the checkpoint to ``path`` through write_atomically."""
    write_atomically(path, lambda fh: json.dump(
        checkpoint_to_json(ckpt), fh, sort_keys=True, separators=(",", ":")))


def load_checkpoint(path) -> Checkpoint:
    return checkpoint_from_json(load_json(path))


def write_loss_csv(history: list[EpochStats], path):
    write_atomically(path, lambda fh: fh.write(
        "epoch,train_loss,heldout_loss\n" + "".join(
            f"{s.epoch},{s.train_loss!r},{s.heldout_loss!r}\n"
            for s in history)))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def augment_config(cfg: TrainConfig) -> AugmentConfig:
    """The patch synthesis settings of a training configuration."""
    return AugmentConfig(reversal_probability=cfg.reversal_probability,
                         scale_min=cfg.scale_min)


def model_config(cfg: TrainConfig, vocab_size: int,
                 seq_len: int) -> ModelConfig:
    """The model of a training configuration, for data of these sizes."""
    return ModelConfig(vocab_size, seq_len,
                       **{name: getattr(cfg, name) for name in MODEL_FIELDS})


def patch_set(image: StrokeImage, cfg: TrainConfig, n: int,
              *key: int) -> PatchSet:
    """n augmented patches of the training image, from rng stream (seed, *key)."""
    return generate_patch_set(image, n, augment_config(cfg),
                              derived_rng(cfg.seed, *key))


def tokenize_patches(patches: PatchSet, vocab: Vocabulary,
                     flatten_error: float, max_len: int) -> list[np.ndarray]:
    """Every patch's token ids, as views into one array tokenized at once."""
    moves, bounds = move_sequences(patches.controls, patches.splits,
                                   flatten_error, max_len)
    return np.split(encode(moves, vocab), bounds)


def batch_loss(params: dict[str, Tensor], model_cfg: ModelConfig,
               inputs: np.ndarray, targets: np.ndarray) -> Tensor:
    """Mean next-token cross-entropy of a batch of windows. The loss computes
    the head, so its NonFiniteError names ``output`` and a bad ``output.w``."""
    hidden = encoder_forward(inputs, params, model_cfg, head=False)
    try:
        return cross_entropy((hidden, params["output.w"]), targets)
    except NonFiniteError as exc:
        raise sublayer_error(exc, "output", params) from exc


def train_step(params: dict[str, Tensor], adam: AdamState,
               model_cfg: ModelConfig, cfg: TrainConfig, inputs: np.ndarray,
               targets: np.ndarray) -> float:
    """One Adam step on a batch; returns its mean loss.

    The step's tape is reachable only from this frame, so it is freed before
    the next step's forward. The gradients stay on the parameters.
    """
    for p in params.values():
        p.grad = None
    loss = batch_loss(params, model_cfg, inputs, targets)
    loss.backward()
    adam_step(params, {k: p.grad for k, p in params.items()}, adam,
              lr_schedule(adam.step + 1, cfg.d_model, cfg.warmup_steps),
              cfg.beta1, cfg.beta2, cfg.adam_eps)
    return float(loss.data)


def train(image: StrokeImage, cfg: TrainConfig, on_epoch=None) -> Checkpoint:
    """Train the encoder on patches of one image; deterministic under seed.

    Each epoch regenerates a fresh patch set (unless ``fixed_patch_set``
    pins one), makes a single optimizer pass over its stream windows and
    then evaluates the held-out loss. ``on_epoch`` receives each epoch's
    EpochMetrics; the checkpoint keeps only its EpochStats.
    """
    if not len(image):
        raise ValueError("cannot train on an image without paths")

    original_moves = image_to_move_sequence(image, cfg.flatten_error,
                                            cfg.max_move_len)
    seq_len = max(2, min(len(original_moves), cfg.seq_ceiling))
    vocab, model_cfg = _derived(cfg, seq_len)
    params = init_encoder_params(model_cfg, derived_rng(cfg.seed, SEED_INIT))

    def tokens(name: str, *key: int) -> list[np.ndarray]:
        ids = tokenize_patches(patch_set(image, cfg, getattr(cfg, name), *key),
                               vocab, cfg.flatten_error, cfg.max_move_len)
        if (count := sum(map(len, ids))) <= seq_len:
            raise ValueError(f"{name} {getattr(cfg, name)} gives {count} "
                             f"tokens, fewer than one window of {seq_len + 1}")
        return ids

    heldout_windows = stream_windows(
        tokens("heldout_patches", SEED_HELDOUT), seq_len)
    fixed = (None if cfg.fixed_patch_set is None
             else tokens("fixed_patch_set", SEED_FIXED))

    adam = init_adam_state(params)
    history: list[EpochStats] = []
    clock = time.perf_counter
    for epoch in range(1, cfg.epochs + 1):
        t0 = clock()
        sequences = (tokens("patches_per_epoch", SEED_EPOCH, epoch)
                     if fixed is None else fixed)
        batches = build_stream_batches(sequences, seq_len, cfg.batch_size,
                                       derived_rng(cfg.seed, SEED_SHUFFLE, epoch))
        t1 = clock()
        loss_sum = sum(train_step(params, adam, model_cfg, cfg, inputs, targets)
                       * len(inputs) for inputs, targets in batches)
        window_count = sum(len(inputs) for inputs, _ in batches)
        # the last step leaves its gradients on the parameters
        grad_norm = math.sqrt(sum(float(np.vdot(p.grad, p.grad))
                                  for p in params.values() if p.grad is not None))
        t2 = clock()
        heldout_loss = eval_stream_loss(params, model_cfg, heldout_windows)
        t3 = clock()

        stats = EpochStats(epoch, loss_sum / window_count, heldout_loss)
        history.append(stats)
        if on_epoch is not None:
            on_epoch(EpochMetrics(
                *dataclasses.astuple(stats), data_s=t1 - t0, step_s=t2 - t1,
                eval_s=t3 - t2, tokens_per_s=window_count * seq_len / (t3 - t0),
                lr=lr_schedule(adam.step, cfg.d_model, cfg.warmup_steps),
                grad_norm=grad_norm))

    return Checkpoint(
        model=model_cfg,
        train=cfg,
        vocab=vocab,
        params={k: p.data for k, p in params.items()},
        epoch=cfg.epochs,
        loss_history=history,
        # the seed and the epoch count are train.seed and epoch
        rng_state={
            "optimizer_steps": adam.step,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")
            or os.environ.get("OMP_NUM_THREADS") or "default",
        },
        boundary=image.boundary,
    )


def eval_stream_loss(params: dict[str, Tensor], model_cfg: ModelConfig,
                     windows: np.ndarray) -> float:
    """Mean next-token cross-entropy over precut windows; no updates.

    The loss computes the output head in row blocks, so a chunk holds no
    [EVAL_CHUNK * L, V] logits array.
    """
    total = 0.0
    tokens = 0
    with no_grad():
        for i in range(0, len(windows), EVAL_CHUNK):
            chunk = windows[i: i + EVAL_CHUNK]
            inputs = chunk[:, :-1]
            loss = batch_loss(params, model_cfg, inputs, chunk[:, 1:])
            total += float(loss.data) * inputs.size
            tokens += inputs.size
    return total / tokens


def evaluate_held_out(ckpt: Checkpoint, patches: PatchSet) -> float:
    """Held-out mean cross-entropy of a patch set under a checkpoint."""
    sequences = tokenize_patches(patches, ckpt.vocab, ckpt.train.flatten_error,
                                 ckpt.train.max_move_len)
    windows = stream_windows(sequences, ckpt.model.seq_len)
    return eval_stream_loss(ckpt.param_tensors(), ckpt.model, windows)


def heldout_patch_set(ckpt: Checkpoint, image: StrokeImage) -> PatchSet:
    """Regenerate the held-out patch set a training run used."""
    return patch_set(image, ckpt.train, ckpt.train.heldout_patches, SEED_HELDOUT)
