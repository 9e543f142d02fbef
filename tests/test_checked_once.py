"""Deferred finite checks (``autodiff.checked_once``) against the per-op path
they replace.

``encoder_forward`` and ``batch_loss`` run their forward with op outputs
unchecked, check the result once and, on a failure, replay with every op
checked. The per-op path stays the oracle: under ``per_op`` both call
``checked_once``'s ``run`` directly, so every op checks its output as before.
Each case provokes a NaN, +inf or -inf at one of the four places where an op
can hide one (the feed-forward pre-activation, the attention scores, the
layer-norm variance and the pair-form logits), or puts a NaN in a parameter
of each sub-layer. Every path must raise the oracle's message and warnings
and leave the parameters, the Adam state and the key/value cache as the
oracle leaves them; finite runs must give bitwise-equal logits, losses and
gradients.
"""

from __future__ import annotations

import contextlib
import math
import warnings

import numpy as np
import pytest

from strokegen import autodiff, model, training
from strokegen.autodiff import NonFiniteError, Tensor, no_grad
from strokegen.model import KVCache, ModelConfig, encoder_forward
from strokegen.sampling import SamplerConfig, generate_images
from strokegen.tokenizer import IMAGE_END, Vocabulary, build_vocabulary
from strokegen.training import (
    Checkpoint,
    TrainConfig,
    batch_loss,
    derived_rng,
    eval_stream_loss,
    init_adam_state,
    train_step,
)

VOCAB = Vocabulary(1)  # 17 ids; the last, IMAGE_END, is never a target here
SIZES = dict(d_model=8, n_layers=2, n_heads=2, d_ff=16)
CFG = ModelConfig(vocab_size=VOCAB.size, seq_len=8, **SIZES)
TRAIN = TrainConfig(max_move_len=1, warmup_steps=4, seq_ceiling=8, **SIZES)
BASE = {k: p.data for k, p in model.init_encoder_params(
    CFG, np.random.default_rng(0)).items()}
HIDDEN = VOCAB.image_end_id  # the logit column the logits case poisons
FULL_VOCAB = build_vocabulary([[IMAGE_END]])  # the closed grid, 1 921 ids

# windows start with an even id: only odd ids get the scores case's key
IDS = np.array([[2, 5, 8, 3, 0, 11, 7, 4],
                [6, 1, 9, 12, 13, 4, 15, 10]])
LONG = np.array([[2, 4, 6, 5, 8, 3, 0, 11, 7, 9, 1],
                 [6, 0, 10, 1, 9, 12, 13, 4, 15, 10, 3]])
WINDOWS = np.concatenate((LONG[:, :9], LONG[:, 2:]))


@contextlib.contextmanager
def per_op():
    """The oracle: every op checks its output, and nothing is replayed."""
    with pytest.MonkeyPatch.context() as m:
        for module in (model, training):
            m.setattr(module, "checked_once", lambda run: run())
        yield


def tensors(weights, grad=False):
    return {k: Tensor(v.copy(), requires_grad=grad) for k, v in weights.items()}


# ---------------------------------------------------------------------------
# the provoked values, each a change to a copy of BASE
# ---------------------------------------------------------------------------

def preactivation(w, value):
    """Column 3 of layer0.ff's x @ w1 + b1 is ``value``."""
    w["layer0.ff.b1"][3] = value


def scores(w, value):
    """layer0.attn0's head-0 scores at the keys of odd ids are -inf or +inf
    through a float32 overflow (a NaN key weight makes every score NaN).

    Column 0 of the layer's input is about 1e15 at odd ids and 1.8 to 3.8 at
    even ones. The keys' column 0 is 1e24 times it, with the sign of
    ``-value``, and the queries' column 0 is small and negative, so only the
    products with an odd id's key overflow, to ``value``.
    """
    w["embedding"][:, 0] = 1.0
    w["embedding"][1::2, 0] = 1e15 / math.sqrt(CFG.d_model)
    w["layer0.attn0.wq"][:, 0] = 0.0
    w["layer0.attn0.wq"][0, 0] = -1e-15
    w["layer0.attn0.wk"][:, 0] = 0.0
    w["layer0.attn0.wk"][0, 0] = (-1e24 * np.sign(value) if np.isinf(value)
                                  else value)


def variance(w, value):
    """layer1.ff's x + y carries ``value`` in column 0, or for +inf a finite
    1e20 whose square overflows: its variance is then +inf, and the
    normalized values 0."""
    w["layer1.ff.b2"][0] = 1e20 if value == np.inf else value


def logits(w, value):
    """The head's logits column HIDDEN is ``value``: the last layer norm
    makes hidden column 0 exactly 1 and the rest of the column is 0."""
    w["layer1.ff.norm_gain"][0] = 0.0
    w["layer1.ff.norm_bias"][0] = 1.0
    w["output.w"][:, HIDDEN] = 0.0
    w["output.w"][0, HIDDEN] = value


def nan_parameter(name):
    def poison(w, value):
        w[name].flat[0] = value
    poison.__name__ = name
    return poison


CASES = [pytest.param(poison, value, id=f"{poison.__name__}-{value}")
         for poison in (preactivation, scores, variance, logits)
         for value in (np.nan, np.inf, -np.inf)] + [
    pytest.param(nan_parameter(name), np.nan, id=f"nan-{name}")
    for name in ("embedding", "layer0.attn0.wq", "layer0.attn1.norm_gain",
                 "layer0.ff.w2", "layer1.attn0.wo", "layer1.attn1.wk",
                 "layer1.ff.b1", "output.w")]


def poisoned(poison, value):
    weights = {k: v.copy() for k, v in BASE.items()}
    poison(weights, value)
    return weights


# ---------------------------------------------------------------------------
# the paths, each recording what it leaves behind in ``state``
# ---------------------------------------------------------------------------

def attempt(call):
    """call()'s result, or the message of its NonFiniteError."""
    try:
        return call()
    except NonFiniteError as exc:
        return f"NonFiniteError: {exc}"


def no_cache(weights, state):
    return encoder_forward(IDS, tensors(weights, grad=True), CFG).data


def cached_steps(weights, state, warm, steps):
    """Clean steps over the windows ``warm``, then poisoned ones over
    ``steps``, each poisoned step's outcome with the cache it leaves."""
    clean, params = tensors(BASE), tensors(weights)
    cache = state["cache"] = KVCache()
    out = []
    with no_grad():
        for ids in warm:
            encoder_forward(ids, clean, CFG, cache=cache)
        for ids in steps:
            out.append(attempt(lambda: encoder_forward(
                ids, params, CFG, cache=cache).data))
            out.append(cache_state(cache))
    return out


def growing_cache(weights, state):
    # refill, extend; then extend, extend, and a refill after a failure
    return cached_steps(weights, state, [IDS[:, :3], IDS[:, :4]],
                        [IDS[:, :5], IDS[:, :6], IDS[:, :7]])


def sliding_window(weights, state):
    return cached_steps(weights, state, [LONG[:, :6], LONG[:, :7]],
                        [LONG[:, s: s + CFG.seq_len] for s in range(3)])


def step(weights, state):
    params = state["params"] = tensors(weights, grad=True)
    adam = state["adam"] = init_adam_state(params)
    return [train_step(params, adam, CFG, TRAIN, WINDOWS[:2, :-1],
                       WINDOWS[:2, 1:]) for _ in range(2)]


def evaluate(weights, state):
    return eval_stream_loss(tensors(weights), CFG, WINDOWS)


def sample(weights, state):
    ckpt = Checkpoint(model=CFG, train=TRAIN, vocab=VOCAB, params=weights,
                      epoch=0, loss_history=[], rng_state={})
    return [r.token_ids for r in generate_images(
        ckpt, SamplerConfig(k=3, max_moves=10, seed=2), 2)]


PATHS = [no_cache, growing_cache, sliding_window, step, evaluate, sample]


def cache_state(cache):
    buffer = cache.buffer
    return cache.length, None if buffer is None else buffer[
        ..., :cache.length, :].copy()


def frozen(x):
    """``x`` as nested tuples of bytes, comparable with ==, bit for bit."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, Tensor):
        return frozen(x.data), frozen(x.grad)
    if isinstance(x, KVCache):
        return frozen(cache_state(x))
    if isinstance(x, training.AdamState):
        return x.step, frozen(x.m), frozen(x.v)
    if isinstance(x, dict):
        return tuple((k, frozen(v)) for k, v in sorted(x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(frozen(v) for v in x)
    if isinstance(x, float):
        return np.float64(x).tobytes()
    return x


def outcome(path, weights):
    """What ``path`` returns or raises, what it leaves in its state and the
    warnings it emits, frozen."""
    state = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = attempt(lambda: path(weights, state))
    return frozen(result), frozen(state), [
        (w.category, str(w.message)) for w in caught]


def raised(frozen_result) -> bool:
    if isinstance(frozen_result, str):
        return frozen_result.startswith("NonFiniteError")
    return isinstance(frozen_result, tuple) and any(map(raised, frozen_result))


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("poison, value", CASES)
def test_deferred_checks_fail_as_the_per_op_path(path, poison, value):
    weights = poisoned(poison, value)
    with per_op():
        expected = outcome(path, weights)
    assert raised(expected[0])
    assert outcome(path, weights) == expected


@pytest.mark.parametrize("path", PATHS)
def test_finite_runs_equal_the_per_op_path_bitwise(path):
    with per_op():
        expected = outcome(path, BASE)
    assert not raised(expected[0])
    assert outcome(path, BASE) == expected


@pytest.mark.parametrize("poison, value, path", [
    (preactivation, -np.inf, no_cache),
    (scores, -np.inf, no_cache),
    (variance, np.inf, no_cache),
    (logits, -np.inf, evaluate),
])
def test_each_provoked_value_vanishes_without_its_check(monkeypatch, poison,
                                                        value, path):
    # the cases test the four checks: without them each run ends finite
    for name in ("_check_finite", "_check_masked"):
        monkeypatch.setattr(autodiff, name, lambda *args: None)
    with np.errstate(over="ignore", invalid="ignore"):
        result = path(poisoned(poison, value), {})
    assert np.isfinite(result).all()


@pytest.mark.parametrize("poison, value", [
    (scores, np.inf), (scores, -np.inf), (variance, np.inf)])
@pytest.mark.parametrize("path", [no_cache, step])
def test_a_provoked_overflow_warns_as_the_per_op_path(poison, value, path):
    # under the suite's filterwarnings = error::RuntimeWarning the first
    # overflow raises; the deferred run, which ignores it, adds none
    weights = poisoned(poison, value)
    with per_op(), pytest.raises(RuntimeWarning) as expected:
        path(weights, {})
    with pytest.raises(RuntimeWarning) as got:
        path(weights, {})
    assert str(got.value) == str(expected.value)
    assert "overflow" in str(got.value)


def test_a_finite_loss_scans_only_the_variances(monkeypatch):
    checked = []
    check = autodiff._check_finite

    def counting_check(arr, op, what="output", shape=None):
        checked.append((op, what))
        check(arr, op, what, shape)

    monkeypatch.setattr(autodiff, "_check_finite", counting_check)
    training.batch_loss(tensors(BASE, grad=True), CFG, WINDOWS[:, :-1],
                        WINDOWS[:, 1:])
    norms = CFG.n_layers * (CFG.attn_sublayers + 1)
    assert checked == [("add_layer_norm", "variance of x + y")] * norms


@pytest.mark.parametrize("sizes, seq_len", [
    (dict(d_model=32, n_layers=2, n_heads=4, d_ff=256), 64),
    (dict(d_model=52, n_layers=6, n_heads=4, d_ff=2048), 119),
], ids=["desk", "full"])
def test_desk_and_full_shapes_equal_the_per_op_path_bitwise(sizes, seq_len):
    cfg = ModelConfig(vocab_size=FULL_VOCAB.size, seq_len=seq_len, **sizes)
    weights = {k: p.data for k, p in model.init_encoder_params(
        cfg, derived_rng(7, 3)).items()}
    windows = np.random.default_rng(8).integers(
        0, FULL_VOCAB.size, (3, seq_len + 1))

    def run(weights, state):
        params = state["params"] = tensors(weights, grad=True)
        logits = encoder_forward(windows[:, :-1], params, cfg).data
        loss = batch_loss(params, cfg, windows[:, :-1], windows[:, 1:])
        loss.backward()
        cache = state["cache"] = KVCache()
        with no_grad():
            cached = [encoder_forward(windows[:, :length], params, cfg,
                                      cache=cache).data
                      for length in (seq_len - 2, seq_len - 1, seq_len)]
        return logits, loss.data, cached

    with per_op():
        expected = outcome(run, weights)
    assert outcome(run, weights) == expected


def test_a_failed_cached_step_keeps_the_cache_and_the_next_extends_it():
    params = tensors(BASE)
    cache = KVCache()
    with no_grad():
        for length in (4, 5):
            encoder_forward(IDS[:, :length], params, CFG, cache=cache)
        before = cache.buffer
        kept = before[..., :5, :].copy()
        clean = params["layer1.ff.w2"]
        params["layer1.ff.w2"] = Tensor(clean.data.copy())
        params["layer1.ff.w2"].data.flat[0] = np.nan
        with pytest.raises(NonFiniteError) as failed:
            encoder_forward(IDS[:, :6], params, CFG, cache=cache)
        assert str(failed.value) == (
            "layer1.ff: feed_forward produced non-finite values in its "
            "output of shape (2, 1, 8); non-finite parameters: layer1.ff.w2")
        assert cache.length == 5 and cache.buffer is before
        assert before[..., :5, :].tobytes() == kept.tobytes()

        params["layer1.ff.w2"] = clean
        got = encoder_forward(IDS[:, :6], params, CFG, cache=cache).data
        assert cache.length == 6 and cache.buffer is before
        full = encoder_forward(IDS[:, :6], params, CFG).data
    np.testing.assert_allclose(got, full[:, -1:], rtol=0, atol=1e-5)
