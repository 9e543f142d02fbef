"""Lockstep sampling and the cached last-position forward against the paths
they replace.

``oracle_sample`` is the per-image loop that sampling ran before images were
batched: one full-window, batch-1 ``encoder_forward`` per token, of which
only the last position's logits are read. Lockstep sampling must give the
same token ids, moves and cap flags, and ``encoder_forward(...,
cache=KVCache())`` must give the full window's last logits within float32
rounding, whether it extends its cache, refills it or, at a full window,
keeps nothing.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from strokegen import model, sampling
from strokegen.autodiff import NonFiniteError, Tensor, no_grad
from strokegen.model import (
    KVCache,
    ModelConfig,
    encoder_forward,
    init_encoder_params,
)
from strokegen.sampling import (
    SamplerConfig,
    generate_images,
    make_init_vector,
    top_k_sample,
)
from strokegen.tokenizer import IMAGE_END, build_vocabulary, decode
from strokegen.training import (
    SEED_INIT,
    SEED_SAMPLING,
    Checkpoint,
    TrainConfig,
    derived_rng,
)

VOCAB = build_vocabulary([[IMAGE_END]])  # the closed grid at max_move_len 15
DESK = dict(d_model=32, n_layers=2, n_heads=4, d_ff=256)
FULL = dict(d_model=52, n_layers=6, n_heads=4, d_ff=2048)
FULL_SEQ_LEN = 119  # the window of the full-scale sampling benchmark


def oracle_sample(ckpt: Checkpoint, cfg: SamplerConfig, index: int):
    """Image ``index`` by the per-image full-window loop:
    (token ids, moves, hit_cap)."""
    vocab, model_cfg = ckpt.vocab, ckpt.model
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
            token = top_k_sample(logits, cfg.k, rng)
            generated.append(token)
            context.append(token)
            if token == vocab.image_end_id:
                break
    return generated, decode(generated, vocab), hit_cap


def assert_same_images(results, expected):
    assert len(results) == len(expected)
    for i, (r, (ids, moves, hit_cap)) in enumerate(zip(results, expected)):
        assert r.token_ids == ids, f"image {i}"
        assert np.array_equal(r.moves, moves), f"image {i}"
        assert r.hit_cap == hit_cap, f"image {i}"


@pytest.fixture(scope="module")
def full_ckpt():
    """Full-scale initial weights, as the sampling benchmark builds them."""
    model_cfg = ModelConfig(vocab_size=VOCAB.size, seq_len=FULL_SEQ_LEN,
                            **FULL)
    params = init_encoder_params(model_cfg, derived_rng(81, SEED_INIT))
    return Checkpoint(model=model_cfg, train=TrainConfig(seed=81, **FULL),
                      vocab=VOCAB, params={k: p.data for k, p in params.items()},
                      epoch=0, loss_history=[], rng_state={})


# ---------------------------------------------------------------------------
# encoder_forward(..., cache=KVCache()) from an empty cache
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("double", [True, False])
@pytest.mark.parametrize("sizes, seq_len", [(DESK, 64), (FULL, FULL_SEQ_LEN)],
                         ids=["desk", "full"])
def test_last_only_logits_match_the_full_window(sizes, seq_len, double):
    cfg = ModelConfig(vocab_size=VOCAB.size, seq_len=seq_len,
                      double_attention=double, **sizes)
    params = init_encoder_params(cfg, np.random.default_rng(seq_len))
    rng = np.random.default_rng(1)
    for length in (1, seq_len // 2, seq_len):
        for ids in (rng.integers(0, VOCAB.size, (3, length)),
                    rng.integers(0, VOCAB.size, length)):
            with no_grad():
                full = encoder_forward(ids, params, cfg).data
                last = encoder_forward(ids, params, cfg,
                                      cache=KVCache()).data
            assert last.shape == ids.shape[:-1] + (1, VOCAB.size)
            np.testing.assert_allclose(last, full[..., -1:, :], rtol=0,
                                       atol=1e-5, err_msg=f"length {length}")


def test_last_only_under_a_tape_raises():
    cfg = ModelConfig(vocab_size=VOCAB.size, seq_len=8, **DESK)
    params = init_encoder_params(cfg, np.random.default_rng(0))
    with pytest.raises(ValueError, match="no_grad"):
        encoder_forward(np.arange(8), params, cfg, cache=KVCache())


# ---------------------------------------------------------------------------
# encoder_forward(..., cache=KVCache()) over a growing window
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("double", [True, False])
@pytest.mark.parametrize("sizes, seq_len", [(DESK, 64), (FULL, FULL_SEQ_LEN)],
                         ids=["desk", "full"])
def test_cached_steps_match_the_full_window(sizes, seq_len, double):
    cfg = ModelConfig(vocab_size=VOCAB.size, seq_len=seq_len,
                      double_attention=double, **sizes)
    params = init_encoder_params(cfg, np.random.default_rng(seq_len))
    ids = np.random.default_rng(2).integers(0, VOCAB.size, (3, seq_len))
    drop_at = 3 * seq_len // 4  # row 1 leaves the batch mid-growth
    cache = KVCache()
    with no_grad():
        for length in range(seq_len // 2, seq_len + 1):
            if length == drop_at:
                going = np.array([True, False, True])
                cache.keep(going)
                ids = ids[going]
            window = ids[:, :length]
            cached = encoder_forward(window, params, cfg, cache=cache).data
            full = encoder_forward(window, params, cfg).data
            assert cache.length == (length if length < seq_len else 0)
            assert cached.shape == (len(ids), 1, VOCAB.size)
            np.testing.assert_allclose(cached, full[:, -1:], rtol=0,
                                       atol=1e-5, err_msg=f"length {length}")


def test_a_window_the_cache_cannot_extend_runs_in_full():
    cfg = ModelConfig(vocab_size=VOCAB.size, seq_len=8, **DESK)
    params = init_encoder_params(cfg, np.random.default_rng(0))
    ids = np.random.default_rng(4).integers(0, VOCAB.size, (2, 8))
    with pytest.raises(ValueError, match="no_grad"):
        encoder_forward(ids, params, cfg, cache=KVCache())
    cache = KVCache()
    with no_grad():
        full = {length: encoder_forward(ids[:, :length], params,
                                        cfg).data[:, -1:]
                for length in (4, 6, 7, 8)}
        # 6 neither extends a cache of 4 nor fills the window: it refills,
        # and 7 extends the refilled cache; a window of 8 leaves the cache
        # empty, whether it extended the cache or ran in full
        for length, held, extends in ((4, 4, False), (6, 6, False),
                                      (7, 7, True), (8, 0, False),
                                      (8, 0, False), (8, 0, False)):
            before = cache.buffer
            last = encoder_forward(ids[:, :length], params, cfg,
                                   cache=cache).data
            assert cache.length == held, f"length {length}"
            assert (before is not None
                    and cache.buffer is before) == extends, f"length {length}"
            np.testing.assert_allclose(last, full[length], rtol=0,
                                       atol=1e-5, err_msg=f"length {length}")
        assert cache.buffer is None


@pytest.mark.parametrize("length", [8, 6], ids=["full-window", "extend"])
def test_a_taped_call_with_a_cache_refuses_before_any_work(monkeypatch,
                                                           length):
    cfg = ModelConfig(vocab_size=VOCAB.size, seq_len=8, **DESK)
    params = init_encoder_params(cfg, np.random.default_rng(0))
    ids = np.random.default_rng(4).integers(0, VOCAB.size, (2, 8))
    cache = KVCache()
    with no_grad():
        encoder_forward(ids[:, :5], params, cfg, cache=cache)
    buffer, attention = cache.buffer, model.multi_head_attention
    calls = []

    def counting_attention(*args, **kwargs):
        calls.append(kwargs)
        return attention(*args, **kwargs)

    monkeypatch.setattr(model, "multi_head_attention", counting_attention)
    with pytest.raises(ValueError, match="no_grad"):
        encoder_forward(ids[:, :length], params, cfg, cache=cache)
    assert calls == []
    assert cache.length == 5 and cache.buffer is buffer


@pytest.mark.parametrize("param, where", [
    ("ff.w1", "ff"),
    ("attn{last}.wq", "attn{last}"),
])
def test_nan_in_a_cached_step_is_named(full_ckpt, param, where):
    cfg = full_ckpt.model
    last_layer, last_attn = cfg.n_layers - 1, cfg.attn_sublayers - 1
    params = full_ckpt.param_tensors()
    ids = np.random.default_rng(3).integers(0, VOCAB.size, (2, 60))
    cache = KVCache()
    with no_grad():
        encoder_forward(ids[:, :59], params, cfg, cache=cache)
        name = f"layer{last_layer}." + param.format(last=last_attn)
        poisoned = params[name].data.copy()
        poisoned[0, 0] = np.nan
        params[name] = Tensor(poisoned)
        expected = f"layer{last_layer}." + where.format(last=last_attn) + ":"
        with pytest.raises(NonFiniteError, match="^" + re.escape(expected)):
            encoder_forward(ids, params, cfg, cache=cache)


# ---------------------------------------------------------------------------
# lockstep generate_images
# ---------------------------------------------------------------------------

COUNT = 6


def test_lockstep_matches_the_oracle_on_the_micro_checkpoint(micro_ckpt):
    ended = capped = 0
    for seed in range(5):
        for k in (1, 3, 10):
            cfg = SamplerConfig(k=k, seed=seed)
            results = generate_images(micro_ckpt, cfg, COUNT)
            assert_same_images(results, [oracle_sample(micro_ckpt, cfg, i)
                                         for i in range(COUNT)])
            capped += sum(r.hit_cap for r in results)
            ended += sum(not r.hit_cap for r in results)
    # both ways of leaving the batch are exercised
    assert ended > 0 and capped > 0, (ended, capped)


@pytest.mark.parametrize("extra", [0, 3], ids=["init_len=L", "init_len=L+3"])
def test_lockstep_matches_the_oracle_with_a_sliding_window(full_ckpt, extra):
    seq_len = full_ckpt.model.seq_len
    cfg = SamplerConfig(k=10, seed=3, init_len=seq_len + extra, max_moves=5)
    results = generate_images(full_ckpt, cfg, 3)
    assert_same_images(results, [oracle_sample(full_ckpt, cfg, i)
                                 for i in range(3)])


def test_lockstep_matches_the_oracle_from_growth_into_the_slide(full_ckpt):
    # the default init_len is L // 2: the cached steps run until the window
    # reaches L, and the full-window steps after it
    seq_len = full_ckpt.model.seq_len
    cfg = SamplerConfig(k=10, seed=5, max_moves=64)
    assert cfg.resolve(seq_len)[0] + cfg.max_moves > seq_len + 1
    results = generate_images(full_ckpt, cfg, 3)
    assert_same_images(results, [oracle_sample(full_ckpt, cfg, i)
                                 for i in range(3)])


def test_the_cache_serves_the_growing_steps_only(full_ckpt, monkeypatch):
    # default init_len L // 2 and max_moves 4 L: one prefill, L - L // 2
    # single-position steps, then full windows that keep no keys
    cfg = full_ckpt.model
    sublayers = cfg.n_layers * cfg.attn_sublayers
    forward, attention = sampling.encoder_forward, model.multi_head_attention
    positions: list[int] = []  # positions entering each attention sub-layer
    cached: list[int] = []  # cache.length after each step

    def counting_attention(x, *args, **kwargs):
        positions.append(x.data.shape[-2])
        return attention(x, *args, **kwargs)

    def recording_forward(*args, cache, **kwargs):
        logits = forward(*args, cache=cache, **kwargs)
        cached.append(cache.length)
        return logits

    monkeypatch.setattr(model, "multi_head_attention", counting_attention)
    monkeypatch.setattr(sampling, "encoder_forward", recording_forward)
    result, = generate_images(full_ckpt, SamplerConfig(k=10, seed=6), 1)
    seq_len, half = cfg.seq_len, cfg.seq_len // 2
    assert result.hit_cap and len(cached) == 4 * seq_len == 476
    growing = seq_len - half
    assert growing == 60
    assert positions[::sublayers] == ([half] + [1] * growing + [seq_len] * (
        len(cached) - 1 - growing))
    assert len(positions) == len(cached) * sublayers
    assert cached == list(range(half, seq_len)) + [0] * (
        len(cached) - growing)


def test_the_grid_drops_its_cache_once_the_windows_are_full(micro_ckpt,
                                                            monkeypatch):
    # the step that fills the windows extends the cache; the sliding steps
    # after it start from an empty one, so none holds keys it cannot use
    seq_len, forward = micro_ckpt.model.seq_len, sampling.encoder_forward
    entered: list[tuple[int, int, bool]] = []  # window, length, buffer held

    def recording_forward(windows, *args, cache, **kwargs):
        entered.append((windows.shape[-1], cache.length,
                        cache.buffer is not None))
        return forward(windows, *args, cache=cache, **kwargs)

    monkeypatch.setattr(sampling, "encoder_forward", recording_forward)
    generate_images(micro_ckpt, SamplerConfig(k=3, seed=0), 2)
    full = [(length, held) for window, length, held in entered
            if window == seq_len]
    assert full[0] == (seq_len - 1, True)
    assert len(full) > 1 and set(full[1:]) == {(0, False)}


def test_first_images_do_not_depend_on_count(micro_ckpt):
    cfg = SamplerConfig(k=3, seed=9)
    five = generate_images(micro_ckpt, cfg, 5)
    two = generate_images(micro_ckpt, cfg, 2)
    assert_same_images(five[:2], [(r.token_ids, r.moves, r.hit_cap)
                                  for r in two])
    one = generate_images(micro_ckpt, cfg, 1)[0]
    assert_same_images([one], [(five[0].token_ids, five[0].moves,
                                five[0].hit_cap)])


def test_one_forward_per_step_and_one_draw_per_active_image(micro_ckpt,
                                                            monkeypatch):
    forward, draw = sampling.encoder_forward, sampling.top_k_sample
    batches: list[int] = []
    draws = []

    def counting_forward(ids, *args, **kwargs):
        batches.append(len(ids))
        return forward(ids, *args, **kwargs)

    def counting_draw(*args):
        draws.append(1)
        return draw(*args)

    monkeypatch.setattr(sampling, "encoder_forward", counting_forward)
    monkeypatch.setattr(sampling, "top_k_sample", counting_draw)
    results = generate_images(micro_ckpt, SamplerConfig(k=10, seed=2), COUNT)
    lengths = [len(r.token_ids) for r in results]
    assert len(set(lengths)) > 1  # the batch shrinks as images end
    assert len(batches) == max(lengths)
    # step s runs the images that have not ended before it
    assert batches == [sum(n > s for n in lengths)
                       for s in range(max(lengths))]
    assert len(draws) == sum(lengths)


# ---------------------------------------------------------------------------
# non-finite values in the trimmed layer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ckpt_name", ["micro_ckpt", "full_ckpt"])
@pytest.mark.parametrize("param, where", [
    ("ff.w1", "ff"),
    ("attn{last}.wq", "attn{last}"),
])
def test_nan_in_the_last_layer_is_named(ckpt_name, param, where, request):
    ckpt = request.getfixturevalue(ckpt_name)
    last_layer = ckpt.model.n_layers - 1
    last_attn = ckpt.model.attn_sublayers - 1
    name = f"layer{last_layer}." + param.format(last=last_attn)
    poisoned = ckpt.params[name].copy()
    poisoned[0, 0] = np.nan
    ckpt = dataclasses.replace(ckpt, params={**ckpt.params, name: poisoned})
    expected = f"layer{last_layer}." + where.format(last=last_attn) + ":"
    with pytest.raises(NonFiniteError, match="^" + re.escape(expected)):
        generate_images(ckpt, SamplerConfig(k=3, seed=0, max_moves=4), 2)
