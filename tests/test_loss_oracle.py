"""The pair form of cross_entropy against its public-op composition.

``cross_entropy((h, w), targets)`` computes the output head inside the loss.
The composition ``cross_entropy(matmul(h, w), targets)`` is the kept
reference. With a tape, the loss and both gradients must equal it bitwise.
Without one, the loss must equal it at the evaluation shapes training and
the benchmark use, and no [N, V] array may be held. A whole ``train()`` run
must write the checkpoint bytes of the same run with the loss composed from
the full-logits forward.
"""

import contextlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from strokegen import autodiff, training
from strokegen.autodiff import (
    NonFiniteError,
    Tensor,
    cross_entropy,
    matmul,
    no_grad,
)
from strokegen.demo import make_demo_image
from strokegen.model import ModelConfig, encoder_forward, init_encoder_params

from conftest import (
    MICRO_TRAIN,
    finite_difference_grad,
    micro_image,
    relative_grad_error,
)

V = 1921  # the closed move grid at max_move_len 15
BLOCK = autodiff._CE_BLOCK_VALUES // V  # rows per cross_entropy block at V
DESK_EVAL = ModelConfig(vocab_size=V, seq_len=64, d_model=32, n_layers=2,
                        n_heads=4, d_ff=256)


def operands(lead, d, v=V, dtype=np.float32, seed=0):
    """Hidden states [*lead, d], an output weight [d, v] and target ids."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(lead + (d,)).astype(dtype)
    w = (rng.standard_normal((d, v)) * 2 / math.sqrt(d)).astype(dtype)
    return h, w, rng.integers(0, v, lead)


def taped(loss_of, h, w, targets):
    """(loss, dh, dw) of ``loss_of(h, w)`` after one backward."""
    ht = Tensor(h.copy(), requires_grad=True)
    wt = Tensor(w.copy(), requires_grad=True)
    loss = loss_of(ht, wt)
    loss.backward()
    return loss.data, ht.grad, wt.grad


def pair_loss(targets):
    return lambda h, w: cross_entropy((h, w), targets)


def reference_loss(targets):
    return lambda h, w: cross_entropy(matmul(h, w), targets)


def assert_same_bits(a, b, what):
    assert a.dtype == b.dtype and a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), what


# -- with a tape: bitwise equal to the composition -------------------------------

@pytest.mark.parametrize("lead, d", [
    pytest.param((10, 64), 32, id="desk-step"),
    pytest.param((25, 119), 52, id="full-step"),
    pytest.param((BLOCK - 1,), 32, id="block-1"),
    pytest.param((BLOCK + 1,), 32, id="block+1"),
    # fixed-size blocks would leave a last block of one row here
    pytest.param((3 * BLOCK + 1,), 32, id="3block+1"),
    pytest.param((1,), 32, id="one-row"),
])
def test_taped_loss_and_gradients_equal_the_composition_bitwise(lead, d):
    h, w, targets = operands(lead, d)
    got = taped(pair_loss(targets), h, w, targets)
    want = taped(reference_loss(targets), h, w, targets)
    for a, b, what in zip(got, want, ("loss", "dh", "dw")):
        assert_same_bits(a, b, what)
    assert got[1].shape == h.shape and got[2].shape == w.shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_taped_result_does_not_depend_on_the_block_size(dtype, monkeypatch):
    h, w, targets = operands((4, 7), 6, v=37, dtype=dtype, seed=1)
    # 28 rows in ten blocks of 2 or 3 rows
    monkeypatch.setattr(autodiff, "_CE_BLOCK_VALUES", 3 * 37)
    got = taped(pair_loss(targets), h, w, targets)
    want = taped(reference_loss(targets), h, w, targets)
    for a, b, what in zip(got, want, ("loss", "dh", "dw")):
        assert_same_bits(a, b, what)


def test_gradients_match_float64_finite_differences():
    h, w, targets = operands((2, 3), 4, v=5, dtype=np.float64, seed=2)
    _, dh, dw = taped(pair_loss(targets), h, w, targets)
    numeric_h = finite_difference_grad(
        lambda x: float(cross_entropy((Tensor(x), Tensor(w)), targets).data),
        h.copy())
    numeric_w = finite_difference_grad(
        lambda x: float(cross_entropy((Tensor(h), Tensor(x)), targets).data),
        w.copy())
    assert relative_grad_error(dh, numeric_h) < 1e-4
    assert relative_grad_error(dw, numeric_w) < 1e-4


def test_only_the_tensors_that_need_a_gradient_get_one():
    h, w, targets = operands((3, 4), 6, v=11, seed=3)
    ht, wt = Tensor(h), Tensor(w, requires_grad=True)
    loss = cross_entropy((ht, wt), targets)
    loss.backward()
    assert ht.grad is None and wt.grad.shape == w.shape
    assert loss.requires_grad and loss._parents == (ht, wt)


def test_the_pair_loss_is_one_node_fewer_than_the_composition():
    config = ModelConfig(vocab_size=7, seq_len=5, d_model=8, n_layers=2,
                         n_heads=2, d_ff=16)
    params = init_encoder_params(config, np.random.default_rng(4))
    ids = np.random.default_rng(5).integers(0, 7, (2, 5))

    def nodes(loss):
        stack, seen = [loss], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen and node._backward_fn is not None:
                seen.add(id(node))
                stack.extend(node._parents)
        return len(seen)

    hidden = encoder_forward(ids, params, config, head=False)
    assert hidden.shape == (2, 5, 8)
    pair = cross_entropy((hidden, params["output.w"]), ids)
    composed = cross_entropy(encoder_forward(ids, params, config), ids)
    assert nodes(pair) == nodes(composed) - 1 == 3 + 2 * (2 * 2 + 2) + 1


# -- without a tape: the loss of the evaluation shapes, and the memory held -------

@pytest.mark.parametrize("lead, d", [
    pytest.param((100, 64), 32, id="desk-eval-chunk"),
    pytest.param((63, 64), 32, id="desk-eval-last-chunk"),
    pytest.param((17, 119), 52, id="sample-full-eval-seed1"),
    pytest.param((18, 119), 52, id="sample-full-eval-seed921"),
])
def test_no_grad_loss_equals_the_composition_at_eval_shapes(lead, d):
    h, w, targets = operands(lead, d, seed=6)
    want = taped(reference_loss(targets), h, w, targets)[0]
    with no_grad():
        got = cross_entropy((Tensor(h, requires_grad=True),
                             Tensor(w, requires_grad=True)), targets)
        reference = cross_entropy(matmul(Tensor(h), Tensor(w)), targets)
    assert got._backward_fn is None and not got.requires_grad
    assert_same_bits(got.data, reference.data, "no-grad composition")
    assert_same_bits(got.data, want, "taped composition")


def test_no_grad_loss_with_many_small_blocks_is_close(monkeypatch):
    # blocks of two or three rows may take BLAS kernels that round the
    # product differently from the whole one: equal to float32 rounding
    h, w, targets = operands((5, 6), 8, v=37, seed=7)
    monkeypatch.setattr(autodiff, "_CE_BLOCK_VALUES", 3 * 37)
    with no_grad():
        got = cross_entropy((Tensor(h), Tensor(w)), targets)
    want = taped(reference_loss(targets), h, w, targets)[0]
    np.testing.assert_allclose(got.data, want, rtol=1e-6)


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_grad_loss_holds_about_one_block():
    h, w, targets = operands((100, 64), 32, seed=8)
    logits_bytes = 6400 * V * 4
    ht, wt = Tensor(h), Tensor(w)
    with no_grad():
        peak = peak_bytes(lambda: cross_entropy((ht, wt), targets))
    assert peak < logits_bytes
    # the scratch block is 512 KB; the per-row arrays are tens of KB
    assert peak < 4 * autodiff._CE_BLOCK_VALUES * 4


def test_eval_chunk_holds_less_than_one_logits_array():
    params = init_encoder_params(DESK_EVAL, np.random.default_rng(9))
    windows = np.random.default_rng(10).integers(0, V, (100, 65))
    peak = peak_bytes(
        lambda: training.eval_stream_loss(params, DESK_EVAL, windows))
    assert peak < 6400 * V * 4


# -- errors ---------------------------------------------------------------------

@pytest.mark.parametrize("grad", [True, False], ids=["taped", "no-grad"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["w", "h"])
def test_non_finite_logits_name_the_op_the_logits_and_their_shape(
        grad, bad, where, monkeypatch):
    h, w, targets = operands((2, 9), 4, v=37, seed=11)
    # several blocks, with the bad value past the first one
    monkeypatch.setattr(autodiff, "_CE_BLOCK_VALUES", 4 * 37)
    if where == "w":
        w[1, 30] = bad
    else:
        h[1, 7, 2] = bad
    ht, wt = Tensor(h, requires_grad=True), Tensor(w, requires_grad=True)
    message = (r"cross_entropy produced non-finite values in its logits "
               r"h @ w of shape \(2, 9, 37\)")
    # an inf in h meets weights of both signs: inf - inf in the matmul
    provoked = (pytest.warns(RuntimeWarning)
                if (where, bad) == ("h", np.inf) else contextlib.nullcontext())
    with provoked, pytest.raises(NonFiniteError, match=message):
        if grad:
            cross_entropy((ht, wt), targets)
        else:
            with no_grad():
                cross_entropy((ht, wt), targets)


def test_bad_targets_raise_value_error():
    h, w, targets = operands((2, 3), 4, v=5, seed=12)
    pair = (Tensor(h), Tensor(w))
    for bad in (targets.reshape(-1), targets.T, targets[..., None]):
        with pytest.raises(ValueError, match=r"targets must have shape \(2, 3\)"):
            cross_entropy(pair, bad)
    for bad_id in (5, -1):
        bad = targets.copy()
        bad[1, 2] = bad_id
        with pytest.raises(ValueError, match=r"target id out of range \[0, 5\)"):
            cross_entropy(pair, bad)


@pytest.mark.parametrize("h_shape, w_shape", [
    ((4,), (4, 5)),  # no leading axis
    ((2, 3, 4), (3, 5)),  # inner extents differ
    ((2, 3, 4), (4, 5, 1)),  # weight not 2-d
])
def test_bad_pair_shapes_raise_value_error(h_shape, w_shape):
    with pytest.raises(ValueError, match=r"expects \(h, w\)"):
        cross_entropy((Tensor(np.zeros(h_shape)), Tensor(np.zeros(w_shape))),
                      np.zeros(h_shape[:-1], dtype=int))


def test_second_backward_raises_and_leaves_the_gradients():
    h, w, targets = operands((3, 4), 6, v=11, seed=13)
    ht, wt = Tensor(h, requires_grad=True), Tensor(w, requires_grad=True)
    loss = cross_entropy((ht, wt), targets)
    loss.backward()
    dh, dw = ht.grad.copy(), wt.grad.copy()
    with pytest.raises(RuntimeError, match="backward already ran"):
        loss.backward()
    assert np.array_equal(ht.grad, dh) and np.array_equal(wt.grad, dw)


# -- train(): the pair form against the composed loss, one process ---------------

def composed_loss(monkeypatch):
    """Route training's step and eval back through the full-logits forward
    and ``cross_entropy(logits, targets)``, the loss before the pair form."""
    forward, loss = training.encoder_forward, training.cross_entropy

    def full_logits_forward(ids, params, cfg, *, head=True, **kwargs):
        assert head is False
        return forward(ids, params, cfg, **kwargs)

    def logits_loss(pair, targets):
        logits, w = pair
        assert logits.shape[-1] == w.shape[1]
        return loss(logits, targets)

    monkeypatch.setattr(training, "encoder_forward", full_logits_forward)
    monkeypatch.setattr(training, "cross_entropy", logits_loss)


def checkpoint_text(ckpt) -> str:
    return json.dumps(training.checkpoint_to_json(ckpt), sort_keys=True)


@pytest.mark.parametrize("image, cfg", [
    pytest.param(micro_image, MICRO_TRAIN, id="micro_ckpt"),
    pytest.param(lambda: make_demo_image("boxes"),
                 training.desk_preset(seed=3, epochs=2), id="desk-2-epochs"),
])
def test_train_checkpoint_bytes_equal_the_composed_loss(image, cfg,
                                                        monkeypatch):
    fused = training.train(image(), cfg)
    with monkeypatch.context() as m:
        composed_loss(m)
        composed = training.train(image(), cfg)
    assert fused.loss_history == composed.loss_history
    assert checkpoint_text(fused) == checkpoint_text(composed)


def test_one_forward_and_one_two_argument_loss_per_step_and_eval_chunk(
        monkeypatch):
    calls = {"forward": 0, "loss": 0}
    forward, loss = training.encoder_forward, training.cross_entropy

    def counting_forward(*args, **kwargs):
        calls["forward"] += 1
        return forward(*args, **kwargs)

    def counting_loss(*args, **kwargs):
        calls["loss"] += 1
        assert not kwargs and len(args) == 2 and isinstance(args[0], tuple)
        return loss(*args)

    monkeypatch.setattr(training, "encoder_forward", counting_forward)
    monkeypatch.setattr(training, "cross_entropy", counting_loss)
    cfg = MICRO_TRAIN
    ckpt = training.train(micro_image(), cfg)
    heldout = training.heldout_patch_set(ckpt, micro_image())
    windows = training.stream_windows(
        training.tokenize_patches(heldout, ckpt.vocab, cfg.flatten_error,
                                  cfg.max_move_len), ckpt.model.seq_len)
    chunks = -(-len(windows) // training.EVAL_CHUNK)
    expected = ckpt.rng_state["optimizer_steps"] + cfg.epochs * chunks
    assert calls == {"forward": expected, "loss": expected}
