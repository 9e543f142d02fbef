import math
import tracemalloc

import numpy as np
import pytest

from strokegen.autodiff import (
    NonFiniteError,
    Tensor,
    add,
    add_layer_norm,
    backward,
    cross_entropy,
    embedding,
    feed_forward,
    layer_norm,
    matmul,
    mul,
    multi_head_attention,
    no_grad,
    reduce_sum,
    relu,
    reshape,
    softmax,
    transpose,
)
from strokegen.model import (
    ModelConfig,
    causal_bias,
    causal_mask,
    encoder_forward,
    init_encoder_params,
    positional_encoding,
)

from conftest import (
    finite_difference_grad,
    reference_attention,
    relative_grad_error,
)

GRAD_TOL = 1e-4
H = 1e-5


def check_gradients(build_loss, *arrays):
    """FD-check d(build_loss)/d(array) for every input array, at f64."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    loss.backward()
    for i, (t, a) in enumerate(zip(tensors, arrays)):
        def scalar(x, i=i):
            inputs = [x if j == i else arrays[j] for j in range(len(arrays))]
            return float(build_loss(*(Tensor(v) for v in inputs)).data)

        numeric = finite_difference_grad(scalar, a.copy(), h=H)
        assert t.grad is not None
        err = relative_grad_error(t.grad, numeric)
        assert err < GRAD_TOL, f"input {i}: rel grad error {err}"


class TestMatmul:
    def test_identity(self):
        x = np.arange(9.0).reshape(3, 3)
        out = matmul(Tensor(np.eye(3)), Tensor(x))
        assert np.array_equal(out.data, x)

    def test_hand_example(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_gradient(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        c = rng.standard_normal((3, 2))  # fixed cotangent pattern
        check_gradients(lambda x, y: reduce_sum(mul(matmul(x, y), c)), a, b)

    def test_gradient_batched(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 3))
        c = rng.standard_normal((2, 3, 3))
        check_gradients(lambda x, y: reduce_sum(mul(matmul(x, y), c)), a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        with pytest.raises(ValueError):
            matmul(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((3, 3, 2))))


class TestElementwise:
    def test_add_broadcast_bias_gradient(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        w = rng.standard_normal((4, 3))
        check_gradients(lambda t, u: reduce_sum(mul(add(t, u), w)), x, b)

    def test_mul_gradient(self):
        rng = np.random.default_rng(3)
        check_gradients(
            lambda a, b: reduce_sum(mul(a, b)),
            rng.standard_normal((3, 3)),
            rng.standard_normal((3, 3)),
        )

    def test_relu_gradient(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 5)) * 2.0
        x[np.abs(x) < 0.05] += 0.5  # stay away from the kink
        w = rng.standard_normal((5, 5))
        check_gradients(lambda t: reduce_sum(mul(relu(t), w)), x)

    def test_reshape_transpose_gradient(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((4, 6))
        check_gradients(
            lambda t: reduce_sum(
                mul(reshape(transpose(t, (2, 0, 1)), (4, 6)), w)
            ),
            x,
        )


class TestSoftmax:
    def test_uniform_input(self):
        out = softmax(Tensor(np.zeros((2, 5))))
        assert np.allclose(out.data, 0.2, atol=1e-12)

    def test_closed_form(self):
        out = softmax(Tensor([0.0, math.log(3.0)]))
        assert out.data == pytest.approx([0.25, 0.75], abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 7))
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 123.456)).data
        assert np.max(np.abs(a - b)) < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        out = softmax(Tensor(rng.standard_normal((10, 11)) * 5.0))
        assert np.max(np.abs(out.data.sum(axis=-1) - 1.0)) < 1e-12

    def test_masked_entries_exactly_zero(self):
        x = np.array([[5.0, 1.0, 3.0], [0.0, 2.0, 4.0]])
        mask = np.array([[True, False, True], [True, True, False]])
        out = softmax(Tensor(x), mask=mask)
        assert out.data[0, 1] == 0.0
        assert out.data[1, 2] == 0.0
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((3, 5))
        check_gradients(lambda t: reduce_sum(mul(softmax(t), w)), x)

    def test_masked_gradient(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 4))
        w = rng.standard_normal((4, 4))
        mask = np.tril(np.ones((4, 4), dtype=bool))
        check_gradients(
            lambda t: reduce_sum(mul(softmax(t, mask=mask), w)), x
        )


class TestLayerNorm:
    def test_constant_vector_zeroed(self):
        out = layer_norm(
            Tensor(np.full((2, 6), 3.7)), Tensor(np.ones(6)), Tensor(np.zeros(6))
        )
        assert np.allclose(out.data, 0.0, atol=1e-6)

    def test_output_statistics(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((8, 64))
        out = layer_norm(
            Tensor(x), Tensor(np.full(64, 2.0)), Tensor(np.full(64, 3.0)),
            eps=1e-10,
        )
        assert np.max(np.abs(out.data.mean(axis=-1) - 3.0)) < 1e-6
        assert np.max(np.abs(out.data.std(axis=-1) - 2.0)) < 1e-6

    def test_gradient(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 6))
        gain = rng.standard_normal(6)
        bias = rng.standard_normal(6)
        w = rng.standard_normal((3, 6))
        check_gradients(
            lambda t, g, b: reduce_sum(mul(layer_norm(t, g, b), w)),
            x, gain, bias,
        )


class TestCrossEntropy:
    def test_uniform_logits(self):
        v = 11
        loss = cross_entropy(Tensor(np.zeros((4, v))), np.zeros(4, dtype=int))
        assert float(loss.data) == pytest.approx(math.log(v), abs=1e-12)

    def test_confident_prediction(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 20.0
        loss = cross_entropy(Tensor(logits), np.array([2]))
        assert float(loss.data) < 1e-8

    def test_gradient(self):
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((6, 9))
        targets = rng.integers(0, 9, 6)
        check_gradients(lambda t: cross_entropy(t, targets), logits)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batched_logits_equal_the_2d_form_bitwise(self, dtype):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((3, 4, 9)).astype(dtype)
        targets = rng.integers(0, 9, (3, 4))
        t3 = Tensor(logits.copy(), requires_grad=True)
        t2 = Tensor(logits.reshape(12, 9).copy(), requires_grad=True)
        loss3 = cross_entropy(t3, targets)
        loss2 = cross_entropy(t2, targets.reshape(-1))
        loss3.backward()
        loss2.backward()
        assert loss3.data.dtype == dtype
        assert loss3.data.tobytes() == loss2.data.tobytes()
        assert t3.grad.shape == (3, 4, 9)
        assert np.array_equal(t3.grad.reshape(12, 9), t2.grad)

    def test_second_backward_over_the_same_tape_raises(self):
        # the first backward hands the node's buffer to the logits as their
        # gradient; a second one must not divide and publish it again
        rng = np.random.default_rng(17)
        logits = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        loss = cross_entropy(logits, rng.integers(0, 6, 4))
        loss.backward()
        first = logits.grad.copy()
        with pytest.raises(RuntimeError, match="backward already ran"):
            loss.backward()
        assert np.array_equal(logits.grad, first)

    def test_batched_gradient(self):
        rng = np.random.default_rng(14)
        targets = rng.integers(0, 5, (2, 3))
        check_gradients(lambda t: cross_entropy(t, targets),
                        rng.standard_normal((2, 3, 5)))

    def test_targets_shape_mismatch(self):
        logits = Tensor(np.zeros((2, 3, 4)))
        for targets in (np.zeros(6, dtype=int), np.zeros((3, 2), dtype=int),
                        np.zeros((2, 3, 1), dtype=int)):
            with pytest.raises(ValueError, match="targets must have shape"):
                cross_entropy(logits, targets)
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros(4)), np.zeros((), dtype=int))

    def test_no_grad_row_blocks_equal_the_taped_loss_bitwise(self):
        # 3000 rows of 701 values span several row blocks
        rng = np.random.default_rng(15)
        logits = (rng.standard_normal((3, 1000, 701)) * 4).astype(np.float32)
        targets = rng.integers(0, 701, (3, 1000))
        taped = cross_entropy(Tensor(logits, requires_grad=True), targets)
        with no_grad():
            blocked = cross_entropy(Tensor(logits, requires_grad=True), targets)
        assert blocked._backward_fn is None
        assert blocked.data.tobytes() == taped.data.tobytes()

    def test_no_grad_holds_no_second_logits_array(self):
        rng = np.random.default_rng(16)
        logits = Tensor(rng.standard_normal((128, 100, 257)).astype(np.float32))
        targets = rng.integers(0, 257, (128, 100))
        with no_grad():
            tracemalloc.start()
            try:
                cross_entropy(logits, targets)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < logits.data.nbytes / 2


class TestEmbedding:
    def test_lookup(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = embedding(table, np.array([2, 0]))
        assert np.array_equal(out.data, [[6, 7, 8], [0, 1, 2]])

    def test_gradient_scatters_and_accumulates(self):
        table = Tensor(np.zeros((4, 3)), requires_grad=True)
        ids = np.array([1, 1, 3])
        out = embedding(table, ids)
        reduce_sum(out).backward()
        expected = np.zeros((4, 3))
        expected[1] = 2.0  # repeated id accumulates
        expected[3] = 1.0
        assert np.array_equal(table.grad, expected)

    def test_id_out_of_range(self):
        with pytest.raises(ValueError):
            embedding(Tensor(np.zeros((4, 3))), np.array([4]))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        reduce_sum(x).backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_square_gradient(self):
        data = np.arange(5.0)
        x = Tensor(data.copy(), requires_grad=True)
        reduce_sum(mul(x, x)).backward()
        assert np.allclose(x.grad, 2.0 * data)

    def test_shared_subexpression_accumulates(self):
        data = np.arange(1.0, 5.0)
        x = Tensor(data.copy(), requires_grad=True)
        shared = mul(x, x)
        reduce_sum(add(shared, shared)).backward()
        assert np.allclose(x.grad, 4.0 * data)

    def test_rejects_non_scalar(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            backward(add(x, x))

    def test_no_grad_skips_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = mul(x, x)
        assert not y.requires_grad
        assert y._parents == ()


class TestFiniteChecks:
    def test_overflow_raises(self):
        big = Tensor(np.array([1e300]))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            mul(big, big)

    def test_error_names_op_and_shape(self):
        big = Tensor(np.full((2, 3), 1e300))
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match=r"^mul .*output of shape \(2, 3\)"):
            mul(big, big)

    def test_int_input_becomes_float32(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32


# -- fused nodes --------------------------------------------------------------

def ff_composition(x, w1, b1, w2, b2):
    """The public-op path that feed_forward replaces."""
    return add(matmul(relu(add(matmul(x, w1), b1)), w2), b2)


def attention_composition(q, k, v, mask):
    """Scaled dot-product attention from public ops; q, k, v: [n, L, hd]."""
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = mul(matmul(q, transpose(k, (0, 2, 1))), scale)
    return matmul(softmax(scores, axis=-1, mask=mask), v)


def mha_composition(x, wq, wk, wv, wo, heads, mask):
    """The public-op path that multi_head_attention replaces; x: [b, L, d]."""
    b, l, d = x.shape
    hd = d // heads

    def project(w):
        p = matmul(reshape(x, (b * l, d)), w)
        p = transpose(reshape(p, (b, l, heads, hd)), (0, 2, 1, 3))
        return reshape(p, (b * heads, l, hd))

    ctx = attention_composition(project(wq), project(wk), project(wv), mask)
    ctx = transpose(reshape(ctx, (b, heads, l, hd)), (0, 2, 1, 3))
    return reshape(matmul(reshape(ctx, (b * l, d)), wo), (b, l, d))


def head_composition(x, w):
    """The reshape-matmul-reshape path that a [b, L, d] @ [d, V] matmul replaces."""
    b, l, d = x.shape
    return reshape(matmul(reshape(x, (b * l, d)), w), (b, l, w.shape[1]))


def add_ln_composition(x, y, gain, bias):
    """The public-op path that add_layer_norm replaces."""
    return layer_norm(add(x, y), gain, bias)


def grads_of(build, cotangent, *arrays):
    """Output and every operand's gradient of sum(build(*arrays) * cotangent)."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    reduce_sum(mul(out, cotangent)).backward()
    return out.data, [t.grad for t in tensors]


def assert_same_node(fused, composed, cotangent, arrays, dtype, exact=False):
    """Fused node and public-op composition agree in output and gradients:
    bitwise when the node does the same arithmetic, else within a tolerance
    set by the dtype."""
    out, grads = grads_of(fused, cotangent, *arrays)
    ref_out, ref_grads = grads_of(composed, cotangent, *arrays)
    rtol, atol = (1e-5, 1e-6) if dtype == np.float32 else (1e-12, 1e-12)
    if exact:
        rtol = atol = 0.0
    assert out.dtype == ref_out.dtype == dtype
    np.testing.assert_allclose(out, ref_out, rtol=rtol, atol=atol)
    for i, (g, ref) in enumerate(zip(grads, ref_grads)):
        assert g.dtype == dtype, f"operand {i}"
        np.testing.assert_allclose(g, ref, rtol=rtol, atol=atol,
                                   err_msg=f"operand {i}")


def assert_near_oracle(actual, expected, dtype, err_msg=""):
    """Within 1e-12 in float64. In float32 within rtol 1e-5 and an atol of
    1e-5 of the array's largest magnitude: a weight gradient sums 640 to
    6 400 rows, and the oracle itself misses its own float64 result by more
    than rtol 1e-5 / atol 1e-6 on 1-4 % of such a gradient's entries."""
    assert actual.dtype == expected.dtype == dtype, err_msg
    rtol, atol = ((1e-12, 1e-12) if dtype == np.float64
                  else (1e-5, 1e-5 * np.abs(expected).max()))
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol,
                               err_msg=err_msg)


def ff_operands(rng, dtype, lead=(6,), d=4, ff=8):
    x = rng.standard_normal(lead + (d,))
    w1 = rng.standard_normal((d, ff))
    b1 = rng.standard_normal(ff)
    w2 = rng.standard_normal((ff, d))
    b2 = rng.standard_normal(d)
    return [a.astype(dtype) for a in (x, w1, b1, w2, b2)]


def mha_operands(rng, dtype, b=2, length=5, d=6):
    x = rng.standard_normal((b, length, d))
    ws = [rng.standard_normal((d, d)) / math.sqrt(d) for _ in range(4)]
    return [a.astype(dtype) for a in [x, *ws]]


def add_ln_operands(rng, dtype, shape=(2, 3, 6)):
    x, y = rng.standard_normal(shape), rng.standard_normal(shape)
    gain = rng.standard_normal(shape[-1:])
    bias = rng.standard_normal(shape[-1:])
    return [a.astype(dtype) for a in (x, y, gain, bias)]


class TestFeedForward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(6,), (2, 3)], ids=["2d", "3d"])
    def test_matches_public_ops(self, dtype, lead):
        rng = np.random.default_rng(20)
        arrays = ff_operands(rng, dtype, lead)
        cotangent = rng.standard_normal(lead + (4,)).astype(dtype)

        def composed(x, *w):
            return reshape(ff_composition(reshape(x, (-1, 4)), *w), lead + (4,))

        assert_same_node(feed_forward, composed, cotangent, arrays, dtype,
                         exact=True)

    @pytest.mark.parametrize("lead", [(6,), (2, 3)], ids=["2d", "3d"])
    def test_gradient(self, lead):
        rng = np.random.default_rng(21)
        arrays = ff_operands(rng, np.float64, lead)
        x, w1, b1 = arrays[:3]
        assert np.abs(x @ w1 + b1).min() > 1e-2  # away from the ReLU kink
        c = rng.standard_normal(lead + (4,))
        check_gradients(lambda *t: reduce_sum(mul(feed_forward(*t), c)),
                        *arrays)

    def test_hidden_pre_activation_overflow_raises(self):
        # x @ w1 is -inf in float32; ReLU maps it to 0, so the output is
        # finite and only the pre-activation check sees it
        x = np.array([[1e30, 0.0]], dtype=np.float32)
        w1 = np.array([[-1e30, 1.0], [0.0, 1.0]], dtype=np.float32)
        b1 = np.zeros(2, dtype=np.float32)
        w2 = np.ones((2, 2), dtype=np.float32)
        b2 = np.zeros(2, dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(np.maximum(x @ w1 + b1, 0.0) @ w2 + b2).all()
            with pytest.raises(NonFiniteError,
                               match=r"^feed_forward .*pre-activation"):
                feed_forward(*(Tensor(a) for a in (x, w1, b1, w2, b2)))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(22)
        x, w1, b1, w2, b2 = ff_operands(rng, np.float64)
        with pytest.raises(ValueError):
            feed_forward(Tensor(x), Tensor(w1), Tensor(b1[:-1]), Tensor(w2),
                         Tensor(b2))
        with pytest.raises(ValueError):
            feed_forward(Tensor(x[:, :-1]), Tensor(w1), Tensor(b1), Tensor(w2),
                         Tensor(b2))


class TestOutputHead:
    """matmul of [b, L, d] @ [d, V]: one node in place of reshape-matmul-reshape."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_public_ops(self, dtype):
        rng = np.random.default_rng(26)
        arrays = [rng.standard_normal(s).astype(dtype)
                  for s in ((2, 3, 4), (4, 5))]
        cotangent = rng.standard_normal((2, 3, 5)).astype(dtype)
        assert_same_node(matmul, head_composition, cotangent, arrays, dtype,
                         exact=True)

    def test_gradient(self):
        rng = np.random.default_rng(27)
        c = rng.standard_normal((2, 3, 5))
        check_gradients(lambda x, w: reduce_sum(mul(matmul(x, w), c)),
                        rng.standard_normal((2, 3, 4)),
                        rng.standard_normal((4, 5)))


class TestAddLayerNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_public_ops(self, dtype):
        rng = np.random.default_rng(28)
        arrays = add_ln_operands(rng, dtype)
        cotangent = rng.standard_normal(arrays[0].shape).astype(dtype)
        assert_same_node(add_layer_norm, add_ln_composition, cotangent, arrays,
                         dtype, exact=True)

    def test_gradient(self):
        rng = np.random.default_rng(29)
        arrays = add_ln_operands(rng, np.float64)
        c = rng.standard_normal(arrays[0].shape)
        check_gradients(lambda *t: reduce_sum(mul(add_layer_norm(*t), c)),
                        *arrays)

    def test_hidden_variance_overflow_raises(self):
        # (x + y - mean)^2 overflows in float32: the variance is inf, the
        # normalized values are 0 and the output is the finite bias
        x = np.array([[1e20, -1e20, 0.0, 0.0]], dtype=np.float32)
        y = np.zeros_like(x)
        gain = np.ones(4, dtype=np.float32)
        bias = np.full(4, 0.5, dtype=np.float32)
        with np.errstate(over="ignore"):
            xc = x + y - (x + y).mean(axis=-1, keepdims=True)
            var = (xc * xc).mean(axis=-1, keepdims=True)
            assert np.isfinite(gain * xc / np.sqrt(var + 1e-5) + bias).all()
            with pytest.raises(NonFiniteError,
                               match=r"^add_layer_norm .*variance"):
                add_layer_norm(*(Tensor(a) for a in (x, y, gain, bias)))

    def test_shape_mismatch(self):
        x = Tensor(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            add_layer_norm(x, Tensor(np.zeros((1, 4))), Tensor(np.ones(4)),
                           Tensor(np.zeros(4)))
        with pytest.raises(ValueError):
            add_layer_norm(x, x, Tensor(np.ones(3)), Tensor(np.zeros(3)))


class TestMultiHeadAttention:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [True, False])
    def test_matches_public_ops(self, dtype, masked):
        rng = np.random.default_rng(23)
        arrays = mha_operands(rng, dtype)
        length = arrays[0].shape[1]
        bias = causal_bias(length, dtype) if masked else None
        mask = causal_mask(length) if masked else None
        cotangent = rng.standard_normal(arrays[0].shape).astype(dtype)
        assert_same_node(
            lambda *t: multi_head_attention(*t, 3, bias),
            lambda *t: mha_composition(*t, 3, mask),
            cotangent, arrays, dtype,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [True, False])
    @pytest.mark.parametrize("b,length,d", [(10, 64, 32), (100, 64, 32),
                                            (2, 119, 52)])
    def test_matches_the_earlier_arithmetic(self, b, length, d, masked, dtype):
        # the oracle scales after q @ k^T, adds the strided bias.T and
        # normalises the weights before the value product
        rng = np.random.default_rng(31)
        arrays = mha_operands(rng, dtype, b=b, length=length, d=d)
        bias = causal_bias(length, dtype) if masked else None
        cotangent = rng.standard_normal(arrays[0].shape).astype(dtype)
        out, grads = grads_of(lambda *t: multi_head_attention(*t, 4, bias),
                              cotangent, *arrays)
        ref_out, ref_grads = reference_attention(*arrays, 4, bias, cotangent)
        assert_near_oracle(out, ref_out, dtype)
        for i, (g, ref) in enumerate(zip(grads, ref_grads)):
            assert_near_oracle(g, ref, dtype, f"operand {i}")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [True, False])
    def test_last_only_matches_the_earlier_arithmetic(self, masked, dtype):
        rng = np.random.default_rng(32)
        arrays = mha_operands(rng, dtype, b=2, length=119, d=52)
        bias = causal_bias(119, dtype) if masked else None
        with no_grad():
            out = multi_head_attention(*map(Tensor, arrays), 4, bias,
                                       last_only=True).data
        ref_out, _ = reference_attention(*arrays, 4, bias, last_only=True)
        assert out.shape == ref_out.shape == (2, 1, 52)
        assert_near_oracle(out, ref_out, dtype)

    def test_second_backward_of_one_node_gives_the_same_gradients(self):
        # the first backward normalises the node's weights in place; the
        # second must not do it again
        rng = np.random.default_rng(33)
        tensors = [Tensor(a, requires_grad=True)
                   for a in mha_operands(rng, np.float64)]
        out = multi_head_attention(*tensors, 2, causal_bias(5, np.float64))
        cotangent = rng.standard_normal(out.shape)
        out._backward_fn(cotangent)
        once = [t.grad.copy() for t in tensors]
        out._backward_fn(cotangent)
        for i, (t, g) in enumerate(zip(tensors, once)):
            assert np.array_equal(t.grad, 2.0 * g), f"operand {i}"

    @pytest.mark.parametrize("masked", [True, False])
    def test_gradient(self, masked):
        rng = np.random.default_rng(24)
        arrays = mha_operands(rng, np.float64)
        bias = causal_bias(arrays[0].shape[1], np.float64) if masked else None
        c = rng.standard_normal(arrays[0].shape)
        check_gradients(
            lambda *t: reduce_sum(mul(multi_head_attention(*t, 2, bias), c)),
            *arrays,
        )

    def test_unbatched_input_matches_batch_of_one(self):
        rng = np.random.default_rng(30)
        x, *ws = mha_operands(rng, np.float64, b=1)
        bias = causal_bias(x.shape[1], np.float64)
        one = multi_head_attention(Tensor(x[0]), *map(Tensor, ws), 3, bias)
        batch = multi_head_attention(Tensor(x), *map(Tensor, ws), 3, bias)
        assert np.array_equal(one.data, batch.data[0])

    def test_masked_positions_get_no_weight(self):
        # inputs after position i must not reach output row i
        rng = np.random.default_rng(25)
        x, *ws = mha_operands(rng, np.float64, b=1, length=4)
        bias = causal_bias(4, np.float64)
        out = multi_head_attention(Tensor(x), *map(Tensor, ws), 2, bias).data
        x2 = x.copy()
        x2[0, 2:] += 100.0
        out2 = multi_head_attention(Tensor(x2), *map(Tensor, ws), 2, bias).data
        assert np.array_equal(out[0, :2], out2[0, :2])

    def test_hidden_score_overflow_raises(self):
        # q = x @ wq and k = x @ wk make score (1, 0) -inf in float32: exp
        # maps it to weight 0, so the output is finite and only the
        # scaled-score check sees it
        x = np.array([[[0.0, 1.0], [1e30, 0.0]]], dtype=np.float32)
        wq = np.eye(2, dtype=np.float32)
        wk = np.array([[0.0, 1e-30], [-1e30, 0.0]], dtype=np.float32)
        wv = np.eye(2, dtype=np.float32) * np.float32(1e-30)
        wo = np.eye(2, dtype=np.float32)
        bias = causal_bias(2, np.float32)
        with np.errstate(over="ignore"):
            q, k, v = x @ wq, x @ wk, x @ wv
            s = q @ np.swapaxes(k, -1, -2) / np.float32(math.sqrt(2)) + bias
            assert np.isneginf(s[0, 1, 0])
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            assert np.isfinite(e / e.sum(axis=-1, keepdims=True) @ v @ wo).all()
            with pytest.raises(NonFiniteError,
                               match=r"^multi_head_attention .*scaled scores"):
                multi_head_attention(Tensor(x), *map(Tensor, (wq, wk, wv, wo)),
                                     1, bias)

    def test_shape_mismatch(self):
        x = Tensor(np.zeros((2, 3, 4)))
        w = Tensor(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            multi_head_attention(x, w, w, Tensor(np.zeros((4, 5))), w, 2, None)
        with pytest.raises(ValueError):
            multi_head_attention(x, w, w, w, w, 3, None)


def node_cases():
    """(name, build, arrays) for every fused node, the [..., V] forms and the
    (h, w) form of cross_entropy."""
    rng = np.random.default_rng(45)
    targets = rng.integers(0, 5, (2, 3))
    c_mha = rng.standard_normal((2, 5, 6))
    c_ff = rng.standard_normal((2, 3, 4))
    c_head = rng.standard_normal((2, 3, 5))
    c_ln = rng.standard_normal((2, 3, 6))
    bias = causal_bias(5, np.float64)
    cases = [
        ("multi_head_attention",
         lambda *t: reduce_sum(mul(multi_head_attention(*t, 2, bias), c_mha)),
         mha_operands(rng, np.float64)),
        ("add_layer_norm",
         lambda *t: reduce_sum(mul(add_layer_norm(*t), c_ln)),
         add_ln_operands(rng, np.float64)),
        ("feed_forward", lambda *t: reduce_sum(mul(feed_forward(*t), c_ff)),
         ff_operands(rng, np.float64, (2, 3))),
        ("output_head", lambda x, w: reduce_sum(mul(matmul(x, w), c_head)),
         [rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5))]),
        ("cross_entropy", lambda t: cross_entropy(t, targets),
         [rng.standard_normal((2, 3, 5))]),
        ("cross_entropy_pair", lambda h, w: cross_entropy((h, w), targets),
         [rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5))]),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name,build,arrays", node_cases())
def test_two_backward_passes_double_the_gradient(name, build, arrays):
    """A second forward and backward into the same leaves gives exactly 2x,
    and no backward writes into an array it did not allocate: not the
    operands, not the cotangent it receives, not another node's gradient."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    backward_checking_ownership(build(*tensors))
    once = [t.grad.copy() for t in tensors]
    backward_checking_ownership(build(*tensors))
    for i, (t, a, g) in enumerate(zip(tensors, arrays, once)):
        assert np.array_equal(t.data, a), f"{name} operand {i} data"
        assert np.array_equal(t.grad, 2.0 * g), f"{name} operand {i} grad"


# -- the encoder against its public-op reference --------------------------------

def reference_encoder_forward(ids, params, config):
    """encoder_forward built only from the public ops, without fused nodes."""
    b, l = ids.shape
    d = config.d_model
    h = add(mul(embedding(params["embedding"], ids), math.sqrt(d)),
            positional_encoding(l, d, dtype=params["embedding"].dtype))
    for i in range(config.n_layers):
        for j in range(config.attn_sublayers):
            p = f"layer{i}.attn{j}."
            out = mha_composition(h, params[p + "wq"], params[p + "wk"],
                                  params[p + "wv"], params[p + "wo"],
                                  config.n_heads, causal_mask(l))
            h = add_ln_composition(h, out, params[p + "norm_gain"],
                                   params[p + "norm_bias"])
        p = f"layer{i}.ff."
        f = ff_composition(reshape(h, (b * l, d)), params[p + "w1"],
                           params[p + "b1"], params[p + "w2"], params[p + "b2"])
        h = add_ln_composition(h, reshape(f, (b, l, d)),
                               params[p + "norm_gain"], params[p + "norm_bias"])
    return head_composition(h, params["output.w"])


def encoder_loss_and_grads(forward, config, dtype):
    params = init_encoder_params(config, np.random.default_rng(30),
                                 dtype=dtype)
    rng = np.random.default_rng(31)
    ids = rng.integers(0, config.vocab_size, (2, config.seq_len))
    targets = rng.integers(0, config.vocab_size, 2 * config.seq_len)
    logits = forward(ids, params, config)
    loss = cross_entropy(reshape(logits, (targets.size, config.vocab_size)),
                         targets)
    loss.backward()
    return logits.data, {k: p.grad for k, p in params.items()}


class TestEncoderAgainstPublicOps:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("double_attention", [True, False])
    def test_logits_and_gradients_match(self, dtype, double_attention):
        config = ModelConfig(vocab_size=9, seq_len=6, d_model=8, n_layers=2,
                             n_heads=2, d_ff=16,
                             double_attention=double_attention)
        logits, grads = encoder_loss_and_grads(encoder_forward, config, dtype)
        ref_logits, ref_grads = encoder_loss_and_grads(
            reference_encoder_forward, config, dtype)
        rtol, atol = (1e-4, 1e-5) if dtype == np.float32 else (1e-10, 1e-12)
        np.testing.assert_allclose(logits, ref_logits, rtol=rtol, atol=atol)
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert g.dtype == dtype, name
            np.testing.assert_allclose(g, ref_grads[name], rtol=rtol,
                                       atol=atol, err_msg=name)


# -- gradient ownership: first write stores, later writes rebind ----------------

def backward_checking_ownership(loss) -> int:
    """Backward that asserts no backward changed an earlier node's .grad.

    A node's .grad is final when its backward runs: snapshot it then and
    compare after the whole pass. Returns the number of nodes checked.
    """
    snapshots = []

    def snapshotting(node, fn):
        def run(g):
            snapshots.append((node, g.copy()))
            fn(g)
        return run

    stack, seen = [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        if node._backward_fn is not None:
            node._backward_fn = snapshotting(node, node._backward_fn)
    loss.backward()
    for node, grad in snapshots:
        assert np.array_equal(node.grad, grad), node
    return len(snapshots)


class TestGradientOwnership:
    def test_add_same_tensor_twice(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        w = np.array([1.0, -2.0, 3.0, 0.5])
        backward_checking_ownership(reduce_sum(mul(add(x, x), w)))
        assert np.array_equal(x.grad, 2.0 * w)

    def test_gradient_keeps_the_tensor_dtype(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = Tensor(np.arange(3.0), requires_grad=True)
        backward_checking_ownership(reduce_sum(add(mul(x, y), mul(x, y))))
        assert x.grad.dtype == np.float32 and y.grad.dtype == np.float64
        assert np.array_equal(x.grad, [0.0, 2.0, 4.0])

    @pytest.mark.parametrize("embedding_first", [True, False])
    def test_tied_embedding_and_matmul(self, embedding_first):
        # the table is read by embedding and, transposed, by a matmul; its
        # .grad starts as a view of the transpose node's gradient when the
        # matmul path runs first, so the scatter must not write into it
        rng = np.random.default_rng(40)
        ids = np.array([0, 2, 2, 4])
        xs = rng.standard_normal((3, 2))
        c1 = rng.standard_normal((3, 5))
        c2 = rng.standard_normal((4, 2))

        def loss_of(t):
            tied = reduce_sum(mul(matmul(Tensor(xs), transpose(t, (1, 0))), c1))
            lookup = reduce_sum(mul(embedding(t, ids), c2))
            return add(lookup, tied) if embedding_first else add(tied, lookup)

        table = rng.standard_normal((5, 2))
        t = Tensor(table.copy(), requires_grad=True)
        backward_checking_ownership(loss_of(t))
        expected = (c1.T @ xs)
        np.add.at(expected, ids, c2)
        np.testing.assert_allclose(t.grad, expected, rtol=1e-12, atol=1e-12)
        check_gradients(loss_of, table)

    def test_two_backward_calls_accumulate_exactly(self):
        config = ModelConfig(vocab_size=7, seq_len=5, d_model=8, n_layers=1,
                             n_heads=2, d_ff=16)
        params = init_encoder_params(config, np.random.default_rng(41),
                                     dtype=np.float64)
        ids = np.random.default_rng(42).integers(0, 7, 5)

        def step():
            logits = encoder_forward(ids, params, config)
            cross_entropy(logits, np.roll(ids, -1)).backward()

        step()
        once = {k: p.grad.copy() for k, p in params.items()}
        step()
        for name, p in params.items():
            assert np.array_equal(p.grad, 2.0 * once[name]), name

    def test_no_backward_mutates_another_gradient(self):
        config = ModelConfig(vocab_size=7, seq_len=5, d_model=8, n_layers=2,
                             n_heads=2, d_ff=16)
        params = init_encoder_params(config, np.random.default_rng(43),
                                     dtype=np.float64)
        ids = np.random.default_rng(44).integers(0, 7, (2, 5))
        loss = cross_entropy(encoder_forward(ids, params, config), ids)
        assert backward_checking_ownership(loss) == tape_nodes_per_loss(config)


def tape_nodes_per_loss(config) -> int:
    """Embedding lookup, scale and positional add (3); per layer, one
    attention node and one residual-and-norm node per attention sub-layer,
    then the same two for the feed-forward block; output head and
    cross-entropy (2)."""
    return 3 + config.n_layers * (2 * config.attn_sublayers + 2) + 2


@pytest.mark.parametrize("double_attention", [True, False])
def test_tape_nodes_of_one_loss(double_attention):
    config = ModelConfig(vocab_size=7, seq_len=5, d_model=8, n_layers=3,
                         n_heads=2, d_ff=16, double_attention=double_attention)
    params = init_encoder_params(config, np.random.default_rng(46))
    ids = np.random.default_rng(47).integers(0, 7, (2, 5))
    loss = cross_entropy(encoder_forward(ids, params, config), ids)
    stack, seen = [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._backward_fn is not None:
            seen.add(id(node))
            stack.extend(node._parents)
    assert len(seen) == tape_nodes_per_loss(config) == (
        23 if double_attention else 17)
