import math

import numpy as np
import pytest

from strokegen.autodiff import Tensor, cross_entropy, reshape
from strokegen.model import (
    ModelConfig,
    causal_bias,
    causal_mask,
    encoder_forward,
    init_encoder_params,
    multi_head_attention,
    positional_encoding,
)
from strokegen.training import adam_step, init_adam_state, lr_schedule

from conftest import finite_difference_grad, relative_grad_error

TINY = ModelConfig(vocab_size=7, seq_len=5, d_model=8, n_layers=2, n_heads=2,
                   d_ff=16)


def tiny_setup(dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    params = init_encoder_params(TINY, rng, dtype=dtype)
    tokens = rng.integers(0, TINY.vocab_size, TINY.seq_len)
    targets = rng.integers(0, TINY.vocab_size, TINY.seq_len)
    return params, tokens, targets


class TestPositionalEncoding:
    def test_position_zero(self):
        pe = positional_encoding(4, 8)
        assert np.array_equal(pe[0, 0::2], np.zeros(4))
        assert np.array_equal(pe[0, 1::2], np.ones(4))

    def test_first_dim_is_plain_sine(self):
        pe = positional_encoding(3, 8)
        assert pe[1, 0] == pytest.approx(math.sin(1.0), abs=1e-12)
        assert pe[2, 0] == pytest.approx(math.sin(2.0), abs=1e-12)

    def test_range(self):
        pe = positional_encoding(100, 52)
        assert pe.min() >= -1.0 and pe.max() <= 1.0

    def test_shape(self):
        assert positional_encoding(17, 52).shape == (17, 52)


class TestCausalMask:
    def test_length_one(self):
        assert np.array_equal(causal_mask(1), [[True]])

    def test_lower_triangular_counts(self):
        mask = causal_mask(9)
        for i in range(9):
            assert mask[i].sum() == i + 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bias_is_cached_read_only_and_matches_mask(self, dtype):
        bias = causal_bias(6, np.dtype(dtype))
        assert bias is causal_bias(6, np.dtype(dtype))
        assert bias.dtype == dtype and not bias.flags.writeable
        assert np.array_equal(bias == 0.0, causal_mask(6))
        assert np.all(np.isneginf(bias[~causal_mask(6)]))


class TestMultiHeadAttention:
    def test_single_position_weight_is_one(self):
        # with L=1 the attention weight is exactly 1, so out = x @ wv @ wo
        rng = np.random.default_rng(0)
        d = 6
        x = rng.standard_normal((1, 1, d))
        wq, wk, wv, wo = (rng.standard_normal((d, d)) for _ in range(4))
        out = multi_head_attention(
            Tensor(x), Tensor(wq), Tensor(wk), Tensor(wv), Tensor(wo),
            n_heads=2, bias=causal_bias(1, x.dtype),
        )
        assert np.allclose(out.data, x[0] @ wv @ wo, atol=1e-12)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(1)
        d, heads, length = 4, 2, 3
        x = rng.standard_normal((length, d))
        wq, wk, wv, wo = (rng.standard_normal((d, d)) for _ in range(4))
        mask = causal_mask(length)

        # independent dense implementation of the attention formula
        hd = d // heads
        q, k, v = x @ wq, x @ wk, x @ wv
        head_outs = []
        for h in range(heads):
            s = slice(h * hd, (h + 1) * hd)
            scores = q[:, s] @ k[:, s].T / math.sqrt(hd)
            scores = np.where(mask, scores, -np.inf)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            attn = e / e.sum(axis=-1, keepdims=True)
            head_outs.append(attn @ v[:, s])
        expected = np.concatenate(head_outs, axis=1) @ wo

        out = multi_head_attention(
            Tensor(x[None]), Tensor(wq), Tensor(wk), Tensor(wv), Tensor(wo),
            n_heads=heads, bias=causal_bias(length, x.dtype),
        )
        assert np.max(np.abs(out.data[0] - expected)) < 1e-6


class TestEncoderForward:
    def test_output_shape_and_finite(self):
        params, tokens, _ = tiny_setup()
        logits = encoder_forward(tokens, params, TINY)
        assert logits.shape == (TINY.seq_len, TINY.vocab_size)
        assert np.isfinite(logits.data).all()

    def test_batched_shape(self):
        params, _, _ = tiny_setup()
        rng = np.random.default_rng(3)
        batch = rng.integers(0, TINY.vocab_size, (4, TINY.seq_len))
        logits = encoder_forward(batch, params, TINY)
        assert logits.shape == (4, TINY.seq_len, TINY.vocab_size)

    def test_forward_deterministic_bitwise(self):
        params, tokens, _ = tiny_setup(dtype=np.float32)
        a = encoder_forward(tokens, params, TINY).data
        b = encoder_forward(tokens, params, TINY).data
        assert np.array_equal(a, b)

    def test_rejects_overlong_sequence(self):
        params, _, _ = tiny_setup()
        with pytest.raises(ValueError):
            encoder_forward(np.zeros(TINY.seq_len + 1, dtype=int), params, TINY)

    def test_rejects_bad_token_id(self):
        params, tokens, _ = tiny_setup()
        tokens = tokens.copy()
        tokens[0] = TINY.vocab_size
        with pytest.raises(ValueError):
            encoder_forward(tokens, params, TINY)

    @pytest.mark.parametrize("trial", range(20))
    def test_causality_exact(self, trial):
        params, tokens, _ = tiny_setup(dtype=np.float32, seed=100)
        rng = np.random.default_rng(trial)
        j = int(rng.integers(1, TINY.seq_len))
        perturbed = tokens.copy()
        perturbed[j] = (perturbed[j] + 1 + rng.integers(TINY.vocab_size - 1)) \
            % TINY.vocab_size
        base = encoder_forward(tokens, params, TINY).data
        out = encoder_forward(perturbed, params, TINY).data
        assert np.array_equal(base[:j], out[:j])
        assert not np.array_equal(base[j:], out[j:])

    def test_single_attention_variant_runs(self):
        cfg = ModelConfig(vocab_size=7, seq_len=5, d_model=8, n_layers=2,
                          n_heads=2, d_ff=16, double_attention=False)
        rng = np.random.default_rng(0)
        params = init_encoder_params(cfg, rng)
        assert "layer0.attn1.wq" not in params
        logits = encoder_forward(np.zeros(5, dtype=int), params, cfg)
        assert logits.shape == (5, 7)


class TestFullModelGradient:
    def test_matches_finite_differences(self):
        params, tokens, targets = tiny_setup(dtype=np.float64, seed=7)

        def loss_value() -> float:
            logits = encoder_forward(tokens, params, TINY)
            loss = cross_entropy(
                reshape(logits, (TINY.seq_len, TINY.vocab_size)), targets
            )
            return loss

        loss = loss_value()
        loss.backward()

        h = 1e-5
        for name, p in params.items():
            analytic = p.grad
            assert analytic is not None, name

            def scalar(x, name=name, p=p):
                saved = p.data
                p.data = x
                val = float(loss_value().data)
                p.data = saved
                return val

            numeric = finite_difference_grad(scalar, p.data.copy(), h=h)
            err = relative_grad_error(analytic, numeric, floor=1e-4)
            assert err < 1e-3, f"{name}: rel grad error {err}"


class TestLearningSmoke:
    def _train_steps(self, cfg, params, inputs, targets, steps, warmup=50):
        adam = init_adam_state(params)
        loss_val = math.inf
        for step in range(1, steps + 1):
            for p in params.values():
                p.grad = None
            logits = encoder_forward(inputs, params, cfg)
            n = inputs.size
            loss = cross_entropy(reshape(logits, (n, cfg.vocab_size)),
                                 targets.reshape(-1))
            loss.backward()
            grads = {k: p.grad for k, p in params.items()}
            adam_step(params, grads, adam,
                      lr_schedule(step, cfg.d_model, warmup))
            loss_val = float(loss.data)
        return loss_val

    def test_memorizes_single_sequence(self):
        rng = np.random.default_rng(0)
        params = init_encoder_params(TINY, rng, dtype=np.float32)
        window = rng.integers(0, TINY.vocab_size, TINY.seq_len + 1)
        loss = self._train_steps(
            TINY, params, window[None, :-1], window[None, 1:], steps=500
        )
        assert loss < 0.05

    def test_two_token_corpus_continuation(self):
        # corpus "a b a b END" repeating; after "a" the argmax must be "b"
        a, b, end = 0, 1, 2
        cfg = ModelConfig(vocab_size=3, seq_len=5, d_model=8, n_layers=2,
                          n_heads=2, d_ff=16)
        stream = np.array([a, b, a, b, end] * 40)
        windows = stream[: (len(stream) // 6) * 6].reshape(-1, 6)
        rng = np.random.default_rng(1)
        params = init_encoder_params(cfg, rng, dtype=np.float32)
        self._train_steps(cfg, params, windows[:, :-1], windows[:, 1:],
                          steps=300)
        logits = encoder_forward(np.array([a]), params, cfg).data[-1]
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        assert int(np.argmax(probs)) == b
        assert probs[b] > 0.99
