"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale trend
criteria train three models on the bundled synthetic "boxes" recording and
take a few minutes of CPU time in total.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from strokegen.augment import (
    AugmentConfig,
    Transform,
    generate_patch_with_params,
    order_paths_greedy,
    reverse_paths_random,
    transform_image,
)
from strokegen.autodiff import (
    Tensor,
    add,
    cross_entropy,
    embedding,
    layer_norm,
    matmul,
    mul,
    reduce_sum,
    relu,
    reshape,
    softmax,
    transpose,
)
from strokegen.demo import make_demo_image
from strokegen.geometry import Polyline, fit_path, flatten_path
from strokegen.model import ModelConfig, encoder_forward, init_encoder_params
from strokegen.sampling import (
    SamplerConfig,
    generate_images,
    top_k_distribution,
    top_k_sample,
)
from strokegen.tokenizer import (
    IMAGE_END,
    build_vocabulary,
    decode,
    encode,
    image_to_move_sequence,
    polyline_to_moves,
)
from strokegen.training import (
    TrainConfig,
    desk_preset,
    evaluate_held_out,
    heldout_patch_set,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    train,
)

from conftest import (
    finite_difference_grad,
    fit_residuals,
    max_deviation_curve_to_polyline,
    relative_grad_error,
)

TINY = ModelConfig(vocab_size=7, seq_len=5, d_model=8, n_layers=2, n_heads=2,
                   d_ff=16)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE CRITERION {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE CRITERION {number}: PASS - {description}")


@pytest.fixture(scope="session")
def boxes_image():
    return make_demo_image("boxes")


@pytest.fixture(scope="session")
def fresh_run(boxes_image):
    start = time.time()
    ckpt = train(boxes_image, desk_preset(seed=0))
    return ckpt, time.time() - start


@pytest.fixture(scope="session")
def fixed_100_run(boxes_image):
    return train(boxes_image, desk_preset(seed=0, fixed_patch_set=100))


@pytest.fixture(scope="session")
def fixed_500_run(boxes_image):
    return train(boxes_image, desk_preset(seed=0, fixed_patch_set=500))


# -- criterion 1 -------------------------------------------------------------

def _op_grad_check(build_loss, *arrays, tol):
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    build_loss(*tensors).backward()
    for i, (t, a) in enumerate(zip(tensors, arrays)):
        def scalar(x, i=i):
            inputs = [x if j == i else arrays[j] for j in range(len(arrays))]
            return float(build_loss(*(Tensor(v) for v in inputs)).data)

        numeric = finite_difference_grad(scalar, a.copy(), h=1e-5)
        err = relative_grad_error(t.grad, numeric)
        assert err < tol, f"operand {i}: rel grad error {err}"


def test_criterion_1_gradient_suite():
    with criterion(1, "tensor ops and tiny encoder pass finite-difference "
                      "checks inside the runtime budget"):
        start = time.time()
        rng = np.random.default_rng(0)

        w = rng.standard_normal((3, 4))
        _op_grad_check(
            lambda a, b: reduce_sum(mul(matmul(a, b), w)),
            rng.standard_normal((3, 5)), rng.standard_normal((5, 4)), tol=1e-4,
        )
        wb = rng.standard_normal((2, 3, 3))
        _op_grad_check(
            lambda a, b: reduce_sum(mul(matmul(a, b), wb)),
            rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 4, 3)),
            tol=1e-4,
        )
        w2 = rng.standard_normal((4, 6))
        _op_grad_check(
            lambda x, b: reduce_sum(mul(add(x, b), w2)),
            rng.standard_normal((4, 6)), rng.standard_normal(6), tol=1e-4,
        )
        _op_grad_check(
            lambda a, b: reduce_sum(mul(a, b)),
            rng.standard_normal((4, 4)), rng.standard_normal((4, 4)), tol=1e-4,
        )
        xr = rng.standard_normal((5, 5)) * 2.0
        xr[np.abs(xr) < 0.05] += 0.5
        wr = rng.standard_normal((5, 5))
        _op_grad_check(
            lambda x: reduce_sum(mul(relu(x), wr)), xr, tol=1e-4,
        )
        w3 = rng.standard_normal((6, 4))
        _op_grad_check(
            lambda x: reduce_sum(
                mul(reshape(transpose(x, (1, 0, 2)), (6, 4)), w3)
            ),
            rng.standard_normal((2, 3, 4)), tol=1e-4,
        )
        w4 = rng.standard_normal((4, 7))
        _op_grad_check(
            lambda x: reduce_sum(mul(softmax(x), w4)),
            rng.standard_normal((4, 7)), tol=1e-4,
        )
        mask = np.tril(np.ones((4, 4), dtype=bool))
        _op_grad_check(
            lambda x: reduce_sum(mul(softmax(x, mask=mask), w2[:4, :4])),
            rng.standard_normal((4, 4)), tol=1e-4,
        )
        w5 = rng.standard_normal((3, 6))
        _op_grad_check(
            lambda x, g, b: reduce_sum(mul(layer_norm(x, g, b), w5)),
            rng.standard_normal((3, 6)), rng.standard_normal(6),
            rng.standard_normal(6), tol=1e-4,
        )
        targets = rng.integers(0, 9, 6)
        _op_grad_check(
            lambda x: cross_entropy(x, targets),
            rng.standard_normal((6, 9)), tol=1e-4,
        )
        ids = rng.integers(0, 5, 7)
        w6 = rng.standard_normal((7, 3))
        _op_grad_check(
            lambda t: reduce_sum(mul(embedding(t, ids), w6)),
            rng.standard_normal((5, 3)), tol=1e-4,
        )

        # full tiny encoder against central finite differences
        params = init_encoder_params(TINY, np.random.default_rng(7),
                                     dtype=np.float64)
        tokens = np.random.default_rng(8).integers(0, TINY.vocab_size,
                                                   TINY.seq_len)
        targets = np.random.default_rng(9).integers(0, TINY.vocab_size,
                                                    TINY.seq_len)

        def model_loss():
            logits = encoder_forward(tokens, params, TINY)
            return cross_entropy(
                reshape(logits, (TINY.seq_len, TINY.vocab_size)), targets
            )

        model_loss().backward()
        for name, p in params.items():
            def scalar(x, p=p):
                saved = p.data
                p.data = x
                val = float(model_loss().data)
                p.data = saved
                return val

            numeric = finite_difference_grad(scalar, p.data.copy(), h=1e-5)
            err = relative_grad_error(p.grad, numeric, floor=1e-4)
            assert err < 1e-3, f"{name}: rel grad error {err}"

        elapsed = time.time() - start
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_causality_exact():
    with criterion(2, "perturbing token j never changes logits before j, "
                      "exactly, over 100 random perturbations"):
        params = init_encoder_params(TINY, np.random.default_rng(3),
                                     dtype=np.float32)
        rng = np.random.default_rng(4)
        for _ in range(100):
            tokens = rng.integers(0, TINY.vocab_size, TINY.seq_len)
            j = int(rng.integers(1, TINY.seq_len))
            perturbed = tokens.copy()
            perturbed[j] = (perturbed[j] + 1 +
                            rng.integers(TINY.vocab_size - 1)) % TINY.vocab_size
            base = encoder_forward(tokens, params, TINY).data
            out = encoder_forward(perturbed, params, TINY).data
            assert np.array_equal(base[:j], out[:j])


# -- criteria 3 and 4: desk-scale loss trends --------------------------------

def test_criterion_3_generalization_trend(fresh_run):
    with criterion(3, "fresh patch sets per epoch: held-out loss falls "
                      "(epoch 30 below epoch 5)"):
        ckpt, elapsed = fresh_run
        h = [s.heldout_loss for s in ckpt.loss_history]
        assert len(h) == 30
        assert h[29] < h[4], f"epoch30={h[29]:.4f} vs epoch5={h[4]:.4f}"
        assert elapsed < 900.0, f"desk training took {elapsed:.0f}s"


def test_criterion_4_overfitting_trend(fixed_100_run, fixed_500_run):
    with criterion(4, "fixed patch set: held-out loss rises, and the larger "
                      "fixed set ends lower"):
        h100 = [s.heldout_loss for s in fixed_100_run.loss_history]
        h500 = [s.heldout_loss for s in fixed_500_run.loss_history]
        assert h100[29] > h100[4], \
            f"fixed-100 epoch30={h100[29]:.4f} vs epoch5={h100[4]:.4f}"
        assert h500[29] < h100[29], \
            f"fixed-500 epoch30={h500[29]:.4f} vs fixed-100 {h100[29]:.4f}"


# -- criterion 5 -------------------------------------------------------------

def _random_stroke(rng) -> np.ndarray:
    n = int(rng.integers(12, 50))
    t = np.linspace(0.0, 1.0, n)
    fx, fy = rng.uniform(0.5, 2.5, 2)
    px, py = rng.uniform(0.0, 2 * np.pi, 2)
    ax, ay = rng.uniform(20.0, 70.0, 2)
    x = 90 + ax * np.cos(2 * np.pi * fx * t + px) * (0.3 + 0.7 * t)
    y = 90 + ay * np.sin(2 * np.pi * fy * t + py) * (0.3 + 0.7 * t)
    x += rng.uniform(-0.2, 0.2, n)
    y += rng.uniform(-0.2, 0.2, n)
    return np.stack([x, y], axis=1)


def test_criterion_5_geometry_bounds():
    with criterion(5, "fit and flatten error bounds hold on 1000 randomized "
                      "strokes; coarser flattening never adds points"):
        rng = np.random.default_rng(50)
        for _ in range(1000):
            pts = _random_stroke(rng)
            path = fit_path(pts, 1.0)
            residual = fit_residuals(pts, path, n_per_curve=300).max()
            if residual > 1.0:
                # the inscribed-polyline oracle overestimates by its sampling
                # sag; adjudicate borderline cases at high density
                residual = fit_residuals(pts, path, n_per_curve=20000).max()
            assert residual <= 1.0
            fine = flatten_path(path, 1.0)
            coarse = flatten_path(path, 3.0)
            assert max_deviation_curve_to_polyline(
                path, fine.points, n_per_curve=250) <= 1.0
            assert max_deviation_curve_to_polyline(
                path, coarse.points, n_per_curve=250) <= 3.0
            assert len(coarse.points) <= len(fine.points)


# -- criterion 6 -------------------------------------------------------------

def test_criterion_6_augmentation_invariants(boxes_image):
    with criterion(6, "containment, arc-length preservation, scale "
                      "proportionality, involutions and the permutation "
                      "property hold over 1000 seeded trials"):
        base_len = boxes_image.arc_length()
        root = np.random.default_rng(60)
        for trial in range(1000):
            rng = root.spawn(1)[0]
            patch, params = generate_patch_with_params(
                boxes_image, AugmentConfig(), rng
            )
            pts = patch.control_array()
            assert pts.min() >= 0.0 and pts.max() <= patch.boundary
            assert len(patch.paths) == len(boxes_image.paths)
            assert params.fit_shrink == 1.0
            expected = base_len * params.scale
            assert abs(patch.arc_length() - expected) <= 1e-6 * expected

            if trial < 200:
                # rigid ops preserve arc length
                rot = transform_image(boxes_image,
                                      Transform.rotate(params.angle))
                assert abs(rot.arc_length() - base_len) <= 1e-6 * base_len
                # mirror involution
                axis = "horizontal" if trial % 2 == 0 else "vertical"
                twice = transform_image(
                    transform_image(patch, Transform.mirror(axis)),
                    Transform.mirror(axis),
                )
                diff = max(
                    np.max(np.abs(a.control_array() - b.control_array()))
                    for a, b in zip(twice.paths, patch.paths)
                )
                assert diff <= 1e-12
                # reversal involution
                once = reverse_paths_random(patch, 1.0, np.random.default_rng(1))
                restored = reverse_paths_random(once, 1.0,
                                                np.random.default_rng(2))
                assert restored == patch
                # greedy reorder is a permutation of the path multiset
                ordered = order_paths_greedy(patch, np.random.default_rng(trial))
                assert sorted(
                    p.control_array().tobytes() for p in ordered.paths
                ) == sorted(p.control_array().tobytes() for p in patch.paths)


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_tokenizer():
    with criterion(7, "encode/decode identity, quantization bound and the "
                      "closed vocabulary size formula"):
        vocab = build_vocabulary([[IMAGE_END]], max_len=15)

        # enumeration oracle for the closed vocabulary size
        grid = {
            (pen, dx, dy)
            for pen in (False, True)
            for dx in range(-15, 16)
            for dy in range(-15, 16)
            if (dx, dy) != (0, 0)
        }
        assert vocab.size == len(grid) + 1 == 2 * ((2 * 15 + 1) ** 2 - 1) + 1
        assert vocab.size == 1921

        rng = np.random.default_rng(70)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            moves = []
            for _ in range(n):
                dx, dy = 0, 0
                while dx == 0 and dy == 0:
                    dx, dy = (int(v) for v in rng.integers(-15, 16, 2))
                moves.append((int(rng.integers(2)), dx, dy))
            moves.append(IMAGE_END)
            assert np.array_equal(decode(encode(moves, vocab), vocab), moves)

        for _ in range(1000):
            n = int(rng.integers(2, 14))
            pts = np.cumsum(rng.uniform(-25.0, 25.0, (n, 2)), axis=0)
            poly = Polyline(pts)
            moves = polyline_to_moves(poly, True, 15)
            pos = np.floor(pts[0] + 0.5)
            for _, dx, dy in moves:
                pos = pos + [dx, dy]
            assert np.all(np.abs(pos - pts[-1]) <= 0.5)


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_sampling(fresh_run):
    with criterion(8, "top-k sampling: argmax at k=1, exact zero outside the "
                      "top k, full-softmax match at k=V, and k=10 beats k=1 "
                      "on image variety"):
        rng = np.random.default_rng(80)
        for _ in range(10_000):
            logits = rng.standard_normal(int(rng.integers(2, 40)))
            assert top_k_sample(logits, 1, rng) == int(np.argmax(logits))

        for _ in range(2000):
            logits = rng.standard_normal(25)
            k = int(rng.integers(1, 26))
            top = set(np.argsort(-logits, kind="stable")[:k].tolist())
            assert top_k_sample(logits, k, rng) in top
            probs = top_k_distribution(logits, k)
            assert all(probs[i] == 0.0 for i in range(25) if i not in top)
            assert abs(probs.sum() - 1.0) < 1e-12

        logits = rng.standard_normal(10)
        n = 100_000
        draws = np.array([top_k_sample(logits, 10, rng) for _ in range(n)])
        counts = np.bincount(draws, minlength=10)
        z = logits - logits.max()
        probs = np.exp(z) / np.exp(z).sum()
        chi2 = float(np.sum((counts - n * probs) ** 2 / (n * probs)))
        assert chi2 < 21.666  # dof=9 critical value at p=0.01

        ckpt, _ = fresh_run
        greedy = generate_images(ckpt, SamplerConfig(k=1, seed=123), 50)
        varied = generate_images(ckpt, SamplerConfig(k=10, seed=123), 50)
        distinct_greedy = len({tuple(r.token_ids) for r in greedy})
        distinct_varied = len({tuple(r.token_ids) for r in varied})
        assert distinct_varied > distinct_greedy, \
            f"k=10 distinct {distinct_varied} vs k=1 distinct {distinct_greedy}"


# -- criterion 9 -------------------------------------------------------------

def test_criterion_9_determinism(boxes_image, tmp_path):
    with criterion(9, "seeded training is byte-identical and checkpoints "
                      "round-trip with bitwise-equal held-out loss"):
        cfg = TrainConfig(
            epochs=3, patches_per_epoch=10, batch_size=8, warmup_steps=20,
            heldout_patches=8, seq_ceiling=32, d_model=16, n_layers=2,
            n_heads=2, d_ff=32, seed=77,
        )
        a = train(boxes_image, cfg)
        b = train(boxes_image, cfg)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(a, pa)
        save_checkpoint(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

        restored = load_checkpoint(pa)
        patches = heldout_patch_set(restored, boxes_image)
        assert evaluate_held_out(a, patches) == \
            evaluate_held_out(restored, patches)


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_lr_schedule():
    with criterion(10, "learning-rate schedule peaks exactly at warmup, is "
                       "monotone on both sides and matches the closed form"):
        d, w = 52, 4000
        peak = lr_schedule(w, d, w)
        assert peak == d ** -0.5 * w ** -0.5
        for s in (1, 10, 100, w - 1):
            assert lr_schedule(s, d, w) < peak
        for s in (w + 1, 2 * w, 10 * w):
            assert lr_schedule(s, d, w) < peak
        ramp = [lr_schedule(s, d, 200) for s in range(1, 201)]
        assert all(x < y for x, y in zip(ramp, ramp[1:]))
        decay = [lr_schedule(s, d, 200) for s in range(200, 2000, 13)]
        assert all(x > y for x, y in zip(decay, decay[1:]))

        expected = d ** -0.5 * min(1.0 ** -0.5, 1.0 * w ** -1.5)
        got = lr_schedule(1, d, w)
        assert abs(got - expected) <= 1e-12 * expected
