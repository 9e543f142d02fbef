import dataclasses
import json
import math
import re
import weakref

import numpy as np
import pytest

from strokegen.autodiff import NonFiniteError, Tensor
from strokegen.geometry import Path, StrokeImage
from strokegen.training import (
    AdamState,
    Checkpoint,
    TrainConfig,
    adam_step,
    build_stream_batches,
    checkpoint_from_json,
    checkpoint_to_json,
    desk_preset,
    evaluate_held_out,
    heldout_patch_set,
    init_adam_state,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    stream_windows,
    train,
    train_step,
    write_loss_csv,
)
from strokegen.tokenizer import Vocabulary


def segment_path(x0, y0, x1, y1) -> Path:
    t = np.array([x1 - x0, y1 - y0]) / 3.0
    return Path([[
        [x0, y0],
        [x0 + t[0], y0 + t[1]],
        [x0 + 2 * t[0], y0 + 2 * t[1]],
        [x1, y1],
    ]])


@pytest.fixture(scope="module")
def micro_image() -> StrokeImage:
    return StrokeImage(
        [
            segment_path(70, 70, 110, 70),
            segment_path(110, 70, 110, 110),
            segment_path(110, 110, 70, 110),
        ],
        boundary=180.0,
    )


def micro_config(**overrides) -> TrainConfig:
    base = dict(
        epochs=2,
        patches_per_epoch=6,
        batch_size=8,
        warmup_steps=10,
        heldout_patches=6,
        seq_ceiling=16,
        d_model=8,
        n_layers=1,
        n_heads=2,
        d_ff=16,
        seed=11,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestLrSchedule:
    def test_peak_exactly_at_warmup(self):
        d, w = 52, 4000
        # analytic equality of both min terms at step == warmup
        assert w ** -0.5 == pytest.approx(w * w ** -1.5, rel=1e-15)
        assert lr_schedule(w, d, w) == pytest.approx(
            d ** -0.5 * w ** -0.5, rel=1e-15
        )

    def test_spot_value_step_one(self):
        expected = 52 ** -0.5 * 1 * 4000 ** -1.5  # ~5.48e-7
        got = lr_schedule(1, 52, 4000)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(5.4818e-7, rel=1e-4)

    def test_unimodal(self):
        w = 4000
        assert lr_schedule(2 * w, 52, w) < lr_schedule(w, 52, w)
        assert lr_schedule(w // 2, 52, w) < lr_schedule(w, 52, w)

    def test_monotone_on_both_sides(self):
        w = 100
        ramp = [lr_schedule(s, 52, w) for s in range(1, w + 1)]
        decay = [lr_schedule(s, 52, w) for s in range(w, 5 * w, 7)]
        assert all(a < b for a, b in zip(ramp, ramp[1:]))
        assert all(a > b for a, b in zip(decay, decay[1:]))

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(0, 52, 4000)


class TestAdamStep:
    def test_zero_gradient_leaves_params(self):
        params = {"w": Tensor(np.ones(4), requires_grad=True)}
        state = init_adam_state(params)
        adam_step(params, {"w": np.zeros(4)}, state, lr=0.1)
        assert np.array_equal(params["w"].data, np.ones(4))

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        params = {"w": Tensor(np.zeros(3, dtype=np.float64),
                              requires_grad=True)}
        state = init_adam_state(params)
        g = np.array([0.5, -2.0, 10.0])
        lr = 1e-3
        prev = params["w"].data.copy()
        for _ in range(200):
            prev = params["w"].data.copy()
            adam_step(params, {"w": g}, state, lr=lr)
        step_mag = np.abs(params["w"].data - prev)
        assert np.allclose(step_mag, lr, rtol=1e-3)

    def test_quadratic_bowl_converges(self):
        params = {"x": Tensor(np.array([5.0]), requires_grad=True)}
        state = init_adam_state(params)
        for _ in range(2000):
            x = params["x"].data
            adam_step(params, {"x": 2.0 * x}, state, lr=1e-2)
        assert float(params["x"].data[0] ** 2) < 1e-3

    def test_nan_gradient_aborts(self):
        params = {"w": Tensor(np.ones(2), requires_grad=True)}
        state = init_adam_state(params)
        with pytest.raises(NonFiniteError):
            adam_step(params, {"w": np.array([np.nan, 0.0])}, state, lr=0.1)

    def test_non_finite_last_gradient_changes_nothing(self):
        rng = np.random.default_rng(3)
        names = ["a", "b", "c"]
        params = {n: Tensor(rng.standard_normal(3), requires_grad=True)
                  for n in names}
        state = init_adam_state(params)
        adam_step(params, {n: rng.standard_normal(3) for n in names}, state,
                  lr=0.1)
        before = ({n: p.data.copy() for n, p in params.items()},
                  {n: m.copy() for n, m in state.m.items()},
                  {n: v.copy() for n, v in state.v.items()}, state.step)
        grads = {n: rng.standard_normal(3) for n in names}
        grads["c"][1] = np.nan
        with pytest.raises(NonFiniteError,
                           match="non-finite gradient for parameter 'c'"):
            adam_step(params, grads, state, lr=0.1)
        for name in names:
            assert np.array_equal(params[name].data, before[0][name]), name
            assert np.array_equal(state.m[name], before[1][name]), name
            assert np.array_equal(state.v[name], before[2][name]), name
        assert state.step == before[3] == 1


class TestStreamBatches:
    def test_exact_window_stream(self):
        seq = list(range(9))  # L+1 = 9
        batches = build_stream_batches([seq], 8, 4, np.random.default_rng(0))
        assert len(batches) == 1
        inputs, targets = batches[0]
        assert inputs.shape == (1, 8)
        assert np.array_equal(targets[0][:-1], inputs[0][1:])

    def test_ten_windows_disjoint_coverage(self):
        length = 8
        seqs = [list(range(i * 9, (i + 1) * 9)) for i in range(10)]
        windows = stream_windows(seqs, length)
        assert windows.shape == (10, 9)
        flat = windows.reshape(-1)
        assert len(set(flat.tolist())) == len(flat)  # every token used once

    def test_targets_shift_inputs(self):
        rng = np.random.default_rng(1)
        seqs = [rng.integers(0, 50, rng.integers(5, 30)).tolist()
                for _ in range(8)]
        if sum(len(s) for s in seqs) < 11:
            seqs.append(list(range(20)))
        for inputs, targets in build_stream_batches(seqs, 10, 3, rng):
            assert np.array_equal(inputs[:, 1:], targets[:, :-1])

    def test_trailing_partial_window_dropped(self):
        seq = list(range(25))  # L+1=10 -> 2 windows, 5 tokens dropped
        windows = stream_windows([seq], 9)
        assert windows.shape == (2, 10)

    def test_short_stream_rejected(self):
        with pytest.raises(ValueError):
            build_stream_batches([[1, 2, 3]], 8, 4, np.random.default_rng(0))

    def test_batch_grouping(self):
        seqs = [list(range(90))]  # 10 windows at L=8
        batches = build_stream_batches(seqs, 8, 4, np.random.default_rng(2))
        assert [b[0].shape[0] for b in batches] == [4, 4, 2]


@pytest.fixture(scope="module")
def run(micro_image):
    return train(micro_image, micro_config())


class TestTrainLoop:
    def test_history_length(self, run):
        assert len(run.loss_history) == 2
        assert [s.epoch for s in run.loss_history] == [1, 2]

    def test_losses_positive(self, run):
        for s in run.loss_history:
            assert s.train_loss > 0.0 and s.heldout_loss > 0.0

    def test_untrained_loss_near_log_v(self, micro_image, run):
        # same shapes as the trained run, but freshly initialized parameters
        from strokegen.model import init_encoder_params

        params = init_encoder_params(run.model, np.random.default_rng(0))
        untrained = Checkpoint(
            model=run.model, train=run.train, vocab=run.vocab,
            params={k: p.data for k, p in params.items()},
            epoch=0, loss_history=[], rng_state={"seed": 0},
        )
        patches = heldout_patch_set(run, micro_image)
        loss = evaluate_held_out(untrained, patches)
        assert loss == pytest.approx(math.log(run.model.vocab_size), rel=0.10)

    def test_deterministic_byte_identical(self, micro_image, run, tmp_path):
        again = train(micro_image, micro_config())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(run, a)
        save_checkpoint(again, b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, micro_image, run):
        other = train(micro_image, micro_config(seed=99))
        assert any(
            not np.array_equal(run.params[k], other.params[k])
            for k in run.params
        )

    def test_checkpoint_round_trip_bitwise_loss(self, micro_image, run,
                                                tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(run, path)
        restored = load_checkpoint(path)
        patches = heldout_patch_set(restored, micro_image)
        a = evaluate_held_out(run, patches)
        b = evaluate_held_out(restored, patches)
        assert a == b

    def test_evaluate_is_pure(self, micro_image, run):
        patches = heldout_patch_set(run, micro_image)
        assert evaluate_held_out(run, patches) == evaluate_held_out(run, patches)

    def test_non_finite_head_names_output_w(self, micro_image, run):
        weights = {k: v.copy() for k, v in run.params.items()}
        weights["output.w"][0] = np.nan
        named = (r"^output: cross_entropy produced non-finite values in its "
                 r"logits h @ w of shape .*; non-finite parameters: output\.w$")
        patches = heldout_patch_set(run, micro_image)
        with pytest.raises(NonFiniteError, match=named):
            evaluate_held_out(dataclasses.replace(run, params=weights), patches)
        params = {k: Tensor(v, requires_grad=True) for k, v in weights.items()}
        window = stream_windows([np.arange(run.model.seq_len + 1) % 7],
                                run.model.seq_len)
        with pytest.raises(NonFiniteError, match=named):
            train_step(params, init_adam_state(params), run.model, run.train,
                       window[:, :-1], window[:, 1:])

    def test_fixed_patch_set_regime_runs(self, micro_image):
        ckpt = train(micro_image, micro_config(fixed_patch_set=6))
        assert len(ckpt.loss_history) == 2

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError):
            train(StrokeImage([], 180.0), micro_config())

    def test_step_tape_is_freed_before_the_next_forward(self, micro_image,
                                                         monkeypatch):
        from strokegen import training

        forward, loss_fn = training.encoder_forward, training.cross_entropy
        tape: list[weakref.ref] = []  # each step's hidden states and loss
        alive: list[int] = []  # per forward: earlier tape arrays still held

        def watched_forward(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in tape))
            hidden = forward(*args, **kwargs)
            if hidden.requires_grad:
                tape.append(weakref.ref(hidden.data))
            return hidden

        def watched_loss(*args):
            loss = loss_fn(*args)
            if loss.requires_grad:
                tape.append(weakref.ref(loss.data))
            return loss

        monkeypatch.setattr(training, "encoder_forward", watched_forward)
        monkeypatch.setattr(training, "cross_entropy", watched_loss)
        ckpt = train(micro_image, micro_config())
        steps = ckpt.rng_state["optimizer_steps"]
        assert steps > 1 and len(tape) == 2 * steps
        assert alive == [0] * len(alive)


class TestCheckpointFormat:
    def test_json_round_trip_equality(self, micro_image):
        ckpt = train(micro_image, micro_config(epochs=1))
        restored = checkpoint_from_json(
            json.loads(json.dumps(checkpoint_to_json(ckpt)))
        )
        assert restored.model == ckpt.model
        assert restored.train == ckpt.train
        assert restored.vocab == ckpt.vocab
        assert restored.loss_history == ckpt.loss_history
        assert set(restored.params) == set(ckpt.params)
        for k in ckpt.params:
            assert np.array_equal(restored.params[k], ckpt.params[k])

    def test_version_check(self):
        with pytest.raises(ValueError):
            checkpoint_from_json({"version": 999})

    def test_each_fact_is_stored_once(self, run):
        data = checkpoint_to_json(run)
        assert set(data) == {"version", "boundary", "seq_len", "train",
                             "epoch", "loss_history", "rng_state", "params"}
        assert data["version"] == 2
        assert data["seq_len"] == run.model.seq_len
        assert set(data["params"]) == set(run.params)
        assert all(isinstance(v, str) for v in data["params"].values())
        assert set(data["rng_state"]) == {"optimizer_steps", "blas_threads"}

    @pytest.mark.parametrize("change, field", [
        (lambda c: {"model": dataclasses.replace(c.model, d_ff=32)},
         "model.d_ff is 32, but train derives 16"),
        (lambda c: {"vocab": Vocabulary(3)},
         "vocab.max_move_length is 3, but train derives 15"),
        (lambda c: {"params": {**c.params,
                               "layer0.ff.w1": c.params["layer0.ff.w1"].T}},
         "parameter 'layer0.ff.w1' shape is [16, 8], but train derives "
         "[8, 16]"),
        (lambda c: {"model": dataclasses.replace(
            c.model, seq_len=c.train.seq_ceiling + 1)},
         "seq_len 17 exceeds the train setting seq_ceiling 16"),
    ], ids=["model", "vocab", "transposed-weight", "long-seq-len"])
    def test_writer_refuses_what_train_does_not_derive(self, run, change,
                                                       field):
        ckpt = dataclasses.replace(run, **change(run))
        with pytest.raises(ValueError, match=re.escape(field)):
            checkpoint_to_json(ckpt)

    def test_failed_save_keeps_the_old_checkpoint(self, run, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(run, path)
        before = path.read_bytes()

        def dump_then_fail(obj, fh, **kwargs):
            fh.write('{"boundary":180.0,"epoch":')
            raise OSError("no space left on device")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        with pytest.raises(OSError, match="no space left"):
            save_checkpoint(run, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]

    def test_loss_csv(self, micro_image, tmp_path):
        ckpt = train(micro_image, micro_config(epochs=2))
        path = tmp_path / "loss.csv"
        write_loss_csv(ckpt.loss_history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,heldout_loss"
        assert len(lines) == 3


class TestDeskPreset:
    def test_fields(self):
        cfg = desk_preset()
        assert cfg.epochs == 30
        assert cfg.patches_per_epoch == 100
        assert cfg.d_model % cfg.n_heads == 0

    @pytest.mark.parametrize("bound", [float("nan"), 0.0])
    def test_flatten_error_must_be_positive(self, bound):
        with pytest.raises(ValueError, match="flatten_error must be positive"):
            desk_preset(flatten_error=bound)

    def test_overrides(self):
        cfg = desk_preset(epochs=5, fixed_patch_set=100)
        assert cfg.epochs == 5
        assert cfg.fixed_patch_set == 100
