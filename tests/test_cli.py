import base64
import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from strokegen import cli
from strokegen.cli import build_parser, main
from strokegen.demo import make_demo_recording
from strokegen.geometry import load_path_image
from strokegen.model import config_from_json
from strokegen.training import (
    EpochMetrics,
    EpochStats,
    TrainConfig,
    desk_preset,
    load_checkpoint,
    save_checkpoint,
    train,
)

# micro settings for fast tests
MICRO_CFG = {"epochs": 2, "patches_per_epoch": 6, "batch_size": 8,
             "warmup_steps": 10, "heldout_patches": 6, "seq_ceiling": 16,
             "d_model": 8, "n_layers": 1, "n_heads": 2, "d_ff": 16}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["demo-recording", "boxes", "-o", str(root / "rec.json")]) == 0
    assert main([
        "ingest", str(root / "rec.json"), "-o", str(root / "img.json"),
    ]) == 0
    (root / "micro.json").write_text(json.dumps(MICRO_CFG))
    assert main([
        "train", str(root / "img.json"), "-o", str(root / "run"),
        "--config", str(root / "micro.json"), "--seed", "3",
    ]) == 0
    return root


class TestIngest:
    @pytest.mark.parametrize("kind", ["boxes", "curls", "spikes", "circles"])
    def test_demo_recordings_ingest_contained(self, tmp_path, kind):
        rec = tmp_path / "r.json"
        out = tmp_path / "i.json"
        assert main(["demo-recording", kind, "-o", str(rec)]) == 0
        assert main(["ingest", str(rec), "-o", str(out)]) == 0
        image = load_path_image(out)
        pts = image.control_array()
        assert pts.min() >= 0.0 and pts.max() <= image.boundary

    def test_single_straight_stroke_one_curve(self, tmp_path, capsys):
        rec = tmp_path / "line.json"
        rec.write_text(json.dumps({
            "boundary": 180,
            "strokes": [[[10, 10], [40, 30], [70, 50], [100, 70]]],
        }))
        out = tmp_path / "line-img.json"
        assert main(["ingest", str(rec), "-o", str(out)]) == 0
        image = load_path_image(out)
        assert len(image.paths) == 1
        assert len(image.paths[0]) == 1
        assert "path 0: 1 curves" in capsys.readouterr().out

    def test_empty_recording_writes_an_image_with_no_paths(self, tmp_path):
        rec, out = tmp_path / "empty.json", tmp_path / "empty-img.json"
        rec.write_text(json.dumps({"strokes": []}))
        assert main(["ingest", str(rec), "-o", str(out)]) == 0
        assert json.loads(out.read_text()) == {"boundary": 180.0, "paths": []}

    def test_looser_fit_error_fewer_curves(self, tmp_path):
        rec = tmp_path / "r.json"
        assert main(["demo-recording", "curls", "-o", str(rec)]) == 0
        counts = {}
        for err in ("1", "3"):
            out = tmp_path / f"img{err}.json"
            assert main(["ingest", str(rec), "-o", str(out),
                         "--fit-error", err]) == 0
            image = load_path_image(out)
            counts[err] = len(image.controls)
        assert counts["3"] <= counts["1"]

    @pytest.mark.parametrize("err", ["nan", "0", "-1"])
    def test_bad_fit_error_exit_2(self, tmp_path, capsys, err):
        rec = tmp_path / "r.json"
        assert main(["demo-recording", "boxes", "-o", str(rec)]) == 0
        assert main(["ingest", str(rec), "-o", str(tmp_path / "img.json"),
                     "--fit-error", err]) == 2
        assert "fit_error must be positive" in capsys.readouterr().err
        assert not (tmp_path / "img.json").exists()

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["ingest", str(bad), "-o", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: Expecting property name enclosed in double "
            f"quotes: line 1 column 2 (char 1)\n")
        assert not (tmp_path / "x.json").exists()

    def test_written_image_bytes_are_pinned(self, tmp_path):
        # demo-recording then ingest, through the CLI; the sha256 is that of
        # the image the reference fitter of tests/fit_oracle.py writes
        rec, out = tmp_path / "rec.json", tmp_path / "img.json"
        assert main(["demo-recording", "boxes", "-o", str(rec)]) == 0
        assert main(["ingest", str(rec), "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "9cc4287d942cde754685f628eb834031c8cdbdd76658c4a1bb3fb41d746377e3")

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["ingest", str(tmp_path / "nope.json"),
                     "-o", str(tmp_path / "x.json")]) == 2

    def test_recording_that_is_a_list_exit_2(self, tmp_path, capsys):
        rec = tmp_path / "list.json"
        rec.write_text(json.dumps([[[1, 1], [5, 5]]]))
        assert main(["ingest", str(rec), "-o", str(tmp_path / "x.json")]) == 2
        assert ("recording must be an object with a 'strokes' list"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.json").exists()


GOOD_CURVE = [[10, 10], [20, 10], [30, 10], [40, 10]]


@pytest.mark.parametrize("paths, where", [
    ([5], "path 0: expected a list of curves"),
    ([[GOOD_CURVE, [[40, 10], [50, None], [60, 10], [70, 10]]]],
     "path 0: curve 1 has a non-finite coordinate"),
    ([[GOOD_CURVE], [[[3, 3, 7], [5, 5], [6, 6], [8, 8]]]],
     "path 1, curve 0: expected 4 [x, y] points"),
], ids=["number-path", "null-coordinate", "three-coordinates"])
def test_malformed_path_image_exit_2(workdir, tmp_path, capsys, paths, where):
    bad = tmp_path / "bad-img.json"
    bad.write_text(json.dumps({"boundary": 180, "paths": paths}))
    assert main([
        "train", str(bad), "-o", str(tmp_path / "x"),
        "--config", str(workdir / "micro.json"),
    ]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("command, data, message", [
    ("augment-preview", {"boundary": None, "paths": [[GOOD_CURVE]]},
     "'boundary' must be a finite number > 0, got None"),
    ("augment-preview", {"boundary": float("nan"), "paths": [[GOOD_CURVE]]},
     "'boundary' must be a finite number > 0, got nan"),
    ("augment-preview", {"boundary": "180", "paths": [[GOOD_CURVE]]},
     "'boundary' must be a finite number > 0, got '180'"),
    ("ingest", {"boundary": float("inf"), "strokes": [[[1, 1], [5, 5]]]},
     "'boundary' must be a finite number > 0, got inf"),
    ("ingest", {"boundary": 0, "strokes": [[[1, 1], [5, 5]]]},
     "'boundary' must be a finite number > 0, got 0"),
    ("ingest", {"boundary": 10 ** 400, "strokes": [[[1, 1], [5, 5]]]},
     "'boundary' must be a finite number > 0, got 1000"),
    ("ingest", {"strokes": 5},
     "recording must be an object with a 'strokes' list"),
    ("ingest", {"strokes": [[[1, 1], [5, 5]], [[3, 3], [3, 3]]]},
     "stroke 1: need at least 2 distinct points to fit a path"),
    ("ingest", {"strokes": [[[0, 0], [1]]]},
     "error: stroke 0: setting an array element with a sequence"),
    ("ingest", {"strokes": [[["a", 1], [2, 2]]]},
     "error: stroke 0: could not convert string to float: 'a'"),
], ids=["null-boundary", "nan-boundary", "string-boundary", "inf-boundary",
        "zero-boundary", "huge-boundary", "number-strokes",
        "one-point-stroke", "ragged-stroke", "string-coordinate"])
def test_malformed_canvas_exit_2(tmp_path, capsys, command, data, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main([command, str(bad), "-o" if command == "ingest" else "--out",
                 str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


class TestTrain:
    def test_outputs_written(self, workdir):
        run = workdir / "run"
        assert (run / "checkpoint.json").exists()
        csv_lines = (run / "loss.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "epoch,train_loss,heldout_loss"
        assert len(csv_lines) == 3  # header + 2 epochs
        ET.fromstring((run / "loss.svg").read_text())

    def test_metrics_jsonl_round_trips_outside_the_checkpoint(self, workdir,
                                                              tmp_path):
        run = workdir / "run"
        lines = (run / "metrics.jsonl").read_text().splitlines()
        records = [EpochMetrics(**json.loads(line)) for line in lines]
        assert [json.dumps(dataclasses.asdict(r)) for r in records] == lines
        ckpt = load_checkpoint(run / "checkpoint.json")
        assert [EpochStats(r.epoch, r.train_loss, r.heldout_loss)
                for r in records] == ckpt.loss_history
        for r in records:
            assert min(r.data_s, r.step_s, r.eval_s) >= 0.0
            assert r.tokens_per_s > 0.0 and r.lr > 0.0
            assert math.isfinite(r.grad_norm) and r.grad_norm > 0.0
        # the same training without the metrics writes the same bytes
        cfg = dataclasses.replace(
            TrainConfig(), seed=3,
            **json.loads((workdir / "micro.json").read_text()))
        save_checkpoint(train(load_path_image(workdir / "img.json"), cfg),
                        tmp_path / "checkpoint.json")
        assert (tmp_path / "checkpoint.json").read_bytes() == \
            (run / "checkpoint.json").read_bytes()

    def test_checkpoint_loadable(self, workdir):
        ckpt = load_checkpoint(workdir / "run" / "checkpoint.json")
        assert ckpt.epoch == 2

    def test_same_seed_byte_identical(self, workdir, tmp_path):
        for d in ("a", "b"):
            assert main([
                "train", str(workdir / "img.json"), "-o", str(tmp_path / d),
                "--config", str(workdir / "micro.json"), "--seed", "3",
            ]) == 0
        assert (tmp_path / "a" / "checkpoint.json").read_bytes() == \
            (tmp_path / "b" / "checkpoint.json").read_bytes()
        assert (tmp_path / "a" / "checkpoint.json").read_bytes() == \
            (workdir / "run" / "checkpoint.json").read_bytes()

    def test_trend_line_printed(self, workdir, tmp_path, capsys):
        assert main([
            "train", str(workdir / "img.json"), "-o", str(tmp_path / "t"),
            "--config", str(workdir / "micro.json"), "--seed", "1",
            "--fixed-patch-set", "6",
        ]) == 0
        assert "held-out trend:" in capsys.readouterr().out

    @pytest.mark.parametrize("heldout, trend", [
        ([5.0], "n/a (one epoch)"),
        # against epoch 1: epoch 3 is not compared with itself
        ([5.0, 6.0, 5.5], "rising (model is overfitting its patch set)"),
        ([5.0, 4.0, 4.5], "falling"),
        # against epoch 5, not epoch 1
        ([9.0, 8.0, 7.0, 6.0, 3.0, 4.0, 5.0],
         "rising (model is overfitting its patch set)"),
        ([1.0, 2.0, 3.0, 4.0, 9.0, 8.0, 7.0], "falling"),
    ], ids=["1-epoch", "3-epoch-rising", "3-epoch-falling", "7-epoch-rising",
            "7-epoch-falling"])
    def test_trend_compares_the_last_epoch_with_an_earlier_one(
            self, workdir, tmp_path, capsys, monkeypatch, heldout, trend):
        from strokegen import cli

        history = [EpochStats(i + 1, 1.0, h) for i, h in enumerate(heldout)]
        ckpt = dataclasses.replace(
            load_checkpoint(workdir / "run" / "checkpoint.json"),
            epoch=len(history), loss_history=history)
        monkeypatch.setattr(cli, "train", lambda *a, **kw: ckpt)
        assert main([
            "train", str(workdir / "img.json"), "-o", str(tmp_path / "t"),
            "--config", str(workdir / "micro.json"),
        ]) == 0
        assert f"held-out trend: {trend}\n" in capsys.readouterr().out

    def test_checkpoint_train_settings_reproduce_the_run(self, workdir,
                                                         tmp_path):
        # a checkpoint's train object is a config file for the same run
        first = workdir / "run" / "checkpoint.json"
        settings = tmp_path / "train.json"
        settings.write_text(json.dumps(json.loads(first.read_text())["train"]))
        assert main([
            "train", str(workdir / "img.json"), "-o", str(tmp_path / "again"),
            "--config", str(settings),
        ]) == 0
        assert (tmp_path / "again" / "checkpoint.json").read_bytes() == \
            first.read_bytes()

    def test_unknown_config_key_exit_2(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"nonsense": 5}')
        assert main([
            "train", str(workdir / "img.json"), "-o", str(tmp_path / "x"),
            "--config", str(cfg),
        ]) == 2
        assert (f"error: unknown {cfg} settings: ['nonsense']"
                in capsys.readouterr().err)

    def test_wrongly_typed_config_value_exit_2(self, workdir, tmp_path,
                                               capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"seed": 1, "epochs": 1.5}')
        assert main([
            "train", str(workdir / "img.json"), "-o", str(tmp_path / "x"),
            "--config", str(cfg),
        ]) == 2
        assert (f"error: {cfg} setting 'epochs' must be int, got 1.5"
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("setting, message", [
        ('{"n_heads": 0}', "n_heads must be >= 1"),
        ('{"d_ff": 0}', "d_ff must be >= 1"),
        ('{"d_model": 0}', "d_model must be >= 1"),
        ('{"n_layers": 0}', "n_layers must be >= 1"),
        ('{"beta1": 1.5}', "beta1 must be in [0, 1)"),
        ('{"beta1": -0.1}', "beta1 must be in [0, 1)"),
        ('{"beta2": 1.0}', "beta2 must be in [0, 1)"),
        ('{"adam_eps": 0}', "adam_eps must be positive"),
        ('{"adam_eps": NaN}', "adam_eps must be positive"),
        ('{"flatten_error": NaN}', "flatten_error must be positive, got nan"),
        ('{"flatten_error": 0}', "flatten_error must be positive, got 0.0"),
    ])
    def test_bad_model_or_optimizer_setting_exit_2(self, workdir, tmp_path,
                                                  capsys, setting, message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(setting)
        assert main([
            "train", str(workdir / "img.json"), "-o", str(tmp_path / "x"),
            "--preset", "desk", "--config", str(cfg),
        ]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("setting, message", [
        ('{"scale_min": 0}', "scale_min must be in (0, 1]"),
        ('{"reversal_probability": 1.5}',
         "reversal_probability must be in [0, 1]"),
        ('{"d_model": 30}', "d_model 30 not divisible by 4 heads"),
        ('{"seed": -1}', "seed must be >= 0, got -1"),
        # each patch count too small to fill one window of the stream
        ('{"seq_ceiling": 512, "heldout_patches": 1}',
         "error: heldout_patches 1 gives 82 tokens, fewer than one window "
         "of 120"),
        ('{"seq_ceiling": 512, "patches_per_epoch": 1}',
         "error: patches_per_epoch 1 gives 116 tokens, fewer than one window "
         "of 120"),
        ('{"seq_ceiling": 512, "fixed_patch_set": 1}',
         "error: fixed_patch_set 1 gives 117 tokens, fewer than one window "
         "of 120"),
    ])
    def test_bad_setting_leaves_the_output_directory_alone(
            self, workdir, tmp_path, capsys, setting, message):
        out = tmp_path / "run"
        out.mkdir()
        (out / "metrics.jsonl").write_bytes(b'{"epoch": 1}\n')
        cfg = tmp_path / "bad.json"
        cfg.write_text(setting)
        assert main([
            "train", str(workdir / "img.json"), "-o", str(out),
            "--preset", "desk", "--config", str(cfg),
        ]) == 2
        assert message in capsys.readouterr().err
        assert (out / "metrics.jsonl").read_bytes() == b'{"epoch": 1}\n'
        assert [p.name for p in out.iterdir()] == ["metrics.jsonl"]

    def test_refused_image_leaves_the_metrics_alone(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"boundary": 180, "paths": []}))
        out = tmp_path / "run"
        out.mkdir()
        (out / "metrics.jsonl").write_bytes(b'{"epoch": 1}\n')
        assert main(["train", str(empty), "-o", str(out),
                     "--preset", "desk"]) == 2
        assert ("cannot train on an image without paths"
                in capsys.readouterr().err)
        assert (out / "metrics.jsonl").read_bytes() == b'{"epoch": 1}\n'
        assert [p.name for p in out.iterdir()] == ["metrics.jsonl"]

    @pytest.mark.parametrize("image, setting, message", [
        ("img.json", '{"seq_ceiling": 512, "heldout_patches": 1}',
         "heldout_patches 1 gives 82 tokens, fewer than one window of 120"),
        ("empty.json", "{}", "cannot train on an image without paths"),
    ])
    def test_a_refused_run_makes_no_output_directory(
            self, workdir, tmp_path, capsys, image, setting, message):
        (tmp_path / "empty.json").write_text(
            json.dumps({"boundary": 180, "paths": []}))
        path = workdir / image if image == "img.json" else tmp_path / image
        cfg = tmp_path / "cfg.json"
        cfg.write_text(setting)
        out = tmp_path / "new" / "run"
        assert main(["train", str(path), "-o", str(out), "--preset", "desk",
                     "--epochs", "1", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("refused", [
        "metrics.jsonl", "checkpoint.json", "loss.csv", "loss.svg"])
    def test_a_failed_rename_keeps_the_earlier_file(self, workdir, tmp_path,
                                                    monkeypatch, capsys,
                                                    refused):
        # the order in which a run writes its files
        written = ["metrics.jsonl", "checkpoint.json", "loss.csv", "loss.svg"]
        out = tmp_path / "run"
        shutil.copytree(workdir / "run", out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == sorted(written)
        replace = os.replace

        def refusing_replace(src, dst):
            if Path(dst).name == refused:
                raise OSError(f"cannot rename over {dst}")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", refusing_replace)
        assert main([
            "train", str(workdir / "img.json"), "-o", str(out),
            "--config", str(workdir / "micro.json"), "--seed", "4",
        ]) == 2
        assert f"cannot rename over {out / refused}" in capsys.readouterr().err
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(after) == sorted(written)  # no temp file is left
        at = written.index(refused)
        # the refused file and every later one keep the earlier run's bytes
        for name in written[at:]:
            assert after[name] == before[name]
        for name in written[:at]:
            assert after[name] != before[name]

    def test_numeric_failure_exit_3(self, workdir, tmp_path, monkeypatch):
        from strokegen import cli
        from strokegen.autodiff import NonFiniteError

        def explode(*a, **kw):
            raise NonFiniteError("non-finite gradient for parameter 'w'")

        monkeypatch.setattr(cli, "train", explode)
        assert main([
            "train", str(workdir / "img.json"), "-o", str(tmp_path / "x"),
            "--config", str(workdir / "micro.json"),
        ]) == 3


@pytest.mark.parametrize("command, out", [
    (["train", "img.json", "-o", "new-run", "--preset", "desk"], "new-run"),
    (["sample", "run/checkpoint.json", "--out", "grid.svg"], "grid.svg"),
    (["augment-preview", "img.json", "--out", "preview.svg"], "preview.svg"),
], ids=["train", "sample", "augment-preview"])
def test_negative_seed_exit_2_and_writes_nothing(workdir, tmp_path, capsys,
                                                command, out):
    args = [str(workdir / a) if a.endswith(".json") else a for a in command]
    args[args.index(out)] = str(tmp_path / out)
    assert main([*args, "--seed", "-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("command, work, out, message", [
    (["ingest", "rec.json", "-o"], "recording_to_image", "missing/img.json",
     "output file {out}: {tmp}/missing is not a directory"),
    (["train", "img.json", "--preset", "desk", "-o"], "train", "file",
     "output directory {out} is an existing file"),
    (["train", "img.json", "--preset", "desk", "-o"], "train", "file/run",
     "output directory {out}: {tmp}/file is not a directory"),
    (["sample", "run/checkpoint.json", "--out"], "generate_images",
     "missing/s.svg", "output file {out}: {tmp}/missing is not a directory"),
    (["augment-preview", "img.json", "--out"], "generate_patch_set", "dir",
     "output file {out} is a directory"),
    (["demo-recording", "boxes", "-o"], "make_demo_recording", "file/rec.json",
     "output file {out}: {tmp}/file is not a directory"),
], ids=["ingest", "train", "train-under-a-file", "sample", "augment-preview",
        "demo-recording"])
def test_a_bad_output_path_exit_2_before_any_work(
        workdir, tmp_path, monkeypatch, capsys, command, work, out, message):
    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output was checked")

    monkeypatch.setattr(cli, work, never)
    (tmp_path / "file").write_text("kept")
    (tmp_path / "dir").mkdir()
    args = [str(workdir / a) if a.endswith(".json") else a for a in command]
    assert main([*args, str(tmp_path / out)]) == 2
    assert (f"error: {message}\n".format(out=tmp_path / out, tmp=tmp_path)
            == capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "file"]
    assert (tmp_path / "file").read_text() == "kept"


def test_an_output_path_with_no_parent_is_checked(workdir, tmp_path,
                                                  monkeypatch, capsys):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, "train", reached)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(Reached):  # "." is a directory: train is reached
        main(["train", str(workdir / "img.json"), "--preset", "desk",
              "-o", "."])
    assert main(["sample", str(workdir / "run" / "checkpoint.json"),
                 "--out", "/"]) == 2
    assert capsys.readouterr().err == "error: output file / is a directory\n"


def one_writer_argv(workdir, out, variant):
    """Each command that is not train writing into ``out``, in one of two
    variants whose outputs differ."""
    recording = out.parent / f"rec{variant}.json"
    recording.write_text(json.dumps(make_demo_recording(
        ("boxes", "curls")[variant])))
    return {
        "ingest": ["ingest", str(recording), "-o", str(out / "img.json")],
        "sample": ["sample", str(workdir / "run" / "checkpoint.json"),
                   "--out", str(out / "s.svg"), "--count", "2",
                   "--max-moves", "20", "--seed", str(variant)],
        "augment-preview": ["augment-preview", str(workdir / "img.json"),
                            "--out", str(out / "p.svg"), "-n", "2",
                            "--seed", str(variant)],
        "demo-recording": ["demo-recording", ("boxes", "curls")[variant],
                           "-o", str(out / "rec.json")],
    }


@pytest.mark.parametrize("command, written, refused", [
    ("ingest", ["img.json"], "img.json"),
    ("sample", ["s.svg", "s.meta.json"], "s.svg"),
    ("sample", ["s.svg", "s.meta.json"], "s.meta.json"),
    ("augment-preview", ["p.svg"], "p.svg"),
    ("demo-recording", ["rec.json"], "rec.json"),
])
def test_a_failed_rename_keeps_every_commands_earlier_file(
        workdir, tmp_path, monkeypatch, capsys, command, written, refused):
    # ``written``: the files the command writes, in order
    out = tmp_path / "out"
    out.mkdir()
    assert main(one_writer_argv(workdir, out, 0)[command]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == sorted(written)
    replace = os.replace

    def refusing_replace(src, dst):
        if Path(dst).name == refused:
            raise OSError(f"cannot rename over {dst}")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refusing_replace)
    assert main(one_writer_argv(workdir, out, 1)[command]) == 2
    assert f"cannot rename over {out / refused}" in capsys.readouterr().err
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(after) == sorted(written)  # no temp file is left
    at = written.index(refused)
    # the refused file and every later one keep the earlier run's bytes
    for name in written[at:]:
        assert after[name] == before[name]
    for name in written[:at]:
        assert after[name] != before[name]


def test_an_ingest_that_fails_partway_keeps_the_earlier_image(
        workdir, tmp_path, monkeypatch, capsys):
    out = tmp_path / "img.json"
    shutil.copy(workdir / "img.json", out)
    before = out.read_bytes()

    def dump_then_fail(obj, fh, **kw):
        fh.write('{"boundary": 180.0, "paths": [[')
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    assert main(["ingest", str(workdir / "rec.json"), "-o", str(out)]) == 2
    assert "error: no space left on device" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["img.json"]


class TestSample:
    def test_sample_grid_and_metadata(self, workdir, tmp_path, capsys):
        out = tmp_path / "grid.svg"
        assert main([
            "sample", str(workdir / "run" / "checkpoint.json"),
            "--out", str(out), "--k", "5", "--count", "4", "--seed", "2",
            "--max-moves", "40",
        ]) == 0
        ET.fromstring(out.read_text())
        meta = json.loads((tmp_path / "grid.meta.json").read_text())
        assert len(meta) == 4
        assert set(meta[0]) == {"seed", "k", "init_len", "move_count",
                                "hit_cap", "seconds_per_token"}
        speeds = [m["seconds_per_token"] for m in meta]
        assert all(s > 0 and math.isfinite(s) for s in speeds)
        mean_ms = 1e3 * np.mean(speeds)
        assert f"move cap, {mean_ms:.2f} ms per token)" in \
            capsys.readouterr().out

    def test_count_zero_empty_valid_svg(self, workdir, tmp_path):
        out = tmp_path / "empty.svg"
        assert main([
            "sample", str(workdir / "run" / "checkpoint.json"),
            "--out", str(out), "--count", "0",
        ]) == 0
        ET.fromstring(out.read_text())

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exit_2(self, workdir, tmp_path, capsys, jobs):
        out = tmp_path / "x.svg"
        assert main([
            "sample", str(workdir / "run" / "checkpoint.json"),
            "--out", str(out), "--count", "1", "--jobs", jobs,
        ]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_k_exceeding_vocab_exit_2(self, workdir, tmp_path, capsys):
        out = tmp_path / "x.svg"
        assert main([
            "sample", str(workdir / "run" / "checkpoint.json"),
            "--out", str(out), "--count", "0", "--k", "100000",
        ]) == 2
        assert "k=100000 exceeds vocabulary size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("columns", ["0", "-2"])
    def test_columns_below_one_exit_2(self, workdir, tmp_path, capsys,
                                      monkeypatch, columns):
        from strokegen import cli

        def never(*args, **kwargs):
            raise AssertionError("sampled before the arguments were checked")

        monkeypatch.setattr(cli, "generate_images", never)
        out = tmp_path / "x.svg"
        assert main([
            "sample", str(workdir / "run" / "checkpoint.json"),
            "--out", str(out), "--count", "1", "--columns", columns,
        ]) == 2
        assert f"columns must be >= 1, got {columns}" in capsys.readouterr().err
        assert not out.exists()

    def test_init_len_one_accepted(self, workdir, tmp_path):
        out = tmp_path / "short.svg"
        assert main([
            "sample", str(workdir / "run" / "checkpoint.json"),
            "--out", str(out), "--count", "1", "--init-len", "1",
            "--max-moves", "30",
        ]) == 0

    def test_checkpoint_unknown_train_key_exit_2(self, workdir, tmp_path,
                                                 capsys):
        data = json.loads((workdir / "run" / "checkpoint.json").read_text())
        data["train"]["learning_rate"] = 0.1
        ckpt = tmp_path / "unknown.json"
        ckpt.write_text(json.dumps(data))
        assert main([
            "sample", str(ckpt), "--out", str(tmp_path / "x.svg"),
            "--count", "1", "--max-moves", "20",
        ]) == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_k_above_vocab_exit_2(self, workdir, tmp_path):
        assert main([
            "sample", str(workdir / "run" / "checkpoint.json"),
            "--out", str(tmp_path / "x.svg"), "--k", "99999",
        ]) == 2


def _edit_param(data, name, edit):
    arr = np.frombuffer(base64.b64decode(data["params"][name]), dtype="<f4")
    arr = edit(arr.copy()).astype("<f4")
    data["params"][name] = base64.b64encode(arr.tobytes()).decode("ascii")


def _add_param(data):
    data["params"]["extra"] = data["params"]["layer0.ff.b2"]


def _add_embedding_row(data):
    _edit_param(data, "embedding", lambda a: np.append(a, a[-8:]))


def _nan_weight(data):
    def edit(a):
        a[0] = np.nan
        return a
    _edit_param(data, "layer0.ff.w1", edit)


def _with_train(**changes):
    def edit(data):
        data["train"].update(changes)
        return data
    return edit


# the micro run: d_model 8, 2 heads, d_ff 16, 1 layer, 1 921 tokens
@pytest.mark.parametrize("tamper, field", [
    (_add_param, "unexpected ['extra']"),
    (_add_embedding_row,
     "parameter 'embedding' has 15376 values, expected 15368"),
    (_nan_weight, "parameter 'layer0.ff.w1' has non-finite values"),
    (_with_train(n_heads=0), "n_heads must be >= 1"),
    (_with_train(d_model=64),
     "parameter 'embedding' has 15368 values, expected 122944"),
    (_with_train(n_heads=3), "d_model 8 not divisible by 3 heads"),
    (_with_train(double_attention=False),
     "unexpected ['layer0.attn1.norm_bias'"),
    (_with_train(max_move_len=10),
     "parameter 'embedding' has 15368 values, expected 7048"),
    (lambda data: data.update(seq_len=1), "seq_len must be >= 2"),
    # train() never cuts windows longer than seq_ceiling (16 here)
    (lambda data: data.update(seq_len=17),
     "seq_len 17 exceeds the train setting seq_ceiling 16"),
], ids=["extra-param", "embedding-shape", "non-finite", "zero-heads",
        "train-d-model", "train-n-heads", "train-double-attention",
        "train-max-move-len", "short-seq-len", "long-seq-len"])
def test_tampered_checkpoint_exit_2(workdir, tmp_path, capsys, tamper, field):
    data = json.loads((workdir / "run" / "checkpoint.json").read_text())
    tamper(data)
    ckpt = tmp_path / "tampered.json"
    ckpt.write_text(json.dumps(data))
    assert main([
        "sample", str(ckpt), "--out", str(tmp_path / "x.svg"),
        "--count", "1", "--max-moves", "20",
    ]) == 2
    assert field in capsys.readouterr().err


def _with_param(value):
    return lambda data: {**data, "params": {**data["params"],
                                            "embedding": value}}


@pytest.mark.parametrize("edit, field", [
    (lambda data: [], "checkpoint must be a JSON object, got list"),
    (lambda data: {**data, "train": [8]},
     "checkpoint 'train' must be a JSON object, got list"),
    (lambda data: {**data, "params": None},
     "checkpoint 'params' must be a JSON object, got NoneType"),
    (_with_train(d_model="8"), "train setting 'd_model' must be int, got '8'"),
    (_with_train(double_attention=1),
     "train setting 'double_attention' must be bool, got 1"),
    (_with_train(epochs=2.0), "train setting 'epochs' must be int, got 2.0"),
    (_with_param(5), "parameter 'embedding' must be a base64 string, got int"),
    (lambda data: _with_param({"shape": [1921, 8], "dtype": "float32",
                               "data": data["params"]["embedding"]})(data),
     "parameter 'embedding' must be a base64 string, got dict"),
    (_with_param("abc"), "parameter 'embedding' is not base64 float32 data"),
    (_with_param("\u00e9"), "parameter 'embedding' is not base64 float32 data"),
    (_with_param(base64.b64encode(bytes(5)).decode("ascii")),
     "parameter 'embedding' is not base64 float32 data"),
    (lambda data: {**data, "loss_history": 5}, "checkpoint 'loss_history'"),
    (lambda data: {**data, "loss_history": None},
     "checkpoint 'loss_history'"),
    (lambda data: {**data, "loss_history": {}}, "checkpoint 'loss_history'"),
    (lambda data: {**data, "loss_history": [[1, 2.0]]},
     "checkpoint 'loss_history'"),
    (lambda data: {**data, "epoch": None},
     "checkpoint 'epoch' must be an integer, got None"),
    (lambda data: {**data, "seq_len": 16.0},
     "checkpoint 'seq_len' must be an integer, got 16.0"),
    (lambda data: {**data, "version": 1}, "unsupported checkpoint version 1"),
], ids=["list-document", "list-train", "null-params", "string-d-model",
        "int-double-attention", "float-epochs", "number-param",
        "object-param", "bad-padding", "non-ascii-param", "odd-byte-count",
        "number-history", "null-history", "object-history",
        "short-history-row", "null-epoch", "float-seq-len", "version-1"])
def test_malformed_checkpoint_exit_2(workdir, tmp_path, capsys, edit, field):
    data = json.loads((workdir / "run" / "checkpoint.json").read_text())
    ckpt = tmp_path / "malformed.json"
    ckpt.write_text(json.dumps(edit(data)))
    assert main([
        "sample", str(ckpt), "--out", str(tmp_path / "x.svg"),
        "--count", "1", "--max-moves", "20",
    ]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "sample"])
def test_broken_image_or_checkpoint_exit_2_naming_the_file(
        workdir, tmp_path, capsys, command):
    bad = tmp_path / "broken.json"
    bad.write_text('{"boundary": 180, "paths": [')
    out = tmp_path / "x"
    if command == "train":
        # a broken config as well: the image, read first, is the one named
        cfg = tmp_path / "c.json"
        cfg.write_text('{"epochs": ')
        argv = ["train", str(bad), "-o", str(out), "--config", str(cfg)]
    else:
        argv = ["sample", str(bad), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: Expecting value: line 1 column 29 (char 28)\n")
    assert not out.exists()


def _sampled_cells(checkpoint, out):
    assert main(["sample", str(checkpoint), "--out", str(out), "--count", "3",
                 "--max-moves", "40", "--seed", "1"]) == 0
    return ET.fromstring(out.read_text()).findall("{http://www.w3.org/2000/svg}svg")


def test_sample_uses_the_training_canvas(workdir, tmp_path):
    rec = tmp_path / "rec300.json"
    rec.write_text(json.dumps(make_demo_recording("boxes", 300.0)))
    assert main(["ingest", str(rec), "-o", str(tmp_path / "img.json")]) == 0
    assert main(["train", str(tmp_path / "img.json"), "-o", str(tmp_path / "run"),
                 "--config", str(workdir / "micro.json")]) == 0
    checkpoint = tmp_path / "run" / "checkpoint.json"
    cells = _sampled_cells(checkpoint, tmp_path / "grid.svg")
    assert [c.get("width") for c in cells] == ["300"] * 3
    centred = 0
    for cell in cells:
        coords = [float(v) for p in cell.iter("{http://www.w3.org/2000/svg}path")
                  for v in p.get("d").replace("M", "").replace("L", "").split()]
        if coords:
            pts = np.array(coords).reshape(-1, 2)
            centre = (pts.min(axis=0) + pts.max(axis=0)) / 2.0
            assert centre == pytest.approx([150.0, 150.0])
            centred += 1
    assert centred
    # a checkpoint written without a canvas is for the default 180 canvas
    data = json.loads(checkpoint.read_text())
    del data["boundary"]
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(data))
    cells = _sampled_cells(legacy, tmp_path / "legacy.svg")
    assert [c.get("width") for c in cells] == ["180"] * 3


class TestAugmentPreview:
    def test_cells_and_reproducibility(self, workdir, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        for out in (a, b):
            assert main([
                "augment-preview", str(workdir / "img.json"),
                "--out", str(out), "-n", "5", "--seed", "4",
            ]) == 0
        assert a.read_text() == b.read_text()
        svg = a.read_text()
        assert svg.count("<svg x=") == 6  # original + 5 patches
        ET.fromstring(svg)

    def test_one_path_image_on_its_own_canvas(self, tmp_path):
        image = tmp_path / "one-path.json"
        image.write_text(json.dumps({"boundary": 120, "paths": [[GOOD_CURVE]]}))
        out = tmp_path / "sheet.svg"
        assert main(["augment-preview", str(image), "--out", str(out),
                     "-n", "2", "--seed", "1"]) == 0
        cells = ET.fromstring(out.read_text()).findall(
            "{http://www.w3.org/2000/svg}svg")
        assert [c.get("width") for c in cells] == ["120"] * 3
        # the original and each patch: one flattened path per cell
        assert [len(c.findall("{http://www.w3.org/2000/svg}path"))
                for c in cells] == [1] * 3

    def test_an_image_without_paths_gives_empty_cells(self, tmp_path):
        image = tmp_path / "empty.json"
        image.write_text(json.dumps({"boundary": 180, "paths": []}))
        out = tmp_path / "sheet.svg"
        assert main(["augment-preview", str(image), "--out", str(out),
                     "-n", "2"]) == 0
        cells = ET.fromstring(out.read_text()).findall(
            "{http://www.w3.org/2000/svg}svg")
        assert [len(c.findall("{http://www.w3.org/2000/svg}path"))
                for c in cells] == [0] * 3

    def test_written_sheet_bytes_are_pinned(self, tmp_path):
        # demo-recording, ingest, then the default preview of 5 patches
        rec, image, out = (tmp_path / name
                           for name in ("rec.json", "img.json", "sheet.svg"))
        assert main(["demo-recording", "boxes", "-o", str(rec)]) == 0
        assert main(["ingest", str(rec), "-o", str(image)]) == 0
        assert main(["augment-preview", str(image), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "15ea50752de73aef9a67264b3e7de7c6af354d36ea7bbaf58f21e50171553d07")

    def test_patch_cells_stay_in_viewbox(self, workdir, tmp_path):
        out = tmp_path / "sheet.svg"
        assert main([
            "augment-preview", str(workdir / "img.json"),
            "--out", str(out), "-n", "4", "--seed", "7",
        ]) == 0
        # cell contents are patches, whose geometry is boundary-contained
        image = load_path_image(workdir / "img.json")
        from strokegen.augment import AugmentConfig, generate_patch_set
        patches = generate_patch_set(
            image, 4, AugmentConfig(rng_seed=7), np.random.default_rng(7)
        )
        for patch in patches:
            pts = patch.control_array()
            assert pts.min() >= 0.0 and pts.max() <= patch.boundary


def _config(tmp_path, settings: str, *flags: str,
            preset: str = "full") -> TrainConfig:
    """The TrainConfig that ``train --config`` builds from the settings
    text and the flags, without training."""
    path = tmp_path / "c.json"
    path.write_text(settings)
    return cli._train_config(build_parser().parse_args([
        "train", "img.json", "-o", "out", "--preset", preset,
        "--config", str(path), *flags]))


# JSON values of the wrong kind for each field annotation
WRONG_KINDS = {"int": [2.0, True, "7"], "float": [True, "0.5"],
               "bool": [1, "true"], "int | None": [2.5, False, "7"]}


class TestConfigFile:
    def test_types(self, tmp_path):
        cfg = _config(tmp_path, '{"epochs": 7, "flatten_error": 2.5, '
                      '"double_attention": false, "fixed_patch_set": null, '
                      '"seed": 9}')
        assert cfg == dataclasses.replace(
            TrainConfig(), epochs=7, flatten_error=2.5,
            double_attention=False, fixed_patch_set=None, seed=9)
        assert [type(getattr(cfg, name)) for name in
                ("epochs", "flatten_error", "double_attention")] == \
            [int, float, bool]

    def test_preset_then_file_then_flags(self, tmp_path):
        cfg = _config(tmp_path, '{"epochs": 7, "seed": 9, "d_ff": 64}',
                      "--seed", "4", "--fixed-patch-set", "5",
                      preset="desk")
        assert cfg == desk_preset(epochs=7, seed=4, d_ff=64,
                                  fixed_patch_set=5)

    def test_a_json_integer_for_a_float_setting_is_a_float(self, tmp_path):
        ints = {"beta1": 0, "beta2": 0, "adam_eps": 1, "flatten_error": 2,
                "reversal_probability": 1, "scale_min": 1}
        assert set(ints) == {f.name for f in dataclasses.fields(TrainConfig)
                             if f.type == "float"}
        as_ints = _config(tmp_path, json.dumps(ints))
        as_floats = _config(tmp_path, json.dumps(
            {name: float(value) for name, value in ints.items()}))
        # so a checkpoint writes 2.0 for either file
        assert json.dumps(dataclasses.asdict(as_ints)) == \
            json.dumps(dataclasses.asdict(as_floats))

    @pytest.mark.parametrize("document, kind", [
        ("[1, 2]", "list"), ('"epochs"', "str"), ("7", "int"),
        ("null", "NoneType"),
    ])
    def test_a_document_that_is_no_object_exit_2(self, workdir, tmp_path,
                                                 capsys, document, kind):
        cfg = tmp_path / "c.json"
        cfg.write_text(document)
        # with a flag, which the file's settings would otherwise take in
        assert main(["train", str(workdir / "img.json"),
                     "-o", str(tmp_path / "x"), "--config", str(cfg),
                     "--seed", "3"]) == 2
        assert (f"error: {cfg} settings must be a JSON object, got {kind}"
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text", ["epochs = 7\n", '{"epochs": 7',
                                      '{"epochs": 7,}', ""],
                             ids=["key-value", "unclosed", "trailing-comma",
                                  "empty"])
    def test_broken_json_exit_2(self, workdir, tmp_path, capsys, text):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert main(["train", str(workdir / "img.json"),
                     "-o", str(tmp_path / "x"), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
        assert not (tmp_path / "x").exists()

    def test_null_only_for_an_optional_setting(self, tmp_path):
        assert _config(tmp_path, '{"fixed_patch_set": null}',
                       preset="desk") == desk_preset()
        with pytest.raises(ValueError) as info:
            _config(tmp_path, '{"epochs": null}')
        assert str(info.value) == \
            f"{tmp_path / 'c.json'} setting 'epochs' must be int, got None"

    @pytest.mark.parametrize("name, wrong", [
        (name, wrong) for name, kind in (
            ("epochs", "int"), ("scale_min", "float"),
            ("double_attention", "bool"), ("fixed_patch_set", "int | None"))
        for wrong in WRONG_KINDS[kind]])
    def test_a_wrong_json_kind_names_the_file_and_the_key(
            self, workdir, tmp_path, capsys, name, wrong):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({name: wrong}))
        assert main(["train", str(workdir / "img.json"),
                     "-o", str(tmp_path / "x"), "--config", str(cfg)]) == 2
        kind = {f.name: f.type for f in dataclasses.fields(TrainConfig)}[name]
        assert (f"error: {cfg} setting {name!r} must be {kind}, got {wrong!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("preset", [TrainConfig(), desk_preset()],
                             ids=["full", "desk"])
    def test_every_field_round_trips(self, tmp_path, preset):
        values = dataclasses.asdict(preset)
        assert _config(tmp_path, json.dumps(values)) == preset
        assert config_from_json(TrainConfig, json.loads(json.dumps(values)),
                                "train") == preset
        for field in dataclasses.fields(TrainConfig):
            for wrong in WRONG_KINDS[field.type]:
                with pytest.raises(ValueError) as info:
                    config_from_json(TrainConfig, {**values, field.name: wrong},
                                     "train")
                assert str(info.value) == (f"train setting {field.name!r} must "
                                           f"be {field.type}, got {wrong!r}")

    @pytest.mark.parametrize("preset", ["full", "desk"])
    def test_the_readme_example_is_a_valid_config(self, tmp_path, preset):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        example = re.search(r"### Configuration files.*?```json\n(.*?)```",
                            readme, re.DOTALL).group(1)
        base = desk_preset() if preset == "desk" else TrainConfig()
        assert _config(tmp_path, example, preset=preset) == \
            dataclasses.replace(base, **json.loads(example))
