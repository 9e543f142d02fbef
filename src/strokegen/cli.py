"""Command-line surface: ingest, train, sample, augment-preview, demo.

Exit codes: 0 success, 2 usage or input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .augment import AugmentConfig, generate_patch_set
from .autodiff import NonFiniteError
from .demo import DEMO_KINDS, make_demo_recording
from .geometry import (
    DEFAULT_FIT_ERROR,
    Polyline,
    flatten_controls,
    image_to_json,
    load_json,
    load_path_image,
    recording_to_image,
    write_atomically,
)
from .model import config_from_json
from .sampling import (
    SamplerConfig,
    center_polylines,
    generate_images,
    render_svg,
)
from .svgout import line_chart_svg
from .tokenizer import DEFAULT_FLATTEN_ERROR
from .training import (
    TrainConfig,
    desk_preset,
    load_checkpoint,
    save_checkpoint,
    train,
    write_loss_csv,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strokegen",
        description="Learn a generative stroke-image model from one drawing "
                    "and sample new SVG images from it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="fit a point recording to Bezier paths")
    p.add_argument("recording", type=Path, help="recording JSON file")
    p.add_argument("-o", "--out", type=Path, required=True,
                   help="output path-image JSON")
    p.add_argument("--fit-error", type=float, default=DEFAULT_FIT_ERROR,
                   help="max fitting error in canvas units (default %(default)g)")

    p = sub.add_parser("train", help="train a model on a path image")
    p.add_argument("pathimage", type=Path, help="path-image JSON file")
    p.add_argument("-o", "--out", type=Path, required=True,
                   help="output directory")
    p.add_argument("--preset", choices=("full", "desk"), default="full",
                   help="hyperparameter preset (default: full scale)")
    p.add_argument("--config", type=Path,
                   help="JSON object of TrainConfig fields overriding the "
                        "preset")
    p.add_argument("--seed", type=int, help="master rng seed")
    p.add_argument("--epochs", type=int)
    p.add_argument("--patches", type=int, dest="patches_per_epoch")
    p.add_argument("--fixed-patch-set", type=int,
                   help="train on one fixed patch set of this size instead "
                        "of fresh sets (overfitting experiment)")

    p = sub.add_parser("sample", help="generate images from a checkpoint")
    p.add_argument("checkpoint", type=Path)
    p.add_argument("--out", type=Path, required=True, help="output SVG file")
    p.add_argument("--k", type=int, default=SamplerConfig.k,
                   help="top-k cutoff")
    p.add_argument("--init-len", type=int,
                   help="initialization vector length (default: L/2)")
    p.add_argument("--max-moves", type=int,
                   help="generation cap per image (default: 4*L)")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--seed", type=int, default=SamplerConfig.seed)
    p.add_argument("--columns", type=int, default=4)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel sampling processes")

    p = sub.add_parser("augment-preview",
                       help="contact sheet of augmented patches")
    p.add_argument("pathimage", type=Path)
    p.add_argument("--out", type=Path, required=True, help="output SVG file")
    p.add_argument("-n", type=int, default=5, help="patch count")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("demo-recording",
                       help="write one of the bundled synthetic recordings")
    p.add_argument("kind", choices=DEMO_KINDS)
    p.add_argument("-o", "--out", type=Path, required=True)
    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    image = recording_to_image(args.recording, args.fit_error)
    write_atomically(args.out, lambda fh: json.dump(image_to_json(image), fh))
    print(f"{len(image)} paths on a {image.boundary:g} unit canvas")
    for i, controls in enumerate(image.path_controls()):
        print(f"  path {i}: {len(controls)} curves")
    print(f"wrote {args.out}")
    return 0


def _train_config(args) -> TrainConfig:
    """The preset, overridden by the ``--config`` file, overridden by the
    flags that name a TrainConfig field; built once."""
    preset = desk_preset() if args.preset == "desk" else TrainConfig()
    settings = {} if args.config is None else load_json(args.config)
    if isinstance(settings, dict):  # config_from_json refuses anything else
        fields = {f.name for f in dataclasses.fields(TrainConfig)}
        settings.update({name: value for name, value in vars(args).items()
                         if name in fields and value is not None})
    return config_from_json(TrainConfig, settings, str(args.config),
                            base=preset)


def cmd_train(args) -> int:
    image = load_path_image(args.pathimage)
    cfg = _train_config(args)
    metrics = []  # one JSON line per epoch so far

    def out(name: str) -> Path:
        # the directory comes with the first file, so a refused run leaves
        # none behind
        args.out.mkdir(parents=True, exist_ok=True)
        return args.out / name

    def on_epoch(stats):
        print(f"epoch {stats.epoch:3d}: train {stats.train_loss:.4f} "
              f"heldout {stats.heldout_loss:.4f}")
        # rewritten whole, so a run that train() refuses or that stops keeps
        # a complete file: an earlier run's, or this one's so far
        metrics.append(json.dumps(dataclasses.asdict(stats)) + "\n")
        write_atomically(out("metrics.jsonl"),
                         lambda fh: fh.writelines(metrics))

    ckpt = train(image, cfg, on_epoch=on_epoch)
    save_checkpoint(ckpt, out("checkpoint.json"))
    write_loss_csv(ckpt.loss_history, out("loss.csv"))
    chart = line_chart_svg(
        {
            "train": [s.train_loss for s in ckpt.loss_history],
            "heldout": [s.heldout_loss for s in ckpt.loss_history],
        },
        title="cross-entropy per epoch",
    )
    write_atomically(out("loss.svg"), lambda fh: fh.write(chart))

    history = ckpt.loss_history
    # the last epoch against epoch 5, or epoch 1 in a run of 5 or fewer
    reference = history[4 if len(history) > 5 else 0].heldout_loss
    if len(history) == 1:
        trend = "n/a (one epoch)"
    elif history[-1].heldout_loss > reference:
        trend = "rising (model is overfitting its patch set)"
    else:
        trend = "falling"
    print(f"held-out trend: {trend}")
    print(f"wrote {args.out}/checkpoint.json, loss.csv, loss.svg, "
          f"metrics.jsonl")
    return 0


def cmd_sample(args) -> int:
    if args.columns < 1:
        raise ValueError(f"columns must be >= 1, got {args.columns}")
    ckpt = load_checkpoint(args.checkpoint)
    cfg = SamplerConfig(k=args.k, init_len=args.init_len,
                        max_moves=args.max_moves, seed=args.seed)
    results = generate_images(ckpt, cfg, args.count, jobs=args.jobs)
    write_atomically(args.out, lambda fh: fh.write(render_svg(
        [center_polylines(r.polylines, ckpt.boundary) for r in results],
        columns=args.columns, boundary=ckpt.boundary)))
    meta_path = args.out.with_suffix(".meta.json")
    write_atomically(meta_path, lambda fh: json.dump(
        [r.metadata() for r in results], fh, indent=2))
    capped = sum(1 for r in results if r.hit_cap)
    speed = (f", {1e3 * np.mean([r.seconds_per_token for r in results]):.2f}"
             " ms per token" if results else "")
    print(f"sampled {len(results)} images (k={args.k}, {capped} hit the "
          f"move cap{speed})")
    print(f"wrote {args.out} and {meta_path}")
    return 0


def cmd_augment_preview(args) -> int:
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    image = load_path_image(args.pathimage)
    patches = generate_patch_set(image, args.n, AugmentConfig(),
                                 np.random.default_rng(args.seed))
    flat = [[Polyline(p) for p in np.split(*flatten_controls(
        img.controls, img.splits, DEFAULT_FLATTEN_ERROR))] if len(img) else []
            for img in (image, *patches)]
    write_atomically(args.out, lambda fh: fh.write(render_svg(
        flat, columns=3, boundary=image.boundary, color_seed=args.seed)))
    print(f"wrote {args.out} (original + {args.n} patches)")
    return 0


def cmd_demo_recording(args) -> int:
    recording = make_demo_recording(args.kind)
    write_atomically(args.out, lambda fh: json.dump(recording, fh))
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "ingest": cmd_ingest,
    "train": cmd_train,
    "sample": cmd_sample,
    "augment-preview": cmd_augment_preview,
    "demo-recording": cmd_demo_recording,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out, is_train = args.out, args.command == "train"
    try:  # an output path the command cannot write is refused before work
        if is_train and out.exists() and not out.is_dir():
            raise ValueError(f"output directory {out} is an existing file")
        if not is_train and out.is_dir():
            raise ValueError(f"output file {out} is a directory")
        if not is_train and not out.parent.is_dir():
            raise ValueError(f"output file {out}: {out.parent} is not a "
                             f"directory")
        return _COMMANDS[args.command](args)
    except NonFiniteError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
