"""Spans around strokegen's public functions, recorded from outside the package.

While a Tracer is active, each function listed in SPANNED is replaced, in
every strokegen module that holds it, by a wrapper that records a span:
name, calling module, parent span, start, end and a small count (patches
made, tokens encoded, window positions computed). Spans stay in memory and
are written when the run ends. Tape ops (autodiff ops that record a backward
function) also get a span around their backward function, and every tape
node made through ``autodiff._make`` is counted.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict

import numpy as np

OPS = ("matmul", "softmax", "layer_norm", "relu", "add", "mul", "reshape",
       "transpose", "embedding")
TAPE_OPS = OPS + ("cross_entropy",)

# (defining module, function, span name, modules to patch or None for all)
SPANNED = (
    ("geometry", "fit_path", "geometry.fit_path", None),
    ("geometry", "flatten_path", "geometry.flatten_path", None),
    ("augment", "generate_patch_set", "augment.generate_patch_set", None),
    ("augment", "greedy_order", "augment.greedy_order", None),
    # only augment's calls: ingest also fits paths to the boundary
    ("geometry", "fit_paths_to_boundary_with_scale", "augment.fit_to_boundary",
     ("augment",)),
    ("tokenizer", "image_to_move_sequence", "tokenizer.image_to_move_sequence",
     None),
    ("tokenizer", "encode", "tokenizer.encode", None),
    ("training", "train", "training.train", None),
    ("training", "tokenize_patches", "training.tokenize_patches", None),
    ("training", "build_stream_batches", "training.build_stream_batches", None),
    ("training", "adam_step", "training.adam_step", None),
    ("training", "eval_stream_loss", "training.eval_stream_loss", None),
    ("model", "encoder_forward", "model.forward", None),
    ("autodiff", "backward", "autodiff.backward", None),
    *(("autodiff", op, f"autodiff.{op}", None) for op in TAPE_OPS),
    ("sampling", "generate_images", "sampling.generate_images", None),
    ("sampling", "top_k_sample", "sampling.top_k_sample", None),
    ("svgout", "render_svg", "svgout.render_svg", None),
)

# span name -> count kept with the span, from the call's result
COUNTS = {
    "augment.generate_patch_set": len,
    "tokenizer.encode": len,
    # positions computed; negative for a forward that records no tape
    "model.forward": lambda out: (out.data.size // out.data.shape[-1]
                                  * (1 if out.requires_grad else -1)),
}

MODULES = ("strokegen", "strokegen.geometry", "strokegen.augment",
           "strokegen.tokenizer", "strokegen.autodiff", "strokegen.model",
           "strokegen.training", "strokegen.sampling", "strokegen.svgout")

NAME, SITE, PARENT, START, END, COUNT = range(6)


class Tracer:
    """Context manager: patches the spanned functions on entry, restores on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.tape_nodes = 0

    def __enter__(self):
        modules = {name: importlib.import_module(name) for name in MODULES}
        for home, func, span, sites in SPANNED:
            original = getattr(modules[f"strokegen.{home}"], func)
            for name, mod in modules.items():
                site = name.rpartition(".")[2]
                if getattr(mod, func, None) is original and (
                        sites is None or site in sites):
                    self._patch(mod, func, self._wrap(
                        span, site, original, func in TAPE_OPS))
        autodiff = modules["strokegen.autodiff"]
        make = autodiff._make

        def counting_make(data, parents, backward_fn):
            out = make(data, parents, backward_fn)
            if out.requires_grad:
                self.tape_nodes += 1
            return out

        self._patch(autodiff, "_make", counting_make)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def _patch(self, mod, attr, replacement):
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, replacement)

    def _wrap(self, name, site, fn, tape_op):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            span = [name, site, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNT] = count(out)
            if tape_op and out._backward_fn is not None:
                out._backward_fn = self._wrap(name + ".bwd", site,
                                              out._backward_fn, False)
            return out

        return traced

    def write(self, path, header: dict):
        """Write the header and every span as JSON lines, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        run_id = header["run_id"]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "clock": "perf_counter seconds",
                                 "fields": ["run", "id", "parent", "name",
                                            "site", "start", "end", "count"]})
                     + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([run_id, i, s[PARENT], s[NAME], s[SITE],
                                     s[START], s[END], s[COUNT]]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals, counts and percentiles over every recorded span."""
        spans = self.spans
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counted: dict[str, int] = defaultdict(int)
        children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            total[s[NAME]] += s[END] - s[START]
            calls[s[NAME]] += 1
            if s[COUNT] is not None:
                counted[s[NAME]] += s[COUNT]
            children[s[PARENT]].append(i)

        def dur(i):
            return spans[i][END] - spans[i][START]

        forwards = [i for i, s in enumerate(spans) if s[NAME] == "model.forward"]
        sampled = [i for i in forwards if spans[i][SITE] == "sampling"]
        top_k = [dur(i) for i, s in enumerate(spans)
                 if s[NAME] == "sampling.top_k_sample"]
        steps = calls["training.adam_step"]
        m = {
            "augment.generate_patch_set_s": total["augment.generate_patch_set"],
            "augment.greedy_order_s": total["augment.greedy_order"],
            "augment.fit_to_boundary_s": total["augment.fit_to_boundary"],
            "augment.patches": counted["augment.generate_patch_set"],
            "geometry.fit_path_s": total["geometry.fit_path"],
            "geometry.flatten_path_s": total["geometry.flatten_path"],
            "geometry.flatten_calls": calls["geometry.flatten_path"],
            "tokenizer.image_to_move_sequence_s":
                total["tokenizer.image_to_move_sequence"],
            "tokenizer.encode_s": total["tokenizer.encode"],
            "tokenizer.tokens": counted["tokenizer.encode"],
            "training.build_stream_batches_s":
                total["training.build_stream_batches"],
            "training.wait_for_data_s": self._wait_for_data(children, dur),
            "training.adam_step_s": total["training.adam_step"],
            "training.eval_s": total["training.eval_stream_loss"],
            "training.steps": steps,
            "model.forward_s": sum(dur(i) for i in forwards
                                   if spans[i][COUNT] > 0),
            "model.forward_nograd_s": sum(dur(i) for i in forwards
                                          if spans[i][COUNT] < 0),
            "model.forward_calls": len(forwards),
            "model.self_s": sum(dur(i) - sum(dur(c) for c in children[i])
                                for i in forwards),
            "autodiff.backward_s": total["autodiff.backward"],
            "autodiff.cross_entropy_s": (total["autodiff.cross_entropy"]
                                         + total["autodiff.cross_entropy.bwd"]),
            "autodiff.op_calls_per_step": (self.tape_nodes / steps
                                           if steps else 0.0),
            "sampling.forward_ms_p50": _percentile(
                [dur(i) * 1e3 for i in sampled], 50),
            "sampling.forward_ms_p90": _percentile(
                [dur(i) * 1e3 for i in sampled], 90),
            "sampling.top_k_us_p50": _percentile([t * 1e6 for t in top_k], 50),
            "sampling.decode_s": total["sampling.generate_images"],
            "sampling.positions_per_token": (
                -sum(spans[i][COUNT] for i in sampled) / len(top_k)
                if top_k else 0.0),
            "svgout.render_svg_s": total["svgout.render_svg"],
            "trace.spans": len(spans),
        }
        for op in OPS:
            fwd, bwd = total[f"autodiff.{op}"], total[f"autodiff.{op}.bwd"]
            m[f"autodiff.{op}_s"] = fwd + bwd
            m[f"autodiff.{op}_bwd_s"] = bwd
        return m

    def _wait_for_data(self, children, dur) -> float:
        """Data regeneration inside train() after its held-out set.

        In the serial path the step loop waits for each epoch's patch set and
        its tokenization; the first call of each inside a train() span makes
        the held-out set, which is set-up.
        """
        wait = 0.0
        for i, s in enumerate(self.spans):
            if s[NAME] != "training.train":
                continue
            for name in ("augment.generate_patch_set", "training.tokenize_patches"):
                kids = [c for c in children[i] if self.spans[c][NAME] == name]
                wait += sum(dur(c) for c in kids[1:])
        return wait


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0
