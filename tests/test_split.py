"""Nodes split over cores against the same nodes on one core, bit for bit.

``autodiff`` runs the row-independent work of ``feed_forward``,
``multi_head_attention``, the 2-d ``matmul`` and ``cross_entropy`` in parts
on a thread pool when BLAS is pinned to one thread and the node is large.
One part is the serial path, the oracle: at 2 and 3 parts every output,
loss and gradient must be bitwise the one-part result, and a failure must
raise and warn as one part does.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from strokegen import autodiff
from strokegen.autodiff import (
    Tensor,
    checked_once,
    cross_entropy,
    feed_forward,
    matmul,
    multi_head_attention,
)
from strokegen.demo import make_demo_image
from strokegen.model import causal_bias
from strokegen.training import TrainConfig, save_checkpoint, train
from test_checked_once import CASES, PATHS, outcome, poisoned, scores, variance

D, FF, HEADS, VOCAB = 52, 2048, 4, 1921  # the paper's model
# train-full's batch (25 windows of 119 positions) and an odd one
SHAPES = [pytest.param(25, 119, id="25x119"), pytest.param(7, 37, id="7x37")]


@contextlib.contextmanager
def split(parts):
    """Every node in ``parts`` parts, whatever its size."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(autodiff, "_PARTS", parts)
        m.setattr(autodiff, "_SPLIT_VALUES", 0)
        m.setattr(autodiff, "_MIN_ROWS", 1)
        yield


def leaves(rng, *shapes):
    return [Tensor(rng.standard_normal(s).astype(np.float32) * 0.3,
                   requires_grad=True) for s in shapes]


def run(node, rng_seed, *shapes):
    """The node's output over leaves of ``shapes``, its forward run with the
    op checks off, and every leaf's gradient after a backward from a
    weighted sum, as bytes."""
    rng = np.random.default_rng(rng_seed)
    inputs = leaves(rng, *shapes)
    out = checked_once(lambda: node(*inputs))
    loss = out if out.data.ndim == 0 else autodiff.reduce_sum(autodiff.mul(
        out, rng.standard_normal(out.shape).astype(np.float32)))
    loss.backward()
    return [out.data.tobytes()] + [t.grad.tobytes() for t in inputs]


NODES = {
    "feed_forward": lambda b, l: (feed_forward, [
        (b, l, D), (D, FF), (FF,), (FF, D), (D,)]),
    "multi_head_attention": lambda b, l: (
        lambda x, wq, wk, wv, wo: multi_head_attention(
            x, wq, wk, wv, wo, HEADS, causal_bias(l, np.float32)),
        [(b, l, D)] + [(D, D)] * 4),
    "matmul": lambda b, l: (matmul, [(b, l, D), (D, VOCAB)]),
    "cross_entropy-logits": lambda b, l: (
        lambda z: cross_entropy(z, np.arange(b * l).reshape(b, l) % VOCAB),
        [(b, l, VOCAB)]),
    "cross_entropy-pair": lambda b, l: (
        lambda h, w: cross_entropy(
            (h, w), np.arange(b * l).reshape(b, l) * 7 % VOCAB),
        [(b, l, D), (D, VOCAB)]),
}


@pytest.mark.parametrize("b, l", SHAPES)
@pytest.mark.parametrize("name", NODES)
def test_parts_equal_one_part_bitwise(name, b, l):
    node, shapes = NODES[name](b, l)
    with split(1):
        expected = run(node, 0, *shapes)
    for parts in (2, 3):
        with split(parts):
            assert run(node, 0, *shapes) == expected, parts


def test_a_full_scale_epoch_writes_the_same_checkpoint_split(tmp_path):
    cfg = TrainConfig(epochs=1, patches_per_epoch=100, batch_size=25,
                      heldout_patches=4, seed=1)
    image = make_demo_image("boxes")
    for parts in (1, 2):
        with split(parts):
            save_checkpoint(train(image, cfg), tmp_path / f"{parts}.json")
    assert ((tmp_path / "1.json").read_bytes()
            == (tmp_path / "2.json").read_bytes())


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("poison, value", CASES)
def test_a_split_fails_and_warns_as_one_part(path, poison, value):
    # helper parts run under the caller's errstate: checked_once's first run
    # ignores overflow there too, and its replay raises the one-part error
    weights = poisoned(poison, value)
    with split(1):
        expected = outcome(path, weights)
    with split(2):
        assert outcome(path, weights) == expected


@pytest.mark.parametrize("poison, value", [
    (scores, np.inf), (scores, -np.inf), (variance, np.inf)])
@pytest.mark.parametrize("path", [p for p in PATHS
                                  if p.__name__ in ("no_cache", "step")])
def test_a_split_overflow_raises_as_one_part(poison, value, path):
    # the suite's filterwarnings = error::RuntimeWarning
    weights = poisoned(poison, value)
    with split(1), pytest.raises(RuntimeWarning) as expected:
        path(weights, {})
    with split(2), pytest.raises(RuntimeWarning) as got:
        path(weights, {})
    assert str(got.value) == str(expected.value)


def test_every_part_is_joined_before_an_error_leaves():
    finished = threading.Event()

    def part(lo, hi):
        if lo == 0:
            raise ValueError("first part")
        time.sleep(0.2)
        finished.set()

    with split(2), pytest.raises(ValueError, match="first part"):
        autodiff._split(part, [0, 1, 2])
    assert finished.is_set()

    def late(lo, hi):
        if lo:
            raise KeyError("a helper's error")

    with split(2), pytest.raises(KeyError, match="a helper's error"):
        autodiff._split(late, [0, 1, 2])


def test_a_forked_child_runs_a_split_node(tmp_path):
    shapes = NODES["feed_forward"](25, 119)[1]
    with split(2):
        expected = run(feed_forward, 5, *shapes)  # the pool is now running
        pid = os.fork()
        if pid == 0:
            try:
                (tmp_path / "child").write_bytes(
                    b"".join(run(feed_forward, 5, *shapes)))
            finally:
                os._exit(0)
        deadline = time.monotonic() + 60
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish in 60 s")
            time.sleep(0.05)
    assert (tmp_path / "child").read_bytes() == b"".join(expected)


@pytest.mark.parametrize("threads, parts", [
    ("1", len(os.sched_getaffinity(0))), ("2", 1), (None, 1)])
def test_parts_follow_the_blas_pin(threads, parts):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(autodiff.__file__))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out = subprocess.run(
        [sys.executable, "-c",
         "from strokegen import autodiff; "
         "print(autodiff._PARTS, autodiff.blas_threads())"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == [str(parts), threads or "default"]
