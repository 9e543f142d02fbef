"""The strokegen benchmark workloads: set-up, timed work and output checks.

Every call into the package goes through a module attribute at call time
(``training.train``, ``model.encoder_forward``, ...), so the tracer can wrap
those attributes from outside without changing the package. All three
workloads run serially in this one process (``jobs=1``) and start no pool.

End-to-end metrics, the same five on every workload:

- ``setup_s``: median of several set-ups in the run.
- ``tokens_per_s``: target tokens optimised per second (training) or tokens
  generated per second, decode plus render (sampling).
- ``iter_s_p50``: median seconds per epoch (train-desk), per optimizer step
  (train-full) or per generated token (sample-full).
- ``loss``: held-out loss after the last epoch (train-desk), mean step loss
  over a fixed number of steps (train-full), held-out loss of the sampled
  checkpoint (sample-full). Deterministic per seed; a guard on arithmetic.
- ``peak_rss_mb``: peak resident memory of the process.

On a shared host the speed of interpreter-bound code drifts by up to 25 %
over minutes, so train-desk and sample-full time themselves with a
``HostClock``: wall time scaled by the speed of a fixed probe run every half
second. train-full, whose large numpy operations do not follow that drift,
uses the wall clock. See README.md for the measurements behind this.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import statistics
import time
import traceback
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

from strokegen import augment, autodiff, demo, model, sampling, tokenizer, training
from tracer import Tracer

clock = time.perf_counter

FULL_SCALE = (("d_model", 52), ("n_layers", 6), ("n_heads", 4), ("d_ff", 2048))
SVG_CELL = "{http://www.w3.org/2000/svg}svg"

# probe seconds that count as one second; about the probe's median on a
# 2-core Xeon VM (Sapphire Rapids, Python 3.11, numpy 2.4)
PROBE_NOMINAL_S = 0.012
PROBE_EVERY_S = 0.5
_PROBE_MATRIX = np.random.default_rng(0).random((32, 32))


def host_probe() -> int:
    """Fixed work shaped like the interpreter-bound workloads' own: a Python
    loop, then small numpy operations. About 12 ms."""
    total = 0
    for i in range(100_000):
        total += i * i % 7
    x = _PROBE_MATRIX
    for _ in range(300):
        x = np.tanh(x @ _PROBE_MATRIX * 0.01)
    return total


class HostClock:
    """A clock in seconds at the probe's nominal host speed.

    Between probes it advances by wall time times PROBE_NOMINAL_S over the
    last probe's duration; the probes' own time is left out. The probe runs
    before each timed unit and, through ``probing``, at most every
    PROBE_EVERY_S inside it. With ``adjust`` false it is the wall clock and
    never probes.
    """

    def __init__(self, adjust: bool):
        self.adjust = adjust
        self.scale = 1.0
        self.base = 0.0
        self.mark = clock()
        self.probes: list[float] = []
        self.probe()

    def now(self) -> float:
        return self.base + (clock() - self.mark) * self.scale

    def probe(self):
        if not self.adjust:
            return
        self.base = self.now()
        t0 = clock()
        host_probe()
        self.mark = clock()
        self.probes.append(self.mark - t0)
        self.scale = PROBE_NOMINAL_S / self.probes[-1]

    def maybe_probe(self):
        if self.adjust and clock() - self.mark >= PROBE_EVERY_S:
            self.probe()

    @contextlib.contextmanager
    def probing(self, module, name: str):
        """Probe, at most every PROBE_EVERY_S, before calls to ``module.name``."""
        original = getattr(module, name)

        def hooked(*args, **kwargs):
            self.maybe_probe()
            return original(*args, **kwargs)

        setattr(module, name, hooked)
        try:
            yield
        finally:
            setattr(module, name, original)


@dataclass(frozen=True)
class Sizes:
    """Work done per run; BENCH is measured, TINY only exercises the code."""

    setup_repeats: int = 4  # train-full: 2 before and 2 after the steps
    desk_epochs: int = 3
    desk_min_rounds: int = 3
    desk_overrides: tuple = ()  # (field, value) pairs for desk_preset
    full_model: tuple = FULL_SCALE
    full_patches: int = 100
    # batch 200 (the paper's) cannot run in 8 GB: 100 was OOM-killed near
    # 7.7 GB, 50 peaks near 5.0 GB, 25 near 2.5 GB
    full_batch: int = 25
    full_warmup_steps: int = 2  # the first steps of a process run slower
    full_min_steps: int = 6
    trace_steps: int = 4
    sample_setups: int = 3  # before the first grid and after each grid
    sample_count: int = 2
    sample_max_moves: int | None = None  # None: the SamplerConfig default, 4 L
    sample_heldout_patches: int = 20


BENCH = Sizes()
TINY = Sizes(
    setup_repeats=2, desk_epochs=2, desk_min_rounds=2,
    desk_overrides=(("patches_per_epoch", 6), ("heldout_patches", 6),
                    ("batch_size", 2), ("warmup_steps", 4), ("d_model", 8),
                    ("n_layers", 1), ("n_heads", 2), ("d_ff", 16)),
    full_model=(("d_model", 8), ("n_layers", 1), ("n_heads", 2), ("d_ff", 16)),
    full_patches=8, full_batch=2, full_warmup_steps=1, full_min_steps=2,
    trace_steps=1, sample_setups=1, sample_max_moves=12,
    sample_heldout_patches=4,
)


class Checks:
    """Output checks and failed operations; failed_ratio = failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    failures: list[str]
    metrics: dict[str, float] = field(default_factory=dict)


def ingest():
    return demo.make_demo_image("boxes")


def around_setups(setup, repeats: int, run):
    """``run(state)`` between two halves of ``repeats`` timed set-ups.

    A set-up takes well under a second and the host's speed drifts over
    seconds, so half of the set-ups are timed after the run and their median
    spans the whole run. Returns (median set-up seconds, run's result).
    """
    times = []

    def timed_setup():
        t0 = clock()
        state = setup()
        times.append(clock() - t0)
        return state

    for _ in range(repeats - repeats // 2):
        state = timed_setup()
    result = run(state)
    for _ in range(repeats // 2):
        timed_setup()
    return statistics.median(times), result


def repeat(work, min_rounds: int, seconds: float) -> list:
    """Results of ``work()``, run at least ``min_rounds`` times and then while
    another round as long as the last one still ends within ``seconds``."""
    results = []
    start = clock()
    while True:
        t0 = clock()
        results.append(work())
        now = clock()
        if len(results) >= min_rounds and 2 * now - t0 - start > seconds:
            return results


def rate_p50(counts, seconds) -> float:
    """Median over iterations of count per second."""
    return statistics.median(n / s for n, s in zip(counts, seconds))


def vocabulary_and_seq_len(image, cfg: training.TrainConfig):
    """The vocabulary and window length train() derives from the original image."""
    moves = tokenizer.image_to_move_sequence(image, cfg.flatten_error,
                                             cfg.max_move_len)
    vocab = tokenizer.build_vocabulary([moves], cfg.max_move_len)
    return vocab, max(2, min(len(moves), cfg.seq_ceiling))


def model_config(vocab, seq_len, cfg: training.TrainConfig) -> model.ModelConfig:
    return model.ModelConfig(vocab_size=vocab.size, seq_len=seq_len,
                             d_model=cfg.d_model, n_layers=cfg.n_layers,
                             n_heads=cfg.n_heads, d_ff=cfg.d_ff,
                             double_attention=cfg.double_attention)


def augment_config(cfg: training.TrainConfig) -> augment.AugmentConfig:
    return augment.AugmentConfig(reversal_probability=cfg.reversal_probability,
                                 scale_min=cfg.scale_min, rng_seed=cfg.seed)


def checkpoint_json(ckpt: training.Checkpoint) -> str:
    return json.dumps(training.checkpoint_to_json(ckpt), sort_keys=True)


# ---------------------------------------------------------------------------
# train-desk: training.train() at the desk preset
# ---------------------------------------------------------------------------

class TrainDesk:
    """Rounds of ingest + train(); each epoch regenerates its patch set.

    train() calls ``generate_patch_set`` first for the held-out set and then
    once at the start of each epoch, so a round's set-up is ingest plus
    everything before the second call (path fitting, vocabulary, init,
    held-out set). Each epoch is timed from its start to its callback, which
    brackets data regeneration, the steps and the held-out eval.
    """

    def __init__(self, seed: int, sizes: Sizes, checks: Checks):
        self.cfg = training.desk_preset(seed=seed, epochs=sizes.desk_epochs,
                                        **dict(sizes.desk_overrides))
        self.sizes = sizes
        self.checks = checks
        self.clock = HostClock(adjust=False)
        self.reference: str | None = None

    def round(self):
        """One round: (set-up s, per-epoch s, per-epoch target tokens, checkpoint)."""
        starts: list[float] = []  # of generate_patch_set calls
        stamps: list[float] = []  # of on_epoch callbacks
        tokens: list[int] = []
        build = training.build_stream_batches
        generate = training.generate_patch_set

        def counted_build(*args, **kwargs):
            batches = build(*args, **kwargs)
            tokens.append(sum(inputs.size for inputs, _ in batches))
            return batches

        def stamped_generate(*args, **kwargs):
            self.clock.maybe_probe()
            starts.append(self.clock.now())
            return generate(*args, **kwargs)

        # build: one call per epoch, counts the target tokens it optimises;
        # generate: its second call starts epoch 1 and ends the set-up
        training.build_stream_batches = counted_build
        training.generate_patch_set = stamped_generate
        try:
            self.clock.probe()
            t0 = self.clock.now()
            ckpt = training.train(
                ingest(), self.cfg,
                on_epoch=lambda stats: stamps.append(self.clock.now()))
        finally:
            training.build_stream_batches = build
            training.generate_patch_set = generate
        self._check(ckpt, tokens, starts)
        setup_end = starts[1]
        return setup_end - t0, list(np.diff([setup_end] + stamps)), tokens, ckpt

    def _check(self, ckpt, tokens, starts):
        c = self.checks
        c.check(len(ckpt.loss_history) == self.cfg.epochs == len(tokens),
                "one loss record and one batch build per epoch")
        c.check(len(starts) == 1 + self.cfg.epochs,
                "one patch set for the held-out set and one per epoch")
        for s in ckpt.loss_history:
            c.check(math.isfinite(s.train_loss) and math.isfinite(s.heldout_loss),
                    f"epoch {s.epoch}: losses are finite")
        final = ckpt.loss_history[-1].heldout_loss
        c.check(final < math.log(ckpt.vocab.size),
                f"final held-out loss {final} < ln V = {math.log(ckpt.vocab.size)}")
        text = checkpoint_json(ckpt)
        back = training.checkpoint_from_json(json.loads(text))
        c.check(checkpoint_json(back) == text,
                "checkpoint round-trips through JSON unchanged")
        if self.reference is None:
            self.reference = text
        else:
            c.check(text == self.reference,
                    "every round's checkpoint is byte-identical to the first")

    def measure(self, seconds: float) -> dict[str, float]:
        self.clock = HostClock(adjust=True)
        with self.clock.probing(training, "encoder_forward"):
            rounds = repeat(self.round, self.sizes.desk_min_rounds, seconds)
        # the process's first epoch is a warm-up and is not timed
        epochs = [s for _, epoch_s, _, _ in rounds for s in epoch_s][1:]
        tokens = [n for _, _, epoch_tokens, _ in rounds for n in epoch_tokens][1:]
        return {
            "setup_s": statistics.median(r[0] for r in rounds),
            "tokens_per_s": rate_p50(tokens, epochs),
            "iter_s_p50": statistics.median(epochs),
            "loss": rounds[0][3].loss_history[-1].heldout_loss,
        }

    def _round_rate(self) -> float:
        _, epoch_s, tokens, _ = self.round()
        return rate_p50(tokens, epoch_s)

    def reference_round(self) -> float:
        self.round()  # warm-up: a process's first round runs slower
        return self._round_rate()

    def traced_round(self) -> tuple[float, dict]:
        return self._round_rate(), {}


# ---------------------------------------------------------------------------
# train-full: full-scale optimizer steps on pre-cut windows
# ---------------------------------------------------------------------------

@dataclass
class FullState:
    cfg: training.TrainConfig
    model: model.ModelConfig
    params: dict
    adam: training.AdamState
    batches: list


class TrainFull:
    """Full-scale encoder steps: forward, cross-entropy, backward, Adam.

    Set-up cuts the windows of one seeded patch set into full batches, which
    the steps cycle through, so no data pipeline runs in the timed region.
    """

    def __init__(self, seed: int, sizes: Sizes, checks: Checks):
        self.cfg = training.TrainConfig(seed=seed, batch_size=sizes.full_batch,
                                        **dict(sizes.full_model))
        self.sizes = sizes
        self.checks = checks
        self.state: FullState | None = None

    def setup(self) -> FullState:
        cfg = self.cfg
        image = ingest()
        vocab, seq_len = vocabulary_and_seq_len(image, cfg)
        mcfg = model_config(vocab, seq_len, cfg)
        params = model.init_encoder_params(
            mcfg, training.derived_rng(cfg.seed, training.SEED_INIT))
        patches = augment.generate_patch_set(
            image, self.sizes.full_patches, augment_config(cfg),
            training.derived_rng(cfg.seed, training.SEED_EPOCH, 1))
        sequences = training.tokenize_patches(patches, vocab, cfg.flatten_error,
                                              cfg.max_move_len)
        batches = training.build_stream_batches(
            sequences, seq_len, cfg.batch_size,
            training.derived_rng(cfg.seed, training.SEED_SHUFFLE, 1))
        batches = [b for b in batches if len(b[0]) == cfg.batch_size]
        return FullState(cfg, mcfg, params, training.init_adam_state(params),
                         batches)

    def step(self, st: FullState) -> tuple[float, float, int]:
        """One optimizer step: (seconds, loss, target tokens)."""
        inputs, targets = st.batches[st.adam.step % len(st.batches)]
        n = inputs.size
        t0 = clock()
        for p in st.params.values():
            p.grad = None
        logits = model.encoder_forward(inputs, st.params, st.model)
        loss = autodiff.cross_entropy(
            autodiff.reshape(logits, (n, st.model.vocab_size)),
            targets.reshape(-1))
        loss.backward()
        lr = training.lr_schedule(st.adam.step + 1, st.model.d_model,
                                  st.cfg.warmup_steps)
        training.adam_step(st.params, {k: p.grad for k, p in st.params.items()},
                           st.adam, lr, st.cfg.beta1, st.cfg.beta2,
                           st.cfg.adam_eps)
        elapsed = clock() - t0
        value = float(loss.data)
        self.checks.check(math.isfinite(value),
                          f"step {st.adam.step}: loss {value} is finite")
        self.checks.check(
            all(np.isfinite(p.data).all() for p in st.params.values()),
            f"step {st.adam.step}: every parameter is finite after Adam")
        return elapsed, value, n

    def measure(self, seconds: float) -> dict[str, float]:
        setup_s, (warmup, steps) = around_setups(
            self.setup, self.sizes.setup_repeats,
            lambda st: self._timed_steps(st, seconds))
        times, losses, tokens = zip(*steps)
        fixed = ([loss for _, loss, _ in warmup]
                 + list(losses[:self.sizes.full_min_steps]))
        return {
            "setup_s": setup_s,
            "tokens_per_s": rate_p50(tokens, times),
            "iter_s_p50": statistics.median(times),
            "loss": statistics.fmean(fixed),  # a fixed number of steps
        }

    def _timed_steps(self, st: FullState, seconds: float):
        """(warm-up steps, timed steps), each step as (seconds, loss, tokens)."""
        self.checks.check(len(st.batches) > 0,
                          f"set-up cut at least one batch of {st.cfg.batch_size}")
        warmup = [self.step(st) for _ in range(self.sizes.full_warmup_steps)]
        return warmup, repeat(lambda: self.step(st), self.sizes.full_min_steps,
                              seconds)

    def _steps_per_s(self, st: FullState) -> float:
        times, _, tokens = zip(*(self.step(st)
                                 for _ in range(self.sizes.trace_steps)))
        return rate_p50(tokens, times)

    def reference_round(self) -> float:
        self.state = self.setup()
        for _ in range(self.sizes.full_warmup_steps):
            self.step(self.state)
        return self._steps_per_s(self.state)

    def traced_round(self) -> tuple[float, dict]:
        self.setup()  # traced for its set-up spans; steps reuse the warm state
        return self._steps_per_s(self.state), {}


# ---------------------------------------------------------------------------
# sample-full: generate_images + render_svg from a full-scale checkpoint
# ---------------------------------------------------------------------------

class SampleFull:
    """Grids sampled from a full-scale checkpoint with seeded initial weights.

    No trained full-scale checkpoint can be made in benchmark time, and with
    initial weights every image runs to the move cap, so early IMAGE_END is
    not exercised; the checks still accept it.
    """

    def __init__(self, seed: int, sizes: Sizes, checks: Checks):
        self.cfg = training.TrainConfig(seed=seed, **dict(sizes.full_model))
        self.sampler = sampling.SamplerConfig(k=10, seed=seed,
                                              max_moves=sizes.sample_max_moves)
        self.sizes = sizes
        self.checks = checks
        self.clock = HostClock(adjust=False)
        self.ckpt: training.Checkpoint | None = None
        self.reference: list[list[int]] | None = None

    def setup(self) -> training.Checkpoint:
        """Build the checkpoint and load it back, as ``strokegen sample`` does."""
        cfg = self.cfg
        vocab, seq_len = vocabulary_and_seq_len(ingest(), cfg)
        mcfg = model_config(vocab, seq_len, cfg)
        params = model.init_encoder_params(
            mcfg, training.derived_rng(cfg.seed, training.SEED_INIT))
        ckpt = training.Checkpoint(
            model=mcfg, train=cfg, vocab=vocab,
            params={k: p.data for k, p in params.items()}, epoch=0,
            loss_history=[], rng_state={"seed": cfg.seed, "epochs_completed": 0,
                                        "optimizer_steps": 0})
        return training.checkpoint_from_json(json.loads(checkpoint_json(ckpt)))

    def round(self, ckpt) -> tuple[float, list]:
        """One grid: (seconds for decode + render, results)."""
        count = self.sizes.sample_count
        self.clock.probe()
        t0 = self.clock.now()
        results = sampling.generate_images(ckpt, self.sampler, count=count)
        svg = sampling.render_svg([r.polylines for r in results], columns=count)
        elapsed = self.clock.now() - t0
        self._check(ckpt, results, svg)
        return elapsed, results

    def _check(self, ckpt, results, svg: str):
        c = self.checks
        _, max_moves = self.sampler.resolve(ckpt.model.seq_len)
        size, end = ckpt.vocab.size, ckpt.vocab.image_end_id
        for i, r in enumerate(results):
            ids = r.token_ids
            c.check(all(0 <= t < size for t in ids),
                    f"image {i}: every token id is in [0, {size})")
            c.check(len(ids) <= max_moves,
                    f"image {i}: {len(ids)} tokens <= max_moves {max_moves}")
            ended = bool(ids) and ids[-1] == end and end not in ids[:-1]
            capped = len(ids) == max_moves and end not in ids
            c.check(r.hit_cap == capped and (capped or ended),
                    f"image {i}: hit_cap={r.hit_cap} agrees with its "
                    f"{len(ids)} tokens")
        try:
            cells = ET.fromstring(svg).findall(SVG_CELL)
        except ET.ParseError as exc:
            c.check(False, f"grid SVG parses as XML: {exc}")
        else:
            c.check(len(cells) == len(results),
                    f"grid SVG has {len(cells)} cells for {len(results)} images")
        ids = [r.token_ids for r in results]
        if self.reference is None:
            self.reference = ids
        else:
            c.check(ids == self.reference,
                    "every grid repeats the first grid's tokens")

    def heldout_loss(self, ckpt) -> float:
        patches = augment.generate_patch_set(
            ingest(), self.sizes.sample_heldout_patches, augment_config(self.cfg),
            training.derived_rng(self.cfg.seed, training.SEED_HELDOUT))
        return training.evaluate_held_out(ckpt, patches)

    def measure(self, seconds: float) -> dict[str, float]:
        self.clock = HostClock(adjust=True)
        setups: list[float] = []

        def timed_setups():
            for _ in range(self.sizes.sample_setups):
                self.clock.probe()
                t0 = self.clock.now()
                ckpt = self.setup()
                setups.append(self.clock.now() - t0)
            return ckpt

        def grid():
            result = self.round(ckpt)
            # so that the median set-up spans the run as the grids do
            timed_setups()
            return result

        with self.clock.probing(sampling, "top_k_sample"):
            ckpt = timed_setups()
            rounds = repeat(grid, 1, seconds)
        times = [elapsed for elapsed, _ in rounds]
        tokens = [sum(len(r.token_ids) for r in results) for _, results in rounds]
        return {
            "setup_s": statistics.median(setups),
            "tokens_per_s": rate_p50(tokens, times),
            "iter_s_p50": statistics.median(t / n for t, n in zip(times, tokens)),
            "loss": self.heldout_loss(ckpt),
        }

    def reference_round(self) -> float:
        self.ckpt = self.setup()
        elapsed, results = self.round(self.ckpt)
        return sum(len(r.token_ids) for r in results) / elapsed

    def traced_round(self) -> tuple[float, dict]:
        self.setup()  # traced for its set-up spans
        elapsed, results = self.round(self.ckpt)
        tokens = sum(len(r.token_ids) for r in results)
        return tokens / elapsed, {
            "sampling.cap_hit_ratio": sum(r.hit_cap for r in results) / len(results),
        }


WORKLOADS = {"train-desk": TrainDesk, "train-full": TrainFull,
             "sample-full": SampleFull}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, sizes: Sizes = BENCH,
        trace_path=None, env: dict | None = None) -> Result:
    """Run one workload; traced when ``trace_path`` is given.

    A traced run first times one untraced round, then the same round with
    the tracer on, and reports per-layer metrics plus the tracing overhead
    (traced minus untraced tokens per second).
    """
    checks = Checks()
    workload = WORKLOADS[name](seed, sizes, checks)
    metrics: dict[str, float] = {}
    try:
        if trace_path is None:
            metrics = workload.measure(seconds)
            metrics["peak_rss_mb"] = peak_rss_mb()
            probes = workload.clock.probes if hasattr(workload, "clock") else []
            if probes and env is not None:
                env["host_probe_ms_p50"] = 1000 * statistics.median(probes)
                env["host_probes"] = len(probes)
        else:
            untraced = workload.reference_round()
            with Tracer() as tracer:
                traced, extra = workload.traced_round()
            metrics = tracer.layer_metrics()
            metrics.setdefault("sampling.cap_hit_ratio", 0.0)
            metrics.update(extra)
            metrics["trace.overhead_tokens_per_s"] = traced - untraced
            tracer.write(trace_path, env or {"run_id": name})
    except Exception as exc:  # a failed operation is a result, not a crash
        traceback.print_exc()
        checks.check(False, f"{name} raised {exc!r}")
    if trace_path is not None:
        metrics["checks.failed_ratio"] = checks.failed / max(1, checks.attempted)
    return Result(correct=checks.attempted > 0 and not checks.failed,
                  attempted=checks.attempted, failed=checks.failed,
                  failures=checks.failures, metrics=metrics)
