"""Closed-loop train and eval benchmark of fuzzykan's public layers.

One caller runs batches back to back: the next batch starts only when the
previous one has returned.  Inputs are seeded synthetic files in the MNIST
IDX or CIFAR-10 binary format, loaded through ``data.load_dataset`` so that
set-up covers the real parsers.

An untraced run measures the end-to-end metrics through ``Model.forward``.
A traced run alternates untraced batches with traced ones, which call the
layers' public functions one by one from this file and time each call, so
both sides of ``trace_overhead_frac`` see the same model state and load.

Every run checks the program's outputs: batches that raise, give
non-finite or misshapen logits or loss, disagree with ``Model.forward`` bit
for bit, or pool a sampled window differently from the scalar oracle are
counted as failed.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from fuzzykan import data, kan, pooling, training
from fuzzykan import model as model_mod
from fuzzykan import tensor as T

# set-up is repeated at least SETUP_REPEATS[0] times and until SETUP_SECONDS
# have passed, at most SETUP_REPEATS[1] times; setup_s is the median
SETUP_REPEATS = (3, 25)
SETUP_SECONDS = 1.5
# the training run's own seed (batch order), a setting of the program like the
# model's init seed; --seed draws the inputs only
TRAIN_SEED = 42
# batches with i % CHECK_EVERY < 2 are check batches (one untraced and one
# traced in a traced run); they run the output checks and are not timed, and
# the first two also serve as warm-up
CHECK_EVERY = 16
MIN_BATCHES = 4  # the two check batches, then one timed untraced and one timed traced batch
ORACLE_WINDOWS = 64  # windows sampled per pool layer on each check batch
TAIL_BEYOND = 10  # the tail percentile has at least this many samples beyond it
TRAIN_PREFIX = 64  # samples in the train() reproduction gate
EVAL_PREFIX = 300  # samples in the evaluate() reproduction gate

# Neighbours on a shared machine slow every process on it, by up to 2x for
# seconds at a time.  So timings are reported at a reference speed: a fixed
# kernel, independent of the package and made of the kinds of work the
# model does, is timed every PROBE_EVERY seconds, and each timing is scaled
# by REFERENCE_MS / the mean probe time within PROBE_WINDOW seconds of it.
# The raw figures go on the details line.
REFERENCE_MS = 25.0
PROBE_EVERY = 1.0
PROBE_WINDOW = 1.5

STAGE_BUCKETS = (
    "tensor.conv1",
    "tensor.act",
    "pooling.pool1",
    "tensor.conv2",
    "pooling.pool2",
    "kan.head",
    "tensor.mlp_head",
    "tensor.loss",
)

END_TO_END_UNITS = {
    "samples_per_s": "1/s",
    "batch_ms_p50": "ms",
    "batch_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "loss_final": "nat",
}

PER_LAYER_UNITS = {
    **{f"{b}.{d}_ms": "ms" for b in STAGE_BUCKETS for d in ("fwd", "bwd")},
    "tensor.backward.walk_ms": "ms",
    "tensor.backward.remainder_ms": "ms",
    "tensor.nodes_per_batch": "count",
    "pooling.below_c_share": "frac",
    "pooling.oracle_mismatches": "count",
    "kan.out_of_grid_share": "frac",
    "training.adamw.step_ms": "ms",
    "data.batch_wait_ms": "ms",
    "data.load_s": "s",
    "model.build_s": "s",
    "model.forward_ms": "ms",
    "training.accuracy": "frac",
    "trace_overhead_frac": "frac",
}


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    split: str
    n_images: int
    pooling: str
    r_max: float
    head: str
    train: bool
    batch: int
    # loss_final and training.accuracy cover the first `quality_batches`
    # batches, so they do not depend on how many batches fit in the run; for
    # training this is the whole first epoch, whose mean loss train() reports
    quality_batches: int

    def config(self) -> model_mod.ModelConfig:
        return model_mod.ModelConfig(
            dataset=self.dataset,
            pooling=pooling.PoolConfig(kind=self.pooling, membership=pooling.MembershipParams(r_max=self.r_max)),
            head=self.head,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-fuzzy-kan", "mnist", "train", 2048, "fuzzy", 6.0, "kan", True, 32, 64),
        Workload("train-max-mlp", "mnist", "train", 2048, "max", 6.0, "mlp", True, 32, 64),
        Workload("eval-fuzzy-kan-cifar", "cifar10", "test", inputs.CIFAR_RECORDS, "fuzzy", 0.5, "kan", False, 256, 8),
    )
}


class SpeedProbe:
    """Times a fixed kernel of the operations the model is made of."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.cols = rng.uniform(size=(25088, 25))  # conv1's im2col at batch 32
        self.kernels = rng.uniform(size=(25, 6))
        self.values = rng.uniform(size=400_000)
        self.stream = rng.uniform(size=2_000_000)  # 16 MB, more than the caches hold
        self.ends = []
        self.seconds = []

    def probe(self):
        t0 = time.perf_counter()
        np.einsum("ik,kj->ij", self.cols, self.kernels, optimize=False)  # sequential sums, as in conv2d
        v = self.values
        np.where(v > 0.5, np.exp(v), v * v).sum()  # elementwise, as in pooling
        (self.stream * 2.0 + 1.0).sum()  # bound by memory bandwidth
        counts = {}
        for i in range(20_000):  # bound by the interpreter, as in the autodiff walk
            counts[i & 255] = counts.get(i & 255, 0) + i
        self.ends.append(time.perf_counter())
        self.seconds.append(self.ends[-1] - t0)

    def probe_if_due(self):
        if not self.ends or time.perf_counter() - self.ends[-1] >= PROBE_EVERY:
            self.probe()

    def scale_at(self, t: float) -> float:
        """The factor from raw timings at time `t` to the reference speed."""
        near = [s for end, s in zip(self.ends, self.seconds) if abs(end - t) <= PROBE_WINDOW]
        if not near:
            near = [min(zip(self.ends, self.seconds), key=lambda p: abs(p[0] - t))[1]]
        return REFERENCE_MS / (1e3 * statistics.fmean(near))


# -- set-up ---------------------------------------------------------------


@dataclass
class Setup:
    dataset: data.Dataset
    model: model_mod.Model
    seconds: dict  # setup_s, data.load_s, model.build_s: medians over the repeats
    raw_seconds: dict  # the same, not scaled to the reference speed
    loaded_ok: bool


def expected_images(dataset: str, pixels: np.ndarray) -> np.ndarray:
    images = pixels.astype(np.float64) / 255.0
    if dataset == "mnist":
        images = np.pad(images, ((0, 0), (0, 0), (2, 2), (2, 2)))
    return images


def set_up(w: Workload, seed: int, workdir: Path, probe: SpeedProbe) -> Setup:
    """Generate, write and load the inputs and build the model, repeatedly."""
    repeats = []  # (end time, {metric: raw seconds})
    loaded_ok = True
    ds = model = None
    least, most = SETUP_REPEATS
    start = time.perf_counter()
    while len(repeats) < least or (len(repeats) < most and time.perf_counter() - start < SETUP_SECONDS):
        ds = model = None  # let the previous repeat's arrays go before the next load
        probe.probe()
        t0 = time.perf_counter()
        pixels, labels = inputs.write_dataset(w.dataset, w.n_images, seed, workdir)
        t1 = time.perf_counter()
        ds = data.load_dataset(w.dataset, workdir, split=w.split)
        t2 = time.perf_counter()
        model = model_mod.build(w.config())
        t3 = time.perf_counter()
        repeats.append((t3, {"setup_s": t3 - t0, "data.load_s": t2 - t1, "model.build_s": t3 - t2}))
        loaded_ok &= np.array_equal(ds.labels, labels) and np.array_equal(
            ds.images[:64], expected_images(w.dataset, pixels[:64])
        )
        del pixels, labels
    probe.probe()

    def medians(scaled):
        return {
            key: statistics.median(v[key] * (probe.scale_at(end) if scaled else 1.0) for end, v in repeats)
            for key in repeats[0][1]
        }

    return Setup(ds, model, medians(True), medians(False), loaded_ok)


# -- the staged forward and backward attribution -------------------------


def mlp_head(h, p, n_hidden, act):
    for i in range(n_hidden + 1):
        h = T.bias_add(T.matmul(h, p[f"fc{i}.weight"]), p[f"fc{i}.bias"])
        if i < n_hidden:
            h = T.activate(act, h)
    return h


def staged_forward(model, images):
    """``Model.forward`` as timed calls into each layer.

    Returns (input tensor, logits, spans); a span is (bucket, stage input,
    stage output, seconds).  Layers are reached through their modules so a
    test can substitute a faulty one.
    """
    cfg = model.config
    p = model.params
    act = cfg.conv_activation
    spans = []

    def stage(bucket, inp, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        spans.append((bucket, inp, out, time.perf_counter() - t0))
        return out

    x = T.Tensor(images)
    h = stage("tensor.conv1", x, T.conv2d, x, p["conv1.weight"], p["conv1.bias"])
    h = stage("tensor.act", h, T.activate, act, h)
    h = stage("pooling.pool1", h, pooling.pool, h, cfg.pooling)
    h = stage("tensor.conv2", h, T.conv2d, h, p["conv2.weight"], p["conv2.bias"])
    h = stage("tensor.act", h, T.activate, act, h)
    h = stage("pooling.pool2", h, pooling.pool, h, cfg.pooling)
    h = stage("tensor.flatten", h, T.flatten, h)
    if cfg.head == "kan":
        h = stage("kan.head", h, kan.kan_stack_forward, h, model.kan_layers)
    else:
        h = stage("tensor.mlp_head", h, mlp_head, h, p, len(cfg.resolved_head_widths()), act)
    return x, h, spans


def attribute_backward(spans) -> dict:
    """Wrap the backward rule of every node each span created with a timer.

    A stage's nodes are those reachable from its output with a node id above
    its input's.  Returns the bucket -> seconds dict the timers fill in.
    """
    spent = defaultdict(float)

    def timed(rule, bucket):
        def run(g):
            t0 = time.perf_counter()
            rule(g)
            spent[bucket] += time.perf_counter() - t0

        return run

    for bucket, inp, out, _ in spans:
        stack, seen = [out], set()
        while stack:
            node = stack.pop()
            if id(node) in seen or node.node_id <= inp.node_id:
                continue
            seen.add(id(node))
            if node._backward is not None:
                node._backward = timed(node._backward, bucket)
            stack.extend(node._parents)
    return spent


# -- output checks ----------------------------------------------------------


def window_oracle(config: pooling.PoolConfig):
    if config.kind == "fuzzy":
        return lambda window: pooling.fuzzy_window_reference(window, config.membership)
    if config.kind == "max":
        return lambda window: float(window.max())
    raise ValueError(f"no oracle for {config.kind!r} pooling")


def pool_windows(x: np.ndarray, config: pooling.PoolConfig) -> np.ndarray:
    """[N,C,Ho,Wo,k,k] view of the windows `pool` reduces."""
    k, s = config.k, config.stride
    return np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]


def oracle_mismatches(spans, config: pooling.PoolConfig, rng) -> int:
    """Pooled values at sampled windows that differ from the scalar oracle."""
    oracle = window_oracle(config)
    bad = 0
    for bucket, inp, out, _ in spans:
        if not bucket.startswith("pooling."):
            continue
        windows = pool_windows(inp.data, config)
        for flat in rng.integers(0, out.size, ORACLE_WINDOWS):
            idx = np.unravel_index(flat, out.shape)
            if out.data[idx] != oracle(windows[idx]):
                bad += 1
    return bad


def check_spans(spans, model, rng, census) -> int:
    """Count the spans' input properties; return the oracle mismatches."""
    census.count(spans, model)
    return oracle_mismatches(spans, model.config.pooling, rng)


@dataclass
class Census:
    """Input properties of the layers, counted on check batches."""

    windows: int = 0
    windows_below_c: int = 0
    kan_inputs: int = 0
    kan_out_of_grid: int = 0

    def count(self, spans, model):
        c = model.config.pooling.membership.c
        for bucket, inp, _, _ in spans:
            if bucket.startswith("pooling."):
                below = (pool_windows(inp.data, model.config.pooling) < c).all(axis=(-2, -1))
                self.windows += below.size
                self.windows_below_c += int(below.sum())
            elif bucket == "kan.head":
                h = inp
                for layer in model.kan_layers:
                    grid = layer.grid
                    self.kan_inputs += h.size
                    self.kan_out_of_grid += int(((h.data < grid.lo) | (h.data > grid.hi)).sum())
                    h = kan.kan_layer_forward(h, layer)


def outputs_ok(logits, labels, n_classes, loss) -> bool:
    if logits.shape != (len(labels), n_classes) or not np.all(np.isfinite(logits.data)):
        return False
    return loss is None or math.isfinite(loss)


# -- the closed loop ----------------------------------------------------------


@dataclass
class StepResult:
    logits: T.Tensor
    loss: float | None
    spans: list | None = None
    seconds: dict = field(default_factory=dict)
    backward_spent: dict = field(default_factory=dict)
    nodes: int = 0  # graph nodes the traced batch created


class Runner:
    """Runs one workload's batches against a model."""

    def __init__(self, w: Workload, model):
        self.w = w
        self.model = model
        self.n_classes = model.arch["n_classes"]
        self.optimizer = training.AdamW(model.parameters()) if w.train else None
        self.confusion = training.ConfusionMatrix(self.n_classes)

    def step(self, images, labels, traced: bool) -> StepResult:
        """One batch as `training.train` or `training.evaluate` runs it."""
        clock = time.perf_counter
        if self.optimizer is not None:
            self.optimizer.zero_grad()
        t0 = clock()
        if traced:
            x, logits, spans = staged_forward(self.model, images)
        else:
            logits, spans = self.model.forward(images), None
        res = StepResult(logits, None, spans, {"forward": clock() - t0})
        if not self.w.train:
            self.confusion.update(labels, logits.data.argmax(axis=1))
            if traced:
                res.nodes = logits.node_id - x.node_id + 1
            return res
        t0 = clock()
        loss = T.softmax_cross_entropy(logits, labels)
        res.seconds["tensor.loss"] = clock() - t0
        res.loss = float(loss.data)
        if not math.isfinite(res.loss):
            return res  # train() stops here; the caller counts the batch as failed
        if traced:
            spans.append(("tensor.loss", logits, loss, res.seconds["tensor.loss"]))
            res.backward_spent = attribute_backward(spans)
            res.nodes = loss.node_id - x.node_id + 1
        t0 = clock()
        loss.backward()
        res.seconds["backward"] = clock() - t0
        t0 = clock()
        self.optimizer.step()
        res.seconds["adamw"] = clock() - t0
        return res


def batch_stream(w: Workload, ds):
    """Epochs of `data.batches`, seeded per epoch as `training.train` seeds them."""
    epoch = 0
    while True:
        yield from data.batches(ds, w.batch, seed=TRAIN_SEED * 1_000_003 + epoch, shuffle=w.train)
        epoch += 1


def reproduces_program(w: Workload, ds) -> bool:
    """The Runner's loop gives train()'s epoch-mean loss / evaluate()'s confusion matrix."""
    cfg = w.config()
    runner = Runner(w, model_mod.build(cfg))
    if w.train:
        prefix = ds.subset(TRAIN_PREFIX)
        history = training.train(model_mod.build(cfg), prefix, prefix, epochs=1, batch_size=w.batch, seed=TRAIN_SEED)
        batches = data.batches(prefix, w.batch, seed=TRAIN_SEED * 1_000_003)
        losses = [runner.step(im, lb, traced=i % 2 == 1).loss for i, (im, lb) in enumerate(batches)]
        return float(np.mean(losses)) == history[0].train_loss
    prefix = ds.subset(EVAL_PREFIX)
    reference, _ = training.evaluate(runner.model, prefix, batch_size=w.batch)
    for i, (im, lb) in enumerate(data.batches(prefix, w.batch, shuffle=False)):
        runner.step(im, lb, traced=i % 2 == 1)
    return np.array_equal(runner.confusion.counts, reference.counts)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    oracle_mismatches: int = 0
    errors_shown: int = 0

    def fail(self, what: str):
        self.failed += 1
        if self.errors_shown < 5:
            self.errors_shown += 1
            print(f"perfbench: {what}", file=sys.stderr)


@dataclass
class Timed:
    """One timed batch: when it ended, its size, its raw timings in ms and its counts."""

    end: float
    traced: bool
    samples: int
    ms: dict
    counts: dict


@dataclass
class Samples:
    """The timed batches' measurements, each scaled to the reference speed or raw."""

    latency_ms: dict = field(default_factory=lambda: {False: [], True: []})  # by traced
    samples: dict = field(default_factory=lambda: {False: 0, True: 0})
    per_layer: dict = field(default_factory=lambda: defaultdict(list))
    scales: list = field(default_factory=list)

    @classmethod
    def of(cls, timed, probe: SpeedProbe | None) -> "Samples":
        s = cls()
        for b in timed:
            f = probe.scale_at(b.end) if probe else 1.0
            s.scales.append(f)
            s.latency_ms[b.traced].append(b.ms["latency"] * f)
            s.samples[b.traced] += b.samples
            for key, value in b.ms.items():
                if key != "latency":
                    s.per_layer[key].append(value * f)
            for key, value in b.counts.items():
                s.per_layer[key].append(value)
        return s

    def samples_per_s(self, traced=False) -> float:
        return ratio(1e3 * self.samples[traced], sum(self.latency_ms[traced]))


def measure(w: Workload, model, ds, seed: int, seconds: float, trace: bool, tally: Tally, probe: SpeedProbe):
    """Run the closed loop for `seconds`, and at least through the quality block."""
    runner = Runner(w, model)
    stream = batch_stream(w, ds)
    rng = np.random.default_rng([seed, 1])
    quality_out = []  # (logits, labels, loss) of the quality block
    census = Census()
    timed = []
    start = time.perf_counter()
    i = 0
    while i < max(w.quality_batches, MIN_BATCHES) or time.perf_counter() - start < seconds:
        traced = trace and i % 2 == 1
        check = i % CHECK_EVERY < 2
        probe.probe_if_due()
        tally.attempted += 1
        try:
            t0 = time.perf_counter()
            images, labels = next(stream)
            wait = time.perf_counter() - t0
            if check:  # the reference is the other forward, at the same weights
                if traced:
                    reference = model.forward(images).data
                else:
                    _, reference, spans = staged_forward(model, images)
                    reference = reference.data
                    bad = check_spans(spans, model, rng, census)
                    del spans  # free the reference graph before the step
            t1 = time.perf_counter()
            res = runner.step(images, labels, traced)
            t2 = time.perf_counter()
            if check and traced:
                bad = check_spans(res.spans, model, rng, census)
        except Exception:
            tally.fail(f"batch {i} raised:\n{traceback.format_exc()}")
            i += 1
            continue
        ok = outputs_ok(res.logits, labels, runner.n_classes, res.loss)
        if not ok:
            tally.fail(f"batch {i}: non-finite or misshapen logits or loss")
        if check:
            tally.oracle_mismatches += bad
            same = res.logits.data.tobytes() == reference.tobytes()
            if ok and (bad or not same):
                tally.fail(f"batch {i}: {bad} pooled windows differ from the oracle, logits identical: {same}")
        elif ok:
            ms, counts = layer_timings(res, traced)
            ms.update({"latency": (wait + t2 - t1) * 1e3, "data.batch_wait_ms": wait * 1e3})
            timed.append(Timed(t2, traced, len(labels), ms, counts))
        if i < w.quality_batches:
            quality_out.append((res.logits.data, labels, res.loss))
        i += 1
    probe.probe()
    return timed, census, quality_out


def layer_timings(res: StepResult, traced: bool):
    """The batch's per-layer timings in ms, and its counts."""
    sec = res.seconds
    if not traced:
        ms = {"model.forward_ms": sec["forward"] * 1e3}
        if "backward" in sec:
            ms["backward_untraced_ms"] = sec["backward"] * 1e3
        return ms, {}
    fwd = defaultdict(float)
    for bucket, _, _, spent in res.spans:
        fwd[bucket] += spent
    ms = {}
    for bucket in STAGE_BUCKETS:
        ms[f"{bucket}.fwd_ms"] = fwd[bucket] * 1e3
        ms[f"{bucket}.bwd_ms"] = res.backward_spent.get(bucket, 0.0) * 1e3
    if "backward" in sec:
        ms["tensor.backward.walk_ms"] = (sec["backward"] - sum(res.backward_spent.values())) * 1e3
        ms["training.adamw.step_ms"] = sec["adamw"] * 1e3
    return ms, {"tensor.nodes_per_batch": res.nodes}


# -- results ------------------------------------------------------------------


def ratio(num, den) -> float:
    return num / den if den else math.nan


def tail(values):
    """(value, percentile, samples beyond) of the highest percentile with TAIL_BEYOND samples beyond it."""
    if not values:
        return math.nan, math.nan, 0
    ordered = sorted(values)
    idx = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - idx - 1


def quality_metrics(w: Workload, quality_out):
    if not quality_out:
        return math.nan, math.nan
    correct = sum(int((logits.argmax(axis=1) == labels).sum()) for logits, labels, _ in quality_out)
    total = sum(len(labels) for _, labels, _ in quality_out)
    if w.train:
        losses = [loss for _, _, loss in quality_out]
    else:
        losses = [float(T.softmax_cross_entropy(T.Tensor(lg), lb).data) for lg, lb, _ in quality_out]
    return float(np.mean(losses)), correct / total


def per_layer_metrics(setup: Setup, s: Samples, census: Census, tally: Tally, accuracy: float) -> dict:
    def med(key):
        return statistics.median(s.per_layer[key]) if s.per_layer[key] else 0.0

    out = {key: med(key) for key in PER_LAYER_UNITS}
    untraced_bwd = med("backward_untraced_ms")
    attributed = sum(med(f"{b}.bwd_ms") for b in STAGE_BUCKETS) + med("tensor.backward.walk_ms")
    out.update(
        {
            "tensor.backward.remainder_ms": untraced_bwd - attributed if untraced_bwd else 0.0,
            "pooling.below_c_share": ratio(census.windows_below_c, census.windows),
            "pooling.oracle_mismatches": tally.oracle_mismatches,
            "kan.out_of_grid_share": ratio(census.kan_out_of_grid, census.kan_inputs) if census.kan_inputs else 0.0,
            "data.load_s": setup.seconds["data.load_s"],
            "model.build_s": setup.seconds["model.build_s"],
            "training.accuracy": accuracy,
            "trace_overhead_frac": ratio(s.samples_per_s(False), s.samples_per_s(True)) - 1.0,
        }
    )
    tolerance = abs(out["trace_overhead_frac"]) * untraced_bwd
    if abs(out["tensor.backward.remainder_ms"]) > tolerance:
        print(
            f"perfbench: stage backward times plus the walk leave {out['tensor.backward.remainder_ms']:.3f} ms "
            f"of the untraced {untraced_bwd:.3f} ms backward unaccounted (tolerance {tolerance:.3f} ms)",
            file=sys.stderr,
        )
    return out


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "dtype": np.dtype(T.default_dtype()).name,
    }


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Set up, check and measure one workload; return (details, result line)."""
    probe = SpeedProbe()
    workdir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=workdir))
    try:
        setup = set_up(w, seed, scratch, probe)
    finally:
        shutil.rmtree(scratch)
        try:
            workdir.rmdir()
        except OSError:
            pass  # another run still uses it

    tally = Tally(attempted=2)
    if not setup.loaded_ok:
        tally.fail("load_dataset returned images or labels that differ from the files written")
    try:
        reproduced = reproduces_program(w, setup.dataset)
    except Exception:
        print(traceback.format_exc(), file=sys.stderr)
        reproduced = False
    if not reproduced:
        tally.fail("the benchmark loop does not reproduce training.train / training.evaluate")

    timed, census, quality_out = measure(w, setup.model, setup.dataset, seed, seconds, trace, tally, probe)
    s, raw = Samples.of(timed, probe), Samples.of(timed, None)

    def latency_stats(samples: Samples):
        values = samples.latency_ms[False]
        return {
            "samples_per_s": samples.samples_per_s(),
            "batch_ms_p50": statistics.median(values) if values else math.nan,
            "batch_ms_tail": tail(values)[0],
        }

    _, tail_pct, beyond = tail(s.latency_ms[False])
    loss_final, accuracy = quality_metrics(w, quality_out)
    details = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "timed_batches": {"untraced": len(s.latency_ms[False]), "traced": len(s.latency_ms[True])},
        "batch_ms_tail": {"percentile": tail_pct, "samples": len(s.latency_ms[False]), "samples_beyond": beyond},
        "pooling.below_c_share": ratio(census.windows_below_c, census.windows),
        "training.accuracy": accuracy,
        "raw": {**latency_stats(raw), "setup_s": setup.raw_seconds["setup_s"]},
        "speed_scale": {
            "reference_ms": REFERENCE_MS,
            "probes": len(probe.seconds),
            "median": statistics.median(s.scales) if s.scales else math.nan,
            "min": min(s.scales, default=math.nan),
            "max": max(s.scales, default=math.nan),
        },
    }
    if trace:
        layers = per_layer_metrics(setup, s, census, tally, accuracy)
        metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in layers.items()}
    else:
        values = {
            **latency_stats(s),
            "setup_s": setup.seconds["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "loss_final": loss_final,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            k: {"value": v if isinstance(v, int) or math.isfinite(v) else None, "unit": unit}
            for k, (v, unit) in metrics.items()
        },
    }
    return details, line
