"""Training loop, AdamW optimizer, and evaluation metrics.

Metrics follow the usual multiclass conventions: a 10x10 confusion matrix
(rows = true class), per-class precision/recall/F1 with 0/0 defined as 0,
and unweighted macro averages.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .data import Dataset, batches
from .model import Model


_BLOCK = 32768  # elements per in-place AdamW block; two f64 scratch blocks take 512 KB


class NumericalError(RuntimeError):
    """Raised when training numerics break down (non-finite loss or gradient)."""


class AdamW:
    """Adam with decoupled weight decay.

    The decay step p <- p - lr*wd*p is applied separately from the
    bias-corrected moment update, so with zero gradients the parameters
    undergo pure multiplicative decay.

    ``step`` updates every parameter and both moments in place, ``_BLOCK``
    elements at a time, through two block-sized scratch buffers per dtype
    that all parameters share; its only per-step allocation is the boolean
    mask of the finiteness check.  Each block runs the out-of-place
    formula's correctly rounded elementwise operations in the same order,

        p <- p - (lr*wd)*p
        m <- b1*m + (1-b1)*g;  v <- b2*v + ((1-b2)*g)*g
        p <- p - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)

    so the result is bit-identical to it.  A missing gradient counts as
    zeros.  Every gradient and layout is checked before any state changes,
    so a non-finite gradient raises `NumericalError` and leaves the
    parameters, the moments and ``t`` as they were.  Since the update lands
    in ``p.data`` itself, every ``p.data`` must be C-contiguous, and every
    view of it sees the new values.
    """

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01):
        self.params = list(params)  # [(name, Tensor)]
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros(t.shape, t.data.dtype) for name, t in self.params}
        self.v = {name: np.zeros(t.shape, t.data.dtype) for name, t in self.params}
        dtypes = {t.data.dtype for _, t in self.params}
        self._scratch = {dtype: (np.empty(_BLOCK, dtype), np.empty(_BLOCK, dtype)) for dtype in dtypes}

    def zero_grad(self):
        for _, t in self.params:
            t.zero_grad()

    def step(self):
        for name, p in self.params:
            if not p.data.flags.c_contiguous:
                raise ValueError(f"parameter {name!r} is not C-contiguous, so it cannot be updated in place")
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericalError(f"non-finite gradient in parameter {name!r}")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        decay = self.lr * self.weight_decay
        for name, p in self.params:
            a_buf, b_buf = self._scratch[p.data.dtype]
            p_all, m_all, v_all = p.data.reshape(-1), self.m[name].reshape(-1), self.v[name].reshape(-1)
            g_all = None if p.grad is None else p.grad.reshape(-1)
            for lo in range(0, p_all.size, _BLOCK):
                p_blk, m, v = p_all[lo : lo + _BLOCK], m_all[lo : lo + _BLOCK], v_all[lo : lo + _BLOCK]
                a, b = a_buf[: p_blk.size], b_buf[: p_blk.size]
                if g_all is None:
                    g = b  # b is free until v/bc2 below
                    g.fill(0.0)
                else:
                    g = g_all[lo : lo + _BLOCK]
                if self.weight_decay:
                    np.multiply(decay, p_blk, out=a)
                    p_blk -= a
                m *= self.beta1
                np.multiply(1.0 - self.beta1, g, out=a)
                m += a
                v *= self.beta2
                np.multiply(1.0 - self.beta2, g, out=a)
                a *= g
                v += a
                np.divide(m, bc1, out=a)
                np.multiply(self.lr, a, out=a)
                np.divide(v, bc2, out=b)
                np.sqrt(b, out=b)
                b += self.eps
                a /= b
                p_blk -= a


class ConfusionMatrix:
    """Per-class prediction counts; rows are true classes, columns predicted."""

    def __init__(self, n_classes: int = 10):
        self.counts = np.zeros((n_classes, n_classes), dtype=np.int64)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def update(self, true_labels, predicted):
        np.add.at(self.counts, (np.asarray(true_labels), np.asarray(predicted)), 1)

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total if self.total else 0.0

    def per_class(self):
        """Arrays of per-class (precision, recall, f1), 0/0 counted as 0."""
        tp = np.diag(self.counts).astype(float)
        fp = self.counts.sum(axis=0) - tp
        fn = self.counts.sum(axis=1) - tp
        with np.errstate(invalid="ignore", divide="ignore"):
            precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
            recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
            f1 = np.where(precision + recall > 0, 2 * precision * recall / (precision + recall), 0.0)
        return precision, recall, f1

    def macro(self):
        precision, recall, f1 = self.per_class()
        return float(precision.mean()), float(recall.mean()), float(f1.mean())

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            for row in self.counts:
                writer.writerow([int(c) for c in row])


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    test_accuracy: float
    precision: float
    recall: float
    f1: float
    seconds: float


def evaluate(model: Model, dataset: Dataset, batch_size: int = 256):
    """Run the test split through the model and tally a confusion matrix."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    cm = ConfusionMatrix(model.arch["n_classes"])
    for images, labels in batches(dataset, batch_size, shuffle=False):
        # no name holds the logits, so their graph is freed before the next batch's forward
        predicted = model.forward(images).data.argmax(axis=1)  # lowest index wins ties
        cm.update(labels, predicted)
    precision, recall, f1 = cm.macro()
    return cm, {"accuracy": cm.accuracy, "precision": precision, "recall": recall, "f1": f1}


def train(
    model: Model,
    train_set: Dataset,
    test_set: Dataset,
    epochs: int,
    lr: float = 1e-3,
    batch_size: int = 32,
    seed: int = 42,
    clock=time.perf_counter,
    progress=None,
):
    """Seeded epoch loop: shuffle, forward, loss, backward, AdamW step.

    Returns the per-epoch metrics (evaluated on `test_set` after each
    epoch).  Fully deterministic under `seed` apart from the wall-clock
    column; pass a fixed `clock` for byte-reproducible artifacts.
    """
    optimizer = AdamW(model.parameters(), lr=lr)
    history: list[EpochMetrics] = []
    for epoch in range(epochs):
        started = clock()
        losses = []
        epoch_seed = seed * 1_000_003 + epoch
        for batch_index, (images, labels) in enumerate(batches(train_set, batch_size, seed=epoch_seed)):
            optimizer.zero_grad()
            logits = model.forward(images)
            loss = T.softmax_cross_entropy(logits, labels)
            if not np.isfinite(loss.data):
                raise NumericalError(
                    f"loss became non-finite at epoch {epoch}, batch {batch_index}; "
                    f"last finite losses: {losses[-5:]}"
                )
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
        _, m = evaluate(model, test_set)
        entry = EpochMetrics(
            epoch=epoch,
            train_loss=float(np.mean(losses)) if losses else float("nan"),
            test_accuracy=m["accuracy"],
            precision=m["precision"],
            recall=m["recall"],
            f1=m["f1"],
            seconds=clock() - started,
        )
        history.append(entry)
        if progress is not None:
            progress(entry)
    return history


METRICS_HEADER = [f.name for f in fields(EpochMetrics)]


def write_metrics_csv(path, history):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_HEADER)
        for m in history:
            writer.writerow([m.epoch, *(repr(getattr(m, name)) for name in METRICS_HEADER[1:])])
