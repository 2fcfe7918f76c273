"""Training loop, AdamW optimizer, and evaluation metrics.

Metrics follow the usual multiclass conventions: a 10x10 confusion matrix
(rows = true class), per-class precision/recall/F1 with 0/0 defined as 0,
and unweighted macro averages.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T
from .data import Dataset, batches
from .model import Model


_BLOCK = 32768  # elements per AdamW block; its two f64 scratch blocks take 512 KB
BETA1, BETA2, EPS, WEIGHT_DECAY = 0.9, 0.999, 1e-8, 0.01  # the recipe's AdamW (Loshchilov & Hutter, 2019)


class NumericalError(RuntimeError):
    """Raised when training numerics break down (non-finite loss or gradient)."""


class AdamW:
    """Adam with decoupled weight decay, over one ``tensor.ParameterStore``.

    Only ``lr`` is set per run: b1, b2, eps and wd are the constants ``BETA1``, ``BETA2``, ``EPS`` and ``WEIGHT_DECAY``.
    The decay step p <- p - lr*wd*p is applied separately from the bias-corrected moment update,
    so with zero gradients the parameters undergo pure multiplicative decay.

    ``values`` and ``grads`` are the store's arrays, ``m`` and ``v`` flat ones of
    the same size; ``zero_grad`` is one fill, so an unreached parameter steps on a zero gradient.

    ``step`` checks finiteness, then updates the whole store, ``_BLOCK``
    elements at a time through preallocated scratch, so it allocates
    nothing.  Each block runs the out-of-place formula's correctly rounded
    elementwise operations in the same order,

        p <- p - (lr*wd)*p
        m <- b1*m + (1-b1)*g;  v <- b2*v + ((1-b2)*g)*g
        p <- p - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)

    so the result is bit-identical to it.  Before any state changes, a
    parameter whose ``p.data`` or ``p.grad`` is no longer its view (after
    ``p.grad = g``, say) raises ``ValueError`` (``ParameterStore.check``),
    and a non-finite gradient raises `NumericalError`; either names the
    parameter and leaves the values, the moments and ``t`` as they were.
    """

    def __init__(self, params, lr=1e-3):
        self.params = params  # a tensor.ParameterStore
        self.lr = lr
        self.t = 0
        self.values, self.grads = params.values, params.grads
        self.m = np.zeros_like(self.values)
        self.v = np.zeros_like(self.values)
        self._a, self._b = np.empty(_BLOCK, self.values.dtype), np.empty(_BLOCK, self.values.dtype)
        self._finite = np.empty(_BLOCK, bool)

    def zero_grad(self):
        self.grads.fill(0)

    def step(self):
        self.params.check()
        for lo in range(0, self.grads.size, _BLOCK):
            g = self.grads[lo : lo + _BLOCK]
            if not np.isfinite(g, out=self._finite[: g.size]).all():
                name = next(name for name, p in self.params if not np.isfinite(p.grad).all())
                raise NumericalError(f"non-finite gradient in parameter {name!r}")
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        decay = self.lr * WEIGHT_DECAY
        for lo in range(0, self.values.size, _BLOCK):
            p, g = self.values[lo : lo + _BLOCK], self.grads[lo : lo + _BLOCK]
            m, v = self.m[lo : lo + _BLOCK], self.v[lo : lo + _BLOCK]
            a, b = self._a[: p.size], self._b[: p.size]
            np.multiply(decay, p, out=a)
            p -= a
            m *= BETA1
            np.multiply(1.0 - BETA1, g, out=a)
            m += a
            v *= BETA2
            np.multiply(1.0 - BETA2, g, out=a)
            a *= g
            v += a
            np.divide(m, bc1, out=a)
            np.multiply(self.lr, a, out=a)
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += EPS
            a /= b
            p -= a


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

    def report(self) -> dict:
        """The four numbers a run reports, in order: accuracy and the macro precision, recall and F1."""
        precision, recall, f1 = (float(m.mean()) for m in self.per_class())
        return {"accuracy": self.accuracy, "precision": precision, "recall": recall, "f1": f1}

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
    confusion: ConfusionMatrix = field(repr=False)  # the test fields' source; its own file, not a column


def evaluate(model: Model, dataset: Dataset, batch_size: int = 256):
    """Run the test split through the model and tally a confusion matrix."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    cm = ConfusionMatrix(model.arch["n_classes"])
    with T.no_grad():  # no backward follows: no op keeps its inputs, so each activation goes once the next stage has run
        for images, labels in batches(dataset, batch_size, shuffle=False):
            predicted = model.forward(images).data.argmax(axis=1)  # lowest index wins ties
            cm.update(labels, predicted)
    return cm, cm.report()


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

    Returns the per-epoch metrics, each read from the ``ConfusionMatrix`` of
    `test_set` after that epoch, which the record keeps as ``confusion``.
    Fully deterministic under `seed` apart from the wall-clock column; pass a
    fixed `clock` for byte-reproducible artifacts.
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
        cm, m = evaluate(model, test_set)
        entry = EpochMetrics(
            epoch=epoch,
            train_loss=float(np.mean(losses)) if losses else float("nan"),
            test_accuracy=m["accuracy"],
            precision=m["precision"],
            recall=m["recall"],
            f1=m["f1"],
            seconds=clock() - started,
            confusion=cm,
        )
        history.append(entry)
        if progress is not None:
            progress(entry)
    return history


METRICS_HEADER = [f.name for f in fields(EpochMetrics) if f.name != "confusion"]


def write_metrics_csv(path, history):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_HEADER)
        for m in history:
            writer.writerow([repr(getattr(m, name)) for name in METRICS_HEADER])
