"""Acceptance gate: one pass/fail line per criterion.

Criteria 1-5 always run.  Criteria 6-7 need a real MNIST copy under
FUZZY_KAN_DATA and are skipped (with the reason) when absent.  Criteria 8-9
are the long-running full reproduction, additionally gated behind
FUZZY_KAN_FULL=1 (see the Makefile `repro` target).
"""

import os
import re

import numpy as np
import pytest

import fuzzykan.tensor as T
from fuzzykan.checks import GRAD_TOL, check_pool_oracle, check_spline, gradient_check, tiny_fuzzy_kan_setup
from fuzzykan.data import DataError, load_dataset
from fuzzykan.kan import kan_init, kan_layer_forward
from fuzzykan.model import ModelConfig, build
from fuzzykan.pooling import PoolConfig
from fuzzykan.training import ConfusionMatrix, train, write_metrics_csv

from conftest import real_mnist_dir, write_idx_split

NO_MNIST = "real MNIST IDX files not found under FUZZY_KAN_DATA"
NO_FULL = "full reproduction disabled; set FUZZY_KAN_FULL=1 (and FUZZY_KAN_DATA) to run"


def report(number, description):
    print(f"ACCEPTANCE {number} ({description}): PASS")


def test_criterion_1_gradient_checks():
    # the tiny composite, every pooling/head combination; each layer's own check is in its unit module
    for head in ("mlp", "kan"):
        for kind in ("max", "average", "fuzzy"):
            model, images, lbls = tiny_fuzzy_kan_setup(head=head, pooling_kind=kind)
            # the smoothness scan's pick; a change to the scan must not silently move this check
            assert model.config.seed == {"max": 21, "average": 0, "fuzzy": 0}[kind]
            tx = T.Tensor(images, requires_grad=True)
            tensors = [t for _, t in model.parameters()] + [tx]
            worst = gradient_check(lambda: T.softmax_cross_entropy(model.forward(tx), lbls), tensors)
            assert worst < GRAD_TOL, f"{head}/{kind}: {worst}"

    report(1, "analytic gradients match central finite differences, rel err < 1e-4")


def test_criterion_2_fuzzy_pool_oracle():
    ok, worst = check_pool_oracle()
    assert ok, f"max |vectorized - scalar| = {worst}"
    report(2, "vectorized fuzzy pooling equals the scalar per-window oracle exactly")


def test_criterion_3_spline_properties():
    ok, deviation, min_value, oracle_error = check_spline()
    assert ok, (deviation, min_value, oracle_error)

    layer = kan_init(3, 2, seed=5)
    rng = np.random.default_rng(5)
    x = T.Tensor(rng.uniform(-1.5, 1.5, (4, 3)))
    base = kan_layer_forward(x, layer).data.copy()
    layer.w_b.data *= 2.0
    layer.w_s.data *= 2.0
    np.testing.assert_allclose(kan_layer_forward(x, layer).data, 2.0 * base, atol=1e-10)

    report(3, "partition of unity < 1e-9, non-negativity, layer linearity in parameters")


def test_criterion_4_metrics():
    cm = ConfusionMatrix(2)
    cm.counts[:] = [[5, 1], [2, 4]]
    precision, recall, f1 = cm.per_class()
    assert cm.accuracy == 0.75
    assert precision[0] == pytest.approx(5 / 7, abs=1e-15)
    assert recall[0] == pytest.approx(5 / 6, abs=1e-15)
    assert f1[0] == pytest.approx(2 * (5 / 7) * (5 / 6) / (5 / 7 + 5 / 6), abs=1e-15)

    perfect = ConfusionMatrix(3)
    perfect.update([0, 1, 2], [0, 1, 2])
    assert perfect.report() == {"accuracy": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0}
    report(4, "confusion-matrix metrics match hand-computed values")


def test_criterion_5_format_round_trips(tmp_path):
    rng = np.random.default_rng(6)
    images = rng.integers(0, 256, (5, 28, 28)).astype(np.uint8)
    labels = rng.integers(0, 10, 5).astype(np.uint8)
    img, _ = write_idx_split(tmp_path, images, labels)
    ds = load_dataset("mnist", tmp_path, "train")
    assert ds.images.shape == (5, 1, 32, 32)
    np.testing.assert_array_equal((ds.images[:, 0, 2:-2, 2:-2] * 255.0).round().astype(np.uint8), images)
    np.testing.assert_array_equal(ds.labels, labels.astype(np.int64))

    cifar = tmp_path / "cifar"
    cifar.mkdir()
    imgs = rng.integers(0, 256, (10000, 3, 32, 32), dtype=np.uint8)
    lbls = rng.integers(0, 10, 10000, dtype=np.uint8)
    records = np.concatenate([lbls[:, None], imgs.reshape(10000, -1)], axis=1)
    (cifar / "test_batch.bin").write_bytes(records.tobytes())
    pixels = load_dataset("cifar10", cifar, "test").images * 255.0
    np.testing.assert_array_equal(pixels.round(out=pixels).astype(np.uint8), imgs)

    good = img.read_bytes()
    img.write_bytes(b"\x00\x00\x00\x00" + b"\x00" * 8)
    with pytest.raises(DataError, match=re.escape(f"{img}: bad magic 0x00000000, expected 0x00000803")):
        load_dataset("mnist", tmp_path, "train")
    img.write_bytes(good[:-10])
    with pytest.raises(DataError, match=re.escape(f"{img}: expected 3920 data bytes, file holds 3910")):
        load_dataset("mnist", tmp_path, "train")
    report(5, "IDX and CIFAR-10 fixtures round-trip bit-exactly; corruption raises")


def _mnist_splits(limit):
    root = real_mnist_dir()
    train_set = load_dataset("mnist", root, "train").subset(limit)
    test_set = load_dataset("mnist", root, "test")
    return train_set, test_set


def test_criterion_6_determinism(tmp_path):
    if real_mnist_dir() is None:
        pytest.skip(NO_MNIST)
    train_set, test_set = _mnist_splits(200)

    def run(path):
        model = build(ModelConfig(pooling=PoolConfig(kind="fuzzy"), head="kan", seed=42))
        history = train(model, train_set, test_set.subset(200), epochs=3, seed=42, clock=lambda: 0.0)
        write_metrics_csv(path, history)

    run(tmp_path / "a.csv")
    run(tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    report(6, "two seeded 200-sample 3-epoch runs produce byte-identical metrics.csv")


def test_criterion_7_desk_scale_learning():
    if real_mnist_dir() is None:
        pytest.skip(NO_MNIST)
    train_set, test_set = _mnist_splits(10000)
    model = build(ModelConfig(pooling=PoolConfig(kind="fuzzy"), head="kan", seed=42))
    history = train(model, train_set, test_set, epochs=3, seed=42)
    accuracy = history[-1].test_accuracy
    assert accuracy >= 0.93, f"10k-sample 3-epoch accuracy {accuracy}"
    report(7, f"MNIST 10k subset, KAN+fuzzy, 3 epochs: accuracy {accuracy:.4f} >= 0.93")


FULL_RECIPE = dict(epochs=10, lr=0.001, batch_size=32, seed=42)
FULL_TARGETS = {"mnist": (98.91, 0.5), "fashion-mnist": (89.88, 1.0), "cifar10": (67.06, 2.0)}


def _full_enabled():
    return os.environ.get("FUZZY_KAN_FULL") == "1" and os.environ.get("FUZZY_KAN_DATA")


def _full_run(dataset, pooling, head):
    root = os.environ["FUZZY_KAN_DATA"]
    train_set = load_dataset(dataset, root, "train")
    test_set = load_dataset(dataset, root, "test")
    model = build(ModelConfig(dataset=dataset, pooling=PoolConfig(kind=pooling), head=head, seed=42))
    return train(model, train_set, test_set, **FULL_RECIPE)


def test_criterion_8_full_reproduction():
    if not _full_enabled():
        pytest.skip(NO_FULL)
    for dataset, (target, tolerance) in FULL_TARGETS.items():
        results = {}
        for head in ("mlp", "kan"):
            for pooling in ("average", "max", "fuzzy"):
                history = _full_run(dataset, pooling, head)
                results[(head, pooling)] = 100.0 * history[-1].test_accuracy
        kan_fuzzy = results[("kan", "fuzzy")]
        assert abs(kan_fuzzy - target) <= tolerance, f"{dataset}: {kan_fuzzy} vs {target}±{tolerance}"
        assert kan_fuzzy >= max(results.values()) - 0.5, f"{dataset}: {results}"
    report(8, "full-recipe KAN+fuzzy accuracies within tolerance and within 0.5 pt of best")


def test_criterion_9_trend_reproduction():
    if not _full_enabled():
        pytest.skip(NO_FULL)
    history = _full_run("cifar10", "fuzzy", "kan")
    epoch3 = 100.0 * history[2].test_accuracy
    epoch10 = 100.0 * history[9].test_accuracy
    assert epoch10 >= epoch3 + 2.0, f"epoch 10 {epoch10} vs epoch 3 {epoch3}"
    report(9, f"CIFAR-10 KAN+fuzzy keeps improving: epoch 10 {epoch10:.2f} >= epoch 3 {epoch3:.2f} + 2")
