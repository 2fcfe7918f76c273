"""Smoke test of the benchmark itself, at a tiny length.

    python3 -m pytest perfbench/test_smoke.py

Every workload, traced and untraced, must emit exactly the metrics that
BENCHMARK.json declares, with their units, and pass its own output checks;
a wrong pooled value and a NaN loss must each be counted as failures.
"""

import dataclasses
import json

import pytest

import run

run.pin_environment()

import numpy as np  # noqa: E402

import bench  # noqa: E402
from fuzzykan import model as model_mod  # noqa: E402
from fuzzykan import pooling  # noqa: E402
from fuzzykan import tensor as T  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    w = bench.WORKLOADS[name]
    if w.train:
        return dataclasses.replace(w, n_images=2 * w.batch, quality_batches=1)
    return dataclasses.replace(w, quality_batches=1)  # a CIFAR-10 batch file has a fixed size


def run_tiny(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", (1, 1))
    _, line = bench.run(tiny(name), seed=3, seconds=0.0, trace=trace, workdir=tmp_path / "work")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert not (tmp_path / "work").exists()
    return line


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_emits_declared_metrics(name, trace, tmp_path, monkeypatch):
    line = run_tiny(name, bool(trace), tmp_path, monkeypatch)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= bench.MIN_BATCHES
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    if trace:
        assert line["metrics"]["pooling.oracle_mismatches"]["value"] == 0


def test_wrong_pooled_value_is_a_failure(tmp_path, monkeypatch):
    real_pool = pooling.pool

    def shifted_pool(x, config):
        out = real_pool(x, config)
        out.data = out.data + 1e-9
        return out

    # shift both the program's and the benchmark's pooling, so only the
    # oracle comparison can notice
    monkeypatch.setattr(pooling, "pool", shifted_pool)
    monkeypatch.setattr(model_mod, "pool", shifted_pool)
    line = run_tiny("train-fuzzy-kan", True, tmp_path, monkeypatch)
    assert not line["correct"]
    assert line["failed"] >= 2  # both check batches
    assert line["metrics"]["pooling.oracle_mismatches"]["value"] > 0


def test_nan_loss_is_a_failure(tmp_path, monkeypatch):
    real_loss = T.softmax_cross_entropy

    def nan_loss(logits, labels):
        loss = real_loss(logits, labels)
        loss.data = np.array(np.nan)
        return loss

    monkeypatch.setattr(T, "softmax_cross_entropy", nan_loss)
    line = run_tiny("train-max-mlp", False, tmp_path, monkeypatch)
    assert not line["correct"]
    # every batch fails, and so does the train() reproduction gate
    assert line["failed"] == line["attempted"] - 1
