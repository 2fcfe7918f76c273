"""The report of tools/parity.py on canned battery outputs, and its battery on one small model."""

import importlib.util
from pathlib import Path

import numpy as np

from fuzzykan.model import ModelConfig, build
from fuzzykan.pooling import PoolConfig

TOOL = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
_spec = importlib.util.spec_from_file_location("parity", TOOL)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)

PARENT = {"kan/fresh/logits": "aa", "kan/fresh/input.grad": "bb", "kan/values": "cc"}


def run_main(monkeypatch, capsys, parent, change):
    outputs = {"parent": parent, "change": change}
    monkeypatch.setattr(parity, "run_battery", lambda checkout: outputs[checkout.name])
    code = parity.main(["parent", "change"])
    return code, capsys.readouterr().out.splitlines()


def test_all_equal_is_identical(monkeypatch, capsys):
    code, lines = run_main(monkeypatch, capsys, PARENT, dict(PARENT))
    assert code == 0
    assert lines == ["3 arrays, 0 differing or missing", "IDENTICAL"]


def test_one_differing_array_is_listed(monkeypatch, capsys):
    code, lines = run_main(monkeypatch, capsys, PARENT, {**PARENT, "kan/fresh/input.grad": "bd"})
    assert code == 1
    assert lines == ["differs: kan/fresh/input.grad", "3 arrays, 1 differing or missing", "DIFFERENT"]


def test_a_missing_key_is_listed_on_either_side(monkeypatch, capsys):
    change = {key: value for key, value in PARENT.items() if key != "kan/values"}
    code, lines = run_main(monkeypatch, capsys, PARENT, change)
    assert code == 1
    assert lines == ["missing in change: kan/values", "3 arrays, 1 differing or missing", "DIFFERENT"]
    code, lines = run_main(monkeypatch, capsys, change, PARENT)
    assert code == 1
    assert lines[0] == "missing in parent: kan/values"


def test_digest_covers_dtype_and_shape():
    a = np.zeros(4)
    assert parity.digest(a) == parity.digest(a.copy())
    assert parity.digest(a) != parity.digest(a.view(np.int64))  # same bytes, another dtype
    assert parity.digest(a) != parity.digest(a.reshape(2, 2))
    assert parity.digest(np.float64([0.0])) != parity.digest(np.float64([-0.0]))


def test_battery_runs_on_this_library(monkeypatch):
    # one small model through the real battery, so a library change that breaks it fails here
    monkeypatch.setattr(parity, "VARIANTS", [("mlp", "max", 6.0)])
    monkeypatch.setattr(parity, "GEOMETRIES", ("mnist",))
    monkeypatch.setattr(parity, "DTYPES", ("float32",))
    monkeypatch.setattr(parity, "ACTIVATIONS", ("relu",))
    names = [name for name, _ in build(ModelConfig(pooling=PoolConfig(kind="max"))).parameters()]
    case = "mlp-max-6/mnist/float32/relu"
    expected = {f"{case}/fresh/logits", f"{case}/fresh/input.grad", f"{case}/values", f"{case}/checkpoint"}
    for stage in ("fresh", "step0", "step1", "step2"):
        expected |= {f"{case}/{stage}/{name}.grad" for name in names}
    expected |= {f"{case}/loaded/{name}" for name in names}
    digests = parity.battery()
    assert set(digests) == expected
    assert all(len(value) == 64 for value in digests.values())
