"""The report of tools/parity.py on canned battery outputs, and its battery on one small case of each slice."""

import importlib.util
from pathlib import Path

import numpy as np

import fuzzykan.data as data
from fuzzykan.model import ModelConfig, build
from fuzzykan.pooling import PoolConfig

TOOL = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
_spec = importlib.util.spec_from_file_location("parity", TOOL)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)

PARENT = {"kan/fresh/logits": ["aa", "aa"], "kan/fresh/input.grad": ["bb", "bc"], "kan/values": ["cc", "cc"]}


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
    code, lines = run_main(monkeypatch, capsys, PARENT, {**PARENT, "kan/fresh/input.grad": ["bd", "bd"]})
    assert code == 1
    assert lines == ["differs: kan/fresh/input.grad", "3 arrays, 1 differing or missing", "DIFFERENT"]


def test_a_nan_bits_difference_is_its_own_class_and_still_differs(monkeypatch, capsys):
    change = {**PARENT, "kan/fresh/logits": ["ab", "aa"], "kan/values": ["cd", "ce"]}
    code, lines = run_main(monkeypatch, capsys, PARENT, change)
    assert code == 1
    assert lines == [
        "differs: kan/values",
        "equal up to NaN sign and payload: kan/fresh/logits",
        "3 arrays, 2 differing or missing, 1 of them equal up to NaN sign and payload",
        "DIFFERENT",
    ]


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


def test_canonical_digest_ignores_only_nan_bits():
    for dtype in (np.float64, np.float32):
        a = np.array([np.nan, 1.0, -np.nan], dtype)
        payload = a.copy()
        payload.view(f"u{a.itemsize}")[0] |= 1  # another quiet NaN payload
        exact, canonical = parity.digest(a)
        assert canonical != exact  # -nan is not the canonical NaN
        for other in (np.abs(a), payload):
            assert parity.digest(other)[0] != exact and parity.digest(other)[1] == canonical
        assert parity.digest(a[[1, 0, 2]])[1] != canonical  # another NaN position
        assert parity.digest(np.where(np.isnan(a), dtype(2.0), a))[1] != canonical
    ints = np.arange(3, dtype=np.uint8)
    assert parity.digest(ints)[0] == parity.digest(ints)[1]


def test_battery_runs_on_this_library(monkeypatch):
    # one small case of each slice through the real battery, so a library change that breaks it fails here
    monkeypatch.setattr(parity, "VARIANTS", [("mlp", "max", 6.0)])
    monkeypatch.setattr(parity, "GEOMETRIES", ("mnist",))
    monkeypatch.setattr(parity, "DTYPES", ("float32",))
    monkeypatch.setattr(parity, "ACTIVATIONS", ("relu",))
    monkeypatch.setattr(parity, "POOLS", [("fuzzy", 0.5)])
    monkeypatch.setattr(parity, "POOL_GEOMETRIES", ((3, 1),))
    monkeypatch.setattr(parity, "POOL_SHAPES", ((5, 2, 6, 6),))
    monkeypatch.setattr(parity, "ORACLE_SHAPE", (4, 1, 6, 6))
    monkeypatch.setattr(parity, "CONV_SHAPES", (((3, 2, 6, 6), 4, 3),))
    monkeypatch.setattr(parity, "IDX_CASES", (("mnist-28-gz", 28, True),))
    monkeypatch.setattr(parity, "IDX_IMAGES", 3)
    monkeypatch.setattr(parity, "CIFAR_RECORDS", {"test": 4, "train": 2})
    monkeypatch.setattr(parity, "RUNS", {"max-mlp-1": ["train", "--pooling", "max", "--head", "mlp", "--epochs", "1"]})
    monkeypatch.setattr(parity, "RUN_PRECISIONS", ("f32",))
    monkeypatch.setattr(parity, "RUN_IMAGES", {"train": 4, "test": 2})
    names = [name for name, _ in build(ModelConfig(pooling=PoolConfig(kind="max"))).parameters()]
    case = "mlp-max-6/mnist/float32/relu"
    expected = {f"{case}/fresh/logits", f"{case}/fresh/input.grad", f"{case}/values", f"{case}/checkpoint"}
    for stage in ("fresh", "step0", "step1", "step2"):
        expected |= {f"{case}/{stage}/{name}.grad" for name in names}
    expected |= {f"{case}/loaded/{name}" for name in names}
    expected |= {"pool/fuzzy-0.5/5x2x6x6/k3s1/float32/out", "pool/fuzzy-0.5/5x2x6x6/k3s1/float32/input.grad"}
    expected |= {f"conv/3x2x6x6/4@3x3/s1/float32/{name}" for name in ("out", "input.grad", "kernels.grad", "bias.grad")}
    expected |= {"oracle/fuzzy-0.5/4x1x6x6/k3s1/float64"}
    for case in ("mnist-28-gz/train", "cifar10/test", "cifar10/train"):
        expected |= {f"data/{case}/images", f"data/{case}/labels"}
    run_outputs = ("metrics.csv", "confusion_matrix.csv", "model.fkan", "config.json", "stdout")
    expected |= {f"run/max-mlp-1/f32/{name}" for name in run_outputs}
    digests = parity.battery()
    assert set(digests) == expected
    assert all(len(value) == 2 and all(len(d) == 64 for d in value) for value in digests.values())
    assert data.CIFAR_RECORDS_PER_FILE == 10000  # restored after the data slice


def test_run_slice_masks_the_seconds_alone():
    metrics = "epoch,train_loss,seconds\r\n0,0.5,1.25\r\n1,0.25,0.75\r\n"
    assert parity.masked_seconds(metrics) == "epoch,train_loss,seconds\r\n0,0.5,-\r\n1,0.25,-\r\n"
    assert parity.masked_seconds(metrics.replace("0.25", "0.3")) != parity.masked_seconds(metrics)
    line = "epoch 0: loss 2.3026 acc 0.1000 (12.3s)"
    assert parity.STDOUT_SECONDS.sub("(-s)", line) == "epoch 0: loss 2.3026 acc 0.1000 (-s)"


def test_data_slice_reads_every_byte(monkeypatch):
    # the digests are those of the written bytes, padded and scaled as load_dataset documents
    monkeypatch.setattr(parity, "IDX_CASES", (("mnist-28", 28, False), ("mnist-32-gz", 32, True)))
    monkeypatch.setattr(parity, "IDX_IMAGES", 3)
    monkeypatch.setattr(parity, "CIFAR_RECORDS", {"test": 4, "train": 2})
    rng = np.random.default_rng(0)
    expected = {}
    for case, side, _ in parity.IDX_CASES:
        images = rng.integers(0, 256, (3, side, side), dtype=np.uint8)
        labels = rng.integers(0, 10, 3, dtype=np.uint8)
        pad = (32 - side) // 2
        expected[f"data/{case}/train/images"] = np.pad(images[:, None] / 255.0, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        expected[f"data/{case}/train/labels"] = labels.astype(np.int64)
    for split, files in (("test", 1), ("train", 5)):
        n, labels, images = parity.CIFAR_RECORDS[split], [], []
        for _ in range(files):
            labels.append(rng.integers(0, 10, (n, 1), dtype=np.uint8))
            images.append(rng.integers(0, 256, (n, 3072), dtype=np.uint8))
        expected[f"data/cifar10/{split}/images"] = np.concatenate(images).reshape(-1, 3, 32, 32) / 255.0
        expected[f"data/cifar10/{split}/labels"] = np.concatenate(labels).reshape(-1).astype(np.int64)
    assert parity.data_battery() == {key: parity.digest(array) for key, array in expected.items()}


def test_oracle_slice_walks_the_pool_slices_windows(monkeypatch):
    # pool matches its oracle bit for bit, so on the pool slice's input the oracle's array is the pool's output
    monkeypatch.setattr(parity, "POOLS", [("max", 6.0), ("average", 6.0), ("fuzzy", 0.5)])
    monkeypatch.setattr(parity, "POOL_GEOMETRIES", ((2, 2), (3, 1)))
    monkeypatch.setattr(parity, "POOL_SHAPES", ((4, 2, 6, 6),))
    monkeypatch.setattr(parity, "ORACLE_SHAPE", (4, 2, 6, 6))
    monkeypatch.setattr(parity, "DTYPES", ("float64",))
    pools, oracles = parity.pool_battery(), parity.oracle_battery()
    assert len(oracles) == 6
    for key, (_, canonical) in oracles.items():  # NaN bits aside: a max or a sum may keep another NaN
        assert pools[f"pool{key.removeprefix('oracle')}/out"][1] == canonical, key
