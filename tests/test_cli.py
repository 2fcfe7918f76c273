import csv
import gzip
import json
import os
import struct
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import fuzzykan.checks as checks
import fuzzykan.tensor as T
from fuzzykan.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, RunConfig, main
from fuzzykan.data import IDX_IMAGES_MAGIC, load_dataset
from fuzzykan.kan import SplineGrid
from fuzzykan.model import Model, ModelConfig, build, config_update
from fuzzykan.pooling import MembershipParams, PoolConfig
from fuzzykan.training import evaluate

from conftest import make_synthetic_images, write_idx_split

ROOT = Path(__file__).resolve().parent.parent


def run_cli(argv):
    return main(argv)


def train_args(data_dir, out_dir, **overrides):
    flags = {
        "dataset": "mnist",
        "pooling": "fuzzy",
        "head": "kan",
        "epochs": 1,
        "batch": 16,
        "train-limit": 32,
        "data-dir": str(data_dir),
        "out-dir": str(out_dir),
    }
    flags.update(overrides)
    argv = ["train"]
    for key, value in flags.items():
        argv += [f"--{key}", str(value)]
    return argv


class TestTrainCommand:
    def test_writes_artifacts(self, synthetic_idx_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(train_args(synthetic_idx_dir, out)) == EXIT_OK
        for name in ("metrics.csv", "confusion_matrix.csv", "model.fkan", "config.json"):
            assert (out / name).exists(), name
        captured = capsys.readouterr()
        assert "final: accuracy" in captured.out
        with open(out / "metrics.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0][0] == "epoch" and len(rows) == 2

    def test_non_finite_loss_exit_3(self, synthetic_idx_dir, tmp_path, capsys):
        with np.errstate(all="ignore"):  # the first step sends every weight towards 1e300
            code = run_cli(train_args(synthetic_idx_dir, tmp_path / "run", lr=1e300))
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.startswith("numerical failure: loss became non-finite at epoch 0, batch 1;")

    def test_zero_epochs_valid(self, synthetic_idx_dir, tmp_path):
        out = tmp_path / "run"
        assert run_cli(train_args(synthetic_idx_dir, out, epochs=0)) == EXIT_OK
        with open(out / "metrics.csv") as f:
            assert len(list(csv.reader(f))) == 1  # header only

    def test_missing_data_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("FUZZY_KAN_DATA", raising=False)
        empty = tmp_path / "nodata"
        empty.mkdir()
        assert run_cli(train_args(empty, tmp_path / "run")) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_no_data_dir_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("FUZZY_KAN_DATA", raising=False)
        argv = ["train", "--dataset", "mnist", "--epochs", "0", "--out-dir", str(tmp_path)]
        assert run_cli(argv) == EXIT_DATA
        assert "FUZZY_KAN_DATA" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "matrix"])
    def test_bad_test_label_exit_2(self, tmp_path, capsys, command):
        images, labels = make_synthetic_images(8, seed=2)
        bad = labels.copy()
        bad[-1] = 12
        for split, split_labels in (("train", labels), ("test", bad)):
            write_idx_split(tmp_path, images, split_labels, split)
        argv = [command, "--dataset", "mnist", "--epochs", "0", "--data-dir", str(tmp_path),
                "--out-dir", str(tmp_path / "run")]
        assert run_cli(argv) == EXIT_DATA
        assert "t10k-labels-idx1-ubyte: label byte 12 out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "matrix"])
    def test_empty_test_split_exit_2_before_training(self, tmp_path, capsys, command):
        for split, n in (("train", 8), ("test", 0)):
            test_images, _ = write_idx_split(tmp_path, *make_synthetic_images(n, seed=2), split)
        out = tmp_path / "run"
        argv = [command, "--dataset", "mnist", "--epochs", "1", "--data-dir", str(tmp_path), "--out-dir", str(out)]
        assert run_cli(argv) == EXIT_DATA
        err = capsys.readouterr().err.strip()
        assert err == f"data error: {test_images}: holds no images"
        assert not list(out.rglob("metrics.csv"))

    @pytest.mark.parametrize("defect", ["truncated-gz", "garbage-gz", "20x20"])
    def test_bad_images_file_exit_2(self, tmp_path, capsys, defect):
        images, labels = make_synthetic_images(8, seed=2)
        bad, _ = write_idx_split(tmp_path, images[:, :20, :20] if defect == "20x20" else images, labels)
        if defect != "20x20":
            packed = gzip.compress(bad.read_bytes())
            bad.unlink()
            bad = bad.with_name(f"{bad.name}.gz")
            bad.write_bytes(packed[: len(packed) // 2] if defect == "truncated-gz" else packed[:10] + b"garbage" * 40)
        argv = train_args(tmp_path, tmp_path / "run", epochs=0)
        assert run_cli(argv) == EXIT_DATA
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith(f"data error: {bad}: ")

    def test_env_var_fallback(self, synthetic_idx_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("FUZZY_KAN_DATA", str(synthetic_idx_dir))
        argv = ["train", "--dataset", "mnist", "--epochs", "0", "--out-dir", str(tmp_path / "run")]
        assert run_cli(argv) == EXIT_OK

    def test_config_round_trip_reproduces(self, synthetic_idx_dir, tmp_path):
        first = tmp_path / "first"
        assert run_cli(train_args(synthetic_idx_dir, first, **{"pooling": "max", "head": "mlp"})) == EXIT_OK
        saved = json.loads((first / "config.json").read_text())
        assert saved["model"]["pooling"]["kind"] == "max" and saved["model"]["head"] == "mlp"

        second = tmp_path / "second"
        argv = ["train", "--config", str(first / "config.json"), "--out-dir", str(second)]
        assert run_cli(argv) == EXIT_OK
        assert (first / "metrics.csv").read_text().splitlines()[1].rsplit(",", 1)[0] == (
            second / "metrics.csv"
        ).read_text().splitlines()[1].rsplit(",", 1)[0]  # identical apart from seconds

    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--pooling", "median"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("batch", 0),
            ("epochs", -1),
            ("train-limit", -1),
            ("lr", "nan"),
            ("lr", "inf"),
            ("lr", 0),
            ("r-max", 0),
            ("r-max", "inf"),
        ],
    )
    def test_bad_run_value_exit_1(self, synthetic_idx_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        assert run_cli(train_args(synthetic_idx_dir, out, **{flag: value})) == EXIT_USAGE
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and f"--{flag}" in err
        assert not out.exists()

    def test_r_max_with_collapsed_breakpoints_exit_1(self, synthetic_idx_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(train_args(synthetic_idx_dir, out, **{"r-max": "5e-324"})) == EXIT_USAGE
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith("fuzzykan: error: --r-max: r_max 5e-324 ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"batch": 0}, "batch"),
            ({"bacth": 64}, "bacth"),
            ({"batch": "32"}, "batch"),
            ({"precision": "f16"}, "precision"),
            ({"model": {"dataset": "imagenet"}}, "dataset"),
            ({"model": {"pooling": {"membership": {"r_max": "6"}}}}, "model.pooling.membership.r_max"),
            ({"model": {"pooling": {"membership": {"r_max": 1e999}}}}, "r_max"),
            ({"model": {"head_widths": [-3]}}, "head_widths"),
            ({"model": {"head_widths": [0]}}, "head_widths"),
            ({"model": {"kan_grid": {"lo": -1e999}}}, "lo"),
            ([64], "config"),
            # the flat layout of earlier versions' config.json
            ({"dataset": "mnist", "pooling": "max", "head": "mlp"}, "unknown config key 'dataset'"),
        ],
        ids=["batch-0", "bacth", "batch-str", "precision-f16", "dataset-imagenet", "r_max-str", "r_max-inf", "head_widths-neg", "head_widths-0", "kan_grid-lo-inf", "not-object", "flat-layout"],
    )
    def test_bad_value_from_config_exit_1(self, synthetic_idx_dir, tmp_path, capsys, payload, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "run"
        argv = ["train", "--config", str(config), "--data-dir", str(synthetic_idx_dir), "--out-dir", str(out)]
        assert run_cli(argv) == EXIT_USAGE
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith("fuzzykan: error:") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "matrix"])
    @pytest.mark.parametrize(
        "payload, flags, named",
        [
            ({}, ["--seed", "-1"], "--seed: seed must be >= 0, got -1"),
            ({"model": {"pooling": {"stride": 3}}}, [], "model.pooling: window 2x2 with stride 3 does not tile input 28x28 exactly"),
            # a width whose first head layer needs petabytes: the allocation fails outright
            ({"model": {"head_widths": [10**12]}}, [], "model.head_widths: [1000000000000] cannot be allocated: "),
            # the KAN coefficients are out x in x num_basis, so a huge grid is named too
            (
                {"model": {"head": "kan", "kan_grid": {"intervals": 10**12}}},
                [],
                "model.head_widths: [84] cannot be allocated: kan_grid gives 1000000000003 basis functions per edge: ",
            ),
        ],
        ids=["seed-negative", "pooling-stride-3", "head-widths-petabytes", "kan-grid-petabytes"],
    )
    def test_run_checked_before_data_is_read(self, tmp_path, capsys, monkeypatch, command, payload, flags, named):
        monkeypatch.delenv("FUZZY_KAN_DATA", raising=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        empty = tmp_path / "nodata"
        empty.mkdir()
        out = tmp_path / "run"
        argv = [command, "--config", str(config), *flags, "--epochs", "0", "--data-dir", str(empty), "--out-dir", str(out)]
        assert run_cli(argv) == EXIT_USAGE
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith(f"fuzzykan: error: {named}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "matrix"])
    def test_out_dir_checked_before_data_is_read(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.delenv("FUZZY_KAN_DATA", raising=False)
        empty = tmp_path / "nodata"
        empty.mkdir()
        taken = tmp_path / "file"
        taken.write_text("not a directory")
        argv = [command, "--epochs", "0", "--data-dir", str(empty), "--out-dir", str(taken)]
        assert run_cli(argv) == EXIT_USAGE  # the empty data directory would exit 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith("fuzzykan: error: --out-dir: ")
        assert taken.read_text() == "not a directory"

    def test_header_size_beyond_64_bits_exit_2(self, tmp_path, capsys):
        img, _ = write_idx_split(tmp_path, np.zeros((1, 28, 28), dtype=np.uint8), np.zeros(1, dtype=np.uint8))
        img.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 2**22, 2**21, 2**21))
        assert run_cli(train_args(tmp_path, tmp_path / "run", epochs=0)) == EXIT_DATA
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith(f"data error: {img}: expected {2**64} data bytes")

    def test_f32_run_is_deterministic_and_scoped(self, synthetic_idx_dir, tmp_path, monkeypatch):
        rows = {}
        for name, precision in (("a", "f32"), ("b", "f32"), ("c", "f64")):
            out = tmp_path / name
            assert run_cli(train_args(synthetic_idx_dir, out, precision=precision)) == EXIT_OK
            assert T.default_dtype() is np.float64
            assert json.loads((out / "config.json").read_text())["precision"] == precision
            rows[name] = [line.rsplit(",", 1)[0] for line in (out / "metrics.csv").read_text().splitlines()]
        assert rows["a"] == rows["b"] and rows["a"] != rows["c"]  # identical apart from seconds; f32 is really used

        monkeypatch.delenv("FUZZY_KAN_DATA", raising=False)
        empty = tmp_path / "nodata"
        empty.mkdir()
        assert run_cli(train_args(empty, tmp_path / "d", precision="f32")) == EXIT_DATA
        assert T.default_dtype() is np.float64

    @pytest.mark.parametrize("precision, dtype", [("f64", np.float64), ("f32", np.float32)])
    def test_checkpoint_alone_reproduces_the_confusion_matrix(self, synthetic_idx_dir, tmp_path, precision, dtype):
        out = tmp_path / "run"
        assert run_cli(train_args(synthetic_idx_dir, out, precision=precision)) == EXIT_OK
        model = Model.load(out / "model.fkan")
        assert model.config == config_update(ModelConfig(), json.loads((out / "config.json").read_text())["model"])
        assert all(t.data.dtype == dtype for _, t in model.parameters())
        test_set = load_dataset("mnist", synthetic_idx_dir, "test")
        for name, candidate in (("reloaded", model), ("untrained", build(model.config, dtype=dtype))):
            evaluate(candidate, test_set)[0].write_csv(tmp_path / f"{name}.csv")
        assert (tmp_path / "reloaded.csv").read_bytes() == (out / "confusion_matrix.csv").read_bytes()
        assert (tmp_path / "untrained.csv").read_bytes() != (out / "confusion_matrix.csv").read_bytes()  # training shows

    def test_bad_matrix_value_exit_1(self, synthetic_idx_dir, tmp_path):
        argv = ["matrix", "--batch", "0", "--data-dir", str(synthetic_idx_dir), "--out-dir", str(tmp_path / "m")]
        assert run_cli(argv) == EXIT_USAGE

    def test_unknown_command_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["serve"])
        assert exc.value.code == EXIT_USAGE


class TestRunConfig:
    def test_round_trip_non_default_tree(self):
        cfg = RunConfig(
            model=ModelConfig(
                dataset="cifar10",
                pooling=PoolConfig(kind="average", k=3, stride=1, membership=MembershipParams(r_max=2.5)),
                head="mlp",
                conv_activation="tanh",
                kan_grid=SplineGrid(order=2, intervals=7, lo=-2.0, hi=3.0),
                head_widths=(64, 32),
                seed=7,
            ),
            epochs=3,
            lr=0.01,
            batch=8,
            precision="f32",
            train_limit=100,
            data_dir="data",
            out_dir="out",
        )
        assert cfg != RunConfig()
        assert config_update(RunConfig(), asdict(cfg)) == cfg
        assert config_update(RunConfig(), json.loads(json.dumps(asdict(cfg)))) == cfg


class TestMatrixCommand:
    def test_six_rows_in_order(self, synthetic_idx_dir, tmp_path):
        out = tmp_path / "matrix"
        argv = [
            "matrix",
            "--dataset", "mnist",
            "--epochs", "0",
            "--train-limit", "16",
            "--data-dir", str(synthetic_idx_dir),
            "--out-dir", str(out),
        ]
        assert run_cli(argv) == EXIT_OK
        with open(out / "comparison.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["head", "pooling", "accuracy", "precision", "recall", "f1"]
        assert [(r[0], r[1]) for r in rows[1:]] == [
            ("MLP", "avg"),
            ("MLP", "max"),
            ("MLP", "fuzzy"),
            ("KAN", "avg"),
            ("KAN", "max"),
            ("KAN", "fuzzy"),
        ]
        for head, pooling in (("mlp", "avg"), ("kan", "fuzzy")):
            assert (out / f"{head}_{pooling}" / "metrics.csv").exists()

    def test_data_is_read_once(self, synthetic_idx_dir, tmp_path, monkeypatch):
        loads = []

        def counting_load(*args):
            loads.append(args)
            return load_dataset(*args)

        monkeypatch.setattr("fuzzykan.cli.load_dataset", counting_load)
        argv = ["matrix", "--epochs", "0", "--data-dir", str(synthetic_idx_dir), "--out-dir", str(tmp_path / "m")]
        assert run_cli(argv) == EXIT_OK
        assert [split for _, _, split in loads] == ["train", "test"]


class TestCheckCommand:
    @pytest.mark.parametrize("kind", ["pool-oracle", "spline", "grad"])
    def test_pass(self, kind, capsys):
        assert run_cli(["check", kind]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_module_entry_point(self):
        # `make check` runs the suites as `python -m fuzzykan.cli`
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzykan.cli", "check", "spline"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=300, check=False,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == "PASS"

    def test_bad_kind(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["check", "entropy"])
        assert exc.value.code == EXIT_USAGE

    def test_nan_pool_output_fails(self, capsys, monkeypatch):
        real_pool = checks.pool

        def pool_with_one_nan_window(x, config):
            out = real_pool(x, config).data.copy()
            if config.kind == "fuzzy":
                out.reshape(-1)[7] = np.nan
            return T.Tensor(out)

        monkeypatch.setattr(checks, "pool", pool_with_one_nan_window)
        assert run_cli(["check", "pool-oracle"]) == EXIT_NUMERICAL
        out = capsys.readouterr().out
        assert "= nan" in out and out.splitlines()[-1] == "FAIL"

    def test_nan_spline_derivative_fails(self, capsys, monkeypatch):
        real_basis = checks.bspline_basis

        def basis_with_one_nan_derivative(x, grid, with_derivative=False):
            if not with_derivative:
                return real_basis(x, grid)
            basis, deriv = real_basis(x, grid, with_derivative=True)
            deriv[5, 2] = np.nan
            return basis, deriv

        monkeypatch.setattr(checks, "bspline_basis", basis_with_one_nan_derivative)
        assert run_cli(["check", "spline"]) == EXIT_NUMERICAL
        out = capsys.readouterr().out
        assert "scalar oracle| nan" in out and out.splitlines()[-1] == "FAIL"
