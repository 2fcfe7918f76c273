"""Command-line interface: train, six-way comparison matrix, diagnostics.

Defaults reproduce the benchmark recipe (10 epochs, AdamW lr 0.001, batch
32).  Dataset root comes from --data-dir or the FUZZY_KAN_DATA environment
variable.  Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import checks
from .data import DataError, load_dataset
from .model import ModelConfig, build
from .pooling import MembershipParams, PoolConfig
from .training import NumericalError, evaluate, train, write_metrics_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

POOLING_ALIASES = {"max": "max", "avg": "average", "average": "average", "fuzzy": "fuzzy"}
MATRIX_ORDER = [("mlp", "avg"), ("mlp", "max"), ("mlp", "fuzzy"), ("kan", "avg"), ("kan", "max"), ("kan", "fuzzy")]


@dataclass
class RunConfig:
    dataset: str = "mnist"
    pooling: str = "fuzzy"
    head: str = "kan"
    epochs: int = 10
    lr: float = 0.001
    batch: int = 32
    seed: int = 42
    data_dir: str = ""
    out_dir: str = "runs"
    precision: str = "f64"
    r_max: float = 6.0
    train_limit: int = 0  # 0 = full training split


class UsageError(Exception):
    """A run setting outside its valid range, from a flag or from --config."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _add_run_flags(p, include_variant=True):
    p.add_argument("--config", help="JSON file of a previous run's resolved configuration")
    p.add_argument("--dataset", choices=["mnist", "fashion-mnist", "cifar10"])
    if include_variant:
        p.add_argument("--pooling", choices=["max", "avg", "average", "fuzzy"])
        p.add_argument("--head", choices=["mlp", "kan"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--data-dir")
    p.add_argument("--out-dir")
    p.add_argument("--precision", choices=["f64", "f32"])
    p.add_argument("--r-max", type=float)
    p.add_argument("--train-limit", type=int, help="cap the training split (0 = all)")


def _resolve_run_config(args, include_variant=True) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        loaded = json.loads(Path(args.config).read_text())
        for key, value in loaded.items():
            if hasattr(cfg, key):
                setattr(cfg, key, value)
    for key in ("dataset", "pooling", "head", "epochs", "lr", "batch", "seed", "precision", "r_max", "train_limit"):
        if include_variant or key not in ("pooling", "head"):
            value = getattr(args, key, None)
            if value is not None:
                setattr(cfg, key, value)
    if args.data_dir is not None:
        cfg.data_dir = args.data_dir
    if args.out_dir is not None:
        cfg.out_dir = args.out_dir
    if not cfg.data_dir:
        cfg.data_dir = os.environ.get("FUZZY_KAN_DATA", "")
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    rules = (
        ("--batch", cfg.batch, cfg.batch >= 1, ">= 1"),
        ("--epochs", cfg.epochs, cfg.epochs >= 0, ">= 0"),
        ("--train-limit", cfg.train_limit, cfg.train_limit >= 0, ">= 0"),
        ("--lr", cfg.lr, math.isfinite(cfg.lr) and cfg.lr > 0, "finite and > 0"),
        ("--r-max", cfg.r_max, math.isfinite(cfg.r_max) and cfg.r_max > 0, "finite and > 0"),
    )
    for flag, value, ok, rule in rules:
        if not ok:
            raise UsageError(f"{flag} must be {rule}, got {value}")


def _model_config(cfg: RunConfig) -> ModelConfig:
    kind = POOLING_ALIASES[cfg.pooling]
    return ModelConfig(
        dataset=cfg.dataset,
        pooling=PoolConfig(kind=kind, membership=MembershipParams(r_max=cfg.r_max)),
        head=cfg.head,
        seed=cfg.seed,
    )


def _load_splits(cfg: RunConfig):
    if not cfg.data_dir:
        raise DataError("no dataset directory: pass --data-dir or set FUZZY_KAN_DATA")
    train_set = load_dataset(cfg.dataset, cfg.data_dir, "train")
    test_set = load_dataset(cfg.dataset, cfg.data_dir, "test")
    if cfg.train_limit:
        train_set = train_set.subset(cfg.train_limit)
    return train_set, test_set


def _apply_precision(cfg: RunConfig):
    from . import tensor

    tensor.set_default_dtype("float32" if cfg.precision == "f32" else "float64")


def _run_single(cfg: RunConfig, out_dir: Path):
    train_set, test_set = _load_splits(cfg)
    model = build(_model_config(cfg))
    history = train(
        model,
        train_set,
        test_set,
        epochs=cfg.epochs,
        lr=cfg.lr,
        batch_size=cfg.batch,
        seed=cfg.seed,
        progress=lambda m: print(
            f"epoch {m.epoch}: loss {m.train_loss:.4f} acc {m.test_accuracy:.4f} ({m.seconds:.1f}s)"
        ),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out_dir / "metrics.csv", history)
    cm, final = evaluate(model, test_set)
    cm.write_csv(out_dir / "confusion_matrix.csv")
    model.save(out_dir / "model.fkan")
    (out_dir / "config.json").write_text(json.dumps(asdict(cfg), indent=2) + "\n")
    return history, final


def cmd_train(args) -> int:
    cfg = _resolve_run_config(args)
    _apply_precision(cfg)
    try:
        history, final = _run_single(cfg, Path(cfg.out_dir))
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(
        f"final: accuracy {final['accuracy']:.4f} precision {final['precision']:.4f} "
        f"recall {final['recall']:.4f} f1 {final['f1']:.4f}"
    )
    return EXIT_OK


def cmd_matrix(args) -> int:
    cfg = _resolve_run_config(args, include_variant=False)
    _apply_precision(cfg)
    out_root = Path(cfg.out_dir)
    rows = []
    for head, pooling in MATRIX_ORDER:
        run = RunConfig(**{**asdict(cfg), "head": head, "pooling": pooling})
        label = f"{head}_{pooling}"
        print(f"== {label} ==")
        try:
            history, final = _run_single(run, out_root / label)
        except DataError as e:
            print(f"data error: {e}", file=sys.stderr)
            return EXIT_DATA
        except NumericalError as e:
            print(f"numerical failure: {e}", file=sys.stderr)
            return EXIT_NUMERICAL
        rows.append(
            [head.upper(), pooling, f"{final['accuracy']:.4f}", f"{final['precision']:.4f}", f"{final['recall']:.4f}", f"{final['f1']:.4f}"]
        )
    out_root.mkdir(parents=True, exist_ok=True)
    with open(out_root / "comparison.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["head", "pooling", "accuracy", "precision", "recall", "f1"])
        writer.writerows(rows)
    for row in rows:
        print(",".join(row))
    return EXIT_OK


def cmd_check(args) -> int:
    kind = args.kind
    if kind == "grad":
        ok, worst = checks.check_gradients()
        print(f"gradient check: max relative error {worst:.3e} (tolerance {checks.GRAD_TOL:.0e})")
    elif kind == "pool-oracle":
        ok, worst = checks.check_pool_oracle()
        print(f"pooling oracle check: max |vectorized - scalar| = {worst:.3e} (must be exact)")
    else:  # spline
        ok, deviation, min_value = checks.check_spline()
        print(f"spline check: partition-of-unity deviation {deviation:.3e}, min basis value {min_value:.3e}")
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = _Parser(prog="fuzzykan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one configuration and write artifacts")
    _add_run_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_matrix = sub.add_parser("matrix", help="run all six head/pooling combinations")
    _add_run_flags(p_matrix, include_variant=False)
    p_matrix.set_defaults(func=cmd_matrix)

    p_check = sub.add_parser("check", help="run a diagnostic property suite")
    p_check.add_argument("kind", choices=["grad", "pool-oracle", "spline"])
    p_check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"{parser.prog}: error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
