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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import checks
from .data import DataError, load_dataset
from .model import DATASET_CHANNELS, HEADS, ModelConfig, build, config_update
from .pooling import PoolConfig
from .training import NumericalError, evaluate, train, write_metrics_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

POOLING_ALIASES = {"max": "max", "avg": "average", "average": "average", "fuzzy": "fuzzy"}
MATRIX_ORDER = [("mlp", "avg"), ("mlp", "max"), ("mlp", "fuzzy"), ("kan", "avg"), ("kan", "max"), ("kan", "fuzzy")]
PRECISIONS = {"f64": "float64", "f32": "float32"}
FINAL_METRICS = ("accuracy", "precision", "recall", "f1")  # of evaluate(), as printed and in comparison.csv
# each run flag: where it lands in the RunConfig tree, and its argparse options
RUN_FLAGS = {
    "dataset": ("model.dataset", {"choices": list(DATASET_CHANNELS)}),
    "pooling": ("model.pooling.kind", {"choices": list(POOLING_ALIASES)}),
    "head": ("model.head", {"choices": list(HEADS)}),
    "epochs": ("epochs", {"type": int}),
    "lr": ("lr", {"type": float}),
    "batch": ("batch", {"type": int}),
    "seed": ("model.seed", {"type": int}),
    "data_dir": ("data_dir", {}),
    "out_dir": ("out_dir", {}),
    "precision": ("precision", {"choices": list(PRECISIONS)}),
    "r_max": ("model.pooling.membership.r_max", {"type": float}),
    "train_limit": ("train_limit", {"type": int, "help": "cap the training split (0 = all)"}),
}


@dataclass(frozen=True)
class RunConfig:
    """One run: the model tree plus the training and I/O settings around it."""

    model: ModelConfig = field(default_factory=lambda: ModelConfig(pooling=PoolConfig(kind="fuzzy"), head="kan"))
    epochs: int = 10
    lr: float = 0.001
    batch: int = 32
    precision: str = "f64"
    train_limit: int = 0  # 0 = full training split
    data_dir: str = ""
    out_dir: str = "runs"

    def __post_init__(self):
        rules = (
            ("batch", self.batch >= 1, ">= 1"),
            ("epochs", self.epochs >= 0, ">= 0"),
            ("train_limit", self.train_limit >= 0, ">= 0"),
            ("lr", math.isfinite(self.lr) and self.lr > 0, "finite and > 0"),
            ("precision", self.precision in PRECISIONS, f"one of {tuple(PRECISIONS)}"),
        )
        for name, ok, rule in rules:
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


class UsageError(Exception):
    """A run setting outside its valid range, from a flag or from --config."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _add_run_flags(p, flags):
    p.add_argument("--config", help="JSON file of a RunConfig tree or part of one, such as a run's config.json")
    for dest, (_, options) in flags.items():
        p.add_argument(f"--{dest.replace('_', '-')}", **options)


def _nested(path: str, value) -> dict:
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


def _resolve_run_config(args) -> RunConfig:
    """Defaults, then --config, then each flag, all through config_update."""
    cfg = RunConfig()
    if args.config:
        try:
            cfg = config_update(cfg, json.loads(Path(args.config).read_text()))
        except (OSError, ValueError) as e:
            raise UsageError(f"{args.config}: {e}") from None
    for dest, (path, _) in RUN_FLAGS.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        try:
            cfg = config_update(cfg, _nested(path, POOLING_ALIASES[value] if dest == "pooling" else value))
        except ValueError as e:
            raise UsageError(f"--{dest.replace('_', '-')}: {e}") from None
    if not cfg.data_dir:
        cfg = replace(cfg, data_dir=os.environ.get("FUZZY_KAN_DATA", ""))
    return cfg


def _run(cfg: RunConfig, runs: dict[str, RunConfig]) -> list[dict]:
    """Build every run's model and output directory, read ``cfg``'s two splits once, then train, evaluate and write each run.

    Run ``label`` writes its artifacts to ``cfg.out_dir``/``label``; a
    non-empty label is printed as a header before the run trains.  Returns
    each run's final test metrics, in order.
    """
    models = []
    for run in runs.values():
        try:
            models.append(build(run.model, dtype=PRECISIONS[run.precision]))
        except ValueError as e:
            raise UsageError(f"model.{e}") from None  # build names the field at fault
    if not cfg.data_dir:
        raise DataError("no dataset directory: pass --data-dir or set FUZZY_KAN_DATA")
    out_dirs = [Path(cfg.out_dir) / label for label in runs]
    try:
        for out_dir in out_dirs:
            out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise UsageError(f"--out-dir: {e}") from None
    train_set = load_dataset(cfg.model.dataset, cfg.data_dir, "train")
    test_set = load_dataset(cfg.model.dataset, cfg.data_dir, "test")
    if cfg.train_limit:
        train_set = train_set.subset(cfg.train_limit)
    finals = []
    for (label, run), model, out_dir in zip(runs.items(), models, out_dirs):
        if label:
            print(f"== {label} ==")
        history = train(
            model,
            train_set,
            test_set,
            epochs=run.epochs,
            lr=run.lr,
            batch_size=run.batch,
            seed=run.model.seed,
            progress=lambda m: print(
                f"epoch {m.epoch}: loss {m.train_loss:.4f} acc {m.test_accuracy:.4f} ({m.seconds:.1f}s)"
            ),
        )
        write_metrics_csv(out_dir / "metrics.csv", history)
        cm, final = evaluate(model, test_set)
        cm.write_csv(out_dir / "confusion_matrix.csv")
        model.save(out_dir / "model.fkan")
        (out_dir / "config.json").write_text(json.dumps(asdict(run), indent=2) + "\n")
        finals.append(final)
    return finals


def cmd_train(args) -> int:
    cfg = _resolve_run_config(args)
    [final] = _run(cfg, {"": cfg})
    print("final: " + " ".join(f"{key} {final[key]:.4f}" for key in FINAL_METRICS))
    return EXIT_OK


def cmd_matrix(args) -> int:
    cfg = _resolve_run_config(args)
    runs = {
        f"{head}_{pooling}": config_update(cfg, {"model": {"head": head, "pooling": {"kind": POOLING_ALIASES[pooling]}}})
        for head, pooling in MATRIX_ORDER
    }
    rows = [
        [head.upper(), pooling, *(f"{final[key]:.4f}" for key in FINAL_METRICS)]
        for (head, pooling), final in zip(MATRIX_ORDER, _run(cfg, runs))
    ]
    with open(Path(cfg.out_dir) / "comparison.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["head", "pooling", *FINAL_METRICS])
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
        ok, deviation, min_value, oracle_error = checks.check_spline()
        print(f"spline check: partition-of-unity deviation {deviation:.3e}, min basis value {min_value:.3e}, "
              f"max |basis - scalar oracle| {oracle_error:.3e} (tolerance {checks.SPLINE_ORACLE_TOL:.0e})")
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = _Parser(prog="fuzzykan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one configuration and write artifacts")
    _add_run_flags(p_train, RUN_FLAGS)
    p_train.set_defaults(func=cmd_train)

    p_matrix = sub.add_parser("matrix", help="run all six head/pooling combinations")
    _add_run_flags(p_matrix, {dest: flag for dest, flag in RUN_FLAGS.items() if dest not in ("pooling", "head")})
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
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
