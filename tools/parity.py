"""Compare two checkouts bit for bit on one battery of model, pool, conv2d, oracle, data and CLI run outputs.

    python3 tools/parity.py ../parent .

Each checkout runs the battery in its own subprocess, with that checkout's
``src/`` alone on ``PYTHONPATH``, so each side runs its own library; the
battery code is this file's.  The battery builds every model variant (the
six head/pooling pairs, plus fuzzy pooling at r_max 0.5 under each head) at
MNIST and CIFAR geometry, in float64 and float32, with relu and tanh conv
activations.  For each model it records the logits, the input gradient and
every parameter gradient of one seeded batch on the fresh model, then every
parameter gradient of 3 AdamW steps and ``AdamW.values`` after them, then
the bytes of the ``Model.save`` file of the stepped model and every
parameter of ``Model.load`` of that file.  Its pool slice runs the public
``pool`` alone, forward and backward, for max, average and fuzzy pooling
(r_max 6 and 0.5) at k=stride=2, (3, 1) and (2, 1), in float64 and float32,
on the train pool1 and pool2 shapes and the eval pool1 shape at batch 256
and 37.  Its inputs are edge values: entries at and one ulp around every
membership breakpoint and 5*r_max/14 (c exactly among them), +-0, +-inf and
NaN, whole images below c, and a last quarter of the batch wholly below c,
so some image blocks average every window.  It records each output and
input gradient.  Its conv slice runs the public ``conv2d`` with a bias,
forward and backward under a seeded upstream gradient, on the train conv1
[37,1,32,32] 6@5x5, train conv2 [37,6,14,14] 16@5x5 and eval conv1
[37,3,32,32] 6@5x5 shapes, at stride 1 (the only stride ``conv2d`` has), in
float64 and float32.  Batch 37 ends in a partial image block, except at eval
conv1, whose blocks are one image each.  It records the output and the
input, kernel and bias gradients; each key keeps the "s1" of its stride.  Its oracle
slice runs the scalar ``oracles.pool_window_oracle`` on every window of one
[4,2,24,24] float64 edge-value input per pooling of the pool slice and
(k, stride) of its geometries, at least 1,152 windows a case, and records
each case's values as one array, so moving or rewriting an oracle shows
whether it keeps its bits.  Its data slice writes seeded dataset files
with this file's own writers: IDX train pairs of 28x28 images, plain and
gzipped, and of 32x32 images; a CIFAR-10 test batch of the real 10,000
records; and the five CIFAR-10 train batches at 300 records each, with
``data.CIFAR_RECORDS_PER_FILE`` patched to match.  It reads each through
``data.load_dataset`` alone and records the images and labels.  Its run
slice writes a seeded MNIST IDX train/test pair of 64 and 32 images with the
same writers and, inside the battery process, runs ``fuzzykan.cli.main`` on
``train`` fuzzy+KAN for 2 epochs, ``train`` max+MLP for 0 epochs and
``matrix`` for 1 epoch, at batch 16, each in f64 and f32, with relative
paths so ``config.json`` is the same on both sides.  It records the bytes of
every file a run writes and of its captured stdout, with ``metrics.csv``'s
``seconds`` column and each "(N.Ns)" of stdout masked; each is one uint8
array.  The battery has 3,456 model, 192 pool, 24 conv, 12 oracle and 10
data arrays and 72 run outputs, 3,766 in all.  Each array is kept as two
SHA-256 digests of its dtype, shape and C-ordered bytes: one of the array as
it is, and one after every NaN is made the dtype's canonical quiet NaN.

The report lists each key whose exact digest differs and each key that one
side lacks, then a count of both and of the NaN class below.  A key whose
exact digests differ while its canonical ones match is listed as "equal up
to NaN sign and payload": every bit but those of its NaNs, and every NaN
position, is the same.  That class
has one known cause: where two NaNs meet in a contiguous numpy sum, which
one survives depends on the element's position (the FOUND line on NaN order
in CHANGES.md), so a layout or block-size change can move NaN bits and no
others.  It still counts as differing: the exit status is 0 when every
array is identical and 1 otherwise.  BLAS runs one thread on both sides.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gzip
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HEADS = ("mlp", "kan")
VARIANTS = [(head, kind, 6.0) for head in HEADS for kind in ("average", "max", "fuzzy")]
VARIANTS += [(head, "fuzzy", 0.5) for head in HEADS]  # fuzzifies windows above c = 1/12
GEOMETRIES = ("mnist", "cifar10")
DTYPES = ("float64", "float32")
ACTIVATIONS = ("relu", "tanh")
BATCH, STEPS = 8, 3
POOLS = [("max", 6.0), ("average", 6.0), ("fuzzy", 6.0), ("fuzzy", 0.5)]
POOL_GEOMETRIES = ((2, 2), (3, 1), (2, 1))
# train pool1, train pool2, eval pool1 at batch 256 and at batch 37
POOL_SHAPES = ((32, 6, 28, 28), (32, 16, 10, 10), (256, 6, 28, 28), (37, 6, 28, 28))
ORACLE_SHAPE = (4, 2, 24, 24)  # 1,152 windows at k=stride=2, more at stride 1
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)
# train conv1, train conv2 and eval conv1 at batch 37: input [N, C, H, W] and F kernels of k x k
CONV_SHAPES = (((37, 1, 32, 32), 6, 5), ((37, 6, 14, 14), 16, 5), ((37, 3, 32, 32), 6, 5))
# IDX cases: (name, image side, gzipped), IDX_IMAGES images each; CIFAR-10 records per batch file, per split
IDX_CASES = (("mnist-28", 28, False), ("mnist-28-gz", 28, True), ("mnist-32", 32, False))
IDX_IMAGES = 50
CIFAR_RECORDS = {"test": 10000, "train": 300}
# run slice: each case's CLI arguments, run at each precision and RUN_BATCH on an IDX pair of RUN_IMAGES 28x28 images
RUNS = {
    "train-fuzzy-kan-2": ["train", "--pooling", "fuzzy", "--head", "kan", "--epochs", "2"],
    "train-max-mlp-0": ["train", "--pooling", "max", "--head", "mlp", "--epochs", "0"],
    "matrix-1": ["matrix", "--epochs", "1"],
}
RUN_PRECISIONS = ("f64", "f32")
RUN_IMAGES = {"train": 64, "test": 32}
RUN_BATCH = 16
STDOUT_SECONDS = re.compile(r"\(\d+\.\ds\)")  # an epoch line's wall-clock "(N.Ns)"
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def digest(array) -> list[str]:
    """SHA-256 of an array's dtype, shape and C-ordered bytes, exact and with every NaN made the canonical NaN."""
    a = np.ascontiguousarray(array)
    canonical = np.where(np.isnan(a), a.dtype.type(np.nan), a) if a.dtype.kind == "f" else a
    return [hashlib.sha256(f"{b.dtype.str}{b.shape}".encode() + b.tobytes()).hexdigest() for b in (a, canonical)]


def battery() -> dict:
    """Key -> digest of every array of the battery, computed with the ``fuzzykan`` on ``sys.path``."""
    return {**model_battery(), **pool_battery(), **conv_battery(), **oracle_battery(), **data_battery(), **cli_battery()}


def edge_images(rng, params, dtype, shape) -> np.ndarray:
    """Pool inputs in ``dtype``: 30% of entries at or one ulp around a breakpoint or 5*r_max/14, odd images below c,
    then 5% of all entries +-0, +-inf or NaN, then the last quarter of the batch below c."""
    points = np.array(params.breakpoints() + [5 * params.r_max / 14]).astype(dtype)
    near = np.concatenate([points, np.nextafter(points, dtype(np.inf)), np.nextafter(points, dtype(-np.inf))])
    x = rng.uniform(-1.0, 1.4 * params.r_max, shape).astype(dtype)
    flat = x.reshape(-1)
    pick = rng.random(flat.size) < 0.3
    flat[pick] = rng.choice(near, int(pick.sum()))
    x[1::2] = rng.uniform(-1.0, params.c, x[1::2].shape)
    special = rng.random(flat.size) < 0.05
    flat[special] = rng.choice(np.array(SPECIALS, dtype), int(special.sum()))
    quarter = shape[0] - shape[0] // 4
    x[quarter:] = rng.uniform(-1.0, params.c, x[quarter:].shape)
    return x


def pool_battery() -> dict:
    """Key -> digest of each pool output and input gradient of the pool slice."""
    import fuzzykan.tensor as T
    from fuzzykan.pooling import MembershipParams, PoolConfig, pool

    digests = {}
    for kind, r_max in POOLS:
        params = MembershipParams(r_max=r_max)
        for shape in POOL_SHAPES:
            for k, stride in POOL_GEOMETRIES:
                for dtype in DTYPES:
                    case = f"pool/{kind}-{r_max:g}/{'x'.join(map(str, shape))}/k{k}s{stride}/{dtype}"
                    rng = np.random.default_rng(0)
                    x = T.Tensor(edge_images(rng, params, np.dtype(dtype).type, shape), requires_grad=True)
                    with np.errstate(all="ignore"):  # 0 * inf and inf - inf at the infinite entries
                        out = pool(x, PoolConfig(kind=kind, k=k, stride=stride, membership=params))
                        upstream = rng.uniform(-1.0, 1.0, out.shape).astype(dtype)
                        # a NaN or inf upstream reaches every entry of its window
                        special = rng.random(out.shape) < 0.01
                        upstream[special] = rng.choice(np.array(SPECIALS, dtype), int(special.sum()))
                        T.reduce_sum(T.mul(out, T.Tensor(upstream))).backward()
                    digests[f"{case}/out"] = digest(out.data)
                    digests[f"{case}/input.grad"] = digest(x.grad)
    return digests


def oracle_battery() -> dict:
    """Key -> digest of the scalar pool oracle's value at every window of the oracle slice, one array per case."""
    from fuzzykan.oracles import pool_window_oracle
    from fuzzykan.pooling import MembershipParams

    digests = {}
    for kind, r_max in POOLS:
        params = MembershipParams(r_max=r_max)
        x = edge_images(np.random.default_rng(0), params, np.float64, ORACLE_SHAPE)
        for k, stride in POOL_GEOMETRIES:
            win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
            with np.errstate(all="ignore"):  # inf - inf in a window sum
                values = [pool_window_oracle(win[idx], kind, params) for idx in np.ndindex(win.shape[:4])]
            case = f"oracle/{kind}-{r_max:g}/{'x'.join(map(str, ORACLE_SHAPE))}/k{k}s{stride}/float64"
            digests[case] = digest(np.array(values, dtype=np.float64).reshape(win.shape[:4]))
    return digests


def write_idx(directory: Path, split: str, images, labels, gz=False):
    """Write uint8 ``images`` and ``labels`` as ``split``'s IDX files in ``directory``, gzipped if ``gz``."""
    from fuzzykan.data import IDX_FILES

    for stem, magic, array in zip(IDX_FILES[split], (0x00000803, 0x00000801), (images, labels)):
        raw = struct.pack(f">{1 + array.ndim}I", magic, *array.shape) + array.tobytes()
        (directory / (f"{stem}.gz" if gz else stem)).write_bytes(gzip.compress(raw, mtime=0) if gz else raw)


def data_battery() -> dict:
    """Key -> digest of the images and labels ``load_dataset`` reads from each seeded file set of the data slice."""
    import fuzzykan.data as data

    def record(key, dataset):
        digests.update({f"{key}/{name}": digest(getattr(dataset, name)) for name in ("images", "labels")})

    digests = {}
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        for case, side, gz in IDX_CASES:
            root = Path(tmp) / case
            (root / "mnist").mkdir(parents=True)
            images = rng.integers(0, 256, (IDX_IMAGES, side, side), dtype=np.uint8)
            write_idx(root / "mnist", "train", images, rng.integers(0, 10, IDX_IMAGES, dtype=np.uint8), gz)
            record(f"data/{case}/train", data.load_dataset("mnist", root, "train"))
        records_per_file = data.CIFAR_RECORDS_PER_FILE
        for split, records in CIFAR_RECORDS.items():
            root = Path(tmp) / f"cifar10-{split}"
            root.mkdir()
            for name in ["test_batch.bin"] if split == "test" else [f"data_batch_{i}.bin" for i in range(1, 6)]:
                labels = rng.integers(0, 10, (records, 1), dtype=np.uint8)
                images = rng.integers(0, 256, (records, 3072), dtype=np.uint8)
                (root / name).write_bytes(np.hstack([labels, images]).tobytes())
            data.CIFAR_RECORDS_PER_FILE = records
            try:
                record(f"data/cifar10/{split}", data.load_dataset("cifar10", root, split))  # the test images are 245 MB
            finally:
                data.CIFAR_RECORDS_PER_FILE = records_per_file
    return digests


def masked_seconds(metrics_csv: str) -> str:
    """``metrics.csv`` with each value of its ``seconds`` column replaced by "-"."""
    rows = list(csv.reader(io.StringIO(metrics_csv)))
    column = rows[0].index("seconds")
    for row in rows[1:]:
        row[column] = "-"
    masked = io.StringIO()
    csv.writer(masked).writerows(rows)
    return masked.getvalue()


def cli_battery() -> dict:
    """Key -> digest of every file each case of the run slice writes and of its stdout, wall-clock seconds masked."""
    from fuzzykan.cli import main

    digests = {}
    rng = np.random.default_rng(0)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths, so config.json is the same
        try:
            data_dir = Path("data")
            (data_dir / "mnist").mkdir(parents=True)
            for split, n in RUN_IMAGES.items():
                images = rng.integers(0, 256, (n, 28, 28), dtype=np.uint8)
                write_idx(data_dir / "mnist", split, images, rng.integers(0, 10, n, dtype=np.uint8))
            for case, argv in RUNS.items():
                for precision in RUN_PRECISIONS:
                    key, out_dir, stdout = f"run/{case}/{precision}", Path("runs") / case / precision, io.StringIO()
                    flags = ["--batch", str(RUN_BATCH), "--precision", precision, "--data-dir", str(data_dir)]
                    with contextlib.redirect_stdout(stdout):  # the battery's own stdout is its JSON
                        code = main([*argv, *flags, "--out-dir", str(out_dir)])
                    if code != 0:
                        raise RuntimeError(f"{key}: fuzzykan exited {code}")
                    outputs = {"stdout": STDOUT_SECONDS.sub("(-s)", stdout.getvalue()).encode()}
                    for path in out_dir.rglob("*"):
                        if path.is_file():
                            raw = path.read_bytes()
                            if path.name == "metrics.csv":
                                raw = masked_seconds(raw.decode()).encode()
                            outputs[str(path.relative_to(out_dir))] = raw
                    digests.update({f"{key}/{name}": digest(np.frombuffer(raw, np.uint8)) for name, raw in outputs.items()})
        finally:
            os.chdir(cwd)
    return digests


def conv_battery() -> dict:
    """Key -> digest of each ``conv2d`` output and input, kernel and bias gradient of the conv slice."""
    import fuzzykan.tensor as T

    digests = {}
    for shape, f, k in CONV_SHAPES:
        for dtype in DTYPES:
            case = f"conv/{'x'.join(map(str, shape))}/{f}@{k}x{k}/s1/{dtype}"
            rng = np.random.default_rng(0)
            x, kernels, bias = (T.Tensor(rng.uniform(-1.0, 1.0, s).astype(dtype), requires_grad=True)
                                for s in (shape, (f, shape[1], k, k), (f,)))
            out = T.conv2d(x, kernels, bias)
            T.reduce_sum(T.mul(out, T.Tensor(rng.uniform(-1.0, 1.0, out.shape).astype(dtype)))).backward()
            for name, array in (("out", out.data), ("input.grad", x.grad), ("kernels.grad", kernels.grad),
                                ("bias.grad", bias.grad)):
                digests[f"{case}/{name}"] = digest(array)
    return digests


def model_battery() -> dict:
    """Key -> digest of each model array of the battery."""
    import fuzzykan.tensor as T
    from fuzzykan.model import DATASET_CHANNELS, Model, ModelConfig, build
    from fuzzykan.pooling import MembershipParams, PoolConfig
    from fuzzykan.training import AdamW

    digests = {}
    for head, kind, r_max in VARIANTS:
        pooling = PoolConfig(kind=kind, membership=MembershipParams(r_max=r_max))
        for dataset in GEOMETRIES:
            for dtype in DTYPES:
                for act in ACTIVATIONS:
                    case = f"{head}-{kind}-{r_max:g}/{dataset}/{dtype}/{act}"
                    config = ModelConfig(dataset=dataset, pooling=pooling, head=head, conv_activation=act)
                    model = build(config, dtype=dtype)
                    rng = np.random.default_rng(0)
                    shape = (BATCH, DATASET_CHANNELS[dataset], 32, 32)
                    batches = [(rng.uniform(0, 1, shape).astype(dtype), rng.integers(0, 10, BATCH)) for _ in range(STEPS + 1)]

                    x = T.Tensor(batches[0][0], requires_grad=True)
                    logits = model.forward(x)
                    T.softmax_cross_entropy(logits, batches[0][1]).backward()
                    digests[f"{case}/fresh/logits"] = digest(logits.data)
                    digests[f"{case}/fresh/input.grad"] = digest(x.grad)
                    for name, p in model.parameters():
                        digests[f"{case}/fresh/{name}.grad"] = digest(p.grad)

                    optimizer = AdamW(model.parameters())
                    for step, (images, labels) in enumerate(batches[1:]):
                        optimizer.zero_grad()
                        T.softmax_cross_entropy(model.forward(images), labels).backward()
                        for name, p in model.parameters():
                            digests[f"{case}/step{step}/{name}.grad"] = digest(p.grad)
                        optimizer.step()
                    digests[f"{case}/values"] = digest(optimizer.values)

                    with tempfile.TemporaryDirectory() as tmp:
                        path = Path(tmp) / "model.fkan"
                        model.save(path)
                        digests[f"{case}/checkpoint"] = digest(np.frombuffer(path.read_bytes(), np.uint8))
                        for name, p in Model.load(path).parameters():
                            digests[f"{case}/loaded/{name}"] = digest(p.data)
    return digests


def run_battery(checkout: Path) -> dict:
    """The battery's digests from ``checkout``'s own library, in a subprocess."""
    src = (checkout / "src").resolve()
    env = {**os.environ, **THREADS, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--battery"],
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"parity: {checkout}: battery exited {proc.returncode}\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout)
    if not Path(out["module"]).resolve().is_relative_to(src):
        raise SystemExit(f"parity: {checkout}: the battery imported fuzzykan from {out['module']}, not {src}")
    return out["digests"]


def compare(parent: dict, change: dict) -> tuple[list[str], bool]:
    """Report lines for two key -> [exact, canonical] digest maps, and whether they are identical."""
    differing = [key for key in parent if key in change and parent[key] != change[key]]
    nan_bits = [key for key in differing if parent[key][1] == change[key][1]]
    lines = [f"differs: {key}" for key in differing if parent[key][1] != change[key][1]]
    lines += [f"equal up to NaN sign and payload: {key}" for key in nan_bits]
    lines += [f"missing in change: {key}" for key in parent if key not in change]
    lines += [f"missing in parent: {key}" for key in change if key not in parent]
    summary = f"{len(parent.keys() | change.keys())} arrays, {len(lines)} differing or missing"
    lines.append(summary + (f", {len(nan_bits)} of them equal up to NaN sign and payload" if nan_bits else ""))
    return lines, len(lines) == 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?", help="checkout of the parent commit")
    parser.add_argument("change", type=Path, nargs="?", help="checkout of the change")
    parser.add_argument("--battery", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.battery:
        import fuzzykan

        print(json.dumps({"module": fuzzykan.__file__, "digests": battery()}))
        return 0
    if args.parent is None or args.change is None:
        parser.error("give the PARENT and CHANGE checkouts")
    lines, same = compare(run_battery(args.parent), run_battery(args.change))
    print("\n".join(lines))
    print("IDENTICAL" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
