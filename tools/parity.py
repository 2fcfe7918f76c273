"""Compare two checkouts bit for bit on one battery of logits, gradients, AdamW steps, checkpoints and pool edge values.

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
input gradient.  Each array is kept as the SHA-256 of its dtype, shape and
C-ordered bytes.

The report lists each key whose digest differs and each key that one side
lacks, then a count.  The exit status is 0 when every array is identical
and 1 otherwise.  BLAS runs one thread on both sides.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
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
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def digest(array) -> str:
    """SHA-256 of an array's dtype, shape and C-ordered bytes."""
    a = np.ascontiguousarray(array)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def battery() -> dict:
    """Key -> digest of every array of the battery, computed with the ``fuzzykan`` on ``sys.path``."""
    return {**model_battery(), **pool_battery()}


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
    """Report lines for two key -> digest maps, and whether they are identical."""
    lines = [f"differs: {key}" for key in parent if key in change and parent[key] != change[key]]
    lines += [f"missing in change: {key}" for key in parent if key not in change]
    lines += [f"missing in parent: {key}" for key in change if key not in parent]
    keys = len(parent.keys() | change.keys())
    lines.append(f"{keys} arrays, {len(lines)} differing or missing")
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
