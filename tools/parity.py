"""Compare two checkouts bit for bit on one battery of logits, gradients, AdamW steps and checkpoints.

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
parameter of ``Model.load`` of that file.  Each array is kept as the
SHA-256 of its dtype, shape and C-ordered bytes.

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
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def digest(array) -> str:
    """SHA-256 of an array's dtype, shape and C-ordered bytes."""
    a = np.ascontiguousarray(array)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def battery() -> dict:
    """Key -> digest of every array of the battery, computed with the ``fuzzykan`` on ``sys.path``."""
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
