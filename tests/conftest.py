import os
import struct
from pathlib import Path

import numpy as np
import pytest

from fuzzykan.checks import _near_breakpoint
from fuzzykan.data import IDX_FILES, IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, Dataset
from fuzzykan.model import ModelConfig, build
from fuzzykan.pooling import MembershipParams, PoolConfig


def write_idx_split(root, images, labels, split="train"):
    """Write uint8 images [M,H,W] and labels [M] as one split's IDX pair under ``root/mnist/``, the layout
    ``load_dataset`` reads; returns the images and labels paths."""
    d = Path(root) / "mnist"
    d.mkdir(exist_ok=True)
    paths = [d / stem for stem in IDX_FILES[split]]
    for path, magic, array in zip(paths, (IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC), (images, labels)):
        array = np.ascontiguousarray(array, dtype=np.uint8)
        path.write_bytes(struct.pack(f">{1 + array.ndim}I", magic, *array.shape) + array.tobytes())
    return paths


def write_random_mnist(root, n, hw):
    """Write n random hw x hw uint8 images holding every byte value as an MNIST train split; returns [n,1,hw,hw]."""
    images = np.random.default_rng(hw).integers(0, 256, (n, hw, hw)).astype(np.uint8)
    images.reshape(-1)[:256] = np.arange(256)  # every byte value
    write_idx_split(root, images, np.arange(n, dtype=np.uint8) % 10)
    return images[:, None]


def make_synthetic_images(n, seed=0):
    """28x28 uint8 images whose bright 8x8 block position encodes the class."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, n).astype(np.uint8)
    images = rng.integers(0, 40, (n, 28, 28)).astype(np.uint8)
    for i, lbl in enumerate(labels):
        r, c = divmod(int(lbl), 5)
        images[i, 4 + r * 12 : 12 + r * 12, 2 + c * 5 : 10 + c * 5] = 220
    return images, labels


def make_synthetic_dataset(n, seed=0):
    images, labels = make_synthetic_images(n, seed)
    padded = np.pad(images.astype(np.float64) / 255.0, ((0, 0), (2, 2), (2, 2)))
    return Dataset(padded[:, None, :, :], labels.astype(np.int64))


def sample_fuzzy_safe_input(shape, rng, params, lo=-1.0, hi=8.0):
    """Random values in [lo, hi] more than ``checks.BREAKPOINT_MARGIN`` from every membership breakpoint of ``params``."""
    x = rng.uniform(lo, hi, shape)
    for _ in range(100):
        near = _near_breakpoint(x, params)
        if not near.any():
            return x
        x[near] = rng.uniform(lo, hi, int(near.sum()))
    raise RuntimeError("could not sample inputs away from membership breakpoints")


@pytest.fixture(scope="session")
def synthetic_idx_dir(tmp_path_factory):
    """A data directory holding a small IDX-format dataset under mnist/."""
    root = tmp_path_factory.mktemp("idxdata")
    for split, n, seed in (("train", 120, 0), ("test", 40, 1)):
        write_idx_split(root, *make_synthetic_images(n, seed), split=split)
    return root


def real_mnist_dir():
    """Path to real MNIST IDX files if available, else None."""
    root = os.environ.get("FUZZY_KAN_DATA")
    if not root:
        return None
    d = Path(root) / "mnist" if (Path(root) / "mnist").is_dir() else Path(root)
    if not all((d / stem).exists() or (d / f"{stem}.gz").exists() for pair in IDX_FILES.values() for stem in pair):
        return None
    return d.parent if d.name == "mnist" else d


def batch32_step(head, kind):
    """A batch-32 train step's model, images and labels for the paper's fuzzy+KAN or its max+MLP baseline."""
    model = build(ModelConfig(head=head, pooling=PoolConfig(kind=kind, membership=MembershipParams(r_max=6.0))))
    rng = np.random.default_rng(0)
    return model, rng.uniform(0, 1, (32, 1, 32, 32)), rng.integers(0, 10, 32)

