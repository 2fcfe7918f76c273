"""Seeded synthetic datasets written in the MNIST IDX and CIFAR-10 binary formats.

Every image is low-level noise with one bright block whose position encodes
the class, so a model learns the task within a few dozen steps.  Labels
cycle through the ten classes, so every prefix is class-balanced as in the
real test sets, and the seed draws the noise.  The same seed always writes
the same bytes.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORDS = 10000  # a CIFAR-10 binary batch file holds exactly this many
NOISE_MAX = 0.15
BLOCK_VALUE = 0.85


def class_coded_images(rng, n: int, channels: int, hw: int):
    """uint8 pixels [n, channels, hw, hw] and uint8 labels [n]."""
    labels = np.arange(n) % 10
    images = rng.uniform(0.0, NOISE_MAX, (n, channels, hw, hw))
    offset = (hw - 28) // 2  # block layout is drawn on a centred 28x28 canvas
    for label in range(10):
        r, c = divmod(label, 5)
        rows = slice(offset + 4 + 12 * r, offset + 12 + 12 * r)
        cols = slice(offset + 2 + 5 * c, offset + 10 + 5 * c)
        images[labels == label, :, rows, cols] = BLOCK_VALUE
    return np.round(images * 255.0).astype(np.uint8), labels.astype(np.uint8)


def write_mnist(directory: Path, pixels: np.ndarray, labels: np.ndarray):
    """Write the train split as IDX files under `directory`/mnist/."""
    root = directory / "mnist"
    root.mkdir(parents=True, exist_ok=True)
    n, _, h, w = pixels.shape
    with open(root / "train-images-idx3-ubyte", "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        f.write(np.ascontiguousarray(pixels).tobytes())
    with open(root / "train-labels-idx1-ubyte", "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        f.write(labels.tobytes())


def write_cifar(directory: Path, pixels: np.ndarray, labels: np.ndarray):
    """Write the test split as one CIFAR-10 binary batch under `directory`/cifar10/."""
    root = directory / "cifar10"
    root.mkdir(parents=True, exist_ok=True)
    records = np.concatenate([labels[:, None], pixels.reshape(len(labels), -1)], axis=1)
    (root / "test_batch.bin").write_bytes(records.tobytes())


def write_dataset(dataset: str, n: int, seed: int, directory: Path):
    """Write `n` seeded images in `dataset`'s format; return the pixels and labels."""
    rng = np.random.default_rng(seed)
    if dataset == "mnist":
        pixels, labels = class_coded_images(rng, n, 1, 28)
        write_mnist(directory, pixels, labels)
    elif dataset == "cifar10":
        if n != CIFAR_RECORDS:
            raise ValueError(f"a CIFAR-10 batch file holds {CIFAR_RECORDS} records, not {n}")
        pixels, labels = class_coded_images(rng, n, 3, 32)
        write_cifar(directory, pixels, labels)
    else:
        raise ValueError(f"no generator for dataset {dataset!r}")
    return pixels, labels
