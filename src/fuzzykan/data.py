"""Dataset loading: IDX (MNIST/FashionMNIST) and CIFAR-10 binary formats.

``load_dataset`` is the one reader: it takes a dataset name, a data
directory and the "train" or "test" split, and parses the official binary
layouts bit for bit; pixels are scaled to [0,1] as float64 pixels / 255.  It
alone decides the input geometry: it zero-pads 28x28 grayscale images to
32x32, passes 32x32 ones through, and refuses IDX images of any other size.
It pads the uint8 bytes and then scales them once, so no unpadded float copy
is made.  Gzipped files are read transparently.  Every file fault (missing,
corrupt gzip, bad magic, truncated, count mismatch, bad label, empty split,
other geometry) is one ``DataError`` whose message names the file; the CLI
prints it as one ``data error:`` line and exits 2.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073
CIFAR_RECORDS_PER_FILE = 10000


class DataError(Exception):
    """A dataset file that is missing or malformed; the message names the file and the fault."""


@dataclass
class Dataset:
    images: np.ndarray  # [M, C, H, W] floats in [0,1]
    labels: np.ndarray  # [M] int64 class indices

    def __len__(self):
        return len(self.labels)

    def subset(self, count: int) -> "Dataset":
        return Dataset(self.images[:count], self.labels[:count])


def _read_bytes(path) -> bytes:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:2] != b"\x1f\x8b":
        return raw
    try:
        return gzip.decompress(raw)
    except (EOFError, OSError, zlib.error) as e:  # truncated stream, bad header, corrupt data
        raise DataError(f"{path}: corrupt gzip file: {e}") from None


def _parse_idx(raw: bytes, expected_magic: int, path) -> np.ndarray:
    if len(raw) < 4:
        raise DataError(f"{path}: too short for an IDX header")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expected_magic:
        raise DataError(f"{path}: bad magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise DataError(f"{path}: truncated dimension header")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count = math.prod(dims)
    if len(raw) < header + count:
        raise DataError(f"{path}: expected {count} data bytes, file holds {len(raw) - header}")
    return np.frombuffer(raw, dtype=np.uint8, count=count, offset=header).reshape(dims)


def _check_labels(labels: np.ndarray, path):
    if labels.size and labels.max() > 9:
        raise DataError(f"{path}: label byte {labels.max()} out of range")


def _scaled(pixels: np.ndarray) -> np.ndarray:
    """uint8 pixels as float64 pixels / 255, in one pass."""
    return np.divide(pixels, 255.0, dtype=np.float64)


def _read_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """The checked uint8 images [M, 1, H, W] and int64 labels of an IDX file pair."""
    images = _parse_idx(_read_bytes(images_path), IDX_IMAGES_MAGIC, images_path)
    labels = _parse_idx(_read_bytes(labels_path), IDX_LABELS_MAGIC, labels_path)
    if images.shape[0] != labels.shape[0]:
        raise DataError(f"{images_path}: {images.shape[0]} images but {labels.shape[0]} labels")
    _check_labels(labels, labels_path)
    m, h, w = images.shape
    return images.reshape(m, 1, h, w), labels.astype(np.int64)


def _parse_cifar_file(path) -> tuple[np.ndarray, np.ndarray]:
    raw = _read_bytes(path)
    if len(raw) != CIFAR_RECORDS_PER_FILE * CIFAR_RECORD_BYTES:
        raise DataError(f"{path}: size {len(raw)} != {CIFAR_RECORDS_PER_FILE * CIFAR_RECORD_BYTES}")
    records = np.frombuffer(raw, dtype=np.uint8).reshape(CIFAR_RECORDS_PER_FILE, CIFAR_RECORD_BYTES)
    labels = records[:, 0]
    _check_labels(labels, path)
    images = records[:, 1:].reshape(-1, 3, 32, 32)
    return images, labels


CIFAR_FILES = {"train": [f"data_batch_{i}.bin" for i in range(1, 6)], "test": ["test_batch.bin"]}


def _load_cifar10(root: Path, split: str) -> Dataset:
    """The five training batches or the test batch of binary CIFAR-10, from the first layout under ``root`` that
    holds them all: ``cifar10/cifar-10-batches-bin/``, ``cifar10/``, ``cifar-10-batches-bin/`` or ``root`` itself."""
    names = CIFAR_FILES[split]
    for directory in (root / "cifar10" / "cifar-10-batches-bin", root / "cifar10", root / "cifar-10-batches-bin", root):
        files = [directory / name for name in names]
        if all(f.exists() for f in files):
            images, labels = zip(*(_parse_cifar_file(f) for f in files))
            return Dataset(_scaled(np.concatenate(images)), np.concatenate(labels).astype(np.int64))
    raise DataError(f"CIFAR-10 binary batches not found under {root}: missing {', '.join(names)}")


IDX_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def _find_idx_file(directory: Path, stem: str) -> Path:
    for candidate in (directory / stem, directory / f"{stem}.gz"):
        if candidate.exists():
            return candidate
    raise DataError(f"missing dataset file: {directory / stem}[.gz]")


def load_dataset(name: str, data_dir, split: str = "train") -> Dataset:
    """Load the "train" or "test" split of mnist / fashion-mnist / cifar10 from `data_dir`/<name>/."""
    if split not in IDX_FILES:
        raise ValueError(f"split must be one of {tuple(IDX_FILES)}, got {split!r}")
    root = Path(data_dir)
    if name == "cifar10":
        return _load_cifar10(root, split)
    if name in ("mnist", "fashion-mnist"):
        directory = root / name if (root / name).is_dir() else root
        img_stem, lbl_stem = IDX_FILES[split]
        images_path = _find_idx_file(directory, img_stem)
        images, labels = _read_idx(images_path, _find_idx_file(directory, lbl_stem))
        if len(labels) == 0:  # nothing to train on or evaluate
            raise DataError(f"{images_path}: holds no images")
        h, w = images.shape[2:]
        if (h, w) == (28, 28):  # zero-pad the bytes by 2 pixels per border to the 32x32 model input
            images = np.pad(images, ((0, 0), (0, 0), (2, 2), (2, 2)))  # the file's bytes are freed before scaling
        elif (h, w) != (32, 32):
            raise DataError(f"{images_path}: images are {h}x{w}, expected 28x28 or 32x32")
        return Dataset(_scaled(images), labels)
    raise ValueError(f"unknown dataset {name!r}")


def batches(dataset: Dataset, batch_size: int, seed: int = 0, shuffle: bool = True) -> Iterator:
    """One epoch over a dataset in seeded-permutation order, as (images, labels) pairs.

    The batch size is checked and the permutation drawn on the call, not on
    the first batch.  The final partial batch is emitted as-is so every
    sample is visited exactly once.  Unshuffled batches are read-only views
    of the dataset, shuffled ones copies.
    """
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    m = len(dataset)
    permutation = np.random.default_rng(seed).permutation(m) if shuffle else None
    images, labels = dataset.images.view(), dataset.labels.view()
    images.flags.writeable = labels.flags.writeable = False

    def epoch():
        for start in range(0, m, batch_size):
            idx = slice(start, start + batch_size) if permutation is None else permutation[start : start + batch_size]
            yield images[idx], labels[idx]

    return epoch()
