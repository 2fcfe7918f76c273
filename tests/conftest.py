import os
from pathlib import Path

import numpy as np
import pytest

from fuzzykan.data import Dataset, write_idx_images, write_idx_labels


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


@pytest.fixture(scope="session")
def synthetic_idx_dir(tmp_path_factory):
    """A data directory holding a small IDX-format dataset under mnist/."""
    root = tmp_path_factory.mktemp("idxdata")
    d = root / "mnist"
    d.mkdir()
    for split, n, seed in (("train", 120, 0), ("test", 40, 1)):
        images, labels = make_synthetic_images(n, seed)
        img_name = "train-images-idx3-ubyte" if split == "train" else "t10k-images-idx3-ubyte"
        lbl_name = "train-labels-idx1-ubyte" if split == "train" else "t10k-labels-idx1-ubyte"
        write_idx_images(d / img_name, images)
        write_idx_labels(d / lbl_name, labels)
    return root


def real_mnist_dir():
    """Path to real MNIST IDX files if available, else None."""
    root = os.environ.get("FUZZY_KAN_DATA")
    if not root:
        return None
    d = Path(root) / "mnist" if (Path(root) / "mnist").is_dir() else Path(root)
    for stem in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte", "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
        if not ((d / stem).exists() or (d / f"{stem}.gz").exists()):
            return None
    return d.parent if d.name == "mnist" else d
