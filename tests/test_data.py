import gzip
import re
import struct

import numpy as np
import pytest

import fuzzykan.data as data
from fuzzykan.data import IDX_IMAGES_MAGIC, DataError, batches, load_dataset

from conftest import make_synthetic_dataset, make_synthetic_images, write_idx_split, write_random_mnist


class TestIdx:
    """The IDX reader through ``load_dataset``: every file fault is a ``DataError`` naming the file (acceptance
    criterion 5 round-trips the bytes, and ``TestScaledOnce`` pins the padding)."""

    def test_normalization_bounds(self, tmp_path):
        images = np.zeros((2, 28, 28), dtype=np.uint8)
        images[0, 0, 0] = 255
        write_idx_split(tmp_path, images, np.zeros(2, dtype=np.uint8))
        ds = load_dataset("mnist", tmp_path, "train")
        assert ds.images.max() == 1.0 and ds.images.min() == 0.0

    def test_gzip_transparent(self, tmp_path):
        images, labels = make_synthetic_images(3, seed=4)
        for path in write_idx_split(tmp_path, images, labels):
            path.with_name(f"{path.name}.gz").write_bytes(gzip.compress(path.read_bytes()))
            path.unlink()
        ds = load_dataset("mnist", tmp_path, "train")
        np.testing.assert_array_equal(ds.labels, labels.astype(np.int64))
        np.testing.assert_array_equal((ds.images[:, 0, 2:-2, 2:-2] * 255.0).round().astype(np.uint8), images)

    @pytest.mark.parametrize("defect", ["truncated", "garbage"])
    def test_corrupt_gzip(self, tmp_path, defect):
        images, labels = make_synthetic_images(3, seed=4)
        img, _ = write_idx_split(tmp_path, images, labels)
        packed = gzip.compress(img.read_bytes())
        img.unlink()
        bad = img.with_name(f"{img.name}.gz")
        bad.write_bytes(packed[: len(packed) // 2] if defect == "truncated" else packed[:10] + b"garbage" * 40)
        with pytest.raises(DataError, match=re.escape(f"{bad}: corrupt gzip file: ")):
            load_dataset("mnist", tmp_path, "train")

    def test_shorter_than_magic(self, tmp_path):
        img, _ = write_idx_split(tmp_path, np.zeros((1, 28, 28), dtype=np.uint8), np.zeros(1, dtype=np.uint8))
        img.write_bytes(b"\x00\x00\x08")
        with pytest.raises(DataError, match=re.escape(f"{img}: too short for an IDX header")):
            load_dataset("mnist", tmp_path, "train")

    def test_truncated_dimension_header(self, tmp_path):
        img, _ = write_idx_split(tmp_path, np.zeros((1, 28, 28), dtype=np.uint8), np.zeros(1, dtype=np.uint8))
        img.write_bytes(struct.pack(">III", IDX_IMAGES_MAGIC, 1, 28))  # 3 dims, 2 written
        with pytest.raises(DataError, match=re.escape(f"{img}: truncated dimension header")):
            load_dataset("mnist", tmp_path, "train")

    def test_bad_label(self, tmp_path):
        images, labels = make_synthetic_images(3, seed=7)
        labels[1] = 12
        _, lbl = write_idx_split(tmp_path, images, labels)
        with pytest.raises(DataError, match=re.escape(f"{lbl}: label byte 12 out of range")):
            load_dataset("mnist", tmp_path, "train")

    def test_header_size_beyond_64_bits_is_truncation(self, tmp_path):
        # 2^22 * 2^21 * 2^21 = 2^64 bytes, which a uint64 product wraps to 0
        img, _ = write_idx_split(tmp_path, np.zeros((1, 28, 28), dtype=np.uint8), np.zeros(1, dtype=np.uint8))
        img.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 2**22, 2**21, 2**21))
        with pytest.raises(DataError, match=re.escape(f"{img}: expected {2**64} data bytes, file holds 0")):
            load_dataset("mnist", tmp_path, "train")

    def test_count_mismatch(self, tmp_path):
        images, labels = make_synthetic_images(4, seed=6)
        img, _ = write_idx_split(tmp_path, images, labels[:3])
        with pytest.raises(DataError, match=re.escape(f"{img}: 4 images but 3 labels")):
            load_dataset("mnist", tmp_path, "train")

    def test_directory_in_place_of_a_file_is_a_data_error(self, tmp_path):
        img, _ = write_idx_split(tmp_path, *make_synthetic_images(4, seed=6))
        img.unlink()
        img.mkdir()
        with pytest.raises(DataError, match=re.escape(f"{img}: cannot read: ")):
            load_dataset("mnist", tmp_path, "train")


def write_cifar_batch(path, images, labels):
    records = np.concatenate([labels[:, None], images.reshape(len(labels), -1)], axis=1)
    path.write_bytes(records.astype(np.uint8).tobytes())


TRAIN_BATCHES = [f"data_batch_{i}.bin" for i in range(1, 6)]


class TestCifar:
    """The five-file train split, at 300 records a file (``monkeypatch`` of ``CIFAR_RECORDS_PER_FILE``)."""

    def make_dir(self, tmp_path, names, seed=0):
        rng = np.random.default_rng(seed)
        n = data.CIFAR_RECORDS_PER_FILE
        reference = {}
        for name in names:
            images = rng.integers(0, 256, (n, 3, 32, 32), dtype=np.uint8)
            labels = rng.integers(0, 10, n, dtype=np.uint8)
            write_cifar_batch(tmp_path / name, images, labels)
            reference[name] = (images, labels)
        return reference

    def test_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "CIFAR_RECORDS_PER_FILE", 300)
        reference = self.make_dir(tmp_path, TRAIN_BATCHES + ["test_batch.bin"], seed=1)
        train = load_dataset("cifar10", tmp_path, "train")
        test = load_dataset("cifar10", tmp_path, "test")
        assert train.images.shape == (5 * 300, 3, 32, 32) and len(test) == 300
        np.testing.assert_array_equal(test.labels, reference["test_batch.bin"][1].astype(np.int64))
        # the five files, concatenated in order
        images, labels = (np.concatenate([reference[name][i] for name in TRAIN_BATCHES]) for i in (0, 1))
        np.testing.assert_array_equal((train.images * 255.0).round().astype(np.uint8), images)
        np.testing.assert_array_equal(train.labels, labels)

    def test_truncated_batch(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "CIFAR_RECORDS_PER_FILE", 300)
        self.make_dir(tmp_path, TRAIN_BATCHES)
        path = tmp_path / "data_batch_3.bin"
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(DataError, match=re.escape(f"{path}: size {300 * 3073 - 1} != {300 * 3073}")):
            load_dataset("cifar10", tmp_path, "train")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match=re.escape(f"not found under {tmp_path}: missing {', '.join(TRAIN_BATCHES)}")):
            load_dataset("cifar10", tmp_path, "train")

    def test_directory_in_place_of_a_batch_is_a_data_error(self, tmp_path):
        for name in TRAIN_BATCHES[1:]:
            (tmp_path / name).touch()
        (tmp_path / TRAIN_BATCHES[0]).mkdir()
        with pytest.raises(DataError, match=re.escape(f"{tmp_path / TRAIN_BATCHES[0]}: cannot read: ")):
            load_dataset("cifar10", tmp_path, "train")

class TestLoadDatasetCifar:
    """``load_dataset("cifar10")`` on the test split: each layout resolves, and a bad file is named."""

    def write_test_batch(self, directory, last_label=3):
        directory.mkdir(parents=True, exist_ok=True)
        labels = np.full(10000, 3, dtype=np.uint8)
        labels[-1] = last_label
        write_cifar_batch(directory / "test_batch.bin", np.zeros((10000, 3, 32, 32), dtype=np.uint8), labels)
        return directory / "test_batch.bin"

    @pytest.mark.parametrize("layout", ["", "cifar10", "cifar-10-batches-bin", "cifar10/cifar-10-batches-bin"])
    def test_layouts_resolve(self, tmp_path, layout):
        self.write_test_batch(tmp_path / layout, last_label=9)
        ds = load_dataset("cifar10", tmp_path, "test")
        assert ds.images.shape == (10000, 3, 32, 32) and ds.labels[-1] == 9

    def test_bad_label_is_reported(self, tmp_path):
        path = self.write_test_batch(tmp_path / "cifar-10-batches-bin", last_label=12)
        with pytest.raises(DataError, match=re.escape(f"{path}: label byte 12 out of range")):
            load_dataset("cifar10", tmp_path, "test")

    def test_missing_file_is_not_found(self, tmp_path):
        (tmp_path / "cifar10").mkdir()
        with pytest.raises(DataError, match="CIFAR-10 binary batches not found under .*test_batch.bin"):
            load_dataset("cifar10", tmp_path, "test")


def scaled_then_padded(images, pad):
    """Pixels by the float formula: images.astype(float64) / 255, then zero-padded by ``pad`` per border."""
    return np.pad(images.astype(np.float64) / 255.0, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


class TestScaledOnce:
    """The loaders pad the uint8 bytes and scale them once, with the bytes of the float formula."""

    @pytest.mark.parametrize("hw, pad", [(28, 2), (32, 0)])
    def test_idx_bytes(self, tmp_path, hw, pad):
        images = write_random_mnist(tmp_path, 5, hw)
        ds = load_dataset("mnist", tmp_path, "train")
        assert ds.images.shape == (5, 1, 32, 32)
        assert ds.images.dtype == np.float64 and ds.images.flags.c_contiguous
        assert ds.images.tobytes() == scaled_then_padded(images, pad).tobytes()

    def test_cifar_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "CIFAR_RECORDS_PER_FILE", 300)  # the record layout at a tenth of the memory
        images = np.random.default_rng(5).integers(0, 256, (300, 3, 32, 32)).astype(np.uint8)
        images.reshape(-1)[:256] = np.arange(256)
        write_cifar_batch(tmp_path / "test_batch.bin", images, np.arange(300, dtype=np.uint8) % 10)
        ds = load_dataset("cifar10", tmp_path, "test")
        assert ds.images.dtype == np.float64 and ds.images.flags.c_contiguous
        assert ds.images.tobytes() == scaled_then_padded(images, 0).tobytes()


class TestLoadDataset:
    def test_mnist_layout(self, synthetic_idx_dir):
        train = load_dataset("mnist", synthetic_idx_dir, "train")
        test = load_dataset("mnist", synthetic_idx_dir, "test")
        assert train.images.shape == (120, 1, 32, 32)
        assert test.images.shape == (40, 1, 32, 32)
        assert train.labels.dtype == np.int64

    def write_mnist(self, root, hw):
        images = np.random.default_rng(0).integers(0, 256, (4, hw, hw)).astype(np.uint8)
        img, _ = write_idx_split(root, images, np.arange(4, dtype=np.uint8))
        return img, images

    @pytest.mark.parametrize("hw", [20, 30])
    def test_other_geometry_is_a_data_error(self, tmp_path, hw):
        path, _ = self.write_mnist(tmp_path, hw)
        with pytest.raises(DataError, match=re.escape(f"{path}: images are {hw}x{hw}, expected 28x28 or 32x32")):
            load_dataset("mnist", tmp_path, "train")

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_empty_split_is_a_data_error(self, tmp_path, split):
        img, _ = write_idx_split(tmp_path, np.zeros((0, 28, 28), dtype=np.uint8), np.zeros(0, dtype=np.uint8), split)
        with pytest.raises(DataError, match=re.escape(f"{img}: holds no images")):
            load_dataset("mnist", tmp_path, split)

    def test_missing_dataset_dir(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset("mnist", tmp_path, "train")

    def test_unknown_name(self, tmp_path):
        with pytest.raises(ValueError, match="unknown dataset"):
            load_dataset("svhn", tmp_path)

    @pytest.mark.parametrize("name", ["mnist", "cifar10"])
    def test_other_split_is_refused_before_any_read(self, tmp_path, monkeypatch, synthetic_idx_dir, name):
        monkeypatch.setattr(data, "CIFAR_RECORDS_PER_FILE", 300)
        TestCifar().make_dir(tmp_path, ["test_batch.bin"])  # a reader that took any split for "test" would read it
        reads = []
        monkeypatch.setattr(data, "_read_bytes", reads.append)
        with pytest.raises(ValueError, match=re.escape("split must be one of ('train', 'test'), got 'validation'")):
            load_dataset(name, synthetic_idx_dir if name == "mnist" else tmp_path, "validation")
        assert reads == []


class TestBatches:
    def make_dataset(self, n=10):
        return make_synthetic_dataset(n, seed=0)

    def test_sizes(self):
        sizes = [len(lbl) for _, lbl in batches(self.make_dataset(10), 3, seed=0)]
        assert sizes == [3, 3, 3, 1]

    def test_no_shuffle_identity_order(self):
        ds = self.make_dataset(6)
        out = np.concatenate([lbl for _, lbl in batches(ds, 4, shuffle=False)])
        np.testing.assert_array_equal(out, ds.labels)

    def test_seed_determinism(self):
        ds = self.make_dataset(12)
        a = np.concatenate([lbl for _, lbl in batches(ds, 5, seed=7)])
        b = np.concatenate([lbl for _, lbl in batches(ds, 5, seed=7)])
        np.testing.assert_array_equal(a, b)

    def test_epoch_covers_every_index_once(self):
        ds = self.make_dataset(11)
        images = np.concatenate([img for img, _ in batches(ds, 4, seed=3)])
        assert images.shape[0] == 11
        sums = sorted(float(img.sum()) for img in images)
        expected = sorted(float(img.sum()) for img in ds.images)
        np.testing.assert_allclose(sums, expected)

    def test_unshuffled_batches_are_read_only_views(self):
        ds = self.make_dataset(10)
        before = ds.images.copy(), ds.labels.copy()
        for images, labels in batches(ds, 4, shuffle=False):
            assert np.shares_memory(images, ds.images) and np.shares_memory(labels, ds.labels)
            for batch in (images, labels):
                with pytest.raises(ValueError, match="read-only"):
                    batch[0] = 1
        assert ds.images.flags.writeable and ds.labels.flags.writeable  # the dataset itself stays writable
        np.testing.assert_array_equal(ds.images, before[0])
        np.testing.assert_array_equal(ds.labels, before[1])

    def test_shuffled_batches_are_copies(self):
        ds = self.make_dataset(10)
        for images, labels in batches(ds, 4, seed=1):
            assert not np.shares_memory(images, ds.images) and not np.shares_memory(labels, ds.labels)
            assert images.flags.writeable and labels.flags.writeable

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            batches(self.make_dataset(4), 0)

    def test_subset(self):
        ds = self.make_dataset(10).subset(4)
        assert len(ds) == 4 and ds.images.shape[0] == 4
