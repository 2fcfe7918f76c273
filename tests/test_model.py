import json
import re
import struct

import numpy as np
import pytest

import fuzzykan.tensor as T
from fuzzykan.checks import gradient_check, tiny_fuzzy_kan_setup
from fuzzykan.model import (
    Model,
    ModelConfig,
    build,
    config_digest,
    config_to_dict,
    config_update,
)
from fuzzykan.pooling import MembershipParams, PoolConfig
from fuzzykan.training import AdamW


def config_for(pooling="max", head="mlp", **kw):
    return ModelConfig(pooling=PoolConfig(kind=pooling), head=head, **kw)


class TestConfig:
    def test_invalid_dataset(self):
        with pytest.raises(ValueError, match="dataset"):
            ModelConfig(dataset="imagenet")

    def test_invalid_head(self):
        with pytest.raises(ValueError, match="head"):
            ModelConfig(head="transformer")

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            ModelConfig(seed=-1)
        assert ModelConfig(seed=0).seed == 0

    def test_head_widths_below_1(self):
        for widths in ((-3,), (84, 0)):
            with pytest.raises(ValueError, match=r"head_widths must all be >= 1, got \(.*\)"):
                ModelConfig(head_widths=widths)
        assert build(config_for(head_widths=())).stages[-1][0] == "fc0"  # no hidden layer

    def test_default_widths(self):
        assert config_for(head="mlp").resolved_head_widths() == (120, 84)
        assert config_for(head="kan").resolved_head_widths() == (84,)

    def test_round_trip(self):
        config = config_for("fuzzy", "kan", seed=3, head_widths=(32,))
        assert config_update(ModelConfig(), config_to_dict(config)) == config
        assert config_update(ModelConfig(), json.loads(json.dumps(config_to_dict(config)))) == config

    def test_update_nested(self):
        config = config_update(ModelConfig(), {"pooling": {"kind": "fuzzy", "membership": {"r_max": 2}}})
        assert config == ModelConfig(pooling=PoolConfig(kind="fuzzy", membership=MembershipParams(r_max=2.0)))
        assert type(config.pooling.membership.r_max) is float

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"pooling": {"membership": {"rmax": 6}}}, "unknown config key 'pooling.membership.rmax'"),
            ({"seed": "42"}, "seed must be int"),
            ({"seed": True}, "seed must be int"),
            ({"head_widths": [32.0]}, "head_widths must be"),
            ({"pooling": "max"}, "pooling must be an object"),
        ],
    )
    def test_update_rejects(self, changes, message):
        with pytest.raises(ValueError, match=message):
            config_update(ModelConfig(), changes)

    def test_digest_sensitivity(self):
        a = config_for("fuzzy", "kan")
        assert config_digest(a) == config_digest(config_for("fuzzy", "kan"))
        assert config_digest(a) != config_digest(config_for("max", "kan"))


class TestParameterCounts:
    """Closed-form audits of every trainable tensor."""

    def test_mlp_head_mnist(self):
        # conv1 6*1*5*5+6 = 156; conv2 16*6*5*5+16 = 2416
        # fc: 400*120+120 = 48120; 120*84+84 = 10164; 84*10+10 = 850
        model = build(config_for("max", "mlp"))
        assert model.parameter_count == 156 + 2416 + 48120 + 10164 + 850 == 61706

    def test_kan_head_mnist(self):
        # convs 2572; kan0 84*400*(8+2) = 336000; kan1 10*84*(8+2) = 8400
        model = build(config_for("max", "kan"))
        assert model.parameter_count == 2572 + 336000 + 8400 == 346972

    def test_cifar10_first_conv_grows(self):
        model = build(ModelConfig(dataset="cifar10", pooling=PoolConfig(kind="fuzzy")))
        assert model.params["conv1.weight"].shape == (6, 3, 5, 5)

    @pytest.mark.parametrize("head", ["mlp", "kan"])
    def test_count_invariant_under_pooling(self, head):
        counts = {build(config_for(kind, head)).parameter_count for kind in ("max", "average", "fuzzy")}
        assert len(counts) == 1


class TestBuildDeterminism:
    def test_same_seed_same_weights(self):
        a = build(config_for("fuzzy", "kan", seed=5))
        b = build(config_for("fuzzy", "kan", seed=5))
        for (name, ta), (_, tb) in zip(a.parameters(), b.parameters()):
            assert np.array_equal(ta.data, tb.data), name

    def test_different_seed_differs(self):
        a = build(config_for("max", "mlp", seed=1))
        b = build(config_for("max", "mlp", seed=2))
        assert not np.array_equal(a.params["conv1.weight"].data, b.params["conv1.weight"].data)

    def test_biases_start_at_zero(self):
        model = build(config_for("average", "mlp"))
        for name, t in model.parameters():
            if name.endswith(".bias"):
                assert (t.data == 0.0).all(), name


class TestForward:
    @pytest.mark.parametrize("pooling", ["max", "average", "fuzzy"])
    @pytest.mark.parametrize("head", ["mlp", "kan"])
    def test_logits_finite(self, pooling, head):
        model = build(config_for(pooling, head))
        rng = np.random.default_rng(0)
        out = model.forward(rng.uniform(0, 1, (3, 1, 32, 32)))
        assert out.shape == (3, 10)
        assert np.isfinite(out.data).all()

    def test_cifar10_fuzzy_kan(self):
        model = build(ModelConfig(dataset="cifar10", pooling=PoolConfig(kind="fuzzy"), head="kan"))
        rng = np.random.default_rng(1)
        out = model.forward(rng.uniform(0, 1, (2, 3, 32, 32)))
        assert out.shape == (2, 10) and np.isfinite(out.data).all()

    def test_stage_names(self):
        backbone = ["conv1", "conv1.act", "pool1", "conv2", "conv2.act", "pool2", "flatten"]
        mlp = [name for name, _ in build(config_for(head="mlp")).stages]
        kan = [name for name, _ in build(config_for(head="kan")).stages]
        assert mlp == backbone + ["fc0", "fc0.act", "fc1", "fc1.act", "fc2"]
        assert kan == backbone + ["kan0", "kan1"]

    def test_wrong_input_shape(self):
        model = build(config_for())
        with pytest.raises(ValueError, match="expected input"):
            model.forward(np.zeros((2, 1, 28, 28)))

    def test_batch_permutation_equivariance(self):
        model = build(config_for("fuzzy", "kan"))
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (4, 1, 32, 32))
        perm = np.array([2, 0, 3, 1])
        out = model.forward(x).data
        out_perm = model.forward(x[perm]).data
        np.testing.assert_array_equal(out_perm, out[perm])

    def test_forward_is_pure(self):
        model = build(config_for("fuzzy", "mlp"))
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, (2, 1, 32, 32))
        assert np.array_equal(model.forward(x).data, model.forward(x).data)


class TestLogitsRegression:
    """Frozen forward values; any numeric drift in the pipeline fails here."""

    def test_mlp_fuzzy_snapshot(self):
        model = build(config_for("fuzzy", "mlp", seed=7))
        x = np.random.default_rng(100).uniform(0.0, 1.0, (2, 1, 32, 32))
        expected = np.array([
            [-0.12759488808716182, -0.024678762085529726, 0.013605173527469518, -0.21204814507879302, 0.06846552635238431, -0.06321188583080278, 0.11343268561967351, -0.12426288231259046, -0.18674587030203443, -0.05992465296820089],
            [-0.11545216650658907, -0.05673550029461546, 0.03567757276087955, -0.20596249241847495, 0.05214035460219528, -0.06261452166368697, 0.08784906703078497, -0.13197004508339735, -0.18137450420612922, -0.05826890828054102],
        ])
        np.testing.assert_array_equal(model.forward(x).data, expected)

    def test_kan_fuzzy_snapshot(self):
        model = build(config_for("fuzzy", "kan", seed=7))
        x = np.random.default_rng(100).uniform(0.0, 1.0, (2, 1, 32, 32))
        out = model.forward(x).data
        assert out[0, 0] == 969.9392583854692
        assert out[1, 0] == 895.7865522873803
        # the values pinned before the head's GEMM contraction reordered its sums
        np.testing.assert_allclose(out[:, 0], [969.9392583854692, 895.7865522873805], rtol=1e-13, atol=0)


class TestEndToEndGradients:
    @pytest.mark.parametrize("pooling", ["max", "average", "fuzzy"])
    @pytest.mark.parametrize("head", ["mlp", "kan"])
    def test_tiny_model(self, pooling, head):
        model, images, labels = tiny_fuzzy_kan_setup(head=head, pooling_kind=pooling)
        # the smoothness scan's pick; a change to the scan must not silently move this check
        assert model.config.seed == {"max": 21, "average": 0, "fuzzy": 0}[pooling]
        x = T.Tensor(images, requires_grad=True)
        tensors = [t for _, t in model.parameters()] + [x]
        worst = gradient_check(lambda: T.softmax_cross_entropy(model.forward(x), labels), tensors)
        assert worst < 1e-4, f"{pooling}/{head}: worst relative error {worst}"


class TestPrecision:
    @pytest.mark.parametrize("head", ["mlp", "kan"])
    def test_f32_and_f64_models_keep_their_dtype_in_one_process(self, head):
        config = config_for("fuzzy", head, seed=5)
        models = {dtype: build(config, dtype=dtype) for dtype in (np.float32, np.float64)}
        for (name, p32), (_, p64) in zip(models[np.float32].parameters(), models[np.float64].parameters()):
            assert np.array_equal(p32.data, p64.data.astype(np.float32)), name  # the same draws, cast once
        images = np.random.default_rng(4).uniform(0, 1, (3, 1, 32, 32))
        labels = np.array([0, 3, 9])
        for dtype, model in models.items():
            optimizer = AdamW(model.parameters())
            logits = model.forward(images)
            assert logits.data.dtype == dtype
            T.softmax_cross_entropy(logits, labels).backward()
            optimizer.step()
            for name, p in model.parameters():
                assert p.data.dtype == p.grad.dtype == dtype, name


    def test_tensor_batch_of_another_dtype_is_rejected(self):
        model = build(config_for("fuzzy", "kan", seed=5), dtype=np.float32)
        images = np.random.default_rng(4).uniform(0, 1, (2, 1, 32, 32))
        with pytest.raises(ValueError, match="batch dtype float64 is not the parameters' dtype float32"):
            model.forward(T.Tensor(images))
        assert model.forward(T.Tensor(images.astype(np.float32))).data.dtype == np.float32
        assert model.forward(images).data.dtype == np.float32  # a raw batch is cast


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config = config_for("fuzzy", "kan", seed=9)
        model = build(config)
        path = tmp_path / "model.fkan"
        model.save(path)
        loaded = Model.load(path, config)
        for (name, ta), (_, tb) in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(ta.data, tb.data), name
        x = np.random.default_rng(5).uniform(0, 1, (2, 1, 32, 32))
        np.testing.assert_array_equal(model.forward(x).data, loaded.forward(x).data)

    def test_f32_round_trip(self, tmp_path):
        config = config_for("fuzzy", "kan", seed=9)
        model = build(config, dtype=np.float32)
        path = tmp_path / "model.fkan"
        model.save(path)
        loaded = Model.load(path, config, dtype=np.float32)
        for (name, ta), (_, tb) in zip(model.parameters(), loaded.parameters()):
            assert ta.data.dtype == tb.data.dtype == np.float32, name
            assert np.array_equal(ta.data, tb.data), name

    def test_digest_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.fkan"
        build(config_for("fuzzy", "kan")).save(path)
        with pytest.raises(ValueError, match="digest"):
            Model.load(path, config_for("max", "kan"))

    def test_old_version_rejected(self, tmp_path):
        path = tmp_path / "model.fkan"
        build(config_for()).save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            Model.load(path, config_for())

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.fkan"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="checkpoint"):
            Model.load(path, config_for())

    def saved_with(self, tmp_path, edit):
        """A real checkpoint whose parameter list `edit` rewrote before saving."""
        config = config_for("max", "mlp", seed=3)
        model = build(config)
        items = model.parameters()
        model.parameters = lambda: edit(items)
        path = tmp_path / "model.fkan"
        model.save(path)
        return path, config

    def test_missing_tensor_rejected(self, tmp_path):
        path, config = self.saved_with(tmp_path, lambda items: items[:-1])
        with pytest.raises(ValueError, match="lacks tensors") as exc:
            Model.load(path, config)
        assert str(path) in str(exc.value)

    def test_duplicate_tensor_rejected(self, tmp_path):
        path, config = self.saved_with(tmp_path, lambda items: items + items[:1])
        with pytest.raises(ValueError, match="duplicate tensor") as exc:
            Model.load(path, config)
        assert str(path) in str(exc.value)

    def test_truncated_file_rejected(self, tmp_path):
        path, config = self.saved_with(tmp_path, lambda items: items)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="truncated") as exc:
            Model.load(path, config)
        assert str(path) in str(exc.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, config = self.saved_with(tmp_path, lambda items: items)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing bytes") as exc:
            Model.load(path, config)
        assert str(path) in str(exc.value)

    def test_unexpected_tensor_rejected(self, tmp_path):
        path, config = self.saved_with(tmp_path, lambda items: items)
        raw = path.read_bytes()
        assert raw.count(b"conv1.bias") == 1
        path.write_bytes(raw.replace(b"conv1.bias", b"conv9.bias"))
        with pytest.raises(ValueError, match="unexpected tensor 'conv9.bias'") as exc:
            Model.load(path, config)
        assert str(path) in str(exc.value)

    def test_wrong_shape_rejected(self, tmp_path):
        # the same number of values as conv1.weight's [6, 1, 5, 5], in another shape
        path, config = self.saved_with(
            tmp_path,
            lambda items: [(n, T.Tensor(t.data.reshape(1, 6, 5, 5)) if n == "conv1.weight" else t) for n, t in items],
        )
        with pytest.raises(ValueError, match=re.escape("tensor 'conv1.weight' shape (1, 6, 5, 5) != (6, 1, 5, 5)")) as exc:
            Model.load(path, config)
        assert str(path) in str(exc.value)

    def test_shape_checked_before_values_are_read(self, tmp_path):
        # conv1.weight's header claims 2^64 values, which a uint64 product wraps to 0
        path, config = self.saved_with(tmp_path, lambda items: items)
        raw = path.read_bytes()
        header = b"conv1.weight" + struct.pack("<5I", 4, 6, 1, 5, 5)
        assert raw.count(header) == 1
        path.write_bytes(raw.replace(header, b"conv1.weight" + struct.pack("<4I", 3, 2**22, 2**21, 2**21)))
        with pytest.raises(ValueError, match=re.escape("tensor 'conv1.weight' shape (4194304, 2097152, 2097152) != (6, 1, 5, 5)")) as exc:
            Model.load(path, config)
        assert str(path) in str(exc.value)

    def test_name_not_utf8_rejected(self, tmp_path):
        path, config = self.saved_with(tmp_path, lambda items: items)
        raw = path.read_bytes()
        assert raw.count(b"conv1.bias") == 1
        path.write_bytes(raw.replace(b"conv1.bias", b"conv1.\xff\xfe\xfd\xfc"))
        with pytest.raises(ValueError, match="tensor name at byte [0-9]+ is not UTF-8") as exc:
            Model.load(path, config)
        assert str(path) in str(exc.value)

    def test_intact_file_loads(self, tmp_path):
        path, config = self.saved_with(tmp_path, lambda items: items)
        Model.load(path, config)
