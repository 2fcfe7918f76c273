import hashlib
import json
import re
import struct
from dataclasses import asdict

import numpy as np
import pytest

import fuzzykan.checks as checks
import fuzzykan.tensor as T
from fuzzykan.checks import gradient_check, tiny_fuzzy_kan_setup
from fuzzykan.model import (
    Model,
    ModelConfig,
    build,
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

    def test_invalid_conv_activation(self):
        with pytest.raises(ValueError, match="conv activation must be relu or tanh, got 'sigmoid'"):
            ModelConfig(conv_activation="sigmoid")

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            ModelConfig(seed=-1)
        assert ModelConfig(seed=0).seed == 0

    def test_head_widths_below_1(self):
        for widths in ((-3,), (84, 0)):
            with pytest.raises(ValueError, match=r"head_widths must all be >= 1, got \(.*\)"):
                ModelConfig(head_widths=widths)
        assert build(config_for(head_widths=())).stages[-1][0] == "fc0"  # no hidden layer

    # each first head layer needs petabytes or more than numpy can index, so
    # its allocation fails outright and no memory is touched
    @pytest.mark.parametrize("width", [10**12, 2**62, 10**30])
    @pytest.mark.parametrize("head", ["mlp", "kan"])
    def test_head_widths_too_large_to_allocate(self, head, width):
        with pytest.raises(ValueError, match=re.escape(f"head_widths: [{width}] cannot be allocated: ")):
            build(config_for(head=head, head_widths=(width,)))

    def test_default_widths(self):
        assert config_for(head="mlp").resolved_head_widths() == (120, 84)
        assert config_for(head="kan").resolved_head_widths() == (84,)

    def test_round_trip(self):
        config = config_for("fuzzy", "kan", seed=3, head_widths=(32,))
        assert config_update(ModelConfig(), asdict(config)) == config
        assert config_update(ModelConfig(), json.loads(json.dumps(asdict(config)))) == config

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

    def test_digest_sensitivity(self, tmp_path):
        # pooling has no parameters, so the two kinds save the same values and differ only in the config
        files = []
        for i, kind in enumerate(("fuzzy", "fuzzy", "max")):
            build(config_for(kind, "kan")).save(tmp_path / f"{i}.fkan")
            files.append((tmp_path / f"{i}.fkan").read_bytes())
        assert files[0] == files[1]
        assert files[0][8:40] != files[2][8:40]  # the SHA-256


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


class TestParameterStore:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("head", ["mlp", "kan"])
    def test_parameters_are_views_of_one_store(self, head, dtype):
        model = build(config_for("fuzzy", head, seed=5), dtype=dtype)
        store = model.parameters()
        assert model.parameters() is store and list(model.params.items()) == store
        assert store.values.dtype == store.grads.dtype == dtype and not store.grads.any()
        assert store.values.flags.c_contiguous and store.grads.flags.c_contiguous
        assert model.parameter_count == store.values.size == store.grads.size
        start = 0
        for name, p in store:  # each view starts where the one before it ends, in parameters() order
            for view, flat in ((p.data, store.values), (p.grad, store.grads)):
                assert view.dtype == dtype and view.flags.c_contiguous and view.flags.writeable, name
                assert view.ctypes.data == flat.ctypes.data + start * flat.itemsize, name
            start += p.size
        assert start == store.values.size

    def test_optimizer_rebinds_nothing(self):
        model = build(config_for("fuzzy", "kan", seed=5))
        views = [(p.data, p.grad) for _, p in model.parameters()]
        optimizer = AdamW(model.parameters())
        assert optimizer.values is model.parameters().values and optimizer.grads is model.parameters().grads
        T.softmax_cross_entropy(model.forward(np.random.default_rng(4).uniform(0, 1, (2, 1, 32, 32))), [1, 7]).backward()
        optimizer.step()
        for (name, p), (data, grad) in zip(model.parameters(), views):
            assert p.data is data and p.grad is grad, name

    def test_gradient_check_then_optimizer_steps(self):
        # gradient_check zeroes every gradient; dropping a view instead would make the step refuse it
        model, images, labels = tiny_fuzzy_kan_setup()
        optimizer = AdamW(model.parameters())
        x = T.Tensor(images, requires_grad=True)
        tensors = [t for _, t in model.parameters()] + [x]
        assert gradient_check(lambda: T.softmax_cross_entropy(model.forward(x), labels), tensors) < checks.GRAD_TOL
        for _ in range(2):
            optimizer.zero_grad()
            T.softmax_cross_entropy(model.forward(images), labels).backward()
            optimizer.step()
        assert optimizer.t == 2


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
        assert worst < checks.GRAD_TOL, f"{pooling}/{head}: worst relative error {worst}"

    def test_setup_gives_up_when_no_seed_is_smooth(self, monkeypatch):
        scanned = []

        def refuse(model, images):
            scanned.append(model.config.seed)
            return False

        monkeypatch.setattr(checks, "_setup_is_smooth", refuse)
        with pytest.raises(RuntimeError, match="no finite-difference-safe seed found"):
            tiny_fuzzy_kan_setup(seed=3)
        assert scanned == list(range(3, 203))  # 200 seeds from the one given, each tried once


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

    # float32 keeps 24 bits (u = 2^-24).  A logit sums up to 3,600 rounded
    # products per KAN output and 150 or 400 per conv output; the worst of
    # 60 builds (six datasets and poolings, five seeds, inputs in [0, 0.05]
    # and [0, 1]) measured 9.8e-7 of the logit scale, about 16 u.  2^-16 is
    # 256 u: room for sqrt(n) growth (sqrt(3,600) = 60), and far below a
    # stage run in half precision (u = 2^-11).
    F32_LOGIT_BOUND = 2.0**-16

    @pytest.mark.parametrize("pooling", ["max", "fuzzy"])
    @pytest.mark.parametrize("dataset", ["mnist", "cifar10"])
    def test_f32_kan_logits_are_within_the_bound_of_f64(self, dataset, pooling):
        config = config_for(pooling, "kan", seed=5, dataset=dataset)
        images = np.random.default_rng(6).uniform(0, 1, (4, config.in_channels, 32, 32))
        l64 = build(config).forward(images).data
        l32 = build(config, dtype=np.float32).forward(images).data
        assert l32.dtype == np.float32
        assert np.abs(l32 - l64).max() <= self.F32_LOGIT_BOUND * max(1.0, np.abs(l64).max())


    def test_tensor_batch_of_another_dtype_is_rejected(self):
        model = build(config_for("fuzzy", "kan", seed=5), dtype=np.float32)
        images = np.random.default_rng(4).uniform(0, 1, (2, 1, 32, 32))
        with pytest.raises(ValueError, match="batch dtype float64 is not the parameters' dtype float32"):
            model.forward(T.Tensor(images))
        assert model.forward(T.Tensor(images.astype(np.float32))).data.dtype == np.float32
        assert model.forward(images).data.dtype == np.float32  # a raw batch is cast


def reseal(path, header=None, payload=None):
    """Rewrite a checkpoint's header bytes and/or payload bytes under a fresh, valid digest."""
    raw = path.read_bytes()
    (size,) = struct.unpack_from("<I", raw, 40)
    header = raw[44 : 44 + size] if header is None else header
    payload = raw[44 + size :] if payload is None else payload
    body = struct.pack("<I", len(header)) + header + payload
    path.write_bytes(raw[:8] + hashlib.sha256(body).digest() + body)


def edit_header(path, edit):
    """Reseal a checkpoint after ``edit`` changed its decoded JSON header in place."""
    raw = path.read_bytes()
    (size,) = struct.unpack_from("<I", raw, 40)
    header = json.loads(raw[44 : 44 + size])
    edit(header)
    reseal(path, header=json.dumps(header).encode())


def rejected(path, message):
    """``Model.load(path)`` raises ValueError matching ``message``, naming the path."""
    with pytest.raises(ValueError, match=message) as exc:
        Model.load(path)
    assert str(exc.value).startswith(f"{path}: ")


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config = config_for("fuzzy", "kan", seed=9)
        model = build(config)
        model.parameters().values[...] = np.random.default_rng(1).normal(size=model.parameter_count)  # not the init
        path = tmp_path / "model.fkan"
        model.save(path)
        loaded = Model.load(path)
        assert loaded.config == config
        for (name, ta), (_, tb) in zip(model.parameters(), loaded.parameters()):
            assert ta.data.dtype == tb.data.dtype == np.float64, name
            assert ta.data.tobytes() == tb.data.tobytes(), name
            assert tb.data.flags.writeable and tb.data.flags.c_contiguous, name  # not a view of the file's bytes
        x = np.random.default_rng(5).uniform(0, 1, (2, 1, 32, 32))
        np.testing.assert_array_equal(model.forward(x).data, loaded.forward(x).data)

    def test_f32_round_trip(self, tmp_path):
        config = config_for("fuzzy", "kan", seed=9)
        model = build(config, dtype=np.float32)
        model.parameters().values[...] = np.random.default_rng(1).normal(size=model.parameter_count)  # not the init
        path = tmp_path / "model.fkan"
        model.save(path)
        loaded = Model.load(path)
        assert loaded.config == config
        for (name, ta), (_, tb) in zip(model.parameters(), loaded.parameters()):
            assert ta.data.dtype == tb.data.dtype == np.float32, name
            assert ta.data.tobytes() == tb.data.tobytes(), name
            assert tb.data.flags.writeable and tb.data.flags.c_contiguous, name
        build(config).save(tmp_path / "f64.fkan")
        f32_size, f64_size = path.stat().st_size, (tmp_path / "f64.fkan").stat().st_size
        assert f32_size - 4 * model.parameter_count == f64_size - 8 * model.parameter_count  # the same header

    def test_digest_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.fkan"
        build(config_for("max", "mlp", seed=3)).save(path)
        raw = path.read_bytes()
        for at in (40, 44, 60, len(raw) // 2, len(raw) - 1):  # the header length, the header, the values
            flipped = bytearray(raw)
            flipped[at] ^= 0x01
            path.write_bytes(bytes(flipped))
            rejected(path, "checkpoint digest does not match its contents")

    def test_old_version_rejected(self, tmp_path):
        path = tmp_path / "model.fkan"
        build(config_for()).save(path)
        raw = path.read_bytes()
        for version in (1, 2, 4):
            path.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
            rejected(path, f"checkpoint version {version} is not 3; re-run train")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.fkan"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        rejected(path, "not a FKAN checkpoint")
        build(config_for()).save(path)
        raw = path.read_bytes()
        for cut in (0, 3, 8, 40, 43):  # shorter than the magic, version, digest and header length
            path.write_bytes(raw[:cut])
            rejected(path, "not a FKAN checkpoint")

    def test_rebound_parameter_is_refused(self, tmp_path):
        # the payload is store.values, which no longer holds a rebound parameter's values
        model = build(config_for("max", "mlp", seed=3))
        model.params["fc1.bias"].data = np.ones(84)
        path = tmp_path / "model.fkan"
        with pytest.raises(ValueError, match="parameter 'fc1.bias' is no longer a view of its parameter store"):
            model.save(path)
        assert not path.exists()

    def saved_with(self, tmp_path, edit):
        """A real checkpoint whose header's [name, shape] list `edit` rewrote, resealed."""
        config = config_for("max", "mlp", seed=3)
        path = tmp_path / "model.fkan"
        build(config).save(path)
        edit_header(path, lambda header: header.__setitem__("tensors", edit(header["tensors"])))
        return path, config

    def test_missing_tensor_rejected(self, tmp_path):
        path, _ = self.saved_with(tmp_path, lambda items: items[:-1])
        rejected(path, r"checkpoint tensors \[.*\['fc2.weight', \[84, 10\]\]\] are not the model's \[.*'fc2.bias'")

    def test_duplicate_tensor_rejected(self, tmp_path):
        path, _ = self.saved_with(tmp_path, lambda items: items + items[:1])
        rejected(path, r"checkpoint tensors \[.*\['fc2.bias', \[10\]\], \['conv1.weight', \[6, 1, 5, 5\]\]\] are not")

    def test_truncated_file_rejected(self, tmp_path):
        path, _ = self.saved_with(tmp_path, lambda items: items)
        raw = path.read_bytes()
        for cut in (44, 100, len(raw) - 3):
            path.write_bytes(raw[:cut])
            rejected(path, "checkpoint digest does not match its contents")
        path.write_bytes(raw)
        (size,) = struct.unpack_from("<I", raw, 40)
        reseal(path, payload=raw[44 + size : -3])
        rejected(path, "493645 tensor bytes, not 493648")

    def test_trailing_bytes_rejected(self, tmp_path):
        path, _ = self.saved_with(tmp_path, lambda items: items)
        raw = path.read_bytes()
        path.write_bytes(raw + b"\x00")
        rejected(path, "checkpoint digest does not match its contents")
        path.write_bytes(raw)
        (size,) = struct.unpack_from("<I", raw, 40)
        reseal(path, payload=raw[44 + size :] + b"\x00")
        rejected(path, "493649 tensor bytes, not 493648")

    def test_unexpected_tensor_rejected(self, tmp_path):
        renamed = lambda items: [["conv9.bias" if n == "conv1.bias" else n, s] for n, s in items]  # noqa: E731
        path, _ = self.saved_with(tmp_path, renamed)
        rejected(path, r"checkpoint tensors \[\['conv1.weight', \[6, 1, 5, 5\]\], \['conv9.bias', \[6\]\]")
        path, _ = self.saved_with(tmp_path, lambda items: items + [["fc9.bias", [3]]])
        rejected(path, r"checkpoint tensors \[.*\['fc9.bias', \[3\]\]\] are not the model's")

    def test_wrong_shape_rejected(self, tmp_path):
        # the same number of values as conv1.weight's [6, 1, 5, 5], in another shape
        path, _ = self.saved_with(
            tmp_path,
            lambda items: [[n, [1, 6, 5, 5] if n == "conv1.weight" else s] for n, s in items],
        )
        rejected(path, re.escape("checkpoint tensors [['conv1.weight', [1, 6, 5, 5]], ['conv1.bias', [6]]"))

    def test_shape_checked_before_values_are_read(self, tmp_path):
        # conv1.weight's header claims 2^64 values, which a uint64 product wraps to 0
        path, _ = self.saved_with(tmp_path, lambda items: items)
        edit_header(path, lambda header: header["tensors"][0].__setitem__(1, [2**22, 2**21, 2**21]))
        rejected(path, re.escape("checkpoint tensors [['conv1.weight', [4194304, 2097152, 2097152]], ['conv1.bias'"))

    def test_name_not_utf8_rejected(self, tmp_path):
        path, _ = self.saved_with(tmp_path, lambda items: items)
        raw = path.read_bytes()
        (size,) = struct.unpack_from("<I", raw, 40)
        header = raw[44 : 44 + size]
        assert header.count(b"conv1.bias") == 1
        reseal(path, header=header.replace(b"conv1.bias", b"conv1.\xff\xfe\xfd\xfc"))
        rejected(path, "checkpoint header: 'utf-8' codec can't decode byte 0xff")
        reseal(path, header=header[:-1])
        rejected(path, "checkpoint header: Expecting")

    @pytest.mark.parametrize(
        "header, message",
        [
            ([], "checkpoint header: must be an object with the keys config, dtype and tensors"),
            ({"config": {}, "dtype": "float64"}, "must be an object with the keys config, dtype and tensors"),
            ({"config": {}, "dtype": "float64", "tensors": [], "x": 1}, "must be an object with the keys"),
        ],
    )
    def test_header_holds_config_dtype_and_tensors(self, tmp_path, header, message):
        path, _ = self.saved_with(tmp_path, lambda items: items)
        reseal(path, header=json.dumps(header).encode())
        rejected(path, message)

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"pooling": {"membership": {"rmax": 6}}}, "checkpoint header: unknown config key 'pooling.membership.rmax'"),
            ({"seed": "3"}, "checkpoint header: seed must be int, got '3'"),
            ({"head_widths": [120.0, 84]}, "checkpoint header: head_widths must be"),
            ("max", "checkpoint header: config must be an object"),
            ({"seed": -3}, "checkpoint header: seed must be >= 0, got -3"),
            ({"pooling": {"stride": 3}}, "checkpoint header: pooling: window 2x2 with stride 3 does not tile"),
            ({"head_widths": [10**12]}, r"checkpoint header: head_widths: \[1000000000000\] cannot be allocated"),
        ],
    )
    def test_bad_config_rejected(self, tmp_path, config, message):
        path, _ = self.saved_with(tmp_path, lambda items: items)
        edit_header(path, lambda header: header.__setitem__("config", config))
        rejected(path, message)

    @pytest.mark.parametrize("dtype", ["float16", "int64", "<f8", None, ["float64"]])
    def test_dtype_is_float32_or_float64(self, tmp_path, dtype):
        path, _ = self.saved_with(tmp_path, lambda items: items)
        edit_header(path, lambda header: header.__setitem__("dtype", dtype))
        rejected(path, re.escape(f"checkpoint header: dtype must be float32 or float64, got {dtype!r}"))

    def test_dtype_sets_the_value_width(self, tmp_path):
        # an f64 payload read as float32 is twice as long as the model's tensors
        path, _ = self.saved_with(tmp_path, lambda items: items)
        edit_header(path, lambda header: header.__setitem__("dtype", "float32"))
        rejected(path, "493648 tensor bytes, not 246824")

    def test_tiny_test_build_is_a_tensor_mismatch(self, tmp_path):
        path = tmp_path / "tiny.fkan"
        build(config_for("fuzzy", "kan"), input_hw=16, conv_channels=(2, 3)).save(path)
        rejected(path, r"checkpoint tensors \[\['conv1.weight', \[2, 1, 5, 5\]\].* are not the model's")

    def test_intact_file_loads(self, tmp_path):
        path, config = self.saved_with(tmp_path, lambda items: items)
        assert Model.load(path).config == config
