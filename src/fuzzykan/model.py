"""Assembly of the six compared architectures.

A LeNet backbone (conv 6@5x5 -> act -> pool -> conv 16@5x5 -> act -> pool ->
flatten 400) is combined with one of three pooling kinds and either an MLP
head (400-120-84-10) or a KAN head (400-84-10).  Pooling is parameter-free,
so all three variants of a head share the same parameter count.
"""

from __future__ import annotations

import hashlib
import json
import struct
import types
import typing
from dataclasses import asdict, dataclass, field, is_dataclass, replace

import numpy as np

from . import tensor as T
from .kan import KanLayerParams, SplineGrid, kan_init, kan_stack_forward
from .pooling import PoolConfig, pool

CHECKPOINT_MAGIC = b"FKAN"
CHECKPOINT_VERSION = 2

DATASET_CHANNELS = {"mnist": 1, "fashion-mnist": 1, "cifar10": 3}
DEFAULT_MLP_WIDTHS = (120, 84)
DEFAULT_KAN_WIDTHS = (84,)


@dataclass(frozen=True)
class ModelConfig:
    dataset: str = "mnist"
    pooling: PoolConfig = field(default_factory=PoolConfig)
    head: str = "mlp"
    conv_activation: str = "relu"
    kan_grid: SplineGrid = field(default_factory=SplineGrid)
    head_widths: tuple[int, ...] | None = None
    seed: int = 42

    def __post_init__(self):
        if self.dataset not in DATASET_CHANNELS:
            raise ValueError(f"dataset must be one of {tuple(DATASET_CHANNELS)}, got {self.dataset!r}")
        if self.head not in ("mlp", "kan"):
            raise ValueError(f"head must be 'mlp' or 'kan', got {self.head!r}")
        if self.conv_activation not in ("relu", "tanh"):
            raise ValueError(f"conv activation must be relu or tanh, got {self.conv_activation!r}")

    @property
    def in_channels(self) -> int:
        return DATASET_CHANNELS[self.dataset]

    def resolved_head_widths(self) -> tuple:
        if self.head_widths is not None:
            return tuple(self.head_widths)
        return DEFAULT_MLP_WIDTHS if self.head == "mlp" else DEFAULT_KAN_WIDTHS


config_to_dict = asdict  # the JSON form of any config tree; config_update reads it back


def config_update(config, changes: dict, path: str = ""):
    """Return ``config`` with the JSON-typed ``changes`` applied.

    A nested dict updates the nested config of the same name.  An unknown
    key or a value of the wrong JSON type raises ``ValueError`` naming the
    dotted key; range checks are left to each config's ``__post_init__``.
    """
    if not isinstance(changes, dict):
        raise ValueError(f"{path or 'config'} must be an object, got {changes!r}")
    hints = typing.get_type_hints(type(config))
    updates = {}
    for key, value in changes.items():
        name = f"{path}.{key}" if path else key
        if key not in hints:
            raise ValueError(f"unknown config key {name!r}")
        if is_dataclass(hints[key]):
            updates[key] = config_update(getattr(config, key), value, name)
        else:
            updates[key] = _json_leaf(name, hints[key], value)
    return replace(config, **updates)


def _json_leaf(name, hint, value):
    """Check one leaf value against its field annotation; ints widen to float."""
    for option in typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,):
        if typing.get_origin(option) is tuple and isinstance(value, (list, tuple)):
            if all(type(v) is typing.get_args(option)[0] for v in value):
                return tuple(value)
        elif option is float and type(value) in (int, float):
            return float(value)
        elif type(value) is option:
            return value
    raise ValueError(f"{name} must be {getattr(hint, '__name__', hint)}, got {value!r}")


def config_digest(config: ModelConfig) -> bytes:
    payload = json.dumps(config_to_dict(config), sort_keys=True).encode()
    return hashlib.sha256(payload).digest()


def _glorot_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


class Model:
    """An ordered parameter set plus the forward function they define."""

    def __init__(self, config: ModelConfig, params: dict, kan_layers: list, arch: dict):
        self.config = config
        self.params = params  # name -> Tensor, insertion ordered
        self.kan_layers = kan_layers
        self.arch = arch

    def parameters(self):
        return list(self.params.items())

    @property
    def parameter_count(self) -> int:
        return sum(t.size for _, t in self.parameters())

    def zero_grad(self):
        for _, t in self.parameters():
            t.zero_grad()

    def forward(self, batch) -> T.Tensor:
        x = batch if isinstance(batch, T.Tensor) else T.Tensor(batch)
        expected = (self.arch["in_channels"], self.arch["input_hw"], self.arch["input_hw"])
        if x.ndim != 4 or x.shape[1:] != expected:
            raise ValueError(f"expected input [N,{expected[0]},{expected[1]},{expected[2]}], got {x.shape}")
        act = self.config.conv_activation
        p = self.params

        h = T.conv2d(x, p["conv1.weight"], p["conv1.bias"])
        h = T.activate(act, h)
        h = pool(h, self.config.pooling)
        h = T.conv2d(h, p["conv2.weight"], p["conv2.bias"])
        h = T.activate(act, h)
        h = pool(h, self.config.pooling)
        h = T.flatten(h)

        if self.config.head == "mlp":
            n_hidden = len(self.config.resolved_head_widths())
            for i in range(n_hidden + 1):
                h = T.bias_add(h @ p[f"fc{i}.weight"], p[f"fc{i}.bias"])
                if i < n_hidden:
                    h = T.activate(act, h)
            return h
        return kan_stack_forward(h, self.kan_layers)

    # -- checkpointing ---------------------------------------------------

    def save(self, path):
        digest = config_digest(self.config)
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(struct.pack("<I", len(digest)))
            f.write(digest)
            items = self.parameters()
            f.write(struct.pack("<I", len(items)))
            for name, t in items:
                encoded = name.encode()
                f.write(struct.pack("<I", len(encoded)))
                f.write(encoded)
                f.write(struct.pack("<I", t.ndim))
                f.write(struct.pack(f"<{t.ndim}I", *t.shape))
                f.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path, config: ModelConfig) -> "Model":
        """Read a checkpoint written by ``save``; every tensor must appear exactly once."""
        model = build(config)
        with open(path, "rb") as f:
            raw = f.read()
        pos = 0

        def take(size):
            nonlocal pos
            if pos + size > len(raw):
                raise ValueError(f"{path}: checkpoint truncated at byte {len(raw)}")
            pos += size
            return raw[pos - size : pos]

        def u32(count=1):
            return struct.unpack(f"<{count}I", take(4 * count))

        if take(4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a FKAN checkpoint")
        (version,) = u32()
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (dlen,) = u32()
        if take(dlen) != config_digest(config):
            raise ValueError(f"{path}: checkpoint config digest does not match")
        (count,) = u32()
        loaded = set()
        for _ in range(count):
            (nlen,) = u32()
            name = take(nlen).decode()
            (rank,) = u32()
            dims = u32(rank)
            values = np.frombuffer(take(8 * int(np.prod(dims))), dtype="<f8").reshape(dims)
            if name not in model.params:
                raise ValueError(f"{path}: unexpected tensor {name!r}")
            if name in loaded:
                raise ValueError(f"{path}: duplicate tensor {name!r}")
            target = model.params[name]
            if target.shape != dims:
                raise ValueError(f"{path}: tensor {name!r} shape {dims} != {target.shape}")
            target.data = values.astype(target.data.dtype)
            loaded.add(name)
        missing = [name for name in model.params if name not in loaded]
        if missing:
            raise ValueError(f"{path}: checkpoint lacks tensors {missing}")
        if pos != len(raw):
            raise ValueError(f"{path}: {len(raw) - pos} trailing bytes after the last tensor")
        return model


def build_lenet(
    config: ModelConfig,
    input_hw: int = 32,
    conv_channels: tuple = (6, 16),
    conv_kernel: int = 5,
    n_classes: int = 10,
) -> Model:
    """Construct a model; the non-default arguments exist for tiny test builds."""
    rng = np.random.default_rng(config.seed)
    c_in = config.in_channels
    f1, f2 = conv_channels
    k1, k2 = (conv_kernel, conv_kernel) if isinstance(conv_kernel, int) else conv_kernel
    pk, ps = config.pooling.k, config.pooling.stride

    def after_pool(hw, k):
        hw = hw - k + 1
        if hw < pk or (hw - pk) % ps != 0:
            raise ValueError(f"pooling {pk}/{ps} does not tile feature map of size {hw}")
        return (hw - pk) // ps + 1

    hw1 = after_pool(input_hw, k1)
    hw2 = after_pool(hw1, k2)
    flat = f2 * hw2 * hw2

    params: dict[str, T.Tensor] = {}

    def param(name, values):
        t = T.Tensor(values, requires_grad=True)
        params[name] = t
        return t

    param("conv1.weight", _glorot_uniform(rng, (f1, c_in, k1, k1), c_in * k1 * k1, f1 * k1 * k1))
    param("conv1.bias", np.zeros(f1))
    param("conv2.weight", _glorot_uniform(rng, (f2, f1, k2, k2), f1 * k2 * k2, f2 * k2 * k2))
    param("conv2.bias", np.zeros(f2))

    kan_layers: list[KanLayerParams] = []
    widths = (flat,) + config.resolved_head_widths() + (n_classes,)
    if config.head == "mlp":
        for i, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
            param(f"fc{i}.weight", _glorot_uniform(rng, (n_in, n_out), n_in, n_out))
            param(f"fc{i}.bias", np.zeros(n_out))
    else:
        for i, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
            layer = kan_init(n_in, n_out, config.kan_grid, seed=rng.integers(2**31))
            params[f"kan{i}.coeffs"] = layer.coeffs
            params[f"kan{i}.w_b"] = layer.w_b
            params[f"kan{i}.w_s"] = layer.w_s
            kan_layers.append(layer)

    arch = {
        "input_hw": input_hw,
        "in_channels": c_in,
        "conv_channels": conv_channels,
        "conv_kernel": (k1, k2),
        "flatten_width": flat,
        "n_classes": n_classes,
    }
    return Model(config, params, kan_layers, arch)


def build(config: ModelConfig) -> Model:
    return build_lenet(config)
