"""Assembly of the six compared architectures.

A LeNet backbone (conv 6@5x5 -> act -> pool -> conv 16@5x5 -> act -> pool ->
flatten 400) is combined with one of three pooling kinds and either an MLP
head (400-120-84-10) or a KAN head (400-84-10).  Pooling is parameter-free,
so all three variants of a head share the same parameter count.  ``build``
writes the architecture down once, as ``Model.stages``: an ordered list of
named ``Tensor -> Tensor`` steps that ``Model.forward`` runs in turn.
"""

from __future__ import annotations

import hashlib
import json
import struct
import types
import typing
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from functools import partial

import numpy as np

from . import tensor as T
from .kan import KanLayerParams, SplineGrid, kan_init, kan_layer_forward
from .pooling import PoolConfig, pool

CHECKPOINT_MAGIC = b"FKAN"
CHECKPOINT_VERSION = 2

DATASET_CHANNELS = {"mnist": 1, "fashion-mnist": 1, "cifar10": 3}
HEADS = ("mlp", "kan")
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
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}, got {self.head!r}")
        if self.conv_activation not in ("relu", "tanh"):
            raise ValueError(f"conv activation must be relu or tanh, got {self.conv_activation!r}")
        if self.head_widths is not None and any(w < 1 for w in self.head_widths):
            raise ValueError(f"head_widths must all be >= 1, got {self.head_widths!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")

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
    """An ordered parameter set plus the named stages its forward runs."""

    def __init__(self, config: ModelConfig, params: dict, kan_layers: list, arch: dict, stages: list):
        self.config = config
        self.params = params  # name -> Tensor, insertion ordered
        self.kan_layers = kan_layers
        self.arch = arch  # in_channels, input_hw, n_classes
        self.stages = stages  # (name, Tensor -> Tensor), in forward order

    def parameters(self):
        return list(self.params.items())

    @property
    def parameter_count(self) -> int:
        return sum(t.size for _, t in self.parameters())

    def forward(self, batch) -> T.Tensor:
        """Run the stages; a raw batch is first cast to the parameters' dtype, and a ``Tensor`` must have it."""
        dtype = next(iter(self.params.values())).data.dtype
        h = batch if isinstance(batch, T.Tensor) else T.Tensor(np.asarray(batch, dtype=dtype))
        if h.data.dtype != dtype:
            raise ValueError(f"batch dtype {h.data.dtype} is not the parameters' dtype {dtype}")
        expected = (self.arch["in_channels"], self.arch["input_hw"], self.arch["input_hw"])
        if h.ndim != 4 or h.shape[1:] != expected:
            raise ValueError(f"expected input [N,{expected[0]},{expected[1]},{expected[2]}], got {h.shape}")
        for _, stage in self.stages:
            h = stage(h)
        return h

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
    def load(cls, path, config: ModelConfig, dtype=np.float64) -> "Model":
        """Read a checkpoint written by ``save`` into a ``dtype`` model; every tensor must appear exactly once."""
        model = build(config, dtype=dtype)
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
            try:
                name = take(nlen).decode()
            except UnicodeDecodeError:
                raise ValueError(f"{path}: tensor name at byte {pos - nlen} is not UTF-8") from None
            (rank,) = u32()
            dims = u32(rank)
            if name not in model.params:
                raise ValueError(f"{path}: unexpected tensor {name!r}")
            if name in loaded:
                raise ValueError(f"{path}: duplicate tensor {name!r}")
            target = model.params[name]
            if target.shape != dims:
                raise ValueError(f"{path}: tensor {name!r} shape {dims} != {target.shape}")
            values = np.frombuffer(take(8 * target.size), dtype="<f8").reshape(dims)
            target.data = values.astype(target.data.dtype)
            loaded.add(name)
        missing = [name for name in model.params if name not in loaded]
        if missing:
            raise ValueError(f"{path}: checkpoint lacks tensors {missing}")
        if pos != len(raw):
            raise ValueError(f"{path}: {len(raw) - pos} trailing bytes after the last tensor")
        return model


def _dense(x, weight, bias):
    return T.bias_add(x @ weight, bias)


def build(
    config: ModelConfig,
    input_hw: int = 32,
    conv_channels: tuple = (6, 16),
    conv_kernel: tuple = (5, 5),
    n_classes: int = 10,
    dtype=np.float64,
) -> Model:
    """Construct a model with ``dtype`` (float64 or float32) parameters; the sizes are for tiny test builds."""
    rng = np.random.default_rng(config.seed)
    c_in = config.in_channels
    f1, f2 = conv_channels
    k1, k2 = conv_kernel
    pooling = (config.pooling.k, config.pooling.stride)
    hw = input_hw
    for k, stride in ((k1, 1), pooling, (k2, 1), pooling):
        hw = T.windows(np.empty((0, 0, hw, hw)), k, stride).shape[2]  # the stage's own tiling check
    flat = f2 * hw * hw

    params: dict[str, T.Tensor] = {}

    def param(name, values):
        t = T.Tensor(values, requires_grad=True)
        params[name] = t
        return t

    act = partial(T.activate, config.conv_activation)
    # binds this module's ``pool`` when the model is built, so a substitute set before then is used
    pool_stage = partial(pool, config=config.pooling)
    stages = []
    for i, (n_in, n_out, k) in enumerate(((c_in, f1, k1), (f1, f2, k2)), start=1):
        weight = param(f"conv{i}.weight", _glorot_uniform(rng, (n_out, n_in, k, k), n_in * k * k, n_out * k * k))
        bias = param(f"conv{i}.bias", np.zeros(n_out))
        stages += [
            (f"conv{i}", partial(T.conv2d, kernels=weight, bias=bias)),
            (f"conv{i}.act", act),
            (f"pool{i}", pool_stage),
        ]
    stages.append(("flatten", T.flatten))

    kan_layers: list[KanLayerParams] = []
    widths = (flat,) + config.resolved_head_widths() + (n_classes,)
    for i, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
        if config.head == "mlp":
            weight = param(f"fc{i}.weight", _glorot_uniform(rng, (n_in, n_out), n_in, n_out))
            bias = param(f"fc{i}.bias", np.zeros(n_out))
            stages.append((f"fc{i}", partial(_dense, weight=weight, bias=bias)))
            if i < len(widths) - 2:
                stages.append((f"fc{i}.act", act))
        else:
            layer = kan_init(n_in, n_out, config.kan_grid, seed=rng.integers(2**31))
            params[f"kan{i}.coeffs"] = layer.coeffs
            params[f"kan{i}.w_b"] = layer.w_b
            params[f"kan{i}.w_s"] = layer.w_s
            kan_layers.append(layer)
            stages.append((f"kan{i}", partial(kan_layer_forward, params=layer)))

    for t in params.values():
        t.data = t.data.astype(dtype, copy=False)
    arch = {"in_channels": c_in, "input_hw": input_hw, "n_classes": n_classes}
    return Model(config, params, kan_layers, arch, stages)
