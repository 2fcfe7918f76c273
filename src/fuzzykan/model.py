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
CHECKPOINT_VERSION = 3
_PREFIX = 44  # magic, version, SHA-256, header length

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


def _glorot_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


class Model:
    """One parameter store plus the named stages its forward runs."""

    def __init__(self, config: ModelConfig, store: T.ParameterStore, kan_layers: list, arch: dict, stages: list):
        self.config = config
        self._store = store  # [(name, Tensor)] in build order, views of store.values
        self.params = dict(store)  # name -> Tensor
        self.kan_layers = kan_layers
        self.arch = arch  # in_channels, input_hw, n_classes
        self.stages = stages  # (name, Tensor -> Tensor), in forward order

    def parameters(self) -> T.ParameterStore:
        return self._store

    @property
    def parameter_count(self) -> int:
        return self.parameters().values.size

    def forward(self, batch) -> T.Tensor:
        """Run the stages; a raw batch is first cast to the parameters' dtype, and a ``Tensor`` must have it."""
        dtype = self.parameters().values.dtype
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
        """Write one self-describing file, so that ``Model.load(path)`` needs nothing else.

        The ``FKAN`` magic, a u32 version, the SHA-256 of the rest, a u32 length
        and a JSON header ``{"config", "dtype", "tensors": [[name, shape], ...]}``;
        then ``parameters().values``, little-endian in that dtype.  A rebound parameter raises ``ValueError``.
        """
        store = self.parameters()
        store.check()
        stored = store.values.dtype.newbyteorder("<")
        tensors = [[name, list(t.shape)] for name, t in store]
        header = json.dumps({"config": asdict(self.config), "dtype": stored.name, "tensors": tensors}).encode()
        body = struct.pack("<I", len(header)) + header + store.values.astype(stored).tobytes()
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION) + hashlib.sha256(body).digest() + body)

    @classmethod
    def load(cls, path) -> "Model":
        """Build the model a ``save`` file describes, in its dtype, and copy the payload into its ``parameters().values``.

        Any other file, a version 1 or 2 checkpoint too, raises ``ValueError`` naming ``path``.
        """
        with open(path, "rb") as f:
            raw = f.read()
        if len(raw) < _PREFIX or raw[:4] != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a FKAN checkpoint")
        (version,) = struct.unpack_from("<I", raw, 4)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: checkpoint version {version} is not {CHECKPOINT_VERSION}; re-run train")
        if hashlib.sha256(raw[40:]).digest() != raw[8:40]:
            raise ValueError(f"{path}: checkpoint digest does not match its contents")
        (size,) = struct.unpack_from("<I", raw, 40)
        try:
            header = json.loads(raw[_PREFIX : _PREFIX + size].decode())
            if not isinstance(header, dict) or sorted(header) != ["config", "dtype", "tensors"]:
                raise ValueError("must be an object with the keys config, dtype and tensors")
            if header["dtype"] not in ("float32", "float64"):
                raise ValueError(f"dtype must be float32 or float64, got {header['dtype']!r}")
            model = build(config_update(ModelConfig(), header["config"]), dtype=header["dtype"])
        except ValueError as e:
            raise ValueError(f"{path}: checkpoint header: {e}") from None
        tensors = [[name, list(t.shape)] for name, t in model.parameters()]
        if header["tensors"] != tensors:
            raise ValueError(f"{path}: checkpoint tensors {header['tensors']} are not the model's {tensors}")
        stored, payload = np.dtype(header["dtype"]).newbyteorder("<"), memoryview(raw)[_PREFIX + size :]
        if len(payload) != model.parameter_count * stored.itemsize:
            raise ValueError(f"{path}: {len(payload)} tensor bytes, not {model.parameter_count * stored.itemsize}")
        model.parameters().values[...] = np.frombuffer(payload, stored)
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
    """Construct a model with ``dtype`` (float64 or float32) parameters; the sizes are for tiny test builds.

    A config that cannot be built raises ``ValueError`` starting with the
    field at fault: ``pooling`` that does not tile, or ``head_widths`` too
    large to allocate, a line that also names ``kan_grid`` for a KAN head.
    """
    rng = np.random.default_rng(config.seed)
    c_in = config.in_channels
    f1, f2 = conv_channels
    k1, k2 = conv_kernel
    pooling = (config.pooling.k, config.pooling.stride)
    hw = input_hw
    try:
        for k, stride in ((k1, 1), pooling, (k2, 1), pooling):
            hw = T.windows(np.empty((0, 0, hw, hw)), k, stride).shape[2]  # the stage's own tiling check
    except ValueError as e:
        raise ValueError(f"pooling: {e}") from None
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
    try:
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
    except (MemoryError, ValueError) as e:  # numpy's errors for an array it cannot allocate or index
        # a KAN layer holds out x in x num_basis coefficients, so its grid shares the blame
        grid = f"kan_grid gives {config.kan_grid.num_basis} basis functions per edge: " if config.head == "kan" else ""
        raise ValueError(f"head_widths: {list(widths[1:-1])} cannot be allocated: {grid}{e}") from None

    arch = {"in_channels": c_in, "input_hw": input_hw, "n_classes": n_classes}
    return Model(config, T.ParameterStore(params.items(), dtype), kan_layers, arch, stages)
