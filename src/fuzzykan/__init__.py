"""Convolutional networks with Type-1 fuzzy pooling and KAN heads on a numpy autodiff core."""

from .tensor import (
    Tensor,
    activate,
    conv2d,
    elementwise,
    flatten,
    matmul,
    reshape,
    set_debug_checks,
    set_default_dtype,
    softmax_cross_entropy,
)
from .pooling import (
    MembershipParams,
    PoolConfig,
    algebraic_sum_score,
    defuzzify_cog,
    fuzzify,
    fuzzy_window_reference,
    membership,
    pool,
    select_fuzzy_patch,
)
from .kan import KanLayerParams, SplineGrid, bspline_basis, kan_init, kan_layer_forward, kan_stack_forward
from .model import Model, ModelConfig, build, build_lenet
from .data import BatchIterator, Dataset, batches, load_cifar10, load_dataset, load_idx, pad_to_32
from .training import AdamW, ConfusionMatrix, EpochMetrics, evaluate, train

__version__ = "0.1.0"
