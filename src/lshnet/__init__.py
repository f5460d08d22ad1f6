"""LSH-sampled sparse neural network training and inference for wide output layers."""

from .autotune import AutotuneConfig, AutotunePlan, autotune, plan_cost_ratio
from .data import XcDataset, load_xc, parse_xc, serialize_xc, synth_clustered
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    InfeasibleSparsity,
    LshnetError,
)
from .layers import (
    DENSE_INFER,
    SPARSE_INFER,
    TRAIN,
    ActiveSet,
    SparseLinearLayer,
    softmax_ce_loss_grad,
)
from .lsh import NeuronIndex, SrpHasher
from .model import Model
from .training import (
    SparseAdamState,
    TrainConfig,
    Trainer,
    evaluate,
    lazy_adam_update,
    predict,
    train,
)
from .vectors import DenseVector, SparseVector, densify, sparse_dense_dot, sparsify

__version__ = "0.1.0"
