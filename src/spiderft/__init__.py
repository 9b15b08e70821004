"""Selective fine-tuning via importance-discrepancy masking.

The library compares two per-parameter importance profiles, one from
pretrained weight magnitudes and one from gradients accumulated during
fine-tuning, and merges each optimizer step back toward the pretrained
weights wherever the fine-tuning signal does not dominate.  A synthetic
rotated-mixture benchmark, counterpart baselines, checkpoint tooling,
and a CLI round out the package.
"""

from .benchmark import (
    MetricsReport,
    TaskSpec,
    default_suite,
    default_target,
    evaluate,
    generate_task,
    h_average,
    measure_pid_direction,
    metrics_csv,
    o_average,
    pretrain,
    run_experiment,
    source_average,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, config_from_dict, load_config
from .errors import (
    AlignmentError,
    ConfigError,
    CorruptCheckpointError,
    DimensionError,
    DomainError,
    FormatError,
    SpiderftError,
    StaleCacheError,
    UninitializedError,
    ZeroNormError,
)
from .importance import (
    GradAccumulator,
    accumulate_gradient,
    generalization_importance,
    pid,
    pid_per_tensor,
    specialization_importance,
)
from .masking import (
    UpdateMask,
    binary_mask,
    dare_mask_and_rescale,
    merge,
    random_half_mask,
    rescale_mask,
    select_mask,
    weighted_mask,
)
from .tensors import FlatTensor, TensorMap, cosine_similarity, sigmoid, zscore
from .trainer import (
    Batch,
    RunLog,
    ToyModel,
    TrainConfig,
    backward,
    batches_of,
    build_model,
    finetune_baseline,
    finetune_spider,
    forward,
    set_trainable_tail,
    sgd_step,
)

__version__ = "0.1.0"
