"""Synthetic continual-learning benchmark and evaluation metrics.

Tasks are Gaussian mixtures whose class means live on a ring in the first
two input dimensions; a task is a planar rotation of the shared base
layout.  The source suite covers a fan of small rotations, the target
task is rotated far outside that fan and its clusters are relabeled, so
fine-tuning on it pulls the model away from the source tasks.

Everything is deterministic: datasets are a pure function of their
TaskSpec, and experiment cells are seeded explicitly.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError, DomainError
from .methods import (  # METHOD_CHOICES: re-exported only for the frozen tests/test_golden.py
    CSV_HEADER,
    METHOD_CHOICES,
    SPIDER_METHODS,
    ZERO_SHOT,
)
from .tensors import (TensorMap, check_fields, int_at_least, require_int, require_matrix,
                      require_number, require_string)
from .trainer import (
    Batch,
    RunLog,
    ToyModel,
    TrainConfig,
    batches_of,
    build_model,
    finetune_baseline,
    finetune_spider,
    forward,
    set_trainable_tail,
    train,
)

DEFAULT_INPUT_DIM = 8
DEFAULT_CLASS_COUNT = 3
DEFAULT_SAMPLES = 400
EVAL_SAMPLES = 1500
PRETRAIN_EPOCHS = 10
DEFAULT_COVARIANCE = 0.35
_BASE_ANGLES_DEG = (0.0, 100.0, 205.0)  # irregular spacing: no rotation maps the ring onto itself
_BASE_RADIUS = 2.0
SOURCE_ROTATIONS_DEG = (0.0, 25.0, 50.0, 75.0)
TARGET_ROTATION_DEG = 120.0
# lift the target clusters off the source plane: partial input-space overlap
# gives selective methods something to preserve while full updates forget
TARGET_LIFT = 2.5


# ---------------------------------------------------------------------------
# Task generation
# ---------------------------------------------------------------------------


@dataclass
class TaskSpec:
    """One Gaussian-mixture task, checked whole when it is built.

    However a spec is made (the defaults, a config, `dataclasses.replace`),
    a ConfigError names the task unless each field has its annotated type
    (tensors.FIELD_CHECKS) and the fields fit together: at least 2 classes
    and 2 input dimensions, means of shape (class_count, input_dim) with
    distinct rows, a positive covariance scale and a non-negative sample seed.
    """

    task_id: str
    class_count: int
    input_dim: int
    means: np.ndarray  # (class_count, input_dim)
    covariance_scale: float
    rotation_angle: float  # radians, applied in the (0, 1) plane
    sample_seed: int

    def __post_init__(self):
        require_string(self.task_id, "task_id")  # it names the task in the messages
        check_fields(self, f"{self.task_id}: ")
        int_at_least(self.sample_seed, f"{self.task_id}: sample_seed", 0)
        if self.class_count < 2:
            raise ConfigError(f"{self.task_id}: need at least 2 classes")
        if self.input_dim < 2:
            raise ConfigError(f"{self.task_id}: rotation needs input_dim >= 2")
        if self.means.shape != (self.class_count, self.input_dim):
            raise ConfigError(
                f"{self.task_id}: means shape {self.means.shape} != "
                f"({self.class_count}, {self.input_dim})"
            )
        if self.covariance_scale <= 0:
            raise ConfigError(f"{self.task_id}: covariance_scale must be positive")
        # lexsort is stable, so equal rows sort next to each other in index order
        order = np.lexsort(self.means.T)
        rows = self.means[order]
        same = np.flatnonzero(np.all(rows[1:] == rows[:-1], axis=1))
        if same.size:  # report the equal pair whose first row comes first
            k = same[np.argmin(order[same])]
            raise ConfigError(f"{self.task_id}: class means {order[k]} and {order[k + 1]} coincide")


def require_distinct(seeds: Sequence[int], suite: Sequence[TaskSpec], target: TaskSpec) -> None:
    """ConfigError unless the seeds are distinct, and so are the ids of the
    suite's tasks and the target: a repeated seed would run its cells twice
    and count them twice in a mean over seeds, and results are keyed by task
    id, so a repeated id would drop a task."""
    ids = [spec.task_id for spec in (*suite, target)]
    for values, rule in ((seeds, "seeds must be distinct"),
                         (ids, "task ids must be distinct across suite and target")):
        repeated = sorted(value for value, n in Counter(values).items() if n > 1)
        if repeated:
            raise ConfigError(f"{rule}, repeated: {repeated}")


@dataclass
class TaskData:
    spec: TaskSpec
    train_inputs: np.ndarray
    train_labels: np.ndarray
    test_inputs: np.ndarray
    test_labels: np.ndarray


def _rotate_plane(points: np.ndarray, angle: float) -> np.ndarray:
    """Givens rotation in dimensions 0 and 1; other coordinates pass through."""
    c, s = math.cos(angle), math.sin(angle)
    out = points.copy()
    out[:, 0] = c * points[:, 0] - s * points[:, 1]
    out[:, 1] = s * points[:, 0] + c * points[:, 1]
    return out


def generate_task(spec: TaskSpec, n: int = DEFAULT_SAMPLES) -> TaskData:
    """Sample n labeled points and split 80/20 by index stride.

    Labels are assigned round-robin so every prefix is class-balanced;
    every fifth sample goes to the test split.
    """
    n = require_int(n, f"{spec.task_id}: n")
    if n < spec.class_count:
        raise ConfigError(f"{spec.task_id}: need at least one sample per class")
    centers = _rotate_plane(spec.means, spec.rotation_angle)
    try:  # a count numpy cannot hold: too large an array, or more than memory
        labels = np.arange(n, dtype=np.int64) % spec.class_count
        noise = np.random.default_rng(spec.sample_seed).standard_normal((n, spec.input_dim))
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"{spec.task_id}: cannot sample {n} points: {exc}") from exc
    with np.errstate(over="ignore"):  # an overflow is the error below, not a warning
        points = centers[labels] + spec.covariance_scale * noise
    if not np.isfinite(points).all():
        raise ConfigError(f"{spec.task_id}: sampled points are not finite")
    test = np.arange(n) % 5 == 4
    return TaskData(
        spec=spec,
        train_inputs=points[~test],
        train_labels=labels[~test],
        test_inputs=points[test],
        test_labels=labels[test],
    )


def _base_means():
    means = np.zeros((DEFAULT_CLASS_COUNT, DEFAULT_INPUT_DIM))
    for c, deg in enumerate(_BASE_ANGLES_DEG):
        theta = math.radians(deg)
        means[c, 0] = _BASE_RADIUS * math.cos(theta)
        means[c, 1] = _BASE_RADIUS * math.sin(theta)
    return means


def default_suite() -> list[TaskSpec]:
    """Four source tasks: the base mixture under a fan of small rotations."""
    means = _base_means()
    return [
        TaskSpec(
            task_id=f"src_rot{int(deg):03d}",
            class_count=DEFAULT_CLASS_COUNT,
            input_dim=DEFAULT_INPUT_DIM,
            means=means,
            covariance_scale=DEFAULT_COVARIANCE,
            rotation_angle=math.radians(deg),
            sample_seed=1000 + i,
        )
        for i, deg in enumerate(SOURCE_ROTATIONS_DEG)
    ]


def default_target() -> TaskSpec:
    """Far rotation, cyclic relabeling, and a lift off the source plane."""
    means = np.roll(_base_means(), -1, axis=0)
    means[:, 2] += TARGET_LIFT
    return TaskSpec(
        task_id=f"target_rot{int(TARGET_ROTATION_DEG):03d}",
        class_count=DEFAULT_CLASS_COUNT,
        input_dim=DEFAULT_INPUT_DIM,
        means=means,
        covariance_scale=DEFAULT_COVARIANCE,
        rotation_angle=math.radians(TARGET_ROTATION_DEG),
        sample_seed=2000,
    )


# ---------------------------------------------------------------------------
# Pretraining and evaluation
# ---------------------------------------------------------------------------

HIDDEN_DIMS = (16, 16)


def _interleaved_train_set(datasets: Sequence[TaskData]) -> tuple[np.ndarray, np.ndarray]:
    inputs = np.stack([d.train_inputs for d in datasets], axis=1)
    labels = np.stack([d.train_labels for d in datasets], axis=1)
    return inputs.reshape(-1, inputs.shape[-1]), labels.reshape(-1)


def pretrain(
    suite: Sequence[TaskSpec],
    cfg: TrainConfig,
    n_per_task: int = DEFAULT_SAMPLES,
) -> tuple[ToyModel, TensorMap]:
    """Train one shared model on the interleaved union of the source tasks.

    trainer.train on all layers (freezing happens at fine-tuning time):
    plain SGD with fine-tuning's per-step divergence checks.  Returns the
    model and a frozen copy of its weights; cfg.method is not used.
    """
    if not suite:
        raise ConfigError("pretrain needs a non-empty suite")
    dims = {(s.input_dim, s.class_count) for s in suite}
    if len(dims) != 1:
        raise ConfigError("suite tasks must share input_dim and class_count")
    input_dim, class_count = dims.pop()

    datasets = [generate_task(spec, n_per_task) for spec in suite]
    inputs, labels = _interleaved_train_set(datasets)
    model = build_model([input_dim, *HIDDEN_DIMS, class_count], seed=cfg.seed)
    train(model, batches_of(inputs, labels, cfg.batch_size), cfg)
    return model, model.tensor_map(trainable_only=True).copy()


def _require_test_split(data: TaskData) -> TaskData:
    if data.test_inputs.shape[0] == 0:
        raise ConfigError(f"{data.spec.task_id}: empty test split")
    return data


def heldout_accuracy(model: ToyModel, data: TaskData) -> float:
    """Accuracy on a generated task's held-out split.  Read-only on the model."""
    spec = _require_test_split(data).spec
    if (spec.input_dim, spec.class_count) != (model.input_dim, model.class_count):
        raise DimensionError(
            f"{spec.task_id}: task has input_dim {spec.input_dim} and class_count "
            f"{spec.class_count}, the model {model.input_dim} and {model.class_count}"
        )
    _, cache = forward(model, Batch(data.test_inputs, data.test_labels))
    hits = cache.probs.argmax(axis=1) == data.test_labels
    return int(np.count_nonzero(hits)) / hits.size  # np.mean's bits, as a float


def evaluate(model: ToyModel, task: TaskSpec, n: int = DEFAULT_SAMPLES) -> float:
    """Accuracy on the held-out split of the task generated at n samples."""
    return heldout_accuracy(model, generate_task(task, n))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def h_average(a_s: float, a_t: float) -> float:
    """Harmonic mean of the source and target scores."""
    if require_number(a_s, "a_s") <= 0 or require_number(a_t, "a_t") <= 0:
        raise DomainError(f"harmonic mean needs positive inputs, got ({a_s}, {a_t})")
    return 2.0 * a_s * a_t / (a_s + a_t)


def o_average(a_s: float, a_t: float) -> float:
    """Arithmetic mean of the source and target scores."""
    return (require_number(a_s, "a_s") + require_number(a_t, "a_t")) / 2.0


def source_average(values: Sequence[float]) -> float:
    if (values := require_matrix(values, "source accuracies")).size == 0:
        raise DomainError("source average over an empty suite")
    with np.errstate(over="ignore"):  # a sum past the float range is inf, as in o_average
        return float(np.mean(values))


@dataclass
class MetricsReport:
    method: str
    seed: int
    per_source_accuracy: dict[str, float]
    source_avg: float
    target_accuracy: float
    h_avg: float
    o_avg: float
    pid_trace: list[tuple[int, float]] = field(default_factory=list)
    mask_density_trace: list[tuple[int, float]] = field(default_factory=list)


def build_report(
    method: str, seed: int, source_accs: dict[str, float], target_acc: float, log: RunLog
) -> MetricsReport:
    a_s = source_average(list(source_accs.values()))
    # harmonic mean degenerates to 0 when either side has no accuracy at all
    h = h_average(a_s, target_acc) if min(a_s, target_acc) > 0 else 0.0
    return MetricsReport(
        method=method,
        seed=seed,
        per_source_accuracy=dict(source_accs),
        source_avg=a_s,
        target_accuracy=target_acc,
        h_avg=h,
        o_avg=o_average(a_s, target_acc),
        pid_trace=list(enumerate(log.pid)),
        mask_density_trace=list(enumerate(log.mask_density)),
    )


# ---------------------------------------------------------------------------
# Experiment pipeline
# ---------------------------------------------------------------------------


def finetune_with_method(
    model: ToyModel,
    pretrained: TensorMap,
    data: Sequence[Batch],
    cfg: TrainConfig,
) -> tuple[ToyModel, RunLog]:
    """Fine-tune by cfg.method; zero_shot runs nothing, unknown names raise ConfigError."""
    if cfg.method == ZERO_SHOT:
        return model, RunLog()
    run = finetune_spider if cfg.method in SPIDER_METHODS else finetune_baseline
    return run(model, pretrained, data, cfg)


def finetune_cell(
    base_model: ToyModel,
    train_inputs: np.ndarray,
    train_labels: np.ndarray,
    cfg: TrainConfig,
) -> tuple[ToyModel, RunLog]:
    """Fine-tune a copy of base_model by cfg.method, with its last
    cfg.trainable_layers layers trainable."""
    model = base_model.copy()
    set_trainable_tail(model, cfg.trainable_layers)
    pretrained = model.tensor_map(trainable_only=True).copy()
    data = batches_of(train_inputs, train_labels, cfg.batch_size)
    return finetune_with_method(model, pretrained, data, cfg)


def run_experiment(
    suite: Sequence[TaskSpec],
    target: TaskSpec,
    methods: Sequence[str],
    cfg: TrainConfig,
    seeds: Sequence[int],
    n_per_task: int = DEFAULT_SAMPLES,
    n_eval: int = EVAL_SAMPLES,
    pretrain_epochs: int = PRETRAIN_EPOCHS,
) -> list[MetricsReport]:
    """Pretrain once per seed, fine-tune per method, evaluate everything.

    Each task is generated once at n_eval samples to score every model on;
    the stride split keeps eval points apart from training points even when
    n_eval exceeds n_per_task.  Reports come back ordered by (method, seed)
    following the argument order; the sweep is deterministic in its arguments.
    """
    # TrainConfig checks each seed and method name, before anything is pretrained
    seeds = [replace(cfg, seed=seed).seed for seed in seeds]
    method_cfgs = [replace(cfg, method=method) for method in methods]
    require_distinct(seeds, suite, target)

    target_data = generate_task(target, n_per_task)
    # the held-out splits are checked before anything is pretrained too
    suite_eval = [_require_test_split(generate_task(s, n_eval)) for s in suite]
    target_eval = _require_test_split(generate_task(target, n_eval))
    by_cell: dict[tuple[str, int], MetricsReport] = {}
    for seed in seeds:
        base_model, _ = pretrain(
            suite, replace(cfg, seed=seed, epochs=pretrain_epochs), n_per_task
        )
        for method, method_cfg in zip(methods, method_cfgs):
            model, log = finetune_cell(
                base_model, target_data.train_inputs, target_data.train_labels,
                replace(method_cfg, seed=seed),
            )
            source_accs = {d.spec.task_id: heldout_accuracy(model, d) for d in suite_eval}
            target_acc = heldout_accuracy(model, target_eval)
            by_cell[(method, seed)] = build_report(method, seed, source_accs, target_acc, log)

    return [by_cell[(m, s)] for m in methods for s in seeds]


def measure_pid_direction(
    suite: Sequence[TaskSpec],
    target: TaskSpec,
    cfg: TrainConfig,
    seed: int,
    n_per_task: int = DEFAULT_SAMPLES,
    pretrain_epochs: int = PRETRAIN_EPOCHS,
) -> tuple[float, float]:
    """Final importance-divergence of a target run vs a source-replay run.

    Both runs start from the same pretrained model and use plain full
    fine-tuning with the same seed.  The replay run draws fresh samples
    from every source task and interleaves them (the pretraining
    distribution), truncated to the target run's length so step counts
    match exactly.
    """
    if cfg.epochs < 1:
        raise ConfigError("importance-divergence comparison needs at least one epoch")
    seed_cfg = replace(cfg, seed=seed, method="full_ft")
    base_model, _ = pretrain(suite, replace(seed_cfg, epochs=pretrain_epochs), n_per_task)

    target_data = generate_task(target, n_per_task)
    fresh = [
        generate_task(replace(s, sample_seed=s.sample_seed + 7919), n_per_task)
        for s in suite
    ]
    replay_inputs, replay_labels = _interleaved_train_set(fresh)
    keep = target_data.train_inputs.shape[0]

    pids = []
    for inputs, labels in (
        (target_data.train_inputs, target_data.train_labels),
        (replay_inputs[:keep], replay_labels[:keep]),
    ):
        _, log = finetune_cell(base_model, inputs, labels, seed_cfg)
        pids.append(log.pid[-1])
    return pids[0], pids[1]


# ---------------------------------------------------------------------------
# CSV reporting
# ---------------------------------------------------------------------------

def metrics_csv_rows(reports: Sequence[MetricsReport]) -> list[tuple[str, ...]]:
    """Flatten reports to (method, seed, task, metric, value) rows."""
    rows = [CSV_HEADER]
    for r in reports:
        for task_id, acc in r.per_source_accuracy.items():
            rows.append((r.method, str(r.seed), task_id, "accuracy", repr(acc)))
        rows.append((r.method, str(r.seed), "target", "accuracy", repr(r.target_accuracy)))
        rows.append((r.method, str(r.seed), "", "source_avg", repr(r.source_avg)))
        rows.append((r.method, str(r.seed), "", "h_average", repr(r.h_avg)))
        rows.append((r.method, str(r.seed), "", "o_average", repr(r.o_avg)))
    return rows


def metrics_csv(reports: Sequence[MetricsReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(metrics_csv_rows(reports))
    return buf.getvalue()
