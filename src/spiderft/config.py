"""Experiment configuration files.

Configs are JSON documents with a closed key set; unknown keys are an
error so typos fail loudly instead of silently using a default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .benchmark import METHOD_CHOICES, TaskSpec, default_suite, default_target
from .errors import ConfigError
from .tensors import NORMALIZATION_SCOPES
from .trainer import TrainConfig

CONFIG_KEYS = (
    "method",
    "seeds",
    "epochs",
    "batch_size",
    "learning_rate",
    "trainable_layers",
    "beta",
    "normalization_scope",
    "dare_drop_p",
    "l2_lambda",
    "l1_lambda",
    "suite",
    "target",
)

TASK_KEYS = (
    "task_id",
    "class_count",
    "input_dim",
    "means",
    "covariance_scale",
    "rotation_angle",
    "sample_seed",
)


def _require_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _require_number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return number


def _parse_task(obj, where: str) -> TaskSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - set(TASK_KEYS)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(TASK_KEYS) - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    if not isinstance(obj["task_id"], str) or not obj["task_id"]:
        raise ConfigError(f"{where}: task_id must be a non-empty string")
    try:
        means = np.asarray(obj["means"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: means is not a numeric matrix: {exc}") from exc
    if not np.isfinite(means).all():
        raise ConfigError(f"{where}: means must be finite")
    return TaskSpec(
        task_id=obj["task_id"],
        class_count=_require_int(obj["class_count"], f"{where}.class_count"),
        input_dim=_require_int(obj["input_dim"], f"{where}.input_dim"),
        means=means,
        covariance_scale=_require_number(obj["covariance_scale"], f"{where}.covariance_scale"),
        rotation_angle=_require_number(obj["rotation_angle"], f"{where}.rotation_angle"),
        sample_seed=_require_int(obj["sample_seed"], f"{where}.sample_seed"),
    )


def task_to_dict(spec: TaskSpec) -> dict:
    return {
        "task_id": spec.task_id,
        "class_count": spec.class_count,
        "input_dim": spec.input_dim,
        "means": spec.means.tolist(),
        "covariance_scale": spec.covariance_scale,
        "rotation_angle": spec.rotation_angle,
        "sample_seed": spec.sample_seed,
    }


@dataclass
class ExperimentConfig:
    method: str = "spider"
    seeds: list[int] = field(default_factory=lambda: [0])
    epochs: int = 5
    batch_size: int = 16
    learning_rate: float = 0.12
    trainable_layers: int = 2
    beta: float = 0.9
    normalization_scope: str = "per_tensor"
    dare_drop_p: float = 0.5
    l2_lambda: float = 1e-3
    l1_lambda: float = 1e-6
    suite: list[TaskSpec] = field(default_factory=default_suite)
    target: TaskSpec = field(default_factory=default_target)

    def __post_init__(self):
        if self.method not in METHOD_CHOICES:
            raise ConfigError(f"unknown method {self.method!r}")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if self.normalization_scope not in NORMALIZATION_SCOPES:
            raise ConfigError(f"unknown normalization_scope {self.normalization_scope!r}")
        if self.trainable_layers < 1:
            raise ConfigError("trainable_layers must be >= 1")
        for seed in self.seeds:  # TrainConfig checks the training fields and the seed
            self.to_train_config(seed)

    def to_train_config(self, seed: int | None = None, method: str | None = None) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            method=self.method if method is None else method,
            l2_lambda=self.l2_lambda,
            l1_lambda=self.l1_lambda,
            dare_drop_p=self.dare_drop_p,
            beta=self.beta,
            seed=self.seeds[0] if seed is None else seed,
            trainable_layer_count=self.trainable_layers,
            normalization_scope=self.normalization_scope,
        )


def config_from_dict(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(obj) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")

    kwargs = {}
    if "method" in obj:
        if not isinstance(obj["method"], str):
            raise ConfigError("method must be a string")
        kwargs["method"] = obj["method"]
    if "seeds" in obj:
        seeds = obj["seeds"]
        if isinstance(seeds, int) and not isinstance(seeds, bool):
            seeds = [seeds]
        if not isinstance(seeds, list) or not seeds:
            raise ConfigError("seeds must be an integer or non-empty list of integers")
        kwargs["seeds"] = [_require_int(s, "seeds[]") for s in seeds]
    for key in ("epochs", "batch_size", "trainable_layers"):
        if key in obj:
            kwargs[key] = _require_int(obj[key], key)
    for key in ("learning_rate", "beta", "dare_drop_p", "l2_lambda", "l1_lambda"):
        if key in obj:
            kwargs[key] = _require_number(obj[key], key)
    if "normalization_scope" in obj:
        kwargs["normalization_scope"] = obj["normalization_scope"]
    if "suite" in obj:
        if not isinstance(obj["suite"], list) or not obj["suite"]:
            raise ConfigError("suite must be a non-empty list of task objects")
        kwargs["suite"] = [
            _parse_task(t, f"suite[{i}]") for i, t in enumerate(obj["suite"])
        ]
    if "target" in obj:
        kwargs["target"] = _parse_task(obj["target"], "target")
    return ExperimentConfig(**kwargs)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(obj)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "method": cfg.method,
        "seeds": list(cfg.seeds),
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "learning_rate": cfg.learning_rate,
        "trainable_layers": cfg.trainable_layers,
        "beta": cfg.beta,
        "normalization_scope": cfg.normalization_scope,
        "dare_drop_p": cfg.dare_drop_p,
        "l2_lambda": cfg.l2_lambda,
        "l1_lambda": cfg.l1_lambda,
        "suite": [task_to_dict(s) for s in cfg.suite],
        "target": task_to_dict(cfg.target),
    }
