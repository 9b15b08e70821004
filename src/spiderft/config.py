"""Experiment configuration files.

Configs are JSON documents with a closed key set; unknown keys are an
error so typos fail loudly instead of silently using a default.  The keys
are `seeds`, `suite`, `target` and the fields of `TrainConfig`; each task
object holds the fields of `TaskSpec`, all required.  Both are read and
written by walking the dataclass fields, and each field's annotated type
picks its check.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .benchmark import TaskSpec, default_suite, default_target, require_distinct
from .errors import ConfigError
from .trainer import TrainConfig

# the field no key sets: `seeds` replaces `seed`
_NOT_IN_JSON = ("seed",)


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


def _require_string(value, key: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key} must be a non-empty string")
    return value


def _require_matrix(value, key: str) -> np.ndarray:
    try:
        matrix = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} is not a numeric matrix: {exc}") from exc
    if not np.isfinite(matrix).all():
        raise ConfigError(f"{key} must be finite")
    return matrix


_CHECKS = {int: _require_int, float: _require_number, str: _require_string,
           np.ndarray: _require_matrix}


def _schema(cls) -> tuple:
    """(field, check) for each field of dataclass `cls` a config sets, by name."""
    hints = get_type_hints(cls)
    return tuple((f, _CHECKS[hints[f.name]]) for f in fields(cls) if f.name not in _NOT_IN_JSON)


_TRAIN_SCHEMA = _schema(TrainConfig)
_TASK_SCHEMA = _schema(TaskSpec)


def _read(schema: tuple, obj: dict, where: str, own_keys: tuple = ()) -> dict:
    """The checked field values a flat JSON object sets, by field name.

    Keys in own_keys are the caller's to read; a field without a default
    is a required key.
    """
    unknown = set(obj) - {f.name for f, _ in schema} - set(own_keys)
    if unknown:
        raise ConfigError(f"{where}unknown keys {sorted(unknown)}")
    missing = [f.name for f, _ in schema if f.name not in obj
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{where}missing keys {sorted(missing)}")
    return {f.name: check(obj[f.name], where + f.name) for f, check in schema if f.name in obj}


def _write(schema: tuple, value) -> dict:
    """The flat JSON object that _read turns back into `value`'s fields."""
    out = {f.name: getattr(value, f.name) for f, _ in schema}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in out.items()}


def _parse_task(obj, where: str) -> TaskSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    return TaskSpec(**_read(_TASK_SCHEMA, obj, f"{where}: "))


def task_to_dict(spec: TaskSpec) -> dict:
    return _write(_TASK_SCHEMA, spec)


@dataclass
class ExperimentConfig:
    """The training settings, and the seeds and tasks to run them on.

    `seeds` replaces `train.seed`; to_train_config gives one seed's settings.
    """

    seeds: list[int] = field(default_factory=lambda: [0])
    suite: list[TaskSpec] = field(default_factory=default_suite)
    target: TaskSpec = field(default_factory=default_target)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        for seed in self.seeds:  # TrainConfig checks the seed
            self.to_train_config(seed)
        require_distinct(self.seeds, self.suite, self.target)

    def to_train_config(self, seed: int | None = None, method: str | None = None) -> TrainConfig:
        return replace(
            self.train,
            seed=self.seeds[0] if seed is None else seed,
            method=self.train.method if method is None else method,
        )


def config_from_dict(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    train = _read(_TRAIN_SCHEMA, obj, "", own_keys=("seeds", "suite", "target"))
    kwargs = {"train": TrainConfig(**train)}
    if "seeds" in obj:
        seeds = obj["seeds"]
        if isinstance(seeds, int) and not isinstance(seeds, bool):
            seeds = [seeds]
        if not isinstance(seeds, list) or not seeds:
            raise ConfigError("seeds must be an integer or non-empty list of integers")
        kwargs["seeds"] = [_require_int(s, "seeds[]") for s in seeds]
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
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8 text, or nested too deep
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(obj)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "seeds": list(cfg.seeds),
        **_write(_TRAIN_SCHEMA, cfg.train),
        "suite": [task_to_dict(s) for s in cfg.suite],
        "target": task_to_dict(cfg.target),
    }
