"""Experiment configuration files.

Configs are JSON documents with a closed key set; unknown keys are an
error so typos fail loudly instead of silently using a default.  The keys
are `seeds`, `suite`, `target` and the fields of `TrainConfig`; each task
object holds the fields of `TaskSpec`, all required.  Both are read and
written by walking the dataclass fields.  The dataclasses check each
field's type (`tensors.FIELD_CHECKS`) and range; reading a key runs the
same type check first, to name the key's path.  This module checks only
the JSON's shape: objects, a list `suite`, and one seed or a list.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, replace
from pathlib import Path

import numpy as np

from .benchmark import TaskSpec, default_suite, default_target, require_distinct
from .errors import ConfigError
from .tensors import field_checks, require_path
from .trainer import TrainConfig

# the field no key sets: `seeds` replaces `seed`
_NOT_IN_JSON = ("seed",)
# (field, check) for each field a config sets
_TRAIN_SCHEMA = tuple(fc for fc in field_checks(TrainConfig) if fc[0].name not in _NOT_IN_JSON)
_TASK_SCHEMA = field_checks(TaskSpec)


def _read(schema: tuple, obj, where: str, own_keys: tuple = ()) -> dict:
    """The checked field values a flat JSON object sets, by field name.

    Keys in own_keys are the caller's to read; a field without a default
    is a required key.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'config root: '}must be a JSON object")
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
        for name, kind in (("train", TrainConfig), ("target", TaskSpec)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}")
        if not (isinstance(self.suite, list) and self.suite
                and all(isinstance(spec, TaskSpec) for spec in self.suite)):
            raise ConfigError("suite must be a non-empty list of TaskSpec")
        if not isinstance(self.seeds, list) or not self.seeds:
            raise ConfigError("seeds must be non-empty, a list of integers")
        # TrainConfig checks each seed, and stores it as an int
        self.seeds = [replace(self.train, seed=seed).seed for seed in self.seeds]
        require_distinct(self.seeds, self.suite, self.target)

    def to_train_config(self, seed: int | None = None, method: str | None = None) -> TrainConfig:
        return replace(
            self.train,
            seed=self.seeds[0] if seed is None else seed,
            method=self.train.method if method is None else method,
        )


def config_from_dict(obj: dict) -> ExperimentConfig:
    train = _read(_TRAIN_SCHEMA, obj, "", own_keys=("seeds", "suite", "target"))
    kwargs = {"train": TrainConfig(**train)}
    if "seeds" in obj:  # one seed, or a list of them
        kwargs["seeds"] = obj["seeds"] if isinstance(obj["seeds"], list) else [obj["seeds"]]
    if "suite" in obj:
        if not isinstance(obj["suite"], list):
            raise ConfigError("suite must be a list of task objects")
        kwargs["suite"] = [TaskSpec(**_read(_TASK_SCHEMA, t, f"suite[{i}]: "))
                           for i, t in enumerate(obj["suite"])]
    if "target" in obj:
        kwargs["target"] = TaskSpec(**_read(_TASK_SCHEMA, obj["target"], "target: "))
    return ExperimentConfig(**kwargs)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        obj = json.loads(Path(require_path(path, "config path")).read_text())
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
