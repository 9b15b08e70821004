"""JSON experiment configs: defaults, closed key set, round trips."""

import json
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiderft import benchmark
from spiderft.benchmark import TaskSpec, default_suite, default_target, finetune_cell, generate_task
from spiderft.config import (
    _NOT_IN_JSON,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    task_to_dict,
)
from spiderft.errors import ConfigError, DivergenceError
from spiderft.tensors import NORMALIZATION_SCOPES
from spiderft.trainer import METHOD_CHOICES, TrainConfig, build_model

CONFIG_KEYS = {
    "method", "seeds", "epochs", "batch_size", "learning_rate", "trainable_layers", "beta",
    "normalization_scope", "dare_drop_p", "l2_lambda", "l1_lambda", "suite", "target",
}
TASK_KEYS = {
    "task_id", "class_count", "input_dim", "means", "covariance_scale", "rotation_angle",
    "sample_seed",
}


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.train.method == "spider"
    assert cfg.seeds == [0]
    assert cfg.train.epochs == 5
    assert cfg.train.batch_size == 16
    assert cfg.train.learning_rate == 0.12
    assert cfg.train.trainable_layers == 2
    assert cfg.train.beta == 0.9
    assert cfg.train.normalization_scope == "per_tensor"
    assert cfg.train.dare_drop_p == 0.5
    assert cfg.train.l2_lambda == 1e-3
    assert cfg.train.l1_lambda == 1e-6
    assert len(cfg.suite) == 4
    assert cfg.target.task_id not in {s.task_id for s in cfg.suite}


def test_empty_object_uses_defaults():
    assert config_from_dict({}).train.method == "spider"


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"learning_rte": 0.1})


def test_bool_is_not_a_number():
    with pytest.raises(ConfigError):
        config_from_dict({"epochs": True})
    with pytest.raises(ConfigError):
        config_from_dict({"learning_rate": False})


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
def test_non_finite_numbers_rejected(tmp_path, text):
    path = tmp_path / "config.json"
    for key in ("learning_rate", "beta", "l2_lambda"):
        path.write_text(f'{{"{key}": {text}}}')
        with pytest.raises(ConfigError, match="finite"):
            load_config(path)
    task = task_to_dict(ExperimentConfig().target)
    task["covariance_scale"] = float(text) if text != "1" + "0" * 400 else 10**400
    with pytest.raises(ConfigError, match="finite"):
        config_from_dict({"target": task})


def test_scalar_seed_normalizes_to_list():
    assert config_from_dict({"seeds": 3}).seeds == [3]
    assert config_from_dict({"seeds": [1, 2]}).seeds == [1, 2]
    with pytest.raises(ConfigError):
        config_from_dict({"seeds": []})
    with pytest.raises(ConfigError):
        config_from_dict({"seeds": ["a"]})
    with pytest.raises(ConfigError, match="seeds must be non-empty"):
        ExperimentConfig(seeds=[])


def test_method_and_scope_validation(monkeypatch):
    with pytest.raises(ConfigError):
        config_from_dict({"method": "boost"})
    with pytest.raises(ConfigError):
        config_from_dict({"normalization_scope": "per_layer"})
    assert config_from_dict({"method": "select_random"}).train.method == "select_random"
    # TrainConfig checks the name however it is built
    with pytest.raises(ConfigError, match="unknown method 'boost'"):
        TrainConfig(method="boost")
    with pytest.raises(ConfigError, match="unknown method 'boost'"):
        replace(TrainConfig(), method="boost")
    # and a sweep rejects it, or a bad seed, before it pretrains anything
    pretrained = []
    monkeypatch.setattr(benchmark, "pretrain", lambda *args, **kw: pretrained.append(args))
    for methods, seeds, message in ((["spider", "boost"], [0], "unknown method 'boost'"),
                                    (["spider"], [0, -1], "seed must be >= 0, got -1"),
                                    (["spider"], [0, 1.5], "seed must be an integer, got float")):
        with pytest.raises(ConfigError, match=message):
            benchmark.run_experiment(default_suite(), default_target(), methods,
                                     TrainConfig(epochs=1), seeds)
    assert pretrained == []


def test_range_validation():
    with pytest.raises(ConfigError):
        config_from_dict({"epochs": -1})
    with pytest.raises(ConfigError):
        config_from_dict({"batch_size": 0})
    with pytest.raises(ConfigError):
        config_from_dict({"trainable_layers": 0})
    with pytest.raises(ConfigError, match="seed must be >= 0, got -3"):
        config_from_dict({"seeds": [1, -3]})
    with pytest.raises(ConfigError):
        config_from_dict({"seeds": -1})
    # the training fields are checked when the file is read, not when training starts
    for key, value in (("learning_rate", 0.0), ("beta", 1.0), ("dare_drop_p", 1.0)):
        with pytest.raises(ConfigError, match=key):
            config_from_dict({key: value})


def test_task_parsing_closed_key_set():
    task = task_to_dict(ExperimentConfig().target)
    task["extra"] = 1
    with pytest.raises(ConfigError):
        config_from_dict({"target": task})
    task = task_to_dict(ExperimentConfig().target)
    del task["sample_seed"]
    with pytest.raises(ConfigError):
        config_from_dict({"target": task})


def test_task_parsing_field_types():
    task = task_to_dict(ExperimentConfig().target)
    task["task_id"] = ""
    with pytest.raises(ConfigError):
        config_from_dict({"target": task})
    task = task_to_dict(ExperimentConfig().target)
    task["means"] = [["x"]]
    with pytest.raises(ConfigError):
        config_from_dict({"target": task})


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_task_means_are_rejected_when_read(tmp_path, bad):
    obj = config_to_dict(ExperimentConfig())
    obj["target"]["means"][1][2] = 12345.5  # replaced by the bare token below
    text = json.dumps(obj).replace("12345.5", bad)
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="target: means must be finite"):
        load_config(path)


def test_suite_must_be_non_empty_list():
    with pytest.raises(ConfigError):
        config_from_dict({"suite": []})
    with pytest.raises(ConfigError):
        config_from_dict({"suite": "default"})


@pytest.mark.parametrize("kwargs,message", [
    ({"train": 5}, "train must be a TrainConfig"),
    ({"target": 5}, "target must be a TaskSpec"),
    ({"suite": []}, "suite must be a non-empty list of TaskSpec"),
    ({"seeds": 3}, "seeds must be non-empty, a list of integers"),
])
def test_experiment_config_from_python_rejects_bad_fields(kwargs, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ExperimentConfig(**kwargs)


def test_dict_round_trip():
    cfg = ExperimentConfig(seeds=[3, 4],
                           train=TrainConfig(method="dare", epochs=2, learning_rate=0.05))
    back = config_from_dict(config_to_dict(cfg))
    assert back.train.method == "dare"
    assert back.seeds == [3, 4]
    assert back.train.epochs == 2
    assert back.train.learning_rate == 0.05
    assert [s.task_id for s in back.suite] == [s.task_id for s in cfg.suite]
    assert np.array_equal(back.target.means, cfg.target.means)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"method": "full_ft", "seeds": [7], "epochs": 1}))
    cfg = load_config(path)
    assert cfg.train.method == "full_ft"
    assert cfg.seeds == [7]


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_non_object_root(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(path)


def test_to_train_config_field_mapping():
    cfg = ExperimentConfig(seeds=[5, 6], train=TrainConfig(epochs=3, learning_rate=0.2, beta=0.5))
    tcfg = cfg.to_train_config()
    assert tcfg.seed == 5
    assert tcfg.epochs == 3
    assert tcfg.learning_rate == 0.2
    assert tcfg.beta == 0.5
    assert tcfg.method == "spider"
    assert cfg.to_train_config(seed=9).seed == 9


def test_to_train_config_keeps_the_method_name():
    # the method name is the only switch, so every method passes through as is
    for method in ("zero_shot", "select_gradient", "l2_reg"):
        assert ExperimentConfig(train=TrainConfig(method=method)).to_train_config().method == method
    assert ExperimentConfig().to_train_config(method="select_random").method == "select_random"


def test_train_config_checks_scope_and_depth():
    with pytest.raises(ConfigError, match="normalization_scope"):
        TrainConfig(normalization_scope="per_layer")
    with pytest.raises(ConfigError, match="trainable_layers"):
        TrainConfig(trainable_layers=0)
    with pytest.raises(TypeError, match="trainable_layer_count"):  # one name: the JSON key
        TrainConfig(trainable_layer_count=2)


def test_repeated_task_ids_are_rejected_when_read():
    obj = config_to_dict(ExperimentConfig())
    obj["suite"][3]["task_id"] = obj["suite"][1]["task_id"]
    with pytest.raises(ConfigError, match="repeated"):
        config_from_dict(obj)
    obj = config_to_dict(ExperimentConfig())
    obj["target"]["task_id"] = obj["suite"][0]["task_id"]
    with pytest.raises(ConfigError, match="repeated"):
        config_from_dict(obj)


def test_overflowing_task_means_are_a_config_error():
    obj = config_to_dict(ExperimentConfig())
    obj["target"]["means"][0][0] = 10**400  # float() overflows: not a numeric matrix
    with pytest.raises(ConfigError, match="target: means"):
        config_from_dict(obj)


def test_json_key_set_is_closed_and_unchanged():
    obj = config_to_dict(ExperimentConfig())
    assert set(obj) == CONFIG_KEYS
    assert set(obj["target"]) == TASK_KEYS
    assert all(set(task) == TASK_KEYS for task in obj["suite"])
    for key in ("seed", "trainable_layer_count", "selection_gamma",
                "accumulator_reset_per_epoch", "lr_overrides"):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({key: 1})


def test_every_train_config_field_is_a_json_key_or_not_in_json():
    # a stale _NOT_IN_JSON entry, for a field that is gone, would be ignored silently
    names = {f.name for f in fields(TrainConfig)}
    assert set(_NOT_IN_JSON) <= names
    assert names - set(_NOT_IN_JSON) == (
        CONFIG_KEYS - {"seeds", "suite", "target"})


def test_integers_claiming_2_62_allocate_no_more_than_the_file(tmp_path):
    obj = config_to_dict(ExperimentConfig())
    obj.update(epochs=2**62, batch_size=2**62, trainable_layers=2**62, seeds=[2**62])
    obj["target"].update(sample_seed=2**62, class_count=2**62)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        try:
            load_config(path)
        except ConfigError:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * size + 64 * 1024


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**1100), 2**1100) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CONFIG_KEYS)), json_values)
def test_any_value_at_a_config_key_gives_a_config_or_a_config_error(key, value):
    try:
        config_from_dict({key: value})
    except ConfigError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(TASK_KEYS)), json_values, st.integers(0, 4))
def test_any_value_at_a_task_key_gives_a_config_or_a_config_error(key, value, where):
    obj = config_to_dict(ExperimentConfig())
    (obj["target"] if where == 4 else obj["suite"][where])[key] = value
    try:
        config_from_dict(obj)
    except ConfigError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([f.name for f in fields(TrainConfig)]), json_values)
def test_any_value_at_a_train_config_field_gives_a_runnable_config_or_a_config_error(name, value):
    # the Python API's counterpart of the JSON test above: the dataclass
    # checks the type itself, so a value that passes is stored as its
    # annotated type and runs a one-step fine-tuning cell
    try:
        cfg = TrainConfig(**{name: value})
    except ConfigError:
        return
    kind = {"int": int, "float": float, "str": str}[TrainConfig.__dataclass_fields__[name].type]
    assert type(getattr(cfg, name)) is kind
    model = build_model([3, 4, 2], seed=0)
    try:
        one_step = replace(cfg, epochs=min(cfg.epochs, 1))
        finetune_cell(model, np.ones((1, 3)), np.array([1]), one_step)
    except ConfigError:  # a tail deeper than the 2-layer model
        assert name == "trainable_layers"
    except DivergenceError:  # a finite rate or lambda so large that one step overflows
        assert name in ("learning_rate", "l2_lambda", "l1_lambda")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([f.name for f in fields(TaskSpec)]), json_values)
def test_any_value_at_a_task_spec_field_gives_a_task_or_a_config_error(name, value):
    try:
        generate_task(replace(default_target(), **{name: value}), 10)
    except ConfigError:
        pass


@pytest.mark.parametrize("name,value,stored", [
    # a bool is neither an integer nor a number, from JSON or from Python
    ("epochs", True, None), ("seed", np.bool_(True), None), ("learning_rate", False, None),
    # a float is no integer, however whole
    ("epochs", 3.0, None), ("batch_size", np.float64(2.0), None),
    # a numpy integer is an integer, stored as an int
    ("seed", np.int64(3), 3), ("epochs", np.uint8(2), 2),
    # an integer stands for a float, and a numpy float is one: stored as a float
    ("learning_rate", 1, 1.0), ("beta", np.int64(0), 0.0), ("l2_lambda", np.float32(0.5), 0.5),
])
def test_edge_types_get_one_answer_from_python_and_json(name, value, stored):
    if stored is None:
        with pytest.raises(ConfigError, match=f"^{name} must be an? (integer|number), got"):
            TrainConfig(**{name: value})
    else:
        got = getattr(TrainConfig(**{name: value}), name)
        assert got == stored and type(got) is type(stored)
    if type(value) in (bool, int, float) and name != "seed":  # a value JSON can hold
        try:
            got = getattr(config_from_dict({name: value}).train, name)
        except ConfigError:
            got = None
        assert got == stored and type(got) is type(stored)


def test_a_task_and_a_sample_count_follow_the_same_edge_types():
    spec = replace(default_target(), sample_seed=np.int64(5))
    assert type(spec.sample_seed) is int
    assert type(replace(spec, covariance_scale=1).covariance_scale) is float
    with pytest.raises(ConfigError, match="class_count must be an integer, got bool"):
        replace(spec, class_count=True)
    assert generate_task(spec, np.int64(10)).train_labels.size == 8


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def task_specs(draw, task_id):
    """A valid task: a positive covariance scale and distinct class means,
    where -0.0 equals 0.0 (TaskSpec refuses anything else)."""
    classes, dim = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    rows = st.lists(finite, min_size=dim, max_size=dim)
    means = draw(st.lists(rows, min_size=classes, max_size=classes,
                          unique_by=lambda row: np.add(row, 0.0).tobytes()))
    return TaskSpec(
        task_id=task_id,
        class_count=classes,
        input_dim=dim,
        means=np.array(means),
        covariance_scale=draw(st.floats(0.0, exclude_min=True, allow_infinity=False)),
        rotation_angle=draw(finite),
        sample_seed=draw(st.integers(0, 2**64)),
    )


@st.composite
def experiment_configs(draw):
    ids = draw(st.lists(st.text(min_size=1, max_size=6), min_size=2, max_size=5, unique=True))
    train = TrainConfig(
        learning_rate=draw(st.floats(0.0, 1e6, exclude_min=True)),
        epochs=draw(st.integers(0, 100)),
        batch_size=draw(st.integers(1, 1024)),
        method=draw(st.sampled_from(METHOD_CHOICES)),
        l2_lambda=draw(st.floats(0.0, allow_infinity=False)),
        l1_lambda=draw(st.floats(0.0, allow_infinity=False)),
        dare_drop_p=draw(st.floats(0.0, 1.0, exclude_max=True)),
        beta=draw(st.floats(0.0, 1.0, exclude_max=True)),
        trainable_layers=draw(st.integers(1, 8)),
        normalization_scope=draw(st.sampled_from(NORMALIZATION_SCOPES)),
    )
    return ExperimentConfig(
        seeds=draw(st.lists(st.integers(0, 2**64), min_size=1, max_size=4, unique=True)),
        suite=[draw(task_specs(task_id)) for task_id in ids[1:]],
        target=draw(task_specs(ids[0])),
        train=train,
    )


def _same_task(a: TaskSpec, b: TaskSpec) -> bool:
    return all(
        type(getattr(a, f.name)) is type(getattr(b, f.name))
        and np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in fields(TaskSpec)
    )


@pytest.mark.parametrize("edit,message", [
    ({"covariance_scale": 0.0}, "covariance_scale must be positive"),
    ({"covariance_scale": -0.0}, "covariance_scale must be positive"),
    ({"covariance_scale": -1e-300}, "covariance_scale must be positive"),
    ({"means": [[1.0, -0.0], [2.0, 2.0], [1.0, 0.0]]}, "class means 0 and 2 coincide"),
])
def test_config_rejects_the_tasks_task_specs_does_not_draw(edit, message):
    task = {**task_to_dict(default_target()), "class_count": 3, "input_dim": 2,
            "means": [[1.0, 0.0], [2.0, 2.0], [0.0, 1.0]], **edit}
    with pytest.raises(ConfigError, match=f"target_rot120: {message}"):
        config_from_dict({"target": task})


@pytest.mark.parametrize("edit", [{"means": "1.5"}, {"class_count": 2**62}])
def test_load_config_rejects_an_inconsistent_suite_task(tmp_path, edit):
    obj = config_to_dict(ExperimentConfig())
    obj["suite"][0].update(edit)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match=r"^src_rot000: means shape \("):
        load_config(path)


@settings(max_examples=50, deadline=None)
@given(experiment_configs())
def test_dict_round_trip_reproduces_generated_configs(cfg):
    back = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
    assert back.train == cfg.train
    assert back.seeds == cfg.seeds
    assert len(back.suite) == len(cfg.suite)
    assert all(map(_same_task, back.suite + [back.target], cfg.suite + [cfg.target]))
