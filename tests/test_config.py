"""JSON experiment configs: defaults, closed key set, round trips."""

import json

import numpy as np
import pytest

from spiderft.config import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    task_to_dict,
)
from spiderft.errors import ConfigError


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.method == "spider"
    assert cfg.seeds == [0]
    assert cfg.epochs == 5
    assert cfg.batch_size == 16
    assert cfg.learning_rate == 0.12
    assert cfg.trainable_layers == 2
    assert cfg.beta == 0.9
    assert cfg.normalization_scope == "per_tensor"
    assert cfg.dare_drop_p == 0.5
    assert cfg.l2_lambda == 1e-3
    assert cfg.l1_lambda == 1e-6
    assert len(cfg.suite) == 4
    assert cfg.target.task_id not in {s.task_id for s in cfg.suite}


def test_empty_object_uses_defaults():
    assert config_from_dict({}).method == "spider"


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


def test_method_and_scope_validation():
    with pytest.raises(ConfigError):
        config_from_dict({"method": "boost"})
    with pytest.raises(ConfigError):
        config_from_dict({"normalization_scope": "per_layer"})
    assert config_from_dict({"method": "select_random"}).method == "select_random"


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


def test_dict_round_trip():
    cfg = ExperimentConfig(method="dare", seeds=[3, 4], epochs=2, learning_rate=0.05)
    back = config_from_dict(config_to_dict(cfg))
    assert back.method == "dare"
    assert back.seeds == [3, 4]
    assert back.epochs == 2
    assert back.learning_rate == 0.05
    assert [s.task_id for s in back.suite] == [s.task_id for s in cfg.suite]
    assert np.array_equal(back.target.means, cfg.target.means)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"method": "full_ft", "seeds": [7], "epochs": 1}))
    cfg = load_config(path)
    assert cfg.method == "full_ft"
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
    cfg = ExperimentConfig(seeds=[5, 6], epochs=3, learning_rate=0.2, beta=0.5)
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
        assert ExperimentConfig(method=method).to_train_config().method == method
    assert ExperimentConfig().to_train_config(method="select_random").method == "select_random"
