"""The Python API's scalar boundary: one table, one property.

Scalar arguments (seeds, rates, probabilities, counts, scope and variant
names, paths, and a tensor's name, shape and data, in a FlatTensor, a Layout
or TensorMap.over's buffer) are a boundary: a bad value raises a SpiderftError.  Object
arguments (TensorMap, ToyModel, Batch, TaskSpec, GradAccumulator) are
trusted, and a wrong one raises what Python raises.  Each row of ROWS is a
public function, one valid call of it, and the scalar parameter that the
property replaces by a drawn value: the call returns a result or raises a
SpiderftError, and a call that raises leaves its tensor maps as they were.
STEP_PATH lists the functions that take a scalar on every training step and
check none, with the reason.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spiderft import benchmark, checkpoint, config, importance, masking, tensors, trainer
from spiderft.errors import SpiderftError
from spiderft.tensors import TensorMap

from helpers import tmap


def _map() -> TensorMap:
    return tmap(a=[0.5, -1.0, 2.0], b=[1.5, 0.25])


def _dare_merge(tmp):
    current = _map()
    return {"current": current, "pretrained": _map().with_flat(np.zeros(5)), "drop_p": 0.5,
            "rng_seed": 0, "out": current}


def _accumulator():
    return importance.accumulate_gradient(importance.GradAccumulator.empty(_map()), _map())


def _task(tmp):
    spec = benchmark.default_target()
    return {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}


def _saved(tmp):
    path = tmp / "w.ckpt"
    if not path.exists():
        checkpoint.save_checkpoint(_map(), path)
    return {"path": path}


def _config(tmp):
    path = tmp / "c.json"
    path.write_text('{"epochs": 1}')
    return {"path": path}


# (function, the keyword arguments of one valid call given a scratch directory, the scalar)
ROWS = [
    (masking.random_half_mask, lambda tmp: {"shape_of": _map(), "rng_seed": 0}, "rng_seed"),
    *((masking.dare_mask_and_rescale,
       lambda tmp: {"delta": _map(), "drop_p": 0.5, "rng_seed": 0}, p) for p in ("drop_p", "rng_seed")),
    *((masking.dare_merge, _dare_merge, p) for p in ("drop_p", "rng_seed")),
    (importance.GradAccumulator.empty, lambda tmp: {"like": _map(), "beta": 0.9}, "beta"),
    (tensors.FlatTensor, lambda tmp: {"name": "t", "shape": (2,), "data": [0.5, 1.0]}, "name"),
    *((tensors.Layout, lambda tmp: {"names": ("a", "b"), "shapes": ((3,), (2,))}, p)
      for p in ("names", "shapes")),
    (TensorMap.over, lambda tmp: {"layout": _map().layout, "flat": np.zeros(5)}, "flat"),
    (tensors.zscore_map, lambda tmp: {"tm": _map(), "scope": "global"}, "scope"),
    (importance.specialization_importance, lambda tmp: {"state": _accumulator(), "scope": "global"},
     "scope"),
    (masking.rescale_mask, lambda tmp: {"m": masking.UpdateMask(tmap(a=[0.0, 0.75, 0.5], b=[0.6])),
                                        "scope": "global"}, "scope"),
    *((masking.MaskRule, lambda tmp: {"variant": "rescaled", "pretrained": _map(), "scope": "global"},
       p) for p in ("variant", "scope")),
    (importance.generalization_importance,
     lambda tmp: {"pretrained": _map(), "scope": "per_tensor"}, "scope"),
    *((f, lambda tmp: {"a_s": 0.5, "a_t": 0.75}, p)
      for f in (benchmark.h_average, benchmark.o_average) for p in ("a_s", "a_t")),
    (benchmark.source_average, lambda tmp: {"values": [0.5, 0.75]}, "values"),
    (benchmark.generate_task, lambda tmp: {"spec": benchmark.default_target(), "n": 20}, "n"),
    (benchmark.evaluate, lambda tmp: {"model": trainer.build_model([8, 4, 3], 0),
                                      "task": benchmark.default_target(), "n": 20}, "n"),
    *((benchmark.TaskSpec, _task, p) for p in ("sample_seed", "covariance_scale", "task_id")),
    *((trainer.TrainConfig, lambda tmp: {}, p)
      for p in ("beta", "dare_drop_p", "seed", "learning_rate", "normalization_scope")),
    (trainer.build_model, lambda tmp: {"layer_dims": [2, 3], "seed": 0}, "seed"),
    (trainer.set_trainable_tail,
     lambda tmp: {"model": trainer.build_model([2, 3, 3], 0), "layer_count": 1}, "layer_count"),
    (trainer.batches_of,
     lambda tmp: {"inputs": np.zeros((4, 2)), "labels": [0, 1, 0, 1], "batch_size": 2}, "batch_size"),
    (checkpoint.save_checkpoint, lambda tmp: {"tm": _map(), "path": tmp / "out.ckpt"}, "path"),
    (checkpoint.load_checkpoint, _saved, "path"),
    (config.load_config, _config, "path"),
]
ROW_IDS = [f"{fn.__qualname__}-{param}" for fn, _, param in ROWS]

# The functions on the training step: each takes its scalars, if any, from TrainConfig or
# MaskRule.__init__, which check them once per run; a check here would cost every step.
STEP_PATH = {
    trainer.forward: "takes no scalar; the model and batch are objects",
    trainer.backward: "takes no scalar; the model and cache are objects",
    trainer.sgd_step: "lr is TrainConfig.learning_rate",
    importance.pid_of_magnitudes: "w_norm is the norm the loop takes once",
    masking.MaskRule.__call__: "seed is a word of the run's seed stream",
    masking.random_half_blocks: "half_ft passes its tensor count and a seed word",
}

INTS = st.integers(-5, 500)  # small enough for any count to allocate
HUGE_INTS = st.sampled_from([2**63, 2**64, 10**30, -(10**30), 10**400])
NUMPY_SCALARS = st.one_of(st.floats().map(np.float64), st.floats(width=32).map(np.float32),
                          INTS.map(np.int64), st.booleans().map(np.bool_))
ARRAYS = hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_]),
                    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3))
JSON = st.recursive(
    st.none() | st.booleans() | INTS | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6,
)
VALUES = st.one_of(JSON, NUMPY_SCALARS, ARRAYS, HUGE_INTS, st.binary(max_size=4))
# no int or bool, which open() takes as a file descriptor, and no str or bytes,
# which name a file
PATHS = st.one_of(st.none(), st.floats(), st.floats().map(np.float64),
                  hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=1, max_side=3)),
                  st.lists(st.floats(), max_size=2), st.dictionaries(st.text(max_size=3), st.none()))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_each_row_has_a_valid_call_off_the_step_path(row, scratch):
    fn, call, _ = row
    fn(**call(scratch))
    assert fn not in STEP_PATH


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
@settings(max_examples=40, deadline=None)
@given(value=VALUES, path=PATHS)
@example(value="x", path=None)
@example(value=-1, path=2.5)
@example(value=None, path=np.float64(2.5))
@example(value="0.5", path=[])
@example(value=math.nan, path={})
@example(value=np.array([]), path=np.array([]))
@example(value=10**30, path=None)
@example(value=True, path=None)
@example(value=b"x", path=None)
def test_a_scalar_argument_gives_a_result_or_a_package_error(row, scratch, value, path):
    fn, call, param = row
    kwargs = call(scratch)
    kwargs[param] = path if param == "path" else value
    maps = {k: v.flat.copy() for k, v in kwargs.items() if isinstance(v, TensorMap)}
    try:
        fn(**kwargs)
    except SpiderftError:  # checked before any write
        for k, before in maps.items():
            np.testing.assert_array_equal(kwargs[k].flat, before)
