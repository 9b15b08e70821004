"""Memory bounds of the fine-tuning step's in-place stages.

On a map of more than 2^18 entries, the merge into an `out` map, a fold into
an initialized accumulator and an SGD step each allocate less than one
trainable-sized buffer: they write into buffers that already exist, and the
blocked chains use one block-sized scratch.  A run allocates its step's
buffers once: one gradient, and for a comparison mask one map that holds the
scores and then the mask, and one selection.  Every step writes into them,
so a whole comparison-masked run holds its accumulator, its fixed scores and
those buffers.  half_ft zeroes the gradient of the tensors it leaves out in
place, without a mask buffer.  tracemalloc sees numpy's data buffers, so its
peak bounds every temporary a stage makes.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from spiderft import trainer
from spiderft.benchmark import default_target, generate_task
from spiderft.importance import GradAccumulator, accumulate_gradient
from spiderft.masking import UpdateMask, merge
from spiderft.tensors import BLOCK, Layout, TensorMap
from spiderft.trainer import (
    TrainConfig,
    batches_of,
    build_model,
    finetune_baseline,
    finetune_spider,
    set_trainable_tail,
    sgd_step,
)

# more than 2^18 entries, and not a whole number of blocks
LAYOUT = Layout(("layer1.weight", "layer1.bias", "layer2.weight", "layer2.bias"),
                ((600, 500), (600,), (3, 600), (3,)))
SIZE = LAYOUT.size
BUFFER_BYTES = 8 * SIZE


def map_of(values: np.ndarray) -> TensorMap:
    return TensorMap.over(LAYOUT, values)


def traced_peak(fn) -> int:
    """Peak bytes traced while fn runs, over what was allocated before."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def test_layout_spans_several_blocks():
    assert SIZE > 2**18 and SIZE % BLOCK


def test_merge_into_out_allocates_less_than_one_buffer():
    rng = np.random.default_rng(0)
    w, pre = map_of(rng.normal(size=SIZE)), map_of(rng.normal(size=SIZE))
    mask = UpdateMask(map_of(rng.uniform(0.0, 1.0, size=SIZE)))
    expected = w.flat * mask.mask.flat + pre.flat * (1.0 - mask.mask.flat)
    assert traced_peak(lambda: merge(w, pre, mask, out=w)) < BUFFER_BYTES
    assert w.flat.tobytes() == expected.tobytes()


def test_initialized_fold_allocates_less_than_one_buffer():
    rng = np.random.default_rng(1)
    g = map_of(rng.normal(size=SIZE))
    state = GradAccumulator.empty(g, 0.9)
    accumulate_gradient(state, g)
    expected = state.acc.flat * 0.9 + np.abs(g.flat) * (1.0 - 0.9)
    assert traced_peak(lambda: accumulate_gradient(state, g)) < BUFFER_BYTES
    assert state.acc.flat.tobytes() == expected.tobytes()


def test_sgd_step_allocates_less_than_one_buffer():
    model = build_model([8, 500, 600, 3], seed=2)
    set_trainable_tail(model, 2)
    weights = model.tensor_map(trainable_only=True)
    assert weights.layout == LAYOUT
    grads = map_of(np.random.default_rng(2).normal(size=SIZE))
    expected = weights.flat - 0.1 * grads.flat
    assert traced_peak(lambda: sgd_step(model, grads, 0.1)) < BUFFER_BYTES
    assert weights.flat.tobytes() == expected.tobytes()


@pytest.mark.parametrize("method", ["spider", "spider_binary", "spider_weighted_norescale"])
def test_masked_run_frees_each_steps_mask(method):
    base = build_model([8, 500, 600, 3], seed=3)
    set_trainable_tail(base, 2)
    target = generate_task(default_target())
    data = batches_of(target.train_inputs, target.train_labels, 16)[:3]
    cfg = TrainConfig(method=method, epochs=1)
    warm = base.copy()
    finetune_spider(warm, warm.tensor_map(trainable_only=True).copy(), data[:1], cfg)

    model = base.copy()
    pretrained = model.tensor_map(trainable_only=True).copy()
    peak = traced_peak(lambda: finetune_spider(model, pretrained, data, cfg))
    # accumulator, fixed scores, gradient, scores, deviations, mask and its
    # selection: 5.125 buffers; the previous step's mask alive beside the
    # next one's makes it 6.25
    assert peak < 5.5 * BUFFER_BYTES


def test_half_ft_gates_its_gradient_in_place(monkeypatch):
    base = build_model([8, 500, 600, 3], seed=5)
    set_trainable_tail(base, 2)
    target = generate_task(default_target())
    data = batches_of(target.train_inputs, target.train_labels, 16)[:4]
    steps, loss_and_gradient = [], trainer._loss_and_gradient

    def traced_from_step_2(*args, **kwargs):
        steps.append(args[2])
        if len(steps) == 2:
            tracemalloc.start()
        return loss_and_gradient(*args, **kwargs)

    monkeypatch.setattr(trainer, "_loss_and_gradient", traced_from_step_2)
    model = base.copy()
    try:
        finetune_baseline(model, model.tensor_map(trainable_only=True).copy(), data,
                          TrainConfig(method="half_ft", epochs=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert steps == [0, 1, 2, 3]
    # over steps 2-4: a gate mask per step would be one whole buffer
    assert peak < 0.5 * BUFFER_BYTES


@pytest.mark.parametrize("method", ["spider", "spider_binary", "spider_weighted_norescale",
                                    "full_ft"])
def test_a_run_allocates_one_gradient_and_one_mask_buffer(monkeypatch, method):
    seen = {"gradient": [], "mask": []}  # kept alive, so no address is reused

    def spy(fn, kind, array_of):
        def wrapped(*args, **kwargs):
            seen[kind].append(array_of(args))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(trainer, "accumulate_gradient", spy(
        trainer.accumulate_gradient, "gradient", lambda args: args[1].flat))
    monkeypatch.setattr(trainer, "merge", spy(
        trainer.merge, "mask", lambda args: args[2].mask.flat))
    model = build_model([8, 40, 30, 3], seed=4)
    set_trainable_tail(model, 2)
    target = generate_task(default_target())
    data = batches_of(target.train_inputs, target.train_labels, 16)[:3]
    driver = finetune_baseline if method == "full_ft" else finetune_spider
    driver(model, model.tensor_map(trainable_only=True).copy(), data,
           TrainConfig(method=method, epochs=1))

    buffers = {kind: {a.ctypes.data for a in arrays} for kind, arrays in seen.items()}
    assert len(seen["gradient"]) == 3 and len(buffers["gradient"]) == 1
    if method == "full_ft":
        assert not seen["mask"]
    else:
        assert len(seen["mask"]) == 3 and len(buffers["mask"]) == 1
        assert buffers["mask"] != buffers["gradient"]
