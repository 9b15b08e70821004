"""Memory bounds of the fine-tuning step's in-place stages.

On a map of more than 2^18 entries, the merge into an `out` map, a fold into
an initialized accumulator and an SGD step each allocate less than one
trainable-sized buffer: they write into buffers that already exist, and the
blocked chains use one block-sized scratch.  tracemalloc sees numpy's data
buffers, so its peak bounds every temporary a stage makes.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from spiderft.importance import GradAccumulator, accumulate_gradient
from spiderft.masking import UpdateMask, merge
from spiderft.tensors import BLOCK, TensorMap
from spiderft.trainer import build_model, set_trainable_tail, sgd_step

# more than 2^18 entries, and not a whole number of blocks
LAYOUT = (("layer1.weight", (600, 500)), ("layer1.bias", (600,)),
          ("layer2.weight", (3, 600)), ("layer2.bias", (3,)))
SIZE = sum(int(np.prod(shape)) for _, shape in LAYOUT)
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
    assert weights.layout() == LAYOUT
    grads = map_of(np.random.default_rng(2).normal(size=SIZE))
    expected = weights.flat - 0.1 * grads.flat
    assert traced_peak(lambda: sgd_step(model, grads, 0.1)) < BUFFER_BYTES
    assert weights.flat.tobytes() == expected.tobytes()
