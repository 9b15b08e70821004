"""The step's passes, reductions, gather and dot products split across the
usable CPUs.

From tensors.SPLIT entries on, and only then, blockwise cuts a pass into
runs, add_reduce cuts a sum where numpy's pairwise sum cuts it, gather
compresses each run at its own offset, the finiteness check takes one dot
product per run, and pid takes its two dot products side by side.  Each
gives the bits of the one-thread call, whatever the worker count.  backward
writes a weight gradient larger than BLOCK with np.matmul, which gives
ndarray.dot's bits.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spiderft import tensors
from spiderft.errors import DivergenceError, ZeroNormError
from spiderft.importance import PID_COS_FLOOR, pid, pid_of_magnitudes
from spiderft.tensors import BLOCK, MIN_RUN, SPLIT, Layout, TensorMap, add_reduce, gather
from spiderft.trainer import (Batch, _require_finite, backward, build_model, forward,
                              set_trainable_tail)

LONGEST = 3 * 2**20  # a sum this long is cut three times deep at eight workers
SETTINGS = settings(max_examples=60, deadline=None)


@cache
def base() -> np.ndarray:
    values = np.random.default_rng(33).standard_normal(LONGEST + 1100)
    values.flags.writeable = False
    return values


def at_workers(workers: int, call, *args):
    saved, tensors.WORKERS = tensors.WORKERS, workers
    try:
        return call(*args)
    finally:
        tensors.WORKERS = saved


# -- add_reduce ----------------------------------------------------------------


@SETTINGS
@given(size=st.one_of(st.integers(129, LONGEST),
                      st.sampled_from([0, 1, 128, 129, SPLIT - 1, SPLIT, SPLIT + 7,
                                       2 * SPLIT + 8])),
       offset=st.integers(0, 1025), scale=st.sampled_from([1.0, 1e-300, 3.5e7, -2.0**600]),
       workers=st.integers(1, 4))
@example(size=LONGEST, offset=1, scale=1.0, workers=4)
@example(size=0, offset=0, scale=1.0, workers=2)
@example(size=1, offset=5, scale=-2.0**600, workers=2)
@example(size=128, offset=3, scale=1.0, workers=4)
def test_add_reduce_gives_the_bits_of_np_add_reduce(size, offset, scale, workers):
    values = base()[offset : offset + size] * scale
    assert at_workers(workers, add_reduce, values).tobytes() == np.add.reduce(values).tobytes()


@pytest.mark.parametrize("workers", [5, 8])
def test_add_reduce_cut_three_deep_keeps_the_bits(workers):
    values = base()[3 : 3 + LONGEST]
    leaves = []
    tensors._pairwise(0, values.size, workers, leaves)
    assert len(leaves) == workers
    assert at_workers(workers, add_reduce, values) == np.add.reduce(values)


def test_add_reduce_of_negative_zeros_is_numpys_positive_zero():
    values = np.full(2 * SPLIT, -0.0)
    assert at_workers(2, add_reduce, values).tobytes() == np.add.reduce(values).tobytes()


def test_add_reduce_below_the_split_is_one_call():
    leaves = []
    assert tensors._pairwise(0, SPLIT - 1, 8, leaves) == 0 and leaves == [(0, SPLIT - 1)]


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_blockwise_runs_split_from_split_entries_as_the_reductions_do(workers):
    for n in (7 * BLOCK, 7 * BLOCK + 1, SPLIT - 1, SPLIT, SPLIT + 1):
        parts = at_workers(workers, tensors.runs, n)
        assert (len(parts) > 1) == (n >= SPLIT and workers > 1), n
        assert parts[0][0] == 0 and parts[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(parts, parts[1:]))


# -- gather ----------------------------------------------------------------------


@pytest.mark.parametrize("density", [0.0, 0.01, 0.5, 1.0])
@pytest.mark.parametrize("size", [SPLIT, 3 * MIN_RUN * BLOCK + 5, 1_048_576 + 4099])
def test_a_split_gather_equals_the_serial_one(size, density):
    values = base()[:size]
    selected = np.random.default_rng(size).random(size) < density
    serial = at_workers(1, gather, values, selected, None).copy()
    assert serial.tobytes() == values[selected].tobytes()
    for workers in (2, 3, 4):
        scratch = np.full(size, np.nan)
        got = at_workers(workers, gather, values, selected, scratch)
        assert got.base is scratch and got.tobytes() == serial.tobytes()


# -- the finiteness check --------------------------------------------------------


def one_tensor_map(values: np.ndarray) -> TensorMap:
    return TensorMap.over(Layout(("layer1.weight",), ((values.size,),)), values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_finiteness_check_finds_a_bad_entry_in_any_run(workers, bad):
    for size in (323, 3 * MIN_RUN * BLOCK + 11):  # the sweep tail, and three runs
        for lo, hi in at_workers(workers, tensors.runs, size):
            for where in (lo, hi - 1):
                values = np.ones(size)
                values[where] = bad
                with pytest.raises(DivergenceError, match="non-finite weights in 'layer1.weight'"):
                    at_workers(workers, _require_finite, 7, "weights", one_tensor_map(values))


@pytest.mark.parametrize("entry", [1e200, 10**151.5], ids=["each-run", "only-the-total"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_finiteness_check_falls_back_per_entry_on_an_overflow(workers, entry):
    # the sum of squares overflows (in every run, or, at three workers, only
    # when the runs' sums are added), yet every entry is finite; the loop
    # ignores numpy's overflow warning, in every run
    values = np.full(3 * MIN_RUN * BLOCK + 11, entry)
    with np.errstate(over="ignore"):
        at_workers(workers, _require_finite, 7, "weights", one_tensor_map(values))


# -- pid ---------------------------------------------------------------------------


def pid_on_one_thread(w: np.ndarray, g: np.ndarray) -> float:
    cos = float(w.dot(g)) / (math.sqrt(w.dot(w)) * math.sqrt(g.dot(g)))
    return max(min(1.0, max(-1.0, cos)), PID_COS_FLOOR) ** -2


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("size", [323, SPLIT - 1, SPLIT, 1_048_576 + 4099])
def test_pid_of_magnitudes_keeps_pids_bits(workers, size):
    rng = np.random.default_rng(size)
    w, g = np.abs(rng.standard_normal(size)), np.abs(rng.standard_normal(size)) ** 3
    layout = Layout(("t",), ((size,),))
    expected = pid_on_one_thread(w, g)
    got = at_workers(workers, pid_of_magnitudes, w, math.sqrt(w.dot(w)), g)
    assert got == expected
    assert at_workers(workers, pid, TensorMap.over(layout, w), TensorMap.over(layout, g)) == got


@pytest.mark.parametrize("workers", [1, 2])
def test_pid_of_a_zero_gradient_still_raises(workers):
    w = np.ones(SPLIT)
    with pytest.raises(ZeroNormError, match="gradient_magnitude"):
        at_workers(workers, pid_of_magnitudes, w, math.sqrt(w.dot(w)), np.zeros(SPLIT))


# -- backward's weight gradient: np.matmul against ndarray.dot ---------------------


def gradient_by_dot(model, cache) -> np.ndarray:
    """backward's trainable gradient with every weight gradient taken by ndarray.dot."""
    layers, lowest, probs = model._layers, model.lowest_trainable, cache.probs
    dz = np.subtract(probs, cache.batch.targets(probs.shape[1])[1])
    dz /= float(len(probs))
    grads = []
    for k in range(len(layers) - 1, lowest - 1, -1):
        w, a_in = layers[k][0], cache.layer_inputs[k]
        grads[:0] = [dz.T.dot(a_in).reshape(-1), np.add.reduce(dz, axis=0)]
        if k > lowest:
            dz = dz.dot(w)
            dz *= 1.0 - a_in**2
    return np.concatenate(grads)


@pytest.mark.parametrize("dims", [(8, 1024, 1024, 3), (8, 640, 640, 3)], ids=["wide", "640"])
def test_a_large_weight_gradient_keeps_dots_bits_at_every_batch_size(dims):
    model = build_model(list(dims), 2)
    set_trainable_tail(model, 2)
    tail = model.tensor_map(trainable_only=True)
    assert max(s.size for s in tail.segments) > BLOCK
    rng = np.random.default_rng(4)
    for rows in range(1, 33):
        batch = Batch(rng.normal(size=(rows, dims[0])), rng.integers(0, dims[-1], size=rows))
        _, cache = forward(model, batch)
        grads = backward(model, cache)
        assert grads.flat.tobytes() == gradient_by_dot(model, cache).tobytes(), rows
