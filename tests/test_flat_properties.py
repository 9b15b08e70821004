"""Property tests: packed buffers against per-tensor maps.

Every public numeric function accepts maps whose tensors are views of one
packed buffer as well as maps of separate tensors.  On random segment
tables both must give bitwise-identical results, and outside a driver no
function may write into its inputs.
"""

from __future__ import annotations

import logging

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spiderft.errors import ZeroNormError
from spiderft.importance import (
    GradAccumulator,
    accumulate_gradient,
    generalization_importance,
    pid,
    pid_per_tensor,
    specialization_importance,
)
from spiderft.masking import (
    UpdateMask,
    binary_mask,
    dare_mask_and_rescale,
    merge,
    random_half_mask,
    rescale_mask,
    weighted_mask,
)
from spiderft.tensors import STD_EPS, FlatTensor, TensorMap, aligned_arrays, zscore_map

SETTINGS = settings(max_examples=60, deadline=None)
SCOPES = st.sampled_from(["per_tensor", "global"])

# one to four tensors; single-element ones are drawn often
shapes = st.lists(
    st.one_of(
        st.just((1,)),
        st.tuples(st.integers(1, 12)),
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
    ),
    min_size=1,
    max_size=4,
)


@st.composite
def payloads(draw, elements, table=None):
    """A segment table and one flat payload; some tensors are constant."""
    table = draw(shapes) if table is None else table
    parts = []
    for shape in table:
        size = int(np.prod(shape))
        if draw(st.booleans()):
            parts.append(np.full(size, draw(elements)))
        else:
            parts.append(draw(arrays(np.float64, size, elements=elements)))
    return table, np.concatenate(parts)


@st.composite
def two_payloads(draw, first, second):
    """Two payloads on one segment table."""
    table, a = draw(payloads(first))
    _, b = draw(payloads(second, table))
    return table, a, b


def both(table, flat) -> tuple[TensorMap, TensorMap]:
    """The same values as a packed map and as a map of separate tensors."""
    layout = [(f"t{k}", shape) for k, shape in enumerate(table)]
    packed = TensorMap.over(layout, flat.copy())
    loose = TensorMap.from_tensors(
        FlatTensor(t.name, t.shape, t.data.copy()) for t in packed
    )
    assert packed.flat is not None and loose.flat is None
    return packed, loose


def assert_same(a: TensorMap, b: TensorMap) -> None:
    assert a.signature() == b.signature()
    for x, y in zip(a, b):
        assert np.array_equal(x.data, y.data), x.name
        assert x.data.tobytes() == y.data.tobytes(), x.name  # signed zeros too


def snapshot(*maps: TensorMap) -> list[bytes]:
    return [t.data.tobytes() for m in maps for t in m]


def outcome(fn, *args):
    """The result, or the error for profiles too small to have a direction."""
    try:
        return fn(*args)
    except ZeroNormError:
        return "zero norm"


values = st.floats(-8.0, 8.0, allow_nan=False, width=64)
scores = st.floats(0.01, 0.99, allow_nan=False, width=64)


@SETTINGS
@given(payloads(values), SCOPES)
def test_zscore_map_packed_matches_per_tensor(data, scope):
    packed, loose = both(*data)
    before = snapshot(packed, loose)
    out_packed, out_loose = zscore_map(packed, scope), zscore_map(loose, scope)
    assert_same(out_packed, out_loose)
    assert snapshot(packed, loose) == before
    if scope == "per_tensor":
        for t, z in zip(loose, out_loose):
            if float(np.std(t.data)) < STD_EPS:  # constant and single-element tensors
                assert np.all(z.data == 0.0)


@SETTINGS
@given(two_payloads(values, values), SCOPES, st.floats(0.0, 0.99))
def test_importance_and_accumulator_packed_match(data, scope, beta):
    table, w_flat, g_flat = data
    w_packed, w_loose = both(table, w_flat)
    g_packed, g_loose = both(table, g_flat)
    before = snapshot(w_packed, w_loose, g_packed, g_loose)

    assert_same(generalization_importance(w_packed, scope),
                generalization_importance(w_loose, scope))

    loose_zeros = TensorMap.from_tensors(t.with_data(np.zeros(t.size)) for t in w_loose)
    states = [GradAccumulator.empty(w_loose, beta), GradAccumulator(loose_zeros, beta)]
    assert states[0].acc.flat is not None and states[1].acc.flat is None
    # mixed packing on purpose: packed accumulator, loose gradients and back
    for state, first, second in zip(states, (g_loose, g_packed), (w_packed, w_loose)):
        accumulate_gradient(state, first)
        accumulate_gradient(state, second)
    assert_same(states[0].acc, states[1].acc)
    accumulated = snapshot(states[0].acc, states[1].acc)
    assert_same(specialization_importance(states[0], scope),
                specialization_importance(states[1], scope))

    assert outcome(pid, w_packed, states[0].acc) == outcome(pid, w_loose, states[1].acc)
    assert outcome(pid_per_tensor, w_packed, g_packed) == outcome(pid_per_tensor, w_loose, g_loose)
    assert snapshot(w_packed, w_loose, g_packed, g_loose) == before
    assert snapshot(states[0].acc, states[1].acc) == accumulated


def scores_pair(table, g_flat, i_flat):
    g_packed, g_loose = both(table, g_flat)
    i_packed, i_loose = both(table, i_flat)
    return (g_packed, i_packed), (g_loose, i_loose)


@SETTINGS
@given(two_payloads(scores, scores), SCOPES)
def test_masks_packed_match_per_tensor(data, scope):
    (g_p, i_p), (g_l, i_l) = scores_pair(*data)
    before = snapshot(g_p, i_p, g_l, i_l)

    assert_same(binary_mask(g_p, i_p).mask, binary_mask(g_l, i_l).mask)
    weighted_p, weighted_l = weighted_mask(g_p, i_p), weighted_mask(g_l, i_l)
    assert_same(weighted_p.mask, weighted_l.mask)
    assert snapshot(g_p, i_p, g_l, i_l) == before

    weighted_before = snapshot(weighted_p.mask, weighted_l.mask)
    rescaled_p, rescaled_l = rescale_mask(weighted_p, scope), rescale_mask(weighted_l, scope)
    assert_same(rescaled_p.mask, rescaled_l.mask)
    assert rescaled_p.empty_selection == rescaled_l.empty_selection
    assert snapshot(weighted_p.mask, weighted_l.mask) == weighted_before

    in_place = rescale_mask(weighted_p, scope, out=weighted_p.mask)
    assert in_place.mask is weighted_p.mask
    assert_same(in_place.mask, rescaled_l.mask)


@SETTINGS
@given(two_payloads(scores, scores), SCOPES)
def test_all_deselected_mask_is_flagged_and_logged(data, scope):
    table, g_flat, i_flat = data
    # G <= I everywhere: nothing is selected
    (g_p, i_p), (g_l, i_l) = scores_pair(table, np.minimum(g_flat, i_flat), i_flat)
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("spiderft.masking")
    logger.addHandler(handler)
    try:
        for g, i in ((g_p, i_p), (g_l, i_l)):
            weighted = weighted_mask(g, i)
            assert weighted.density == 0.0
            out = rescale_mask(weighted, scope)
            assert out.empty_selection
            assert np.all(out.mask.as_flat() == 0.0)
    finally:
        logger.removeHandler(handler)
    assert sum("empty selection" in r.getMessage() for r in records) == 2


@SETTINGS
@given(payloads(values), st.data())
def test_merge_packed_matches_per_tensor_and_in_place(weights, data):
    table, w_flat = weights
    pre_flat = data.draw(arrays(np.float64, w_flat.size, elements=values))
    mask_flat = data.draw(arrays(np.float64, w_flat.size, elements=st.sampled_from(
        [0.0, 1.0, 0.25, 0.625, 0.9])))
    w_p, w_l = both(table, w_flat)
    pre_p, pre_l = both(table, pre_flat)
    m_p, m_l = both(table, mask_flat)
    before = snapshot(w_p, w_l, pre_p, pre_l, m_p, m_l)

    merged_p = merge(w_p, pre_p, UpdateMask(m_p))
    merged_l = merge(w_l, pre_l, UpdateMask(m_l))
    assert_same(merged_p, merged_l)
    assert snapshot(w_p, w_l, pre_p, pre_l, m_p, m_l) == before

    for current in (w_p, w_l):
        out = merge(current, pre_p, UpdateMask(m_p), out=current)
        assert out is current
        assert_same(current, merged_p)
    # the merge's support property: a zero mask entry restores pretrained exactly
    off = mask_flat == 0.0
    assert np.array_equal(merged_p.flat[off], pre_flat[off])


@SETTINGS
@given(payloads(values), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
def test_random_transforms_packed_match(data, drop_p, seed):
    packed, loose = both(*data)
    before = snapshot(packed, loose)
    assert_same(dare_mask_and_rescale(packed, drop_p, seed),
                dare_mask_and_rescale(loose, drop_p, seed))
    assert_same(random_half_mask(packed, seed).mask, random_half_mask(loose, seed).mask)
    assert snapshot(packed, loose) == before


@SETTINGS
@given(payloads(values))
def test_pack_copy_and_views_keep_values(data):
    table, flat = data
    packed, loose = both(table, flat)
    assert [a.tolist() for (a, b) in aligned_arrays(packed, packed.copy())] == [flat.tolist()]
    assert len(list(aligned_arrays(packed, loose))) == len(table)

    tensors = list(loose)
    assert loose.pack() is loose
    assert all(a is b for a, b in zip(loose, tensors))  # same objects, rebound
    assert np.array_equal(loose.flat, flat)
    assert all(np.shares_memory(t.data, loose.flat) for t in loose)

    copied = packed.copy()
    assert not np.shares_memory(copied.flat, packed.flat)
    assert_same(copied, packed)
    assert np.array_equal(packed.concat(), flat)
    assert not np.shares_memory(packed.concat(), packed.flat)
