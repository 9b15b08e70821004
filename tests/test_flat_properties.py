"""Property tests: whole-buffer map functions against per-segment numpy.

Every map keeps its tensors as consecutive segments of one buffer, and the
numeric functions work on that buffer at once.  On random segment tables
each result must equal, bit for bit, plain numpy arithmetic applied segment
by segment (or to the whole vector where the scope is global), and no
function may write into its inputs unless it is handed them as ``out``.
The model step's GEMMs (ndarray.dot) must give the bits of ``@`` and
np.matmul on every layer count, width, batch size and trainable tail.
"""

from __future__ import annotations

import logging

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from spiderft.errors import ZeroNormError
from spiderft.importance import (
    PID_COS_FLOOR,
    GradAccumulator,
    accumulate_gradient,
    generalization_importance,
    pid,
    pid_per_tensor,
    specialization_importance,
)
from spiderft import masking
from spiderft.masking import (
    MaskRule,
    UpdateMask,
    binary_mask,
    dare_mask_and_rescale,
    merge,
    random_half_mask,
    rescale_mask,
    weighted_mask,
)
from spiderft.tensors import (
    BLOCK,
    STD_EPS,
    Layout,
    TensorMap,
    norm,
    selected_mean_array,
    zscore_array,
    zscore_map,
)
from spiderft.trainer import backward, batches_of, build_model, forward, set_trainable_tail

SETTINGS = settings(max_examples=60, deadline=None)
SCOPES = st.sampled_from(["per_tensor", "global"])
MASK_VARIANTS = ("binary", "weighted", "rescaled", "gradient", "magnitude", "random")
_SIG_LO, _SIG_HI = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)

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


def tmap_of(table, flat) -> TensorMap:
    names = tuple(f"t{k}" for k in range(len(table)))
    return TensorMap.over(Layout(names, tuple(table)), flat.copy())


def segments(table, flat) -> list[np.ndarray]:
    bounds = np.cumsum([0] + [int(np.prod(s)) for s in table])
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def per_scope(fn, table, flat, scope) -> np.ndarray:
    """fn on each segment (per_tensor) or on the whole vector (global)."""
    if scope == "global":
        return fn(flat)
    return np.concatenate([fn(v) for v in segments(table, flat)])


def assert_bits(tm: TensorMap, expected: np.ndarray) -> None:
    assert tm.flat.tobytes() == np.asarray(expected, dtype=np.float64).tobytes()  # signed zeros too
    assert all(np.shares_memory(t.data, tm.flat) for t in tm)


def snapshot(*maps: TensorMap) -> list[bytes]:
    return [m.flat.tobytes() for m in maps]


def outcome(fn, *args):
    """The result, or the error for profiles too small to have a direction."""
    try:
        return fn(*args)
    except ZeroNormError:
        return "zero norm"


# -- reference arithmetic, straight from the formulas ------------------------


def ref_zscore(v):
    std = float(np.std(v)) if v.size else 0.0
    return np.zeros_like(v) if std < STD_EPS else (v - np.mean(v)) / std


def ref_sigmoid(v):
    return np.clip(expit(v), _SIG_LO, _SIG_HI)


def ref_pid(w, g):
    nw, ng = float(np.linalg.norm(w)), float(np.linalg.norm(g))
    if nw < 1e-12 or ng < 1e-12:
        return "zero norm"
    c = min(1.0, max(-1.0, float(np.dot(w, g)) / (nw * ng)))
    return max(c, PID_COS_FLOOR) ** -2


def ref_rescale(v):
    nz = v[v != 0.0]
    return v.copy() if nz.size == 0 else np.minimum(v / np.mean(nz), 1.0)


values = st.floats(-8.0, 8.0, allow_nan=False, width=64)
scores = st.floats(0.01, 0.99, allow_nan=False, width=64)


def ref_masked_mean(v):
    nz = v[v != 0.0]
    return (0.0, True) if nz.size == 0 else (float(np.mean(nz)), False)


@st.composite
def statistic_inputs(draw):
    """Vectors for the z-score and masked-mean statistics, edge cases included."""
    size = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 40)))
    kind = draw(st.sampled_from(["plain", "constant", "zeros", "near_eps", "mixed"]))
    if kind == "zeros":
        return np.zeros(size)
    if kind == "constant":
        return np.full(size, draw(st.floats(-1e6, 1e6)))
    if kind == "near_eps":  # a spread of a few STD_EPS around an offset
        noise = draw(arrays(np.float64, size, elements=st.floats(-1.0, 1.0)))
        spread = float(np.std(noise)) if size else 0.0
        scale = STD_EPS * draw(st.floats(0.25, 4.0)) / (spread or 1.0)
        v = draw(st.sampled_from([0.0, 1e-3, 1.0])) + scale * noise
    elif kind == "mixed":  # magnitudes from subnormal to 1e150 side by side
        v = draw(arrays(np.float64, size, elements=st.one_of(
            st.floats(-1e-300, 1e-300), st.floats(-1e6, 1e6), st.floats(-1e150, 1e150))))
    else:
        v = draw(arrays(np.float64, size, elements=values))
    if draw(st.booleans()):  # some exact zeros, which the masked mean skips
        v[draw(arrays(np.bool_, size))] = 0.0
    return v


@settings(max_examples=300, deadline=None)
@given(statistic_inputs())
def test_statistics_match_the_numpy_formulas_bit_for_bit(v):
    expected = ref_zscore(v).tobytes()
    assert zscore_array(v).tobytes() == expected
    out = np.full_like(v, np.nan)
    assert zscore_array(v, out) is out and out.tobytes() == expected
    in_place = v.copy()
    assert zscore_array(in_place, in_place).tobytes() == expected

    assert np.float64(norm(v)).tobytes() == np.linalg.norm(v).tobytes()

    mean, empty = selected_mean_array(v, v != 0.0)
    ref_mean, ref_empty = ref_masked_mean(v)
    assert empty == ref_empty
    assert np.float64(mean).tobytes() == np.float64(ref_mean).tobytes()


@SETTINGS
@given(payloads(values), SCOPES)
def test_zscore_map_packed_matches_per_tensor(data, scope):
    table, flat = data
    tm = tmap_of(table, flat)
    out = zscore_map(tm, scope)
    assert_bits(out, per_scope(ref_zscore, table, flat, scope))
    assert snapshot(tm) == [flat.tobytes()]
    if scope == "per_tensor":
        for v, z in zip(segments(table, flat), out):
            if float(np.std(v)) < STD_EPS:  # constant and single-element tensors
                assert np.all(z.data == 0.0)


@SETTINGS
@given(two_payloads(values, values), SCOPES, st.floats(0.0, 0.99))
def test_importance_and_accumulator_packed_match(data, scope, beta):
    table, w_flat, g_flat = data
    w, g = tmap_of(table, w_flat), tmap_of(table, g_flat)
    before = snapshot(w, g)

    assert_bits(generalization_importance(w, scope),
                per_scope(lambda v: ref_sigmoid(ref_zscore(np.abs(v))), table, w_flat, scope))

    state = GradAccumulator.empty(w, beta)
    accumulate_gradient(state, g)
    assert_bits(state.acc, np.abs(g_flat))
    accumulate_gradient(state, w)
    acc = np.abs(g_flat) * beta + np.abs(w_flat) * (1.0 - beta)
    assert_bits(state.acc, acc)
    accumulated = snapshot(state.acc)
    assert_bits(specialization_importance(state, scope),
                per_scope(lambda v: ref_sigmoid(ref_zscore(v)), table, acc, scope))

    assert outcome(pid, w, state.acc) == ref_pid(np.abs(w_flat), acc)
    per_tensor = [ref_pid(np.abs(a), np.abs(b))
                  for a, b in zip(segments(table, w_flat), segments(table, g_flat))]
    assert outcome(pid_per_tensor, w, g) == (
        "zero norm" if "zero norm" in per_tensor
        else {f"t{k}": value for k, value in enumerate(per_tensor)})
    assert snapshot(w, g) == before
    assert snapshot(state.acc) == accumulated


@SETTINGS
@given(two_payloads(scores, scores), SCOPES)
def test_masks_packed_match_per_tensor(data, scope):
    table, g_flat, i_flat = data
    g, i = tmap_of(table, g_flat), tmap_of(table, i_flat)
    before = snapshot(g, i)

    assert_bits(binary_mask(g, i).mask, (g_flat > i_flat).astype(np.float64))
    weighted = weighted_mask(g, i)
    w_flat = np.where(g_flat > i_flat, g_flat / (g_flat + i_flat), 0.0)
    assert_bits(weighted.mask, w_flat)
    assert weighted.density == np.count_nonzero(w_flat) / w_flat.size
    assert snapshot(g, i) == before

    rescaled = rescale_mask(weighted, scope)
    expected = per_scope(ref_rescale, table, w_flat, scope)
    assert_bits(rescaled.mask, expected)
    assert rescaled.empty_selection == (not np.any(w_flat))
    assert snapshot(weighted.mask) == [w_flat.tobytes()]

    in_place = rescale_mask(weighted, scope, out=weighted.mask)
    assert in_place.mask is weighted.mask
    assert_bits(in_place.mask, expected)


@SETTINGS
@given(two_payloads(scores, scores), SCOPES)
def test_all_deselected_mask_is_flagged_and_logged(data, scope):
    table, g_flat, i_flat = data
    # G <= I everywhere: nothing is selected
    g, i = tmap_of(table, np.minimum(g_flat, i_flat)), tmap_of(table, i_flat)
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("spiderft.masking")
    logger.addHandler(handler)
    try:
        weighted = weighted_mask(g, i)
        assert weighted.density == 0.0
        out = rescale_mask(weighted, scope)
        assert out.empty_selection
        assert np.all(out.mask.flat == 0.0)
    finally:
        logger.removeHandler(handler)
    assert sum("empty selection" in r.getMessage() for r in records) == 1


def rescaled_by_masked_mean(v):
    mean, empty = selected_mean_array(v, v != 0.0)
    return v.copy() if empty else np.minimum(v / mean, 1.0)


def mask_of(variant, g, i, scope, seed):
    """The variant's mask on arbitrary scores: a comparison mask from its
    primitives on G = g and I = i, an arm from a MaskRule that takes g as
    the accumulator and i as the pretrained weights."""
    if variant == "binary":
        return binary_mask(g, i)
    if variant in ("weighted", "rescaled"):
        m = weighted_mask(g, i)
        return m if variant == "weighted" else rescale_mask(m, scope)
    return MaskRule(variant, i, scope)(GradAccumulator(g, 0.9, initialized=True), seed)


@SETTINGS
@given(two_payloads(scores, scores), SCOPES, st.sampled_from(MASK_VARIANTS), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_selection_gives_the_density_and_rescale_mean_of_the_values(
        data, scope, variant, deselect, seed):
    table, g_flat, i_flat = data
    if deselect:  # G <= I everywhere: the comparison masks select nothing
        g_flat = np.minimum(g_flat, i_flat)
    g, i = tmap_of(table, g_flat), tmap_of(table, i_flat)
    m = mask_of(variant, g, i, scope, seed)
    before = m.mask.flat.copy()
    rescaled = rescale_mask(m, scope)

    n = before.size
    assert m.density == np.count_nonzero(before) / n
    assert rescaled.density == np.count_nonzero(rescaled.mask.flat) / n
    if variant == "rescaled":
        weighted = np.where(g_flat > i_flat, g_flat / (g_flat + i_flat), 0.0)
        assert_bits(m.mask, per_scope(rescaled_by_masked_mean, table, weighted, scope))
    # the reference rescales by selected_mean_array's mean, so this pins its bits
    assert_bits(rescaled.mask, per_scope(rescaled_by_masked_mean, table, before, scope))


@SETTINGS
@given(payloads(values), st.data())
def test_merge_packed_matches_per_tensor_and_in_place(weights, data):
    table, w_flat = weights
    pre_flat = data.draw(arrays(np.float64, w_flat.size, elements=values))
    mask_flat = data.draw(arrays(np.float64, w_flat.size, elements=st.sampled_from(
        [0.0, 1.0, 0.25, 0.625, 0.9])))
    w, pre, m = (tmap_of(table, f) for f in (w_flat, pre_flat, mask_flat))
    before = snapshot(w, pre, m)

    expected = w_flat * mask_flat + pre_flat * (1.0 - mask_flat)
    merged = merge(w, pre, UpdateMask(m))
    assert_bits(merged, expected)
    assert snapshot(w, pre, m) == before

    out = merge(w, pre, UpdateMask(m), out=w)
    assert out is w
    assert_bits(w, expected)
    # the merge's support property: a zero mask entry restores pretrained exactly
    off = mask_flat == 0.0
    assert np.array_equal(merged.flat[off], pre_flat[off])


@SETTINGS
@given(payloads(values), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
def test_random_transforms_packed_match(data, drop_p, seed):
    table, flat = data
    tm = tmap_of(table, flat)
    rng = np.random.default_rng(seed)
    kept = [v * (rng.random(v.size) >= drop_p) * (1.0 / (1.0 - drop_p)) if drop_p else v
            for v in segments(table, flat)]
    assert_bits(dare_mask_and_rescale(tm, drop_p, seed), np.concatenate(kept))

    chosen = np.random.default_rng(seed).choice(len(table), size=len(table) // 2, replace=False)
    half = [np.full(v.size, float(k in chosen)) for k, v in enumerate(segments(table, flat))]
    assert_bits(random_half_mask(tm, seed).mask, np.concatenate(half))
    assert snapshot(tm) == [flat.tobytes()]


@SETTINGS
@given(payloads(values))
def test_pack_copy_and_views_keep_values(data):
    table, flat = data
    tm = tmap_of(table, flat)
    for t, v, view in zip(tm, segments(table, flat), tm.views):
        assert t.data.tobytes() == v.tobytes()
        assert view.shape == t.shape and np.shares_memory(view, tm.flat)
    # the layout's segments are the entries named by it
    split = tm.layout.split(tm.flat)
    assert len(split) == len(tm.names)
    for name, segment in zip(tm.names, split):
        entry = tm[name].data
        assert segment.size == entry.size and segment.tobytes() == entry.tobytes()
        assert segment.size == 0 or np.shares_memory(segment, entry)

    copied = tm.copy()
    assert not np.shares_memory(copied.flat, tm.flat)
    assert_bits(copied, flat)
    rebuilt = TensorMap.from_tensors(tm)
    assert not np.shares_memory(rebuilt.flat, tm.flat)
    assert_bits(rebuilt, flat)
    assert np.array_equal(tm.flat, flat)


# -- the in-place forms: held buffers give the fresh forms' bytes ------------


@st.composite
def held_buffer_cases(draw):
    """Scores and accumulator payloads on segments below, at and above BLOCK
    (most of them not a multiple of it), with one constant tensor at times,
    a tensor of no entries at times (an empty unit: no gathered entries and
    no z-score) and, at times, no entry where G > I."""
    sizes = draw(st.lists(st.one_of(
        st.just(0), st.integers(1, 40),
        st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 9])),
        min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    acc = rng.exponential(size=n)
    g, i = rng.uniform(0.01, 0.99, size=n), rng.uniform(0.01, 0.99, size=n)
    if draw(st.booleans()):  # a constant tensor: its spread is below STD_EPS
        k = draw(st.integers(0, len(sizes) - 1))
        lo = sum(sizes[:k])
        acc[lo : lo + sizes[k]] = 0.25
        g[lo : lo + sizes[k]] = 0.5
    if draw(st.booleans()):  # nothing selected: G <= I everywhere
        g = np.minimum(g, i)
    return [(size,) for size in sizes], acc, g, i


def held(n: int, dtype=np.float64) -> np.ndarray:
    """A buffer full of values no stage may read."""
    return np.full(n, np.nan if dtype == np.float64 else True, dtype=dtype)


@settings(max_examples=25, deadline=None)
@given(held_buffer_cases(), SCOPES)
def test_in_place_forms_give_the_fresh_forms_bytes(case, scope):
    table, acc_flat, g_flat, i_flat = case
    n = acc_flat.size
    acc, g, i = tmap_of(table, acc_flat), tmap_of(table, g_flat), tmap_of(table, i_flat)

    out = held(n)
    assert zscore_array(acc_flat, out, scratch=held(n)) is out
    assert out.tobytes() == zscore_array(acc_flat).tobytes()
    fresh = zscore_map(acc, scope)
    out = tmap_of(table, held(n))
    assert zscore_map(acc, scope, out=out, scratch=held(n)) is out
    assert out.flat.tobytes() == fresh.flat.tobytes()

    state = GradAccumulator(acc, 0.9, initialized=True)
    fresh = specialization_importance(state, scope)
    out = tmap_of(table, held(n))
    assert specialization_importance(state, scope, out=out, scratch=held(n)) is out
    assert out.flat.tobytes() == fresh.flat.tobytes()
    assert acc.flat.tobytes() == acc_flat.tobytes()

    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("spiderft.masking")
    logger.addHandler(handler)
    try:
        for build in (binary_mask, weighted_mask):
            fresh = build(g, i)
            scores = g.copy()  # the in-place form writes over the scores
            selection = held(n, bool)
            m = build(scores, i, out=scores, selection=selection)
            assert m.mask is scores and m.selection is selection
            assert scores.flat.tobytes() == fresh.mask.flat.tobytes()
            assert np.array_equal(selection, fresh.selection)

        records.clear()
        rescaled = rescale_mask(fresh, scope)
        fresh_records = len(records)
        in_place = rescale_mask(m, scope, out=m.mask, scratch=held(n))
        assert in_place.mask is scores and in_place.selection is selection
        assert scores.flat.tobytes() == rescaled.mask.flat.tobytes()
        assert in_place.empty_selection == rescaled.empty_selection == (not selection.any())
        # the empty selection is still logged, once per call
        assert fresh_records == len(records) - fresh_records == int(in_place.empty_selection)

        # a rule over acc and i as the pretrained weights: each call writes
        # its one map and selection, with the bits of the fresh primitives
        g_fresh = specialization_importance(state, scope)
        i_fresh = generalization_importance(i, scope)
        for variant in masking.DISCREPANCY_MASKS:
            fresh = mask_of(variant, g_fresh, i_fresh, scope, 0)
            rule = MaskRule(variant, i, scope)
            first = rule(state, scratch=held(n))
            first_bytes = first.mask.flat.tobytes()
            second = rule(state, scratch=held(n))
            assert second.mask is first.mask and second.selection is first.selection
            assert first_bytes == second.mask.flat.tobytes() == fresh.mask.flat.tobytes()
            assert np.array_equal(second.selection, fresh.selection)
            assert second.empty_selection == fresh.empty_selection
    finally:
        logger.removeHandler(handler)
    assert snapshot(g, i) == [g_flat.tobytes(), i_flat.tobytes()]
    assert acc.flat.tobytes() == acc_flat.tobytes()


# -- the model step: ndarray.dot against @ and np.matmul ----------------------


def matmul_step(model, batch) -> tuple[float, np.ndarray, np.ndarray]:
    """forward's loss and probs and backward's trainable gradient, with the
    step's arithmetic written around ``@`` and np.matmul."""
    views = model.params.views
    layers = list(zip(views[0::2], views[1::2]))
    a, layer_inputs = batch.inputs, []
    for k, (w, b) in enumerate(layers):
        layer_inputs.append(a)
        a = a @ w.T + b
        if k < len(layers) - 1:
            a = np.tanh(a)
    shifted = a - np.maximum.reduce(a, axis=1, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(shifted), axis=1))
    index, onehot = batch.targets(model.class_count)
    loss = float(np.add.reduce(lse - shifted.take(index)) / len(batch))
    probs = np.exp(shifted - lse[:, None])
    dz = (probs - onehot) / len(batch)
    grads, lowest = [], model.lowest_trainable
    for k in range(len(layers) - 1, lowest - 1, -1):
        w, a_in = layers[k][0], layer_inputs[k]
        grads[:0] = [np.matmul(dz.T, a_in).reshape(-1), np.add.reduce(dz, axis=0)]
        if k > lowest:
            dz = (dz @ w) * (1.0 - a_in**2)
    return loss, probs, np.concatenate(grads)


@st.composite
def step_cases(draw):
    """Layer widths (2-4 layers), a trainable tail, a batch size, a row count
    whose last batch may be short, and a seed."""
    widths = tuple(draw(st.lists(st.integers(1, 40), min_size=3, max_size=5)))
    tail = draw(st.integers(1, len(widths) - 1))
    batch_size = draw(st.integers(1, 20))
    rows = draw(st.integers(1, 3 * batch_size))
    return widths, tail, batch_size, rows, draw(st.integers(0, 2**32 - 1))


@SETTINGS
@given(step_cases())
@example(((16, 1024, 1024, 3), 3, 16, 40, 0))  # BLAS's blocked kernels at the wide size
def test_step_gemms_give_the_bits_of_matmul(case):
    widths, tail, batch_size, rows, seed = case
    model = build_model(widths, seed)
    set_trainable_tail(model, tail)
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(rows, widths[0]))
    labels = rng.integers(0, widths[-1], size=rows)
    size = model.tensor_map(trainable_only=True).total_size
    for batch in batches_of(inputs, labels, batch_size):
        loss, probs, grad = matmul_step(model, batch)
        got_loss, cache = forward(model, batch)
        out = model.tensor_map(trainable_only=True).with_flat(held(size))
        backward(model, cache, out=out)
        assert got_loss == loss
        # dot takes a (1, 1) by (1, 1) product as one multiply, which keeps
        # the sign of a zero product; matmul adds it onto +0.0
        scalar_gemm = len(batch) == 1 and any(d == e == 1 for d, e in zip(widths, widths[1:]))
        for got, expected in ((cache.probs, probs), (out.flat, grad)):
            if scalar_gemm:
                got, expected = got + 0.0, expected + 0.0  # -0.0 + 0.0 is 0.0
            assert got.tobytes() == expected.tobytes()
