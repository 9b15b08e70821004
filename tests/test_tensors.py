"""Elementwise transforms and the TensorMap container."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spiderft.errors import (
    AlignmentError,
    ConfigError,
    DimensionError,
    SpiderftError,
    ZeroNormError,
)
from spiderft.tensors import (
    FlatTensor,
    Layout,
    TensorMap,
    cosine_similarity,
    masked_mean,
    sigmoid,
    zscore,
    zscore_map,
)

from helpers import tmap

Z123 = 1.224744871391589  # 1 / sqrt(2/3), population std of [1,2,3]


def vec(values, name="t"):
    return FlatTensor.of(name, values)


# ---------------------------------------------------------------------------
# zscore
# ---------------------------------------------------------------------------


def test_zscore_three_point_example():
    out = zscore(vec([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out.data, [-Z123, 0.0, Z123], rtol=0, atol=1e-12)


def test_zscore_two_point_example():
    out = zscore(vec([0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [-1.0, 1.0])


def test_zscore_constant_input_maps_to_zeros():
    out = zscore(vec([5.0, 5.0, 5.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 0.0])


def test_zscore_idempotent():
    rng = np.random.default_rng(7)
    x = vec(rng.normal(3.0, 2.5, size=64))
    once = zscore(x)
    twice = zscore(once)
    np.testing.assert_allclose(twice.data, once.data, rtol=0, atol=1e-9)


def test_zscore_output_stats():
    rng = np.random.default_rng(8)
    out = zscore(vec(rng.uniform(-5, 5, size=101)))
    assert abs(float(np.mean(out.data))) < 1e-12
    assert abs(float(np.std(out.data)) - 1.0) < 1e-12


def test_zscore_shift_and_scale_invariance():
    rng = np.random.default_rng(9)
    x = rng.normal(size=32)
    base = zscore(vec(x)).data
    np.testing.assert_allclose(zscore(vec(4.0 * x + 11.0)).data, base, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# sigmoid
# ---------------------------------------------------------------------------


def test_sigmoid_at_zero():
    assert sigmoid(vec([0.0])).data[0] == 0.5


def test_sigmoid_log3_gives_three_quarters():
    out = sigmoid(vec([np.log(3.0)]))
    assert abs(out.data[0] - 0.75) < 1e-12


def test_sigmoid_saturation_stays_strictly_interior():
    out = sigmoid(vec([40.0, -40.0, 800.0, -800.0]))
    assert abs(out.data[0] - 1.0) < 1e-15
    assert np.all(out.data > 0.0)
    assert np.all(out.data < 1.0)


def test_sigmoid_monotone():
    x = np.linspace(-30, 30, 301)
    out = sigmoid(vec(x)).data
    assert np.all(np.diff(out) > 0)


def test_sigmoid_symmetry():
    x = np.linspace(-5, 5, 41)
    out = sigmoid(vec(x)).data
    np.testing.assert_allclose(out + out[::-1], np.ones_like(x), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# cosine similarity
# ---------------------------------------------------------------------------


def test_cosine_parallel():
    assert abs(cosine_similarity(vec([1.0, 1.0]), vec([2.0, 2.0])) - 1.0) < 1e-12


def test_cosine_orthogonal():
    assert abs(cosine_similarity(vec([1.0, 0.0]), vec([0.0, 1.0]))) < 1e-15


def test_cosine_45_degrees():
    c = cosine_similarity(vec([1.0, 1.0]), vec([1.0, 0.0]))
    assert abs(c - 0.7071067811865475) < 1e-12


def test_cosine_self_symmetry_scaling():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=20), rng.normal(size=20)
    assert abs(cosine_similarity(vec(a), vec(a)) - 1.0) < 1e-12
    ab = cosine_similarity(vec(a), vec(b))
    ba = cosine_similarity(vec(b), vec(a))
    assert abs(ab - ba) < 1e-15
    assert abs(cosine_similarity(vec(3.5 * a), vec(b)) - ab) < 1e-12


def test_cosine_never_leaves_unit_interval():
    # clipping guard: near-parallel vectors can round past 1.0
    a = np.full(1000, 0.1)
    assert cosine_similarity(vec(a), vec(2.0 * a)) <= 1.0


def test_cosine_shape_mismatch():
    with pytest.raises(AlignmentError):
        cosine_similarity(vec([1.0, 2.0]), vec([1.0, 2.0, 3.0]))


def test_cosine_zero_norm():
    with pytest.raises(ZeroNormError):
        cosine_similarity(vec([0.0, 0.0]), vec([1.0, 0.0]))


# ---------------------------------------------------------------------------
# masked mean and abs
# ---------------------------------------------------------------------------


def test_masked_mean_ignores_zeros():
    value, empty = masked_mean(vec([0.0, 0.5, 0.75, 0.0]))
    assert value == 0.625
    assert empty is False


def test_masked_mean_empty_selection():
    value, empty = masked_mean(vec([0.0, 0.0]))
    assert value == 0.0
    assert empty is True


def test_masked_mean_no_zeros_is_plain_mean():
    value, empty = masked_mean(vec([1.0, 1.0, 1.0]))
    assert value == 1.0 and empty is False
    rng = np.random.default_rng(4)
    x = rng.uniform(0.1, 1.0, size=33)
    value, _ = masked_mean(vec(x))
    assert abs(value - float(np.mean(x))) < 1e-12


# ---------------------------------------------------------------------------
# FlatTensor / TensorMap container contracts
# ---------------------------------------------------------------------------


def test_flat_tensor_shape_data_mismatch():
    with pytest.raises(DimensionError):
        FlatTensor("t", (2, 3), np.zeros(5))
    for shape, size in (((2, -1), 0), ((-1, -2), 2)):  # a negative dim, whatever the product
        with pytest.raises(DimensionError, match="does not match shape"):
            FlatTensor("t", shape, np.zeros(size))


@settings(deadline=None)
@given(shape=st.lists(st.integers(-3, 4), max_size=3).map(tuple),
       data=st.lists(st.floats(), max_size=12))  # floats include NaN and inf
@example(shape=(-1, -2), data=[1.0, 2.0])
def test_flat_tensor_is_a_finite_vector_of_its_shape_or_a_package_error(shape, data):
    try:
        t = FlatTensor("t", shape, data)
    except SpiderftError:
        return
    assert t.data.dtype == np.float64 and t.data.ndim == 1 and t.data.flags.c_contiguous
    assert min(t.shape, default=0) >= 0 and t.data.size == math.prod(t.shape)
    assert np.isfinite(t.data).all() and t.data.reshape(t.shape).shape == t.shape


def test_flat_tensor_rejects_nonfinite():
    with pytest.raises(ConfigError):
        FlatTensor.of("t", [1.0, np.nan])
    with pytest.raises(ConfigError):
        FlatTensor.of("t", [np.inf])


def test_flat_tensor_view_round_trip():
    t = FlatTensor.of("t", np.arange(6.0).reshape(2, 3))
    assert t.shape == (2, 3)
    np.testing.assert_array_equal(t.data.reshape(t.shape), np.arange(6.0).reshape(2, 3))


def test_tensor_map_preserves_insertion_order():
    m = tmap(b=[1.0], a=[2.0], c=[3.0])
    assert m.names == ["b", "a", "c"]
    np.testing.assert_array_equal(m.flat, [1.0, 2.0, 3.0])


def test_tensor_map_rejects_duplicate_names():
    with pytest.raises(AlignmentError):
        TensorMap.from_tensors([FlatTensor.of("a", [1.0]), FlatTensor.of("a", [2.0])])
    with pytest.raises(AlignmentError):
        Layout(("a", "a"), ((1,), (1,)))


def test_tensor_map_alignment():
    a = tmap(x=[1.0, 2.0], y=[3.0])
    b = tmap(x=[9.0, 9.0], y=[9.0])
    c = tmap(y=[9.0], x=[9.0, 9.0])  # same names, wrong order
    assert a.layout == b.layout
    assert a.layout != c.layout
    with pytest.raises(AlignmentError):
        a.require_aligned(c, "test")


def test_with_flat_builds_no_entry(monkeypatch):
    m = tmap(x=[1.0, 2.0], y=[3.0])
    built = []
    # the checked constructor's __post_init__ and the unchecked _wrap
    checked, wrap = FlatTensor.__post_init__, FlatTensor._wrap.__func__
    monkeypatch.setattr(FlatTensor, "__post_init__",
                        lambda t: built.append("checked") or checked(t))
    monkeypatch.setattr(FlatTensor, "_wrap",
                        classmethod(lambda cls, *a: built.append("wrap") or wrap(cls, *a)))
    flat = np.zeros(3)
    views = (m.with_flat(flat), TensorMap.over(m.layout, flat), m.copy())
    assert built == []
    assert all(v.layout is m.layout for v in views) and views[0].flat is flat
    assert views[0]["y"].data.base is flat  # an entry is a view made on access
    assert built == ["wrap"]


def test_tensor_map_copy_is_independent():
    a = tmap(x=[1.0, 2.0])
    b = a.copy()
    b["x"].data[0] = 99.0
    assert a["x"].data[0] == 1.0


def test_packed_map_views_one_buffer():
    x, y = FlatTensor.of("x", [1.0, 2.0]), FlatTensor.of("y", [3.0])
    m = TensorMap.from_tensors([x, y])
    np.testing.assert_array_equal(m.flat, [1.0, 2.0, 3.0])
    # from_tensors copies its inputs into the new buffer
    assert not np.shares_memory(m.flat, x.data) and not np.shares_memory(m.flat, y.data)
    m["y"].data[0] = 9.0
    assert m.flat[2] == 9.0 and y.data[0] == 3.0
    copied = m.copy()
    assert not np.shares_memory(copied.flat, m.flat)
    assert all(np.shares_memory(t.data, copied.flat) for t in copied)
    assert TensorMap.from_tensors([]).flat.size == 0
    with pytest.raises(DimensionError):
        m.with_flat(np.zeros(4))


def test_zscore_map_global_matches_concatenated_stats():
    rng = np.random.default_rng(5)
    m = tmap(x=rng.normal(size=10), y=rng.normal(2.0, 3.0, size=7))
    flat = m.flat.copy()
    expected = (flat - flat.mean()) / flat.std()
    out = zscore_map(m, "global")
    np.testing.assert_allclose(out.flat, expected, rtol=0, atol=1e-12)


def test_zscore_map_per_tensor_normalizes_each_alone():
    m = tmap(x=[1.0, 2.0, 3.0], y=[10.0, 30.0])
    out = zscore_map(m, "per_tensor")
    np.testing.assert_allclose(out["x"].data, [-Z123, 0.0, Z123], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(out["y"].data, [-1.0, 1.0])


def test_zscore_map_unknown_scope():
    with pytest.raises(ConfigError):
        zscore_map(tmap(x=[1.0]), "per_layer")
