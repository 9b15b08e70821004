"""Model mechanics, gradients, and the two fine-tuning drivers."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spiderft import masking, trainer
from spiderft.benchmark import (
    default_suite,
    default_target,
    finetune_cell,
    generate_task,
    pretrain,
)
from spiderft.checkpoint import load_checkpoint, save_checkpoint
from spiderft.errors import (
    AlignmentError,
    ConfigError,
    DimensionError,
    DivergenceError,
    InvariantError,
    SpiderftError,
    StaleCacheError,
    ZeroNormError,
)
from spiderft.importance import pid
from spiderft.tensors import FlatTensor, TensorMap
from spiderft.trainer import (
    Batch,
    ToyModel,
    TrainConfig,
    backward,
    batches_of,
    build_model,
    finetune_baseline,
    finetune_spider,
    forward,
    set_trainable_tail,
    sgd_step,
)

from helpers import (
    finite_diff_grads,
    mapped,
    max_rel_error,
    model_layers,
    ref_forward,
    spider_step_by_hand,
)


def blob_data(seed, n=48, dim=4, classes=3, spread=0.4):
    """Round-robin labeled Gaussian blobs on the coordinate axes."""
    rng = np.random.default_rng(seed)
    means = 2.0 * np.eye(classes, dim)
    labels = np.arange(n, dtype=np.int64) % classes
    inputs = means[labels] + spread * rng.standard_normal((n, dim))
    return inputs, labels


def small_model(seed=1, dims=(4, 5, 5, 3), tail=2):
    model = build_model(list(dims), seed=seed)
    set_trainable_tail(model, tail)
    return model


def zero_model(dims):
    tensors = []
    for k, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        tensors += [FlatTensor.of(f"layer{k}.weight", np.zeros((d_out, d_in))),
                    FlatTensor.of(f"layer{k}.bias", np.zeros(d_out))]
    return ToyModel(tensors)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def test_zero_weights_two_classes_loss_is_log2():
    model = zero_model([3, 2])
    batch = Batch(np.ones((4, 3)), np.array([0, 1, 0, 1]))
    loss, _ = forward(model, batch)
    assert abs(loss - math.log(2.0)) < 1e-12


def test_forced_one_hot_logits_drive_loss_to_zero():
    # weight = 40 * identity on one-hot inputs: margin 40 per sample
    model = zero_model([3, 3])
    model.params["layer0.weight"].data[:] = (40.0 * np.eye(3)).reshape(-1)
    batch = Batch(np.eye(3), np.array([0, 1, 2]))
    loss, _ = forward(model, batch)
    assert 0.0 <= loss < 1e-15


def test_forward_matches_independent_implementation():
    model = build_model([4, 6, 5, 3], seed=0)
    inputs, labels = blob_data(0, n=32)
    batch = Batch(inputs, labels)
    loss, cache = forward(model, batch)
    ref_loss, ref_probs = ref_forward(model_layers(model), inputs, labels)
    assert abs(loss - ref_loss) < 1e-12
    np.testing.assert_allclose(cache.probs, ref_probs, rtol=0, atol=1e-12)


def test_forward_is_shift_stable():
    # a huge constant bias on the head must not overflow the softmax
    model = build_model([4, 6, 3], seed=2)
    model.params["layer1.bias"].data += 500.0
    model.version += 1
    inputs, labels = blob_data(2, n=8)
    loss, cache = forward(model, Batch(inputs, labels))
    assert np.isfinite(loss)
    np.testing.assert_allclose(cache.probs.sum(axis=1), np.ones(8), atol=1e-12)


def test_forward_rejects_wrong_width():
    model = small_model()
    with pytest.raises(DimensionError):
        forward(model, Batch(np.zeros((2, 7)), np.array([0, 0])))


def test_forward_rejects_out_of_range_labels():
    model = small_model()
    with pytest.raises(DimensionError):
        forward(model, Batch(np.zeros((2, 4)), np.array([0, 3])))


def test_batch_validation():
    with pytest.raises(DimensionError):
        Batch(np.zeros(4), np.array([0]))  # 1-D inputs
    with pytest.raises(DimensionError):
        Batch(np.zeros((3, 2)), np.array([0, 1]))  # label count mismatch
    with pytest.raises(DimensionError):
        Batch(np.zeros((0, 2)), np.array([]))  # empty batch
    with pytest.raises(DimensionError):
        Batch(np.zeros((1, 2)), 0)  # 0-d labels
    inputs = np.zeros((40, 2))
    for labels, batch_size in ((np.zeros(41, int), 16), (np.zeros(48, int), 8),
                               (np.zeros(39, int), 8), (np.zeros((40, 1), int), 8)):
        with pytest.raises(DimensionError):  # label count != row count
            batches_of(inputs, labels, batch_size)


@pytest.mark.parametrize("labels", [[0.7, 2.9], [np.nan, 1], [True, False], ["0", "1"]])
def test_batch_labels_must_have_an_integer_dtype(labels):
    # a float label is not truncated, and a bool is not an integer
    with pytest.raises(DimensionError, match="labels must be integers, got dtype"):
        Batch(np.zeros((2, 3)), labels)
    assert Batch(np.zeros((2, 3)), np.array([2, 1], dtype=np.uint8)).labels.tolist() == [2, 1]


@pytest.mark.parametrize("inputs,labels", [
    ([["a", "b"]], [0]),  # text
    ([[1.0], [2.0, 3.0]], [0, 1]),  # ragged inputs
    ([[1.0], [2.0]], [[0], [1, 2]]),  # ragged labels
    ([[10**400]], [0]),  # an int too large for a float
])
def test_batch_rejects_data_numpy_cannot_make_an_array_of(inputs, labels):
    with pytest.raises(DimensionError, match="^batch is not a numeric array: "):
        Batch(inputs, labels)
    with pytest.raises(DimensionError, match="^batch is not a numeric array: "):
        batches_of(inputs, labels, 1)  # the whole set is checked, not each row alone


def test_batches_of_takes_lists_and_passes_nan_inputs_on():
    (batch,) = batches_of([[1.0, 2.0]], [0], 1)
    assert batch.inputs.dtype == np.float64 and batch.inputs.tolist() == [[1.0, 2.0]]
    # a NaN input is the loop's DivergenceError (see the non-finite loss test), not the batch's
    assert np.isnan(batches_of([[np.nan, 1.0]], [0], 1)[0].inputs[0, 0])


CELLS = st.one_of(st.floats(), st.text(max_size=3), st.none())  # floats include NaN and inf
LABELS = st.one_of(st.integers(-2, 5), st.lists(st.integers(0, 2), max_size=2))


@settings(deadline=None)
@given(inputs=st.lists(st.lists(CELLS, max_size=3), max_size=4),  # ragged when lengths differ
       labels=st.lists(LABELS, max_size=4), batch_size=st.integers(1, 3))
@example(inputs=[[1.0], [2.0, 3.0]], labels=[0, 1], batch_size=1)
def test_batch_data_is_float_rows_or_a_package_error(inputs, labels, batch_size):
    for build in (lambda: [Batch(inputs, labels)], lambda: batches_of(inputs, labels, batch_size)):
        try:
            batches = build()
        except SpiderftError:
            continue
        assert sum(map(len, batches)) == len(inputs) and batches
        for batch in batches:  # float64 (B, d), one width for the whole set
            assert batch.inputs.dtype == np.float64 and len(batch) >= 1
            assert batch.inputs.shape == (len(batch), len(inputs[0]))
            assert batch.labels.dtype == np.int64 and batch.labels.shape == (len(batch),)


@pytest.mark.parametrize("batch_size,message", [
    (0, "batch_size must be >= 1, got 0"), (-1, "batch_size must be >= 1, got -1"),
    (1.5, "batch_size must be an integer, got float"),
])
def test_batches_of_rejects_a_bad_batch_size(batch_size, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        batches_of(np.zeros((4, 3)), np.zeros(4, int), batch_size)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def test_gradients_match_finite_differences():
    worst = 0.0
    for seed in range(5):
        model = build_model([4, 5, 3], seed=seed)
        inputs, labels = blob_data(seed + 100, n=8)
        batch = Batch(inputs, labels)
        _, cache = forward(model, batch)
        analytic = backward(model, cache)
        numeric = finite_diff_grads(model, batch)
        worst = max(worst, max_rel_error(analytic, numeric))
    assert worst < 1e-6


def test_duplicated_batch_rows_leave_mean_gradient_unchanged():
    model = build_model([4, 6, 3], seed=5)
    inputs, labels = blob_data(5, n=8)
    doubled = Batch(np.vstack([inputs, inputs]), np.hstack([labels, labels]))
    _, cache = forward(model, Batch(inputs, labels))
    g1 = backward(model, cache)
    _, cache = forward(model, doubled)
    g2 = backward(model, cache)
    for a, b in zip(g1, g2):
        np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-12)


def test_zero_weight_model_has_zero_hidden_gradients():
    # da = dz @ W vanishes through a zero head, so nothing reaches layer 0
    model = zero_model([3, 4, 2])
    batch = Batch(np.ones((6, 3)), np.array([0, 0, 0, 0, 1, 1]))
    _, cache = forward(model, batch)
    grads = backward(model, cache)
    assert np.all(grads["layer0.weight"].data == 0.0)
    assert np.all(grads["layer0.bias"].data == 0.0)
    assert np.any(grads["layer1.bias"].data != 0.0)


def test_backward_covers_trainables_only():
    model = small_model(dims=(4, 5, 5, 3), tail=2)
    inputs, labels = blob_data(6, n=8)
    _, cache = forward(model, Batch(inputs, labels))
    grads = backward(model, cache)
    assert grads.names == [
        "layer1.weight",
        "layer1.bias",
        "layer2.weight",
        "layer2.bias",
    ]


# the trainable layers of tails 1, 2 and 3
@pytest.mark.parametrize("trainable", [(2,), (1, 2), (0, 1, 2)])
def test_backward_with_frozen_layers_matches_full_backward(trainable):
    # propagation stops at the lowest trainable layer; the gradients it does
    # compute are exactly those of a fully trainable backward pass
    model = small_model(dims=(4, 5, 5, 3), tail=3)
    inputs, labels = blob_data(7, n=8)
    full = backward(model, forward(model, Batch(inputs, labels))[1])
    set_trainable_tail(model, len(trainable))
    grads = backward(model, forward(model, Batch(inputs, labels))[1])
    assert grads.names == [f"layer{k}.{part}" for k in trainable for part in ("weight", "bias")]
    for g in grads:
        assert np.array_equal(g.data, full[g.name].data), g.name


def test_backward_rejects_stale_cache():
    model = small_model()
    inputs, labels = blob_data(7, n=8)
    _, cache = forward(model, Batch(inputs, labels))
    grads = backward(model, cache)
    sgd_step(model, grads, lr=0.1)
    with pytest.raises(StaleCacheError):
        backward(model, cache)


def test_backward_rejects_cache_from_other_model():
    model = small_model()
    other = model.copy()
    inputs, labels = blob_data(8, n=8)
    _, cache = forward(model, Batch(inputs, labels))
    with pytest.raises(StaleCacheError):
        backward(other, cache)


def test_backward_into_a_map_of_another_layout_raises():
    model = small_model(tail=2)
    inputs, labels = blob_data(9, n=8)
    _, cache = forward(model, Batch(inputs, labels))
    with pytest.raises(AlignmentError):
        backward(model, cache, out=model.tensor_map().copy())


@st.composite
def step_cases(draw):
    """A model of random small widths and trainable tail, a dataset whose
    last batch may be short, and a second, wider head on the same inputs."""
    dims = [draw(st.integers(1, 5)), *draw(st.lists(st.integers(1, 6), max_size=2)),
            draw(st.integers(2, 5))]
    n = draw(st.integers(1, 24))
    return (dims, draw(st.integers(1, len(dims) - 1)), n, draw(st.integers(1, n)),
            draw(st.integers(1, 3)), draw(st.integers(0, 2**16)))


@settings(max_examples=80, deadline=None)
@given(step_cases())
def test_step_with_held_gradient_and_per_batch_targets(case):
    dims, tail, n, batch_size, extra_classes, seed = case
    classes = dims[-1]
    model = build_model(dims, seed=seed)
    set_trainable_tail(model, tail)
    wide = build_model([*dims[:-1], classes + extra_classes], seed=seed + 1)
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, dims[0]))
    labels = rng.integers(0, classes, size=n)
    source = labels.copy()

    batches = batches_of(inputs, labels, batch_size)
    labels[:] = (labels + 1) % classes  # no batch may see this write
    held = model.tensor_map(trainable_only=True).copy()
    held.flat.fill(np.nan)  # every entry must be overwritten
    for k, batch in enumerate(batches):
        assert np.array_equal(batch.labels, source[k * batch_size : (k + 1) * batch_size])
        with pytest.raises(ValueError):
            batch.labels[0] = 0
        # the wide head and the model's take turns on the batch's targets
        for net in (model, wide, model):
            loss, cache = forward(net, batch)
            ref_loss, ref_probs = ref_forward(model_layers(net), batch.inputs, batch.labels)
            assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(cache.probs, ref_probs, rtol=1e-12, atol=1e-15)
            index, onehot = batch.targets(net.class_count)
            expected = np.zeros((len(batch), net.class_count))
            expected[np.arange(len(batch)), batch.labels] = 1.0
            assert np.array_equal(onehot, expected)
            assert np.array_equal(index, np.flatnonzero(expected))
        fresh = backward(model, cache)
        assert backward(model, cache, out=held) is held
        assert held.flat.tobytes() == fresh.flat.tobytes()


# ---------------------------------------------------------------------------
# SGD step
# ---------------------------------------------------------------------------


def test_sgd_basic_arithmetic():
    model = zero_model([1, 1])
    model.params["layer0.weight"].data[:] = 1.0
    grads = TensorMap.from_tensors(
        [
            FlatTensor.of("layer0.weight", [[2.0]]),
            FlatTensor.of("layer0.bias", [0.0]),
        ]
    )
    sgd_step(model, grads, lr=0.1)
    assert abs(model.params["layer0.weight"].data[0] - 0.8) < 1e-15


def test_sgd_zero_learning_rate_is_bitwise_noop():
    model = small_model()
    before = model.tensor_map().copy()
    inputs, labels = blob_data(9, n=8)
    _, cache = forward(model, Batch(inputs, labels))
    grads = backward(model, cache)
    sgd_step(model, grads, lr=0.0)
    for a, b in zip(before, model.tensor_map()):
        assert np.array_equal(a.data, b.data)


def test_sgd_rejects_gradients_for_frozen_tensors():
    model = small_model(dims=(4, 5, 3), tail=1)  # layer0 frozen
    before = model.tensor_map().copy()
    full_grads = mapped(model.tensor_map(), np.ones_like)
    with pytest.raises(AlignmentError):
        sgd_step(model, full_grads, lr=0.1)
    for a, b in zip(before, model.tensor_map()):
        assert np.array_equal(a.data, b.data)


def test_sgd_bumps_version():
    model = small_model()
    v = model.version
    grads = mapped(model.tensor_map(trainable_only=True), np.zeros_like)
    sgd_step(model, grads, lr=0.1)
    assert model.version == v + 1


# ---------------------------------------------------------------------------
# Model plumbing
# ---------------------------------------------------------------------------


def test_build_model_shapes_and_activations():
    model = build_model([8, 16, 16, 3], seed=0)
    assert model.input_dim == 8
    assert model.class_count == 3
    assert model.layer_count == 3
    assert model.params["layer0.weight"].shape == (16, 8)
    assert model.params["layer2.bias"].shape == (3,)
    # tanh hidden layers and a linear head, by position
    layers = [(model.params.views[2 * k], model.params.views[2 * k + 1], act)
              for k, act in enumerate(["tanh", "tanh", "identity"])]
    inputs, labels = blob_data(0, n=16, dim=8)
    loss, cache = forward(model, Batch(inputs, labels))
    ref_loss, ref_probs = ref_forward(layers, inputs, labels)
    assert abs(loss - ref_loss) < 1e-12
    np.testing.assert_allclose(cache.probs, ref_probs, rtol=0, atol=1e-12)


def test_build_model_deterministic():
    a = build_model([4, 5, 3], seed=9)
    b = build_model([4, 5, 3], seed=9)
    assert np.array_equal(a.tensor_map().flat, b.tensor_map().flat)


def test_model_dimension_mismatch_rejected():
    w0 = FlatTensor.of("layer0.weight", np.zeros((4, 3)))
    b0 = FlatTensor.of("layer0.bias", np.zeros(4))
    w1 = FlatTensor.of("layer1.weight", np.zeros((2, 5)))  # expects 4 inputs
    b1 = FlatTensor.of("layer1.bias", np.zeros(2))
    with pytest.raises(DimensionError):
        ToyModel([w0, b0, w1, b1])
    with pytest.raises(DimensionError, match="at least input and output dims"):
        build_model([8], seed=0)


def test_model_round_trip_through_tensor_map():
    model = build_model([4, 6, 3], seed=10)
    rebuilt = ToyModel(model.tensor_map())
    assert np.array_equal(model.tensor_map().flat, rebuilt.tensor_map().flat)
    assert rebuilt.layer_count == 2
    batch = Batch(*blob_data(10, n=8))
    assert forward(rebuilt, batch)[0] == forward(model, batch)[0]


def test_model_takes_its_tensors_in_any_order():
    model = build_model([4, 6, 5, 3], seed=11)
    shuffled = ToyModel(reversed(list(model.tensors())))
    assert shuffled.params.layout == model.params.layout
    assert np.array_equal(shuffled.params.flat, model.params.flat)


def _named(*names):
    return [FlatTensor.of(name, np.zeros((2, 2)) if name.endswith("weight") else np.zeros(2))
            for name in names]


@pytest.mark.parametrize("tensors", [
    _named("encoder.weight"),
    _named("layer0.weight"),
    [],
    _named("layer0.weight", "layer0.bias", "layer1.weight", "layer1.bias", "layer01.weight"),
    _named("layer0.weight", "layer0.bias", "layer2.weight", "layer2.bias"),
    _named("layer0.weight", "layer0.bias", "layer0.weight", "layer0.bias"),
    _named("layer0.weight", "layer0.bias", "layer1.weight", "layer1.bias", "layer1.extra"),
], ids=["foreign", "incomplete", "empty", "aliased", "gap", "repeated", "extra"])
def test_model_requires_layer0_to_last_each_once(tensors):
    with pytest.raises(AlignmentError, match="each once"):
        ToyModel(tensors)


def test_model_requires_rank_2_weights():
    tensors = [FlatTensor.of("layer0.weight", np.zeros(4)), FlatTensor.of("layer0.bias", [0.0])]
    with pytest.raises(DimensionError, match="layer 0 weight shape"):
        ToyModel(tensors)


def test_load_values_writes_in_place_and_bumps_version():
    model = small_model()
    v = model.version
    new = mapped(model.tensor_map(trainable_only=True), lambda d: d + 1.0)
    buffers = [t.data for t in model.tensors()]
    model.load_values(new)
    assert model.version == v + 1
    assert all(np.shares_memory(t.data, buf) for t, buf in zip(model.tensors(), buffers))


def test_load_values_rejects_unknown_or_misshaped():
    model = small_model()
    with pytest.raises(AlignmentError):
        model.load_values(TensorMap.from_tensors([FlatTensor.of("nope", [1.0])]))
    with pytest.raises(AlignmentError):
        model.load_values(
            TensorMap.from_tensors([FlatTensor.of("layer0.weight", np.zeros((1, 1)))])
        )


@pytest.mark.parametrize("dims,seed,error,message", [
    ([8, 0, 3], 0, DimensionError, r"layer_dims\[1\] must be >= 1, got 0"),
    ([8, 3.5], 0, ConfigError, r"layer_dims\[1\] must be an integer, got float"),
    ([8, True], 0, ConfigError, r"layer_dims\[1\] must be an integer, got bool"),
    ([8, 3], -1, ConfigError, "seed must be >= 0, got -1"),
    ([8, 3], 1.0, ConfigError, "seed must be an integer, got float"),
    (5, 0, DimensionError, "layer_dims must be widths, got int"),
])
def test_build_model_rejects_bad_widths_and_seeds(dims, seed, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build_model(dims, seed)


def test_set_trainable_tail_bounds():
    model = build_model([4, 5, 3], seed=0)
    for count in (1.0, True):  # the int rule: no float, however whole, and no bool
        with pytest.raises(ConfigError, match="trainable layer count must be an integer"):
            set_trainable_tail(model, count)
    with pytest.raises(ConfigError):
        set_trainable_tail(model, 0)
    with pytest.raises(ConfigError):
        set_trainable_tail(model, 3)
    set_trainable_tail(model, 1)
    assert model.trainable == {
        "layer0.weight": False,
        "layer0.bias": False,
        "layer1.weight": True,
        "layer1.bias": True,
    }


def test_batches_of_chunking():
    inputs = np.zeros((10, 2))
    labels = np.zeros(10, dtype=np.int64)
    chunks = batches_of(inputs, labels, 4)
    assert [len(b) for b in chunks] == [4, 4, 2]


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_train_config_rejects_bad_values():
    # a non-finite value fails the type rule of a float field, before its range
    for rate, message in ((0.0, "must be positive"), (math.nan, "must be finite"),
                          (math.inf, "must be finite")):
        with pytest.raises(ConfigError, match=f"^learning_rate {message}"):
            TrainConfig(learning_rate=rate)
    for name in ("l2_lambda", "l1_lambda"):
        for value, message in ((-5.0, "must be >= 0"), (-math.inf, "must be finite"),
                               (math.inf, "must be finite"), (math.nan, "must be finite")):
            with pytest.raises(ConfigError, match=f"^{name} {message}"):
                TrainConfig(**{name: value})
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(beta=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(dare_drop_p=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(seed=-1)


def test_driver_method_dispatch_is_checked():
    model = small_model()
    pretrained = model.tensor_map(trainable_only=True).copy()
    inputs, labels = blob_data(20, n=16)
    data = batches_of(inputs, labels, 8)
    with pytest.raises(ConfigError):
        finetune_spider(model, pretrained, data, TrainConfig(method="full_ft"))
    with pytest.raises(ConfigError):
        finetune_baseline(model, pretrained, data, TrainConfig(method="spider"))
    with pytest.raises(ConfigError):
        # the ablation arms are masked methods
        finetune_baseline(model, pretrained, data, TrainConfig(method="select_random"))


def test_driver_alignment_check():
    model = small_model()
    wrong = model.tensor_map().copy()  # includes frozen tensors
    inputs, labels = blob_data(21, n=16)
    data = batches_of(inputs, labels, 8)
    with pytest.raises(AlignmentError):
        finetune_spider(model, wrong, data, TrainConfig())


# ---------------------------------------------------------------------------
# Selective driver
# ---------------------------------------------------------------------------


def spider_run(method="spider", seed=0, epochs=2, **kw):
    model = small_model(seed=seed + 1)
    pretrained = model.tensor_map(trainable_only=True).copy()
    inputs, labels = blob_data(seed, n=48)
    cfg = TrainConfig(
        method=method, epochs=epochs, batch_size=16, seed=seed, **kw
    )
    data = batches_of(inputs, labels, cfg.batch_size)
    model, log = finetune_spider(model, pretrained, data, cfg)
    return model, log, pretrained


def test_single_step_matches_hand_trace():
    # fixed 2-2-2 model, last layer trainable: six scalars traced end to end
    model = build_model([2, 2, 2], seed=3)
    set_trainable_tail(model, 1)
    pretrained = model.tensor_map(trainable_only=True).copy()
    inputs, labels = blob_data(3, n=4, dim=2, classes=2)
    cfg = TrainConfig(method="spider", epochs=1, batch_size=4, learning_rate=0.12)

    # independent trace: hidden activations, head gradient, one masked step
    w0, b0, _ = model_layers(model)[0]
    a1 = np.tanh(inputs @ w0.T + b0)
    _, probs = ref_forward(model_layers(model), inputs, labels)
    dz = probs.copy()
    dz[np.arange(4), labels] -= 1.0
    dz /= 4.0
    grad_w = dz.T @ a1
    grad_b = dz.sum(axis=0)

    expected_w, _ = spider_step_by_hand(
        pretrained["layer1.weight"].data, grad_w.reshape(-1), None,
        cfg.beta, cfg.learning_rate, initialized=False,
    )
    expected_b, _ = spider_step_by_hand(
        pretrained["layer1.bias"].data, grad_b, None,
        cfg.beta, cfg.learning_rate, initialized=False,
    )

    model, log = finetune_spider(model, pretrained, batches_of(inputs, labels, 4), cfg)
    np.testing.assert_allclose(
        model.params["layer1.weight"].data, expected_w, rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(model.params["layer1.bias"].data, expected_b, rtol=0, atol=1e-12)
    assert len(log.losses) == 1


def test_zero_epochs_leaves_model_bitwise_unchanged():
    model = small_model()
    before = model.tensor_map().copy()
    pretrained = model.tensor_map(trainable_only=True).copy()
    inputs, labels = blob_data(22, n=16)
    cfg = TrainConfig(epochs=0)
    model, log = finetune_spider(model, pretrained, batches_of(inputs, labels, 16), cfg)
    for a, b in zip(before, model.tensor_map()):
        assert np.array_equal(a.data, b.data)
    assert log.losses == []
    assert log.final_accumulator is None


def test_frozen_tensors_never_move():
    model = small_model(seed=30, dims=(4, 5, 5, 3), tail=2)
    frozen_before = model.params["layer0.weight"].data.copy(), model.params["layer0.bias"].data.copy()
    pretrained = model.tensor_map(trainable_only=True).copy()
    inputs, labels = blob_data(30, n=48)
    cfg = TrainConfig(epochs=3, batch_size=16)
    model, _ = finetune_spider(model, pretrained, batches_of(inputs, labels, 16), cfg)
    assert np.array_equal(model.params["layer0.weight"].data, frozen_before[0])
    assert np.array_equal(model.params["layer0.bias"].data, frozen_before[1])


def test_single_iteration_weight_sandwich():
    # after step + merge, every weight sits between its pretrained value
    # and the raw stepped value
    model = small_model(seed=31)
    pretrained = model.tensor_map(trainable_only=True).copy()
    inputs, labels = blob_data(31, n=16)
    batch = Batch(inputs, labels)
    probe = model.copy()
    _, cache = forward(probe, batch)
    grads = backward(probe, cache)

    cfg = TrainConfig(epochs=1, batch_size=16, learning_rate=0.12)
    model, _ = finetune_spider(model, pretrained, [batch], cfg)
    for w_after, w_pre, g in zip(
        model.tensor_map(trainable_only=True), pretrained, grads
    ):
        stepped = w_pre.data - cfg.learning_rate * g.data
        lo = np.minimum(w_pre.data, stepped)
        hi = np.maximum(w_pre.data, stepped)
        assert np.all(w_after.data >= lo - 1e-15)
        assert np.all(w_after.data <= hi + 1e-15)


def test_spider_run_is_deterministic():
    a, log_a, _ = spider_run(seed=7)
    b, log_b, _ = spider_run(seed=7)
    assert np.array_equal(a.tensor_map().flat, b.tensor_map().flat)
    assert log_a.losses == log_b.losses
    assert log_a.pid == log_b.pid


def test_spider_log_lengths_and_ranges():
    _, log, _ = spider_run(seed=8, epochs=2)
    assert len(log.losses) == len(log.mask_density) == len(log.pid) == 6  # 2 * 3
    assert all(0.0 <= d <= 1.0 for d in log.mask_density)
    assert all(p >= 1.0 for p in log.pid)


def test_spider_holds_exactly_three_aux_maps():
    _, log, _ = spider_run(seed=9)
    assert log.persistent_aux_maps == 3


def test_binary_and_norescale_variants_run():
    for method in ("spider_binary", "spider_weighted_norescale"):
        model, log, pretrained = spider_run(method=method, seed=10)
        assert log.persistent_aux_maps == 3
        assert len(log.losses) == 6


def test_final_accumulator_is_exposed_for_dumping():
    _, log, pretrained = spider_run(seed=12)
    assert log.final_accumulator is not None
    assert log.final_accumulator.layout == pretrained.layout
    assert np.all(log.final_accumulator.flat >= 0.0)


def test_model_after_packed_run(tmp_path):
    model = small_model(seed=16)
    flat = model.params.flat
    frozen = {t.name: t.data.copy() for t in model.tensors() if not model.trainable[t.name]}
    pretrained = model.tensor_map(trainable_only=True).copy()
    inputs, labels = blob_data(16, n=48)
    batch = Batch(inputs, labels)
    model, _ = finetune_spider(model, pretrained, batches_of(inputs, labels, 16), TrainConfig())

    # the run wrote the model's buffer in place; frozen tensors are untouched
    assert model.params.flat is flat
    assert all(np.shares_memory(t.data, flat) for t in model.tensors())
    assert not np.array_equal(model.tensor_map(trainable_only=True).flat, pretrained.flat)
    for name, before in frozen.items():
        assert np.array_equal(model.tensor_map()[name].data, before)

    loss, _ = forward(model, batch)
    clone = model.copy()
    assert forward(clone, batch)[0] == loss
    assert not any(np.shares_memory(a.data, flat) for a in clone.tensors())

    path = tmp_path / "tuned.ckpt"
    save_checkpoint(model.tensor_map(), path)
    loaded = load_checkpoint(path)
    assert forward(ToyModel(loaded), batch)[0] == pytest.approx(loss, rel=1e-5)

    model.load_values(loaded)
    assert np.array_equal(flat, loaded.flat)  # written in place
    assert all(np.shares_memory(t.data, flat) for t in model.tensors())
    finetune_spider(model, model.tensor_map(trainable_only=True).copy(), [batch], TrainConfig())
    assert model.params.flat is flat
    assert all(np.shares_memory(t.data, flat) for t in model.tensors())


def _views_in_order(tensors, flat) -> bool:
    """Each tensor is the next consecutive segment of flat, and together they cover it."""
    offset = 0
    for t in tensors:
        segment = flat[offset : offset + t.size]
        if t.data.size != segment.size or t.data.ctypes.data != segment.ctypes.data:
            return False
        offset += t.size
    return offset == flat.size


@pytest.mark.parametrize("make", [
    lambda: build_model([4, 6, 5, 3], seed=2),
    lambda: ToyModel(build_model([4, 6, 3], seed=3).tensor_map()),
    lambda: build_model([4, 6, 3], seed=4).copy(),
    lambda: zero_model([3, 2]),
])
def test_every_model_tensor_views_one_buffer(make):
    model = make()
    assert model.tensor_map() is model.params
    assert _views_in_order(list(model.tensors()), model.params.flat)
    # forward reads the buffer: zeroed, every class is equally likely
    model.params.flat[:] = 0.0
    model.version += 1
    batch = Batch(np.ones((2, model.input_dim)), np.array([0, 1]))
    assert forward(model, batch)[0] == pytest.approx(math.log(model.class_count), abs=1e-15)


def test_model_copy_shares_no_memory():
    model = small_model(seed=22)
    clone = model.copy()
    assert not np.shares_memory(clone.params.flat, model.params.flat)
    assert not any(np.shares_memory(a.data, b.data)
                   for a in clone.tensors() for b in model.tensors())
    assert np.array_equal(clone.params.flat, model.params.flat)
    clone.params.flat[:] = 0.0
    assert np.any(model.params.flat != 0.0)


def test_model_construction_copies_its_inputs():
    w, b = FlatTensor.of("layer0.weight", np.ones((2, 3))), FlatTensor.of("layer0.bias", [0.5, 0.5])
    model = ToyModel([w, b])
    assert not np.shares_memory(model.params.flat, w.data)
    rebuilt = ToyModel(model.tensor_map())
    assert not np.shares_memory(rebuilt.params.flat, model.params.flat)


def test_trainable_view_holds_the_layers_own_tensors():
    model = small_model(dims=(4, 5, 5, 3), tail=2)
    frozen = model.params["layer0.bias"].data.copy()
    view = model.tensor_map(trainable_only=True)
    assert view.names == ["layer1.weight", "layer1.bias", "layer2.weight", "layer2.bias"]
    assert np.shares_memory(view["layer1.weight"].data, model.params["layer1.weight"].data)
    assert np.shares_memory(view["layer2.bias"].data, model.params["layer2.bias"].data)
    assert _views_in_order(list(view), view.flat)
    assert np.shares_memory(view.flat, model.params.flat)
    view.flat[:] = 7.0
    assert np.all(model.params["layer1.weight"].data == 7.0)
    assert np.array_equal(model.params["layer0.bias"].data, frozen)


def _fresh_like(model: ToyModel) -> ToyModel:
    """A newly built model with the same weights and trainable tail."""
    fresh = ToyModel(model.tensor_map())
    set_trainable_tail(fresh, model.layer_count - model.lowest_trainable)
    return fresh


def _assert_step_matches_fresh(model: ToyModel) -> None:
    """backward, sgd_step and the trainable view agree with a newly built model."""
    fresh = _fresh_like(model)
    batch = Batch(*blob_data(24, n=8))
    grads = backward(model, forward(model, batch)[1])
    expected = backward(fresh, forward(fresh, batch)[1])
    assert grads.layout == expected.layout
    assert grads.flat.tobytes() == expected.flat.tobytes()

    view, fresh_view = model.tensor_map(trainable_only=True), fresh.tensor_map(trainable_only=True)
    assert view is model.tensor_map(trainable_only=True)  # one map while the tail holds
    assert view.layout == fresh_view.layout
    assert all(np.shares_memory(t.data, model.params[t.name].data) for t in view)
    offset = view.flat.ctypes.data - model.params.flat.ctypes.data
    assert offset == fresh_view.flat.ctypes.data - fresh.params.flat.ctypes.data
    assert view.flat.size == fresh_view.flat.size

    sgd_step(model, grads, 0.1)
    sgd_step(fresh, expected, 0.1)
    assert model.params.flat.tobytes() == fresh.params.flat.tobytes()


def test_step_follows_set_trainable_tail():
    model = small_model(dims=(4, 5, 5, 3), tail=2)
    for tail in (2, 1, 3):
        set_trainable_tail(model, tail)
        _assert_step_matches_fresh(model)


def test_copy_plans_its_own_trainable_view():
    model = small_model(dims=(4, 5, 5, 3), tail=2)
    view = model.tensor_map(trainable_only=True)
    clone = model.copy()
    clone_view = clone.tensor_map(trainable_only=True)
    assert np.shares_memory(clone_view.flat, clone.params.flat)
    assert not np.shares_memory(clone_view.flat, model.params.flat)
    _assert_step_matches_fresh(clone)

    set_trainable_tail(clone, 3)
    _assert_step_matches_fresh(clone)
    assert (clone.lowest_trainable, model.lowest_trainable) == (0, 1)
    assert model.tensor_map(trainable_only=True) is view  # the original keeps its view
    _assert_step_matches_fresh(model)


def test_a_new_model_is_fully_trainable():
    for model in (zero_model([3, 4, 2]), build_model([4, 5, 3], seed=0)):
        assert model.lowest_trainable == 0
        assert all(model.trainable.values())
        assert model.tensor_map(trainable_only=True).layout == model.params.layout


def test_the_trainable_flags_are_read_only():
    model = small_model(dims=(4, 5, 5, 3), tail=1)
    with pytest.raises(TypeError):
        model.trainable["layer0.weight"] = True
    with pytest.raises(AttributeError):
        model.trainable = {name: True for name in model.trainable}
    assert [name for name, on in model.trainable.items() if on] == ["layer2.weight", "layer2.bias"]
    assert model.tensor_map(trainable_only=True).names == ["layer2.weight", "layer2.bias"]


def test_copy_keeps_the_tail_and_shares_no_memory():
    model = small_model(dims=(4, 5, 5, 3), tail=1)
    clone = model.copy()
    assert clone.lowest_trainable == model.lowest_trainable == 2
    assert dict(clone.trainable) == dict(model.trainable)
    view, clone_view = model.tensor_map(trainable_only=True), clone.tensor_map(trainable_only=True)
    assert clone_view.layout == view.layout
    assert np.array_equal(clone_view.flat, view.flat)
    assert not np.shares_memory(clone.params.flat, model.params.flat)
    assert not np.shares_memory(clone_view.flat, model.params.flat)


def test_bias_shape_must_match_the_weights_rows():
    w = FlatTensor.of("layer0.weight", np.ones((5, 8)))
    b = FlatTensor.of("layer0.bias", np.zeros(3))
    with pytest.raises(DimensionError, match="bias shape"):
        ToyModel([w, b])
    with pytest.raises(DimensionError, match="bias shape"):
        ToyModel(TensorMap.from_tensors([w, b]))


def test_a_spider_step_shares_one_layout(monkeypatch):
    layouts = []

    def recording(fn, maps_of):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            layouts.extend(m.layout for m in maps_of(args, out))
            return out
        return wrapped

    monkeypatch.setattr(trainer, "accumulate_gradient", recording(
        trainer.accumulate_gradient, lambda args, out: (args[0].acc, args[1])))
    monkeypatch.setattr(masking, "specialization_importance", recording(
        masking.specialization_importance, lambda args, out: (out,)))
    monkeypatch.setattr(trainer, "merge", recording(
        trainer.merge, lambda args, out: (args[0], args[1], args[2].mask, out)))
    model = small_model(seed=5)
    view = model.tensor_map(trainable_only=True)
    pretrained = view.copy()
    inputs, labels = blob_data(5, n=16)
    finetune_spider(model, pretrained, batches_of(inputs, labels, 16), TrainConfig(epochs=1))
    # accumulator, gradient, scores, then the view, the snapshot, the mask and the merge
    assert len(layouts) == 7
    assert all(layout is view.layout for layout in layouts)
    assert model.tensor_map(trainable_only=True) is view


def test_changed_weights_are_the_last_merged_masks_support(monkeypatch):
    merged = []
    real_merge = trainer.merge

    def recording_merge(current, pretrained, mask, **kwargs):
        merged.append((mask, mask.mask.flat.copy()))
        return real_merge(current, pretrained, mask, **kwargs)

    monkeypatch.setattr(trainer, "merge", recording_merge)
    for method in ("spider", "spider_binary", "spider_weighted_norescale"):
        merged.clear()
        model, log, pretrained = spider_run(method=method, seed=17, epochs=3)
        mask, at_merge = merged[-1]
        # the driver leaves the last merged mask's buffer alone after the merge
        assert np.array_equal(mask.mask.flat, at_merge)
        changed = model.tensor_map(trainable_only=True).flat != pretrained.flat
        assert np.array_equal(changed, at_merge != 0.0)
        assert log.mask_density[-1] == np.count_nonzero(at_merge) / at_merge.size


@pytest.fixture(scope="module")
def pretrained_models():
    return {seed: pretrain(default_suite(), TrainConfig(epochs=10, seed=seed))[0]
            for seed in range(4)}


@pytest.mark.parametrize("method", ["spider", "spider_binary", "select_random",
                                    "select_magnitude", "select_gradient"])
def test_a_masked_run_reports_changed_weights_and_mask_support(pretrained_models, method):
    target = generate_task(default_target())
    for seed, base in pretrained_models.items():
        model, log = finetune_cell(base, target.train_inputs, target.train_labels,
                                   TrainConfig(method=method, seed=seed))
        tuned = model.tensor_map(trainable_only=True)
        before = base.tensor_map().copy()
        changed = sum(int(np.count_nonzero(t.data != before[t.name].data)) for t in tuned)
        assert log.changed_weights == changed == log.mask_support, (method, seed)
        if method == "spider" and seed == 0:
            assert (changed, tuned.total_size) == (168, 323)


def test_a_baseline_run_reports_no_support():
    for method in ("full_ft", "dare"):
        model = small_model(seed=2)
        inputs, labels = blob_data(2, n=32)
        _, log = finetune_baseline(model, model.tensor_map(trainable_only=True).copy(),
                                   batches_of(inputs, labels, 16), TrainConfig(method=method))
        assert log.changed_weights is None and log.mask_support is None


def test_a_weight_changed_outside_the_mask_raises(monkeypatch):
    real_merge = trainer.merge
    moved = []

    def leaky_merge(current, pretrained, mask, **kwargs):
        out = real_merge(current, pretrained, mask, **kwargs)
        k = int(np.flatnonzero(mask.mask.flat == 0.0)[-1])  # a deselected entry
        out.flat[k] += 1.0
        moved.append(next(t.name for t in out if np.shares_memory(t.data, out.flat[k : k + 1])))
        return out

    monkeypatch.setattr(trainer, "merge", leaky_merge)
    with pytest.raises(InvariantError, match="outside the final mask's support") as raised:
        spider_run(seed=3, epochs=1)
    assert str(raised.value).startswith(f"{moved[-1]!r}: 1 changed weights")


@pytest.mark.parametrize("method", ["spider", "full_ft"])
def test_non_finite_weights_raise_divergence_error(method, monkeypatch):
    real_sgd_step = trainer.sgd_step

    def poisoned(model, grads, lr):
        # the gradient itself passed its check; only the step is infinite
        grads["layer2.bias"].data[0] = -np.inf
        return real_sgd_step(model, grads, lr)

    monkeypatch.setattr(trainer, "sgd_step", poisoned)
    model = small_model(seed=19)
    pretrained = model.tensor_map(trainable_only=True).copy()
    inputs, labels = blob_data(19, n=32)
    cfg = TrainConfig(method=method, batch_size=16)
    driver = finetune_spider if method == "spider" else finetune_baseline
    with pytest.raises(DivergenceError, match=r"iteration 0: non-finite weights in 'layer2.bias'"):
        driver(model, pretrained, batches_of(inputs, labels, 16), cfg)


def test_non_finite_loss_raises_divergence_error():
    model = small_model(seed=20)
    pretrained = model.tensor_map(trainable_only=True).copy()
    inputs, labels = blob_data(20, n=32)
    inputs[20, 0] = np.nan  # second batch
    with pytest.raises(DivergenceError, match=r"iteration 1: loss is nan"):
        finetune_spider(model, pretrained, batches_of(inputs, labels, 16), TrainConfig())


def test_non_finite_gradient_raises_divergence_error(monkeypatch):
    real_backward = trainer.backward

    def poisoned(model, cache, out=None):
        grads = real_backward(model, cache, out)
        grads["layer1.bias"].data[0] = np.inf
        return grads

    monkeypatch.setattr(trainer, "backward", poisoned)
    model = small_model(seed=21)
    pretrained = model.tensor_map(trainable_only=True).copy()
    inputs, labels = blob_data(21, n=16)
    with pytest.raises(DivergenceError, match=r"iteration 0: non-finite gradient in 'layer1.bias'"):
        finetune_baseline(model, pretrained, batches_of(inputs, labels, 16),
                          TrainConfig(method="l2_reg"))


# ---------------------------------------------------------------------------
# Ablation selection arms
# ---------------------------------------------------------------------------


def arm_run(selection, seed=13):
    model = small_model(seed=seed)
    pretrained = model.tensor_map(trainable_only=True).copy()
    inputs, labels = blob_data(seed, n=16)
    cfg = TrainConfig(method=f"select_{selection}", epochs=1, batch_size=16)
    data = batches_of(inputs, labels, 16)
    model, log = finetune_spider(model, pretrained, data, cfg)
    return model, log, pretrained


@pytest.mark.parametrize("selection", ["random", "magnitude", "gradient"])
def test_arm_touches_exactly_the_gamma_fraction(selection):
    model, _, pretrained = arm_run(selection)
    for after, before in zip(model.tensor_map(trainable_only=True), pretrained):
        changed = int(np.sum(after.data != before.data))
        assert changed == math.floor(before.size * 0.5)


def test_magnitude_arm_frees_the_smallest_weights():
    model, _, pretrained = arm_run("magnitude")
    for after, before in zip(model.tensor_map(trainable_only=True), pretrained):
        changed = np.flatnonzero(after.data != before.data)
        k = math.floor(before.size * 0.5)
        smallest = np.argsort(np.abs(before.data), kind="stable")[:k]
        assert set(changed) == set(smallest)


def test_gradient_arm_follows_the_largest_gradients():
    model, _, pretrained = arm_run("gradient", seed=14)
    probe = small_model(seed=14)
    inputs, labels = blob_data(14, n=16)
    _, cache = forward(probe, Batch(inputs, labels))
    grads = backward(probe, cache)
    for after, before, g in zip(
        model.tensor_map(trainable_only=True), pretrained, grads
    ):
        changed = np.flatnonzero(after.data != before.data)
        k = math.floor(before.size * 0.5)
        largest = np.argsort(np.abs(g.data), kind="stable")[-k:]
        assert set(changed) == set(largest)


def test_arm_aux_map_budget():
    _, log, _ = arm_run("random")
    assert log.persistent_aux_maps == 2  # snapshot + accumulator
    _, log, _ = arm_run("gradient")
    assert log.persistent_aux_maps == 2
    _, log, _ = arm_run("magnitude")
    assert log.persistent_aux_maps == 3  # plus the cached selection mask


def test_random_arm_redraws_each_iteration():
    # the merge resets deselected entries to pretrained every iteration, so
    # the changed set after a run is the final draw's support; one- and
    # two-iteration runs therefore expose the first and second draws
    def changed_set(iterations):
        model = small_model(seed=15)
        pretrained = model.tensor_map(trainable_only=True).copy()
        inputs, labels = blob_data(15, n=16 * iterations)
        cfg = TrainConfig(
            method="select_random", epochs=1, batch_size=16, seed=15
        )
        model, _ = finetune_spider(
            model, pretrained, batches_of(inputs, labels, 16), cfg
        )
        return {
            (t.name, i)
            for t, p in zip(model.tensor_map(trainable_only=True), pretrained)
            for i in np.flatnonzero(t.data != p.data)
        }

    assert changed_set(1) != changed_set(2)


# ---------------------------------------------------------------------------
# Baseline driver
# ---------------------------------------------------------------------------


def baseline_run(method, seed=40, epochs=2, **kw):
    model = small_model(seed=seed + 1)
    pretrained = model.tensor_map(trainable_only=True).copy()
    inputs, labels = blob_data(seed, n=48)
    cfg = TrainConfig(method=method, epochs=epochs, batch_size=16, seed=seed, **kw)
    data = batches_of(inputs, labels, cfg.batch_size)
    model, log = finetune_baseline(model, pretrained, data, cfg)
    return model, log, pretrained


def test_l2_with_zero_lambda_is_exactly_full_ft():
    a, _, _ = baseline_run("full_ft", seed=41)
    b, _, _ = baseline_run("l2_reg", seed=41, l2_lambda=0.0)
    assert np.array_equal(a.tensor_map().flat, b.tensor_map().flat)


def test_l1_with_zero_lambda_is_exactly_full_ft():
    a, _, _ = baseline_run("full_ft", seed=42)
    b, _, _ = baseline_run("l1_graft", seed=42, l1_lambda=0.0)
    assert np.array_equal(a.tensor_map().flat, b.tensor_map().flat)


def test_dare_with_zero_drop_is_exactly_full_ft():
    a, _, _ = baseline_run("full_ft", seed=43)
    b, _, _ = baseline_run("dare", seed=43, dare_drop_p=0.0)
    assert np.array_equal(a.tensor_map().flat, b.tensor_map().flat)


def test_l2_pullback_shrinks_drift_monotonically():
    drifts = []
    for lam in (0.0, 1e-3, 1e-1):
        model, _, pretrained = baseline_run("l2_reg", seed=44, epochs=5, l2_lambda=lam)
        delta = model.tensor_map(trainable_only=True).flat - pretrained.flat
        drifts.append(float(np.linalg.norm(delta)))
    assert drifts[0] > drifts[1] > drifts[2]


def test_l1_pullback_shrinks_drift():
    strong = 1e-1
    model, _, pretrained = baseline_run("l1_graft", seed=45, epochs=5, l1_lambda=strong)
    strong_drift = float(
        np.linalg.norm(model.tensor_map(trainable_only=True).flat - pretrained.flat)
    )
    model, _, pretrained = baseline_run("l1_graft", seed=45, epochs=5, l1_lambda=0.0)
    free_drift = float(
        np.linalg.norm(model.tensor_map(trainable_only=True).flat - pretrained.flat)
    )
    assert strong_drift < free_drift


def test_half_ft_moves_exactly_half_the_blocks_per_iteration():
    model = small_model(seed=47)
    pretrained = model.tensor_map(trainable_only=True).copy()
    inputs, labels = blob_data(46, n=16)  # single iteration
    cfg = TrainConfig(method="half_ft", epochs=1, batch_size=16, seed=46)
    model, log = finetune_baseline(model, pretrained, batches_of(inputs, labels, 16), cfg)
    moved = [
        t.name
        for t, p in zip(model.tensor_map(trainable_only=True), pretrained)
        if not np.array_equal(t.data, p.data)
    ]
    assert len(moved) == len(pretrained.names) // 2
    assert len(log.mask_density) == 1
    assert 0.0 < log.mask_density[0] < 1.0


def test_half_ft_is_deterministic_in_the_seed():
    a, _, _ = baseline_run("half_ft", seed=48)
    b, _, _ = baseline_run("half_ft", seed=48)
    assert np.array_equal(a.tensor_map().flat, b.tensor_map().flat)


def test_dare_final_weights_are_pretrained_plus_sparse_delta():
    model, _, pretrained = baseline_run("dare", seed=49, dare_drop_p=0.5)
    delta = (
        model.tensor_map(trainable_only=True).flat - pretrained.flat
    )
    dropped = float(np.mean(delta == 0.0))
    assert 0.3 < dropped < 0.7  # about half the entries revert exactly


@pytest.mark.parametrize("loop", ["train", "finetune"])
def test_a_step_calls_forward_backward_and_sgd_step_once_by_module_name(monkeypatch, loop):
    # the seams perfbench's tracer and these tests patch: the loops look the
    # three up in the module at every step, and call each once per step
    calls = {"forward": 0, "backward": 0, "sgd_step": 0}

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(trainer, name, counting(name, getattr(trainer, name)))
    inputs, labels = blob_data(43, n=48)
    data = batches_of(inputs, labels, 16)
    model = small_model(seed=43)
    cfg = TrainConfig(method="spider", epochs=2, batch_size=16, seed=43)
    if loop == "train":
        trainer.train(model, data, cfg)
    else:
        trainer._finetune(model, model.tensor_map(trainable_only=True).copy(), data, cfg)
    steps = cfg.epochs * len(data)
    assert calls == {"forward": steps, "backward": steps, "sgd_step": steps}


def test_the_loop_writes_the_model_without_load_values(monkeypatch):
    # the merge and the dare add write through the trainable view, so the
    # loop only bumps the version where load_values would copy onto itself
    def refuse(self, values):
        raise AssertionError("load_values called by the fine-tuning loop")

    monkeypatch.setattr(ToyModel, "load_values", refuse)
    model, log, _ = spider_run(seed=7)
    assert model.version == 2 * len(log.losses)  # the step and the merge
    model, log, _ = baseline_run("dare", seed=49, dare_drop_p=0.5)
    assert model.version == len(log.losses) + 1  # the steps and the dare add


def test_baseline_logs_and_aux_budget():
    _, log, _ = baseline_run("full_ft", seed=50)
    assert log.persistent_aux_maps == 2
    assert len(log.losses) == 6
    assert len(log.pid) == 6
    assert log.final_accumulator is not None


def test_baseline_is_deterministic():
    a, log_a, _ = baseline_run("dare", seed=51)
    b, log_b, _ = baseline_run("dare", seed=51)
    assert np.array_equal(a.tensor_map().flat, b.tensor_map().flat)
    assert log_a.losses == log_b.losses


# ---------------------------------------------------------------------------
# Divergence trace
# ---------------------------------------------------------------------------


DRIVERS = {"spider": finetune_spider, "full_ft": finetune_baseline}


@pytest.mark.parametrize("method", sorted(DRIVERS))
def test_pid_trace_is_the_public_pid_at_every_step(method):
    # runs of 1, 2 and 3 iterations: each run's last value is pid() of the
    # run's final accumulator, and the shorter traces are prefixes of the longer
    inputs, labels = blob_data(40, n=48)
    data = batches_of(inputs, labels, 16)
    traces = []
    for steps in (1, 2, 3):
        model = small_model(seed=40)
        pretrained = model.tensor_map(trainable_only=True).copy()
        cfg = TrainConfig(method=method, epochs=1, batch_size=16, seed=40)
        _, log = DRIVERS[method](model, pretrained, data[:steps], cfg)
        assert len(log.pid) == steps
        expected = pid(pretrained, log.final_accumulator)
        assert np.float64(log.pid[-1]).tobytes() == np.float64(expected).tobytes()
        traces.append(log.pid)
    assert traces[0] == traces[2][:1] and traces[1] == traces[2][:2]


@pytest.mark.parametrize("method", sorted(DRIVERS))
def test_all_zero_snapshot_raises_zero_norm_at_the_first_step(method, monkeypatch):
    model = small_model(seed=41)
    pretrained = model.tensor_map(trainable_only=True).copy()
    pretrained.flat.fill(0.0)
    inputs, labels = blob_data(41, n=48)
    steps = []
    real_forward = trainer.forward

    def counted(m, batch):
        steps.append(batch)
        return real_forward(m, batch)

    monkeypatch.setattr(trainer, "forward", counted)
    cfg = TrainConfig(method=method, epochs=2, batch_size=16)
    with pytest.raises(ZeroNormError):
        DRIVERS[method](model, pretrained, batches_of(inputs, labels, 16), cfg)
    assert len(steps) == 1


@pytest.mark.parametrize("method", sorted(DRIVERS))
def test_zero_epochs_with_an_all_zero_snapshot_is_an_empty_trace(method):
    model = small_model(seed=42)
    pretrained = model.tensor_map(trainable_only=True).copy()
    pretrained.flat.fill(0.0)
    inputs, labels = blob_data(42, n=16)
    cfg = TrainConfig(method=method, epochs=0)
    _, log = DRIVERS[method](model, pretrained, batches_of(inputs, labels, 16), cfg)
    assert log.pid == [] and log.losses == []


# ---------------------------------------------------------------------------
# Per-iteration seed stream
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("count", [1, 37, 1024, 1025, 5000])
def test_iteration_seeds_match_one_up_front_draw(count):
    expected = np.random.SeedSequence(5).generate_state(count, dtype=np.uint64)
    assert list(trainer._iteration_seeds(5, count)) == [int(w) for w in expected]


def test_seed_stream_is_not_allocated_up_front():
    # a long planned run that diverges at its second iteration
    inputs, labels = blob_data(24, n=48)
    model = small_model(seed=24)
    pretrained = model.tensor_map(trainable_only=True).copy()
    data = batches_of(inputs, labels, 16)
    cfg = TrainConfig(method="full_ft", epochs=10**5, learning_rate=1e308)
    tracemalloc.start()
    try:
        with pytest.raises(DivergenceError):
            finetune_baseline(model, pretrained, data, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
