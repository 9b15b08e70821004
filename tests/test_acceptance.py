"""Acceptance gate: the ten release criteria, one printed verdict line each.

Runs the full default benchmark (10 seeds, all method families) once and
checks the directional claims against it, alongside exact metric oracles,
gradient checking, the single-step trace, mask properties, and the
determinism/serialization contracts.
"""

import math
import time

import numpy as np
import pytest

from spiderft.benchmark import (
    default_suite,
    default_target,
    generate_task,
    h_average,
    metrics_csv,
    measure_pid_direction,
    o_average,
    pretrain,
    run_experiment,
    source_average,
)
from spiderft.checkpoint import load_checkpoint, save_checkpoint
from spiderft.errors import CorruptCheckpointError
from spiderft.importance import (
    GradAccumulator,
    accumulate_gradient,
    generalization_importance,
    pid,
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
from spiderft.tensors import (
    FlatTensor,
    cosine_similarity,
    masked_mean,
    sigmoid,
    zscore,
)
from spiderft.trainer import (
    Batch,
    TrainConfig,
    backward,
    batches_of,
    build_model,
    finetune_spider,
    forward,
    set_trainable_tail,
)

from helpers import (
    finite_diff_grads,
    max_rel_error,
    model_layers,
    ref_forward,
    spider_step_by_hand,
    tmap,
)

SEEDS = list(range(10))
METHODS = [
    "zero_shot",
    "full_ft",
    "half_ft",
    "spider",
    "spider_binary",
    "select_random",
    "select_magnitude",
    "select_gradient",
]

TOL = 0.005 + 1e-9  # two-decimal reporting band plus representation slack


def emit(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {number:2d}] {'PASS' if ok else 'FAIL'} :: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# Shared experiment runs (defaults throughout)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def experiment():
    start = time.monotonic()
    reports = run_experiment(
        default_suite(), default_target(), METHODS, TrainConfig(), SEEDS
    )
    elapsed = time.monotonic() - start
    by_method = {m: [r for r in reports if r.method == m] for m in METHODS}
    return by_method, elapsed


@pytest.fixture(scope="module")
def pid_pairs():
    start = time.monotonic()
    pairs = [
        measure_pid_direction(default_suite(), default_target(), TrainConfig(), seed=s)
        for s in SEEDS
    ]
    return pairs, time.monotonic() - start


def mean_of(reports, attr):
    return float(np.mean([getattr(r, attr) for r in reports]))


# ---------------------------------------------------------------------------
# 1. Published metric values
# ---------------------------------------------------------------------------


def test_criterion_01_metric_reproduction(capsys):
    checks = [
        ("h(47.04, 66.68)", h_average(47.04, 66.68), 55.16),
        ("o(47.04, 66.68)", o_average(47.04, 66.68), 56.86),
        ("h(61.39, 107.64)", h_average(61.39, 107.64), 78.19),
        ("o(48.20, 102.07)", o_average(48.20, 102.07), 75.14),
        ("mean of 4 sources", source_average([55.60, 60.30, 68.20, 61.47]), 61.39),
    ]
    worst = max(abs(got - want) for _, got, want in checks)
    ok = all(abs(got - want) <= TOL for _, got, want in checks)
    emit(capsys, 1, ok, f"5 reported metric values reproduced, worst |error| {worst:.4f}")


# ---------------------------------------------------------------------------
# 2. Derived equation examples
# ---------------------------------------------------------------------------


def test_criterion_02_equation_examples(capsys):
    errors = {}

    z = zscore(FlatTensor.of("z", [1.0, 2.0, 3.0])).data
    errors["zscore"] = float(
        np.max(np.abs(z - [-1.224744871391589, 0.0, 1.224744871391589]))
    )
    errors["zscore2"] = float(
        np.max(np.abs(zscore(FlatTensor.of("z", [0.0, 2.0])).data - [-1.0, 1.0]))
    )
    errors["sigmoid"] = abs(
        sigmoid(FlatTensor.of("s", [math.log(3.0)])).data[0] - 0.75
    )
    errors["cosine"] = abs(
        cosine_similarity(FlatTensor.of("a", [1.0, 1.0]), FlatTensor.of("b", [1.0, 0.0]))
        - 0.7071067811865475
    )
    errors["masked_mean"] = abs(
        masked_mean(FlatTensor.of("m", [0.0, 0.5, 0.75, 0.0]))[0] - 0.625
    )

    gen = generalization_importance(tmap(w=[1.0, 2.0, 3.0]))["w"].data
    errors["gen_importance"] = float(
        np.max(np.abs(gen - [0.22710251943568419, 0.5, 0.7728974805643157]))
    )
    state = GradAccumulator(acc=tmap(w=[0.0, 2.0]), beta=0.9, initialized=True)
    spec_scores = specialization_importance(state)["w"].data
    errors["spec_importance"] = float(
        np.max(np.abs(spec_scores - [0.2689414213699951, 0.7310585786300049]))
    )

    state = GradAccumulator(acc=tmap(w=[4.0, 2.0]), beta=0.9, initialized=True)
    accumulate_gradient(state, tmap(w=[0.0, 0.0]))
    errors["accumulator_decay"] = float(np.max(np.abs(state.acc["w"].data - [3.6, 1.8])))
    state = GradAccumulator(acc=tmap(w=[1.0]), beta=0.5, initialized=True)
    accumulate_gradient(state, tmap(w=[-3.0]))
    errors["accumulator_mix"] = abs(state.acc["w"].data[0] - 2.0)

    g = tmap(w=[0.6])
    i = tmap(w=[0.5])
    errors["weighted_mask"] = abs(weighted_mask(g, i).mask["w"].data[0] - 0.6 / 1.1)
    g = tmap(w=[0.9, 0.2])
    i = tmap(w=[0.1, 0.4])
    errors["weighted_mask2"] = float(
        np.max(np.abs(weighted_mask(g, i).mask["w"].data - [0.9, 0.0]))
    )
    rescaled = rescale_mask(UpdateMask(tmap(w=[0.0, 0.5, 0.75])))
    errors["rescale_mask"] = float(
        np.max(np.abs(rescaled.mask["w"].data - [0.0, 0.8, 1.0]))
    )
    merged = merge(tmap(w=[2.0]), tmap(w=[0.0]), UpdateMask(tmap(w=[0.5])))
    errors["merge"] = abs(merged["w"].data[0] - 1.0)
    errors["pid"] = abs(pid(tmap(w=[1.0, 1.0]), tmap(w=[1.0, 0.0])) - 2.0)

    n = 100_000
    dare_mean = float(np.mean(dare_mask_and_rescale(tmap(w=np.ones(n)), 0.5, 0)["w"].data))
    dare_ok = abs(dare_mean - 1.0) <= 3.0 * math.sqrt(1.0 / n)

    worst = max(errors.values())
    ok = worst < 1e-9 and dare_ok
    emit(
        capsys, 2, ok,
        f"{len(errors)} worked equation examples, worst |error| {worst:.2e}; "
        f"drop-rescale mean {dare_mean:.4f} within 3 sigma of 1",
    )


# ---------------------------------------------------------------------------
# 3. Gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_03_gradients_vs_finite_differences(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(777)
    dims_pool = [(4, 5, 3), (3, 6, 2), (5, 4, 4, 3), (6, 8, 3)]
    worst = 0.0
    for k in range(50):
        dims = dims_pool[k % len(dims_pool)]
        model = build_model(list(dims), seed=1000 + k)
        if k % 3 == 0 and len(dims) > 2:
            set_trainable_tail(model, len(dims) - 2)  # exercise frozen layers
        n = int(rng.integers(2, 12))
        inputs = rng.normal(size=(n, dims[0]))
        labels = rng.integers(0, dims[-1], size=n)
        batch = Batch(inputs, labels)
        _, cache = forward(model, batch)
        analytic = backward(model, cache)
        numeric = finite_diff_grads(model, batch, h=1e-5)
        worst = max(worst, max_rel_error(analytic, numeric))
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 10.0
    emit(
        capsys, 3, ok,
        f"50 model/batch pairs, max relative gradient error {worst:.2e} in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Single-step trace on the fixed tiny model
# ---------------------------------------------------------------------------


def test_criterion_04_single_step_trace(capsys):
    model = build_model([2, 2, 2], seed=3)
    set_trainable_tail(model, 1)
    pretrained = model.tensor_map(trainable_only=True).copy()
    rng = np.random.default_rng(3)
    inputs = rng.normal(size=(4, 2))
    labels = np.array([0, 1, 0, 1])
    cfg = TrainConfig(method="spider", epochs=1, batch_size=4)

    w0, b0, _ = model_layers(model)[0]
    hidden = np.tanh(inputs @ w0.T + b0)
    _, probs = ref_forward(model_layers(model), inputs, labels)
    dz = probs.copy()
    dz[np.arange(4), labels] -= 1.0
    dz /= 4.0
    expected = {}
    expected["layer1.weight"], _ = spider_step_by_hand(
        pretrained["layer1.weight"].data, (dz.T @ hidden).reshape(-1),
        None, cfg.beta, cfg.learning_rate, initialized=False,
    )
    expected["layer1.bias"], _ = spider_step_by_hand(
        pretrained["layer1.bias"].data, dz.sum(axis=0),
        None, cfg.beta, cfg.learning_rate, initialized=False,
    )

    model, _ = finetune_spider(
        model, pretrained, batches_of(inputs, labels, 4), cfg
    )
    worst = max(
        float(np.max(np.abs(model.tensor_map()[name].data - expected[name])))
        for name in expected
    )
    emit(
        capsys, 4, worst < 1e-12,
        f"one selective step on the 2-2-2 model, max |weight diff| {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 5. Mask property suite
# ---------------------------------------------------------------------------


def test_criterion_05_mask_properties(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(99)
    failures = []

    for trial in range(20):
        g = tmap(w=rng.uniform(0.01, 0.99, 300))
        i = tmap(w=rng.uniform(0.01, 0.99, 300))
        b = binary_mask(g, i).mask["w"].data
        w = weighted_mask(g, i).mask["w"].data
        r = rescale_mask(weighted_mask(g, i)).mask["w"].data
        support = g["w"].data > i["w"].data
        if not (
            np.array_equal(b != 0, support)
            and np.array_equal(w != 0, support)
            and np.array_equal(r != 0, support)
        ):
            failures.append("support equality")
        for values in (b, w, r):
            if values.min() < 0.0 or values.max() > 1.0:
                failures.append("range")

    current = tmap(w=rng.normal(size=64))
    pre = tmap(w=rng.normal(size=64))
    if not np.array_equal(
        merge(current, pre, UpdateMask(tmap(w=np.zeros(64))))["w"].data,
        pre["w"].data,
    ):
        failures.append("merge at zero mask")
    if not np.array_equal(
        merge(current, pre, UpdateMask(tmap(w=np.ones(64))))["w"].data,
        current["w"].data,
    ):
        failures.append("merge at unit mask")

    delta = np.array([1.0, -0.5, 2.0, 0.25])
    total = np.zeros(4)
    trials = 1000
    for seed in range(trials):
        total += dare_mask_and_rescale(tmap(w=delta), 0.5, seed)["w"].data
    se = np.abs(delta) / math.sqrt(trials)
    if not np.all(np.abs(total / trials - delta) <= 3.0 * se):
        failures.append("drop-rescale bias")

    for block_count in range(1, 9):
        shapes = tmap(**{f"t{k}": np.zeros(k + 2) for k in range(block_count)})
        mask = random_half_mask(shapes, rng_seed=block_count)
        selected = sum(1 for t in mask.mask if np.all(t.data == 1.0))
        if selected != block_count // 2:
            failures.append(f"half-count at B={block_count}")

    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30.0
    emit(
        capsys, 5, ok,
        f"support/range/merge/unbiasedness/half-count properties in {elapsed:.1f}s"
        + (f"; failures: {sorted(set(failures))}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# 6. Forgetting experiment
# ---------------------------------------------------------------------------


def test_criterion_06_forgetting_experiment(capsys, experiment):
    by_method, elapsed = experiment
    a_s = {m: mean_of(by_method[m], "source_avg") for m in by_method}
    a_t = {m: mean_of(by_method[m], "target_accuracy") for m in by_method}
    h = {m: mean_of(by_method[m], "h_avg") for m in by_method}

    checks = {
        "forgetting exists": a_s["full_ft"] < a_s["zero_shot"],
        "source retention": a_s["spider"] > a_s["full_ft"],
        "target kept": a_t["spider"] >= 0.95 * a_t["full_ft"],
        "harmonic wins": h["spider"] > h["full_ft"] and h["spider"] > h["half_ft"],
    }
    ok = all(checks.values()) and elapsed < 300.0
    emit(
        capsys, 6, ok,
        f"A_S zero {a_s['zero_shot']:.3f} / full {a_s['full_ft']:.3f} / "
        f"selective {a_s['spider']:.3f}; A_T selective {a_t['spider']:.3f} vs full "
        f"{a_t['full_ft']:.3f}; H selective {h['spider']:.3f} vs full {h['full_ft']:.3f}"
        f" / half {h['half_ft']:.3f}; 10 seeds in {elapsed:.1f}s"
        + ("" if all(checks.values()) else f"; failed: {[k for k, v in checks.items() if not v]}"),
    )


# ---------------------------------------------------------------------------
# 7. Ablation ordering
# ---------------------------------------------------------------------------


def test_criterion_07_ablation_ordering(capsys, experiment):
    by_method, _ = experiment
    h = {m: mean_of(by_method[m], "h_avg") for m in by_method}
    arms_ok = all(
        h["spider_binary"] >= h[arm]
        for arm in ("select_random", "select_magnitude", "select_gradient")
    )
    pipeline_ok = h["spider"] > h["spider_binary"]
    ok = arms_ok and pipeline_ok
    emit(
        capsys, 7, ok,
        f"H: comparison-selected {h['spider_binary']:.3f} vs random "
        f"{h['select_random']:.3f} / magnitude {h['select_magnitude']:.3f} / gradient "
        f"{h['select_gradient']:.3f}; full pipeline {h['spider']:.3f} > binary "
        f"{h['spider_binary']:.3f}",
    )


# ---------------------------------------------------------------------------
# 8. Divergence direction
# ---------------------------------------------------------------------------


def test_criterion_08_divergence_direction(capsys, pid_pairs):
    pairs, elapsed = pid_pairs
    wins = sum(1 for target_pid, replay_pid in pairs if target_pid > replay_pid)
    ok = wins >= 8 and elapsed < 120.0
    emit(
        capsys, 8, ok,
        f"target-shift divergence exceeds source-replay divergence in {wins}/10 seeds "
        f"({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 9. Auxiliary memory budget
# ---------------------------------------------------------------------------


def test_criterion_09_memory_budget(capsys):
    model, _ = pretrain(default_suite(), TrainConfig(epochs=1, method="full_ft"), 200)
    set_trainable_tail(model, 2)
    pretrained = model.tensor_map(trainable_only=True).copy()
    target = generate_task(default_target(), 200)
    data = batches_of(target.train_inputs, target.train_labels, 16)
    _, log = finetune_spider(model, pretrained, data, TrainConfig(epochs=1))
    ok = log.persistent_aux_maps == 3
    emit(
        capsys, 9, ok,
        f"selective run holds {log.persistent_aux_maps} persistent trainable-sized "
        f"maps (snapshot, accumulator, retention scores)",
    )


# ---------------------------------------------------------------------------
# 10. Determinism and serialization
# ---------------------------------------------------------------------------


def test_criterion_10_determinism_and_io(capsys, tmp_path):
    def small_run():
        return run_experiment(
            default_suite(), default_target(), ["spider"], TrainConfig(epochs=2),
            seeds=[0], n_per_task=200, n_eval=500, pretrain_epochs=2,
        )

    csv_ok = metrics_csv(small_run()) == metrics_csv(small_run())

    def finetuned_bytes(path):
        model, _ = pretrain(default_suite(), TrainConfig(epochs=2, method="full_ft"), 200)
        set_trainable_tail(model, 2)
        pretrained = model.tensor_map(trainable_only=True).copy()
        target = generate_task(default_target(), 200)
        data = batches_of(target.train_inputs, target.train_labels, 16)
        model, _ = finetune_spider(model, pretrained, data, TrainConfig(epochs=2))
        save_checkpoint(model.tensor_map(), path)
        return path.read_bytes()

    ckpt_ok = finetuned_bytes(tmp_path / "a.ckpt") == finetuned_bytes(tmp_path / "b.ckpt")

    original = tmap(w=np.random.default_rng(0).normal(size=32))
    path = tmp_path / "rt.ckpt"
    save_checkpoint(original, path)
    loaded = load_checkpoint(path)
    ulp = np.spacing(np.abs(original["w"].data).astype(np.float32)).astype(np.float64)
    rt_ok = bool(np.all(np.abs(original["w"].data - loaded["w"].data) <= ulp))

    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    try:
        load_checkpoint(path)
        crc_ok = False
    except CorruptCheckpointError:
        crc_ok = True

    ok = csv_ok and ckpt_ok and rt_ok and crc_ok
    emit(
        capsys, 10, ok,
        f"repeat runs bitwise equal (csv {csv_ok}, checkpoint {ckpt_ok}); round trip "
        f"within one 32-bit ulp {rt_ok}; corruption detected {crc_ok}",
    )
