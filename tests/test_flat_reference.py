"""Bitwise reference for the fine-tuning drivers.

The drivers run each iteration as whole-buffer numpy ops on one packed
trainable buffer.  This file keeps the per-tensor arithmetic they replaced,
written out with the same formulas and the same operand order, on plain
arrays, and requires exactly equal outputs: final weights, losses, mask
densities, the divergence trace and the final accumulator.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from spiderft.benchmark import finetune_with_method
from spiderft.tensors import BLOCK
from spiderft.trainer import TrainConfig, batches_of, build_model, set_trainable_tail

# the ablation arms and the selection rule each one puts in place of the comparison
SELECTION_ARMS = {
    "select_random": "random",
    "select_magnitude": "magnitude",
    "select_gradient": "gradient",
}

SIG_LO = np.nextafter(0.0, 1.0)
SIG_HI = np.nextafter(1.0, 0.0)
STD_EPS = 1e-12
PID_COS_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# Per-tensor formulas (dicts of name -> 1-D array, in model order)
# ---------------------------------------------------------------------------


def ref_zscore(tensors: dict, scope: str) -> dict:
    if scope == "per_tensor":
        out = {}
        for name, v in tensors.items():
            std = float(np.std(v))
            out[name] = np.zeros_like(v) if std < STD_EPS else (v - np.mean(v)) / std
        return out
    flat = np.concatenate(list(tensors.values()))
    std = float(np.std(flat)) if flat.size else 0.0
    if std < STD_EPS:
        return {name: np.zeros_like(v) for name, v in tensors.items()}
    mean = float(np.mean(flat))
    return {name: (v - mean) / std for name, v in tensors.items()}


def ref_scores(tensors: dict, scope: str) -> dict:
    return {n: np.clip(expit(v), SIG_LO, SIG_HI) for n, v in ref_zscore(tensors, scope).items()}


def ref_accumulate(acc: dict | None, grads: dict, b: float) -> dict:
    if acc is None:
        return {n: np.abs(g) for n, g in grads.items()}
    # note 1.0 - 0.9 == 0.09999999999999998, not 0.1
    return {n: b * acc[n] + (1.0 - b) * np.abs(g) for n, g in grads.items()}


def ref_rescale(mask: dict, scope: str) -> dict:
    def apply(m, mean):
        return np.where(m != 0.0, np.minimum(1.0, m / mean), 0.0)

    if scope == "global":
        flat = np.concatenate(list(mask.values()))
        nz = flat[flat != 0.0]
        if nz.size == 0:
            return {n: m.copy() for n, m in mask.items()}
        mean = float(np.mean(nz))
        return {n: apply(m, mean) for n, m in mask.items()}
    out = {}
    for n, m in mask.items():
        nz = m[m != 0.0]
        out[n] = m.copy() if nz.size == 0 else apply(m, float(np.mean(nz)))
    return out


def ref_pid(pretrained: dict, acc: dict) -> float:
    w = np.abs(np.concatenate(list(pretrained.values())))
    g = np.abs(np.concatenate(list(acc.values())))
    c = float(np.dot(w, g)) / (float(np.linalg.norm(w)) * float(np.linalg.norm(g)))
    return max(min(1.0, max(-1.0, c)), PID_COS_FLOOR) ** -2


def ref_density(mask: dict) -> float:
    total = sum(m.size for m in mask.values())
    return sum(int(np.count_nonzero(m)) for m in mask.values()) / total


def ref_topk(tensors: dict, gamma: float, largest: bool) -> dict:
    out = {}
    for n, v in tensors.items():
        k = int(math.floor(v.size * gamma))
        m = np.zeros(v.size)
        order = np.argsort(v, kind="stable")
        if k:
            m[order[-k:] if largest else order[:k]] = 1.0
        out[n] = m
    return out


def ref_random_gamma(tensors: dict, gamma: float, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    out = {}
    for n, v in tensors.items():
        k = int(math.floor(v.size * gamma))
        m = np.zeros(v.size)
        if k:
            m[rng.choice(v.size, size=k, replace=False)] = 1.0
        out[n] = m
    return out


# ---------------------------------------------------------------------------
# The pre-packing model arithmetic and the two driver loops
# ---------------------------------------------------------------------------


def ref_loss_and_grads(model, weights: dict, inputs, labels) -> tuple[float, dict]:
    """Mean softmax cross-entropy and its gradient for the trainable tensors."""
    layers = []
    for k in range(model.layer_count):
        weight, bias = model.params[f"layer{k}.weight"], model.params[f"layer{k}.bias"]
        w = weights.get(weight.name, weight.data).reshape(weight.shape)
        b = weights.get(bias.name, bias.data)
        layers.append((w, b, "identity" if k == model.layer_count - 1 else "tanh"))
    a = inputs
    layer_inputs = []
    for w, b, act in layers:
        layer_inputs.append(a)
        z = a @ w.T + b
        a = np.tanh(z) if act == "tanh" else z
    shifted = a - a.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(len(labels))
    loss = float(np.mean(lse - shifted[rows, labels]))
    dz = np.exp(shifted - lse[:, None])
    dz[rows, labels] -= 1.0
    dz /= len(labels)
    grads = {}
    for k in range(len(layers) - 1, -1, -1):
        w, _, _ = layers[k]
        a_in = layer_inputs[k]
        grads[f"layer{k}.weight"] = (dz.T @ a_in).reshape(-1)
        grads[f"layer{k}.bias"] = dz.sum(axis=0)
        if k > 0:
            da = dz @ w
            dz = da * (1.0 - a_in**2) if layers[k - 1][2] == "tanh" else da
    return loss, {n: grads[n] for n in weights}


def iteration_seeds(seed: int, count: int):
    return np.random.SeedSequence(seed).generate_state(max(count, 1), dtype=np.uint64)


def ref_run(model, batches, cfg: TrainConfig, method: str):
    """One fine-tuning run on copies of the model's trainable tensors."""
    weights = {t.name: t.data.copy() for t in model.tensors() if model.trainable[t.name]}
    pretrained = {n: w.copy() for n, w in weights.items()}
    spider = method.startswith("spider") or method in SELECTION_ARMS
    selection = SELECTION_ARMS.get(method, "discrepancy")
    steps = cfg.epochs * len(batches)
    seeds = iteration_seeds(cfg.seed, steps if spider else steps + 1)
    gen = ref_scores({n: np.abs(w) for n, w in pretrained.items()}, cfg.normalization_scope)
    fixed = ref_topk({n: np.abs(w) for n, w in pretrained.items()}, 0.5, False)
    acc = None
    losses, densities, pids = [], [], []
    it = 0
    for _epoch in range(cfg.epochs):
        for batch in batches:
            loss, grads = ref_loss_and_grads(model, weights, batch.inputs, batch.labels)
            if method == "l2_reg":
                drift = {n: weights[n] - pretrained[n] for n in weights}
                grads = {n: g + 2.0 * cfg.l2_lambda * drift[n] for n, g in grads.items()}
                loss += cfg.l2_lambda * float(np.sum(np.concatenate(list(drift.values())) ** 2))
            elif method == "l1_graft":
                drift = {n: weights[n] - pretrained[n] for n in weights}
                grads = {n: g + cfg.l1_lambda * np.sign(drift[n]) for n, g in grads.items()}
                loss += cfg.l1_lambda * float(np.sum(np.abs(np.concatenate(list(drift.values())))))
            elif method == "half_ft":
                rng = np.random.default_rng(int(seeds[it]))
                names = list(weights)
                chosen = set(rng.choice(len(names), size=len(names) // 2, replace=False).tolist())
                gate = {n: np.ones(grads[n].size) if i in chosen else np.zeros(grads[n].size)
                        for i, n in enumerate(names)}
                grads = {n: g * gate[n] for n, g in grads.items()}
                densities.append(ref_density(gate))

            acc = ref_accumulate(acc, grads, cfg.beta)
            if spider:
                if selection == "discrepancy":
                    g_scores = ref_scores(acc, cfg.normalization_scope)
                    if method == "spider_binary":
                        mask = {n: (g_scores[n] > gen[n]).astype(np.float64) for n in weights}
                    else:
                        mask = {n: np.where(g_scores[n] > gen[n],
                                            g_scores[n] / (g_scores[n] + gen[n]), 0.0)
                                for n in weights}
                        if method == "spider":
                            mask = ref_rescale(mask, cfg.normalization_scope)
                elif selection == "random":
                    mask = ref_random_gamma(weights, 0.5, int(seeds[it]))
                elif selection == "magnitude":
                    mask = fixed
                else:
                    mask = ref_topk(acc, 0.5, True)

            for n, g in grads.items():
                weights[n] = weights[n] - cfg.learning_rate * g
            if spider:
                weights = {n: weights[n] * mask[n] + pretrained[n] * (1.0 - mask[n])
                           for n in weights}
                densities.append(ref_density(mask))
            losses.append(loss)
            pids.append(ref_pid(pretrained, acc))
            it += 1

    if method == "dare" and cfg.dare_drop_p != 0.0 and it > 0:
        rng = np.random.default_rng(int(seeds[-1]))
        scale = 1.0 / (1.0 - cfg.dare_drop_p)
        keep = {n: (rng.random(w.size) >= cfg.dare_drop_p).astype(np.float64)
                for n, w in weights.items()}
        weights = {n: pretrained[n] + (w - pretrained[n]) * keep[n] * scale
                   for n, w in weights.items()}
    return weights, losses, densities, pids, acc


# ---------------------------------------------------------------------------
# Exact agreement over the method matrix
# ---------------------------------------------------------------------------


def blob_batches(seed, n=48, dim=4, classes=3, batch=16):
    rng = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.int64) % classes
    inputs = 2.0 * np.eye(classes, dim)[labels] + 0.5 * rng.standard_normal((n, dim))
    return batches_of(inputs, labels, batch)


CASES = (
    [(m, tail, scope, {}) for m in ("spider", "spider_binary", "spider_weighted_norescale")
     for tail in (1, 3) for scope in ("per_tensor", "global")]
    + [(m, tail, "per_tensor", {}) for m in SELECTION_ARMS for tail in (1, 3)]
    + [(m, tail, "per_tensor", {}) for m in ("full_ft", "l2_reg", "l1_graft", "half_ft", "dare")
       for tail in (1, 3)]
    + [("l2_reg", 2, "per_tensor", {"l2_lambda": 0.05}),
       ("l1_graft", 2, "per_tensor", {"l1_lambda": 0.01}),
       ("dare", 2, "per_tensor", {"dare_drop_p": 0.3})]
)


@pytest.mark.parametrize(
    "method,tail,scope,overrides", CASES,
    ids=[f"{m}-tail{t}-{s}-{'+'.join(o) or 'default'}" for m, t, s, o in CASES],
)
def test_packed_driver_matches_per_tensor_reference(method, tail, scope, overrides):
    seed = 5
    model = build_model([4, 6, 5, 3], seed)
    set_trainable_tail(model, tail)
    batches = blob_batches(seed)
    cfg = TrainConfig(**{"epochs": 2, "seed": seed, "normalization_scope": scope, **overrides})
    assert_driver_matches_reference(model, batches, cfg, method)


# A trainable tail of 91,203 entries: the blocked elementwise chains (the
# accumulator fold and the merge) cross several block boundaries and end in a
# partial block.  The reference runs in the same process, because BLAS may
# split a dot product of this size across threads differently on another machine.
BLOCK_CASES = (
    [(m, scope, {}) for m in ("spider", "spider_binary", "spider_weighted_norescale")
     for scope in ("per_tensor", "global")]
    + [("full_ft", "per_tensor", {}),
       ("l2_reg", "per_tensor", {})]
)


@pytest.mark.parametrize(
    "method,scope,overrides", BLOCK_CASES,
    ids=[f"{m}-{s}-{'+'.join(o) or 'default'}" for m, s, o in BLOCK_CASES],
)
def test_packed_driver_matches_per_tensor_reference_across_blocks(method, scope, overrides):
    seed = 6
    model = build_model([8, 300, 300, 3], seed)
    set_trainable_tail(model, 2)
    size = model.tensor_map(trainable_only=True).layout.size
    assert size > 2 * BLOCK and size % BLOCK
    batches = blob_batches(seed, n=40, dim=8)
    cfg = TrainConfig(**{"epochs": 2, "seed": seed, "normalization_scope": scope, **overrides})
    assert_driver_matches_reference(model, batches, cfg, method)


def assert_driver_matches_reference(model, batches, cfg: TrainConfig, method: str) -> None:
    weights, losses, densities, pids, acc = ref_run(model, batches, cfg, method)
    frozen = {t.name: t.data.copy() for t in model.tensors() if not model.trainable[t.name]}

    pretrained = model.tensor_map(trainable_only=True).copy()
    model, log = finetune_with_method(model, pretrained, batches, replace(cfg, method=method))

    for t in model.tensors():
        expected = weights[t.name] if t.name in weights else frozen[t.name]
        assert np.array_equal(t.data, expected), t.name
    assert log.losses == losses
    assert log.mask_density == densities
    assert log.pid == pids
    assert list(log.final_accumulator.names) == list(acc)
    for t in log.final_accumulator:
        assert np.array_equal(t.data, acc[t.name]), t.name
