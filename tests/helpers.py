"""Shared test utilities: independent reference implementations.

Everything here is written from the math, on purpose, without calling
into the package's own forward/backward/importance code, so the tests
compare two separately derived answers.  The one exception reads the code
blocks of README.md, so tests can run them as written.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from spiderft.tensors import FlatTensor, TensorMap


def tmap(**named) -> TensorMap:
    """Build a TensorMap from keyword name=values pairs (1-D tensors)."""
    return TensorMap.from_tensors(FlatTensor.of(n, v) for n, v in named.items())


def tensor_of(tm: TensorMap, name: str) -> np.ndarray:
    return tm[name].data


def mapped(tm: TensorMap, fn) -> TensorMap:
    """A new map with fn applied to every payload."""
    return TensorMap.from_tensors(t.with_data(fn(t.data)) for t in tm)


# ---------------------------------------------------------------------------
# Reference forward pass (independent of spiderft.trainer.forward)
# ---------------------------------------------------------------------------


def ref_forward(layers, inputs, labels):
    """Mean softmax cross-entropy for a stack of (W, b, activation) triples.

    W has shape (out, in); activations are "tanh" or "identity".
    """
    a = np.asarray(inputs, dtype=np.float64)
    for w, b, act in layers:
        z = a @ np.asarray(w, dtype=np.float64).T + np.asarray(b, dtype=np.float64)
        a = np.tanh(z) if act == "tanh" else z
    logits = a
    # direct softmax (small values in tests, no stabilization needed)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = len(labels)
    losses = -np.log(probs[np.arange(n), labels])
    return float(np.mean(losses)), probs


def model_layers(model):
    """Extract (W, b, activation) triples from a ToyModel: tanh hidden
    layers, identity head."""
    return [
        (model.params.views[2 * k].copy(), model.params.views[2 * k + 1].copy(),
         "identity" if k == model.layer_count - 1 else "tanh")
        for k in range(model.layer_count)
    ]


# ---------------------------------------------------------------------------
# Central finite differences on the trainable tensors
# ---------------------------------------------------------------------------


def finite_diff_grads(model, batch, h: float = 1e-5) -> TensorMap:
    from spiderft.trainer import forward

    out = []
    for t in model.tensor_map(trainable_only=True):
        g = np.empty(t.size)
        for i in range(t.size):
            orig = t.data[i]
            t.data[i] = orig + h
            model.version += 1
            plus, _ = forward(model, batch)
            t.data[i] = orig - h
            model.version += 1
            minus, _ = forward(model, batch)
            t.data[i] = orig
            model.version += 1
            g[i] = (plus - minus) / (2 * h)
        out.append(t.with_data(g))
    return TensorMap.from_tensors(out)


def max_rel_error(analytic: TensorMap, numeric: TensorMap) -> float:
    """max |a - n| / max(1, |a|, |n|) over all entries."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(1.0, np.maximum(np.abs(a.data), np.abs(n.data)))
        worst = max(worst, float(np.max(np.abs(a.data - n.data) / denom)))
    return worst


# ---------------------------------------------------------------------------
# Reference importance/mask arithmetic (used by the single-step trace)
# ---------------------------------------------------------------------------


def ref_zscore(v):
    v = np.asarray(v, dtype=np.float64)
    std = v.std()
    if std < 1e-12:
        return np.zeros_like(v)
    return (v - v.mean()) / std


def ref_sigmoid(v):
    return 1.0 / (1.0 + np.exp(-np.asarray(v, dtype=np.float64)))


def spider_step_by_hand(w_pre, grad, acc_prev, beta, lr, initialized):
    """One selective-update iteration on flat vectors, straight from the math.

    Returns (new_weights, new_accumulator). Normalization is per-vector,
    matching per_tensor scope on a single tensor.
    """
    w_pre = np.asarray(w_pre, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    acc = (
        np.abs(grad)
        if not initialized
        else beta * np.asarray(acc_prev, dtype=np.float64) + (1 - beta) * np.abs(grad)
    )
    i_scores = ref_sigmoid(ref_zscore(np.abs(w_pre)))
    g_scores = ref_sigmoid(ref_zscore(acc))
    m = np.where(g_scores > i_scores, g_scores / (g_scores + i_scores), 0.0)
    nz = m[m != 0.0]
    if nz.size:
        m = np.where(m != 0.0, np.minimum(1.0, m / nz.mean()), 0.0)
    stepped = w_pre - lr * grad
    return stepped * m + w_pre * (1.0 - m), acc


# ---------------------------------------------------------------------------
# README.md's code blocks
# ---------------------------------------------------------------------------


def readme_block(heading: str, language: str) -> str:
    """The text of the first ```language block after README.md's `heading` line."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index(f"\n{heading}\n"):]
    fence = f"```{language}\n"
    block = section[section.index(fence) + len(fence):]
    return block[: block.index("```")]
