"""Importance scoring for pretrained weights and fine-tuning gradients.

Two per-parameter scores on a common (0, 1) scale:

* generalization importance -- sigmoid(zscore(|pretrained weight|)); large
  magnitude means the parameter carries more of the pretrained behavior.
* specialization importance -- sigmoid(zscore(accumulated |gradient|));
  large accumulated gradient means the parameter matters for the new task.

Single-sample gradients are too noisy to rank parameters, so the gradient
side is an exponential moving accumulator of absolute gradients, updated
once per training step.

The module also computes the importance-profile divergence diagnostic:
cos(|w_pre|, |g|) ** -2 over the concatenated trainable set (or per tensor).
Parallel magnitude profiles give 1; the more the profiles diverge, the
larger the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UninitializedError
from .tensors import (TensorMap, blockwise, cosine_from_norms, dots, fraction, norm,
                      require_string, sigmoid_array, zscore_map)

# cos of two nonnegative vectors is >= 0 but can be exactly 0; the clamp
# keeps the inverse-square diagnostic finite (0 maps to 1e12).
PID_COS_FLOOR = 1e-6


@dataclass
class GradAccumulator:
    """Exponential moving accumulator of absolute gradients.

    First observation seeds the accumulator with |grad| directly (no decay
    toward zero), so masks are meaningful from the first iteration on.
    """

    acc: TensorMap
    beta: float
    initialized: bool = False

    @classmethod
    def empty(cls, like: TensorMap, beta: float = 0.9) -> "GradAccumulator":
        beta = fraction(beta, "beta")
        zeros = like.with_flat(np.zeros(like.total_size))
        return cls(acc=zeros, beta=beta, initialized=False)

    def _fold(self, scratch, acc, g):
        # b * acc + (1 - b) * |g|, each product rounded before the sum
        fresh = np.abs(g, out=scratch)
        fresh *= 1.0 - self.beta
        acc *= self.beta
        acc += fresh


def accumulate_gradient(state: GradAccumulator, grad: TensorMap) -> GradAccumulator:
    """Fold one gradient observation into the accumulator (in place).

    The accumulator holds no negative value and no -0.0: |x| of a finite
    gradient, then sums of products of such values with b and 1 - b.
    """
    state.acc.require_aligned(grad, "accumulate_gradient")
    if not state.initialized:
        np.abs(grad.flat, out=state.acc.flat)
    else:
        blockwise(state._fold, state.acc.flat, grad.flat)
    state.initialized = True
    return state


def _sigmoid_of_zscore(
    tm: TensorMap, scope: str, out: TensorMap | None = None, scratch: np.ndarray | None = None
) -> TensorMap:
    scores = zscore_map(tm, scope, out=out, scratch=scratch)
    sigmoid_array(scores.flat, out=scores.flat)
    return scores


def generalization_importance(pretrained: TensorMap, scope: str = "per_tensor") -> TensorMap:
    """sigmoid(zscore(|w_pre|)) per tensor (or with global stats), in (0, 1)."""
    magnitudes = pretrained.with_flat(np.abs(pretrained.flat))
    return _sigmoid_of_zscore(magnitudes, require_string(scope, "scope"))


def specialization_importance(
    state: GradAccumulator, scope: str = "per_tensor", *,
    out: TensorMap | None = None, scratch: np.ndarray | None = None,
) -> TensorMap:
    """sigmoid(zscore(acc)); the abs is already folded into accumulation.

    The scores go to a fresh map, or into `out`; `scratch`, an array of the
    accumulator's length, takes the z-score's squared deviations when given.
    """
    if not state.initialized:
        raise UninitializedError(
            "specialization importance requested before any gradient was accumulated"
        )
    return _sigmoid_of_zscore(state.acc, scope, out, scratch)


def pid(pretrained: TensorMap, grad: TensorMap) -> float:
    """Importance-profile divergence over the concatenated trainable set."""
    pretrained.require_aligned(grad, "pid")
    w = np.abs(pretrained.flat)
    return pid_of_magnitudes(w, norm(w), np.abs(grad.flat))


def pid_of_magnitudes(w_mag: np.ndarray, w_norm: float, g_mag: np.ndarray) -> float:
    """pid from the magnitude profiles |w_pre| and |g|, given |w_pre|'s norm.

    For a caller that holds the magnitudes already, such as the fine-tuning
    loop: its accumulator is its own magnitude, and the snapshot's norm is
    fixed for the run.  The result is bit for bit pid()'s: its two dot
    products are g.g, for |g|'s norm, and w.g (see tensors.dots).
    """
    gg, wg = dots((g_mag, w_mag), g_mag)
    cos = cosine_from_norms(wg, w_norm, math.sqrt(gg), "weight_magnitude", "gradient_magnitude")
    return max(cos, PID_COS_FLOOR) ** -2


def pid_per_tensor(pretrained: TensorMap, grad: TensorMap) -> dict[str, float]:
    """Same diagnostic, one value per named tensor."""
    pretrained.require_aligned(grad, "pid")
    pids = {}
    for wt, gt in zip(pretrained, grad):
        w, g = np.abs(wt.data), np.abs(gt.data)
        cos = cosine_from_norms(w.dot(g), norm(w), norm(g), wt.name, gt.name)
        pids[wt.name] = max(cos, PID_COS_FLOOR) ** -2
    return pids
