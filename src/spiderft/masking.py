"""Update-mask construction and weight merging.

The selection rule is the importance comparison G > I (strict; ties keep
the pretrained value).  Selected entries either get a hard 1 (binary), the
discrepancy weight G / (G + I) (weighted), or that weight rescaled by the
mean of the selected entries and capped at 1 (rescaled).  After every
optimizer step the model is pulled back toward the pretrained weights:

    w  <-  w * M + w_pre * (1 - M)

Random baselines live here too: the half-block mask (a fresh random half
of the named tensors each iteration) and the drop-and-rescale transform on
delta parameters.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .importance import GENERALIZATION, SPECIALIZATION, ImportanceScores
from .tensors import NORMALIZATION_SCOPES, TensorMap, aligned_arrays, masked_mean_array

logger = logging.getLogger(__name__)

MASK_VARIANTS = ("binary", "weighted", "rescaled", "random_half", "random_dare")


@dataclass
class UpdateMask:
    """Per-tensor update weights in [0, 1]."""

    mask: TensorMap
    variant: str
    empty_selection: bool = False

    def __post_init__(self):
        if self.variant not in MASK_VARIANTS:
            raise ValueError(f"unknown mask variant {self.variant!r}")

    @property
    def density(self) -> float:
        """Fraction of nonzero entries across all tensors."""
        total = self.mask.total_size
        if total == 0:
            return 0.0
        nonzero = sum(int(np.count_nonzero(t.data)) for t in self.mask)
        return nonzero / total


def _check_kinds(g: ImportanceScores, i: ImportanceScores) -> None:
    if g.kind != SPECIALIZATION or i.kind != GENERALIZATION:
        raise ValueError(
            f"mask expects (specialization, generalization) scores, "
            f"got ({g.kind!r}, {i.kind!r})"
        )


def binary_mask(g: ImportanceScores, i: ImportanceScores) -> UpdateMask:
    """1 where G > I (strict), else 0."""
    _check_kinds(g, i)
    g.scores.require_aligned(i.scores, "binary_mask")
    mask = g.scores.with_flat(np.empty(g.scores.total_size))
    for gv, iv, m in aligned_arrays(g.scores, i.scores, mask):
        np.greater(gv, iv, out=m)
    return UpdateMask(mask, "binary")


def weighted_mask(g: ImportanceScores, i: ImportanceScores) -> UpdateMask:
    """G / (G + I) where G > I, else 0; nonzero entries land in (0.5, 1)."""
    _check_kinds(g, i)
    g.scores.require_aligned(i.scores, "weighted_mask")
    mask = g.scores.with_flat(np.empty(g.scores.total_size))
    for gv, iv, m in aligned_arrays(g.scores, i.scores, mask):
        np.add(gv, iv, out=m)
        np.divide(gv, m, out=m)
        # scores lie in (0, 1), so the ratio is finite and x * 0.0 == 0.0
        m *= gv > iv
    return UpdateMask(mask, "weighted")


def rescale_mask(
    m: UpdateMask, scope: str = "per_tensor", *, out: TensorMap | None = None
) -> UpdateMask:
    """Divide selected entries by their mean and cap at 1.

    The mean is taken over the nonzero entries, per tensor by default or
    over the whole map with scope="global".  A mask with no selected
    entries is returned unchanged (flagged, and logged as a warning).
    The result goes to a fresh map, or into `out` (which may be m.mask).
    """
    if m.variant != "weighted":
        raise ValueError(f"rescale_mask expects a weighted mask, got {m.variant!r}")
    if scope not in NORMALIZATION_SCOPES:
        raise ValueError(f"unknown normalization scope {scope!r}")
    if out is None:
        out = m.mask.with_flat(np.empty(m.mask.total_size))
    else:
        m.mask.require_aligned(out, "rescale_mask")

    if scope == "global":
        whole = masked_mean_array(m.mask.as_flat())
        work = [(whole, values, dest) for values, dest in aligned_arrays(m.mask, out)]
    else:
        work = [(masked_mean_array(t.data), t.data, o.data) for t, o in zip(m.mask, out)]
    any_selected = False
    for (mean, empty), values, dest in work:
        if empty:
            np.copyto(dest, values)
            continue
        any_selected = True
        # zeros stay zero: the mean of positive weights is positive
        np.divide(values, mean, out=dest)
        np.minimum(dest, 1.0, out=dest)
    if not any_selected:
        logger.warning("rescale_mask: empty selection, mask left all-zero")
    return UpdateMask(out, "rescaled", empty_selection=not any_selected)


def merge(
    current: TensorMap, pretrained: TensorMap, m: UpdateMask, *, out: TensorMap | None = None
) -> TensorMap:
    """w * M + w_pre * (1 - M), elementwise.

    The result goes to a fresh map, or into `out` (which may be `current`).
    """
    current.require_aligned(pretrained, "merge")
    current.require_aligned(m.mask, "merge")
    if out is None:
        out = current.with_flat(np.empty(current.total_size))
    else:
        current.require_aligned(out, "merge")
    for w, w_pre, mt, o in aligned_arrays(current, pretrained, m.mask, out):
        # both products rounded as written, then one sum
        kept = 1.0 - mt
        kept *= w_pre
        np.multiply(w, mt, out=o)
        o += kept
    return out


def random_half_mask(shape_of: TensorMap, rng_seed: int) -> UpdateMask:
    """All-ones masks on a uniformly random floor(B/2) of the B named tensors.

    Each named tensor is one selectable block (the toy-scale analog of the
    per-layer parameter blocks that half fine-tuning draws from).
    """
    rng = np.random.default_rng(rng_seed)
    chosen = rng.choice(len(shape_of), size=len(shape_of) // 2, replace=False)
    mask = shape_of.with_flat(np.zeros(shape_of.total_size))
    tensors = list(mask)
    for idx in chosen.tolist():
        tensors[idx].data.fill(1.0)
    return UpdateMask(mask, "random_half")


def dare_mask_and_rescale(delta: TensorMap, drop_p: float, rng_seed: int) -> TensorMap:
    """Drop each delta entry with probability drop_p, rescale survivors.

    Survivors are multiplied by 1 / (1 - drop_p), keeping the expected
    delta unchanged.  drop_p = 0 returns the delta untouched.
    """
    if not 0.0 <= drop_p < 1.0:
        raise ValueError(f"drop_p must be in [0, 1), got {drop_p}")
    kept = delta.copy()
    if drop_p == 0.0:
        return kept
    rng = np.random.default_rng(rng_seed)
    scale = 1.0 / (1.0 - drop_p)
    for t in kept:  # one draw per tensor, in order
        t.data *= rng.random(t.size) >= drop_p
        t.data *= scale
    return kept
