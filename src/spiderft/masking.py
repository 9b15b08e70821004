"""Update-mask construction and weight merging.

The selection rule is the importance comparison G > I (strict; ties keep
the pretrained value).  Selected entries either get a hard 1 (binary), the
discrepancy weight G / (G + I) (weighted), or that weight rescaled by the
mean of the selected entries and capped at 1 (rescaled).  After every
optimizer step the model is pulled back toward the pretrained weights:

    w  <-  w * M + w_pre * (1 - M)

``MaskRule`` is the one owner of the mask variants, for the fine-tuning
loop and the offline merge alike: built once per run by name, it holds the
variant's fixed map and buffers and gives each step's mask.  Besides the
three comparison masks it builds the ablation arms that update half of
each tensor, floor(size / 2) entries (random, smallest pretrained
magnitude, largest accumulated gradient).  Random baselines live here too:
the half-block mask (a fresh random half of the named tensors each
iteration) and the drop-and-rescale (DARE) merge, w_pre + dare(w - w_pre).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .importance import GradAccumulator, generalization_importance, specialization_importance
from .methods import DISCREPANCY_MASKS
from .tensors import TensorMap, blockwise, gather

logger = logging.getLogger(__name__)


@dataclass
class UpdateMask:
    """Per-tensor update weights in [0, 1]."""

    mask: TensorMap
    empty_selection: bool = False
    # a comparison mask's G > I, over the mask's buffer: True exactly where
    # the mask is nonzero; None for a mask built from its values alone
    selection: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def density(self) -> float:
        """Fraction of nonzero entries across all tensors (0.0 for none)."""
        chosen = self.mask.flat if self.selection is None else self.selection
        return int(np.count_nonzero(chosen)) / chosen.size if chosen.size else 0.0


def binary_mask(
    g: TensorMap, i: TensorMap, *,
    out: TensorMap | None = None, selection: np.ndarray | None = None,
) -> UpdateMask:
    """1 where G > I (strict), else 0.

    The mask goes to a fresh map, or into `out` (which may be g), and the
    selection G > I into `selection`, a bool array of the maps' length, when
    given.
    """
    g.require_aligned(i, "binary_mask")
    out = g.result(out, "binary_mask")
    selection = np.greater(g.flat, i.flat, out=selection)
    np.copyto(out.flat, selection)
    return UpdateMask(out, False, selection)


def weighted_mask(
    g: TensorMap, i: TensorMap, *,
    out: TensorMap | None = None, selection: np.ndarray | None = None,
) -> UpdateMask:
    """G / (G + I) where G > I, else 0; nonzero entries land in (0.5, 1).

    The buffers are binary_mask's.
    """
    g.require_aligned(i, "weighted_mask")
    out = g.result(out, "weighted_mask")
    selection = np.empty(g.total_size, dtype=bool) if selection is None else selection
    blockwise(_weighted_kernel, out.flat, selection, g.flat, i.flat)
    return UpdateMask(out, False, selection)


def _weighted_kernel(scratch, m, selection, g, i):
    # the selection first, since m may be g; scores lie in (0, 1), so the
    # ratio is positive and finite, and x * 0.0 == 0.0
    np.greater(g, i, out=selection)
    total = np.add(g, i, out=scratch)
    np.divide(g, total, out=m)
    m *= selection


def rescale_mask(
    m: UpdateMask, scope: str = "per_tensor", *,
    out: TensorMap | None = None, scratch: np.ndarray | None = None,
) -> UpdateMask:
    """Divide selected entries by their mean and cap at 1.

    The mean is taken over the nonzero entries, per tensor by default or
    over the whole map with scope="global".  A mask with no selected
    entries is returned unchanged (flagged, and logged as a warning).
    The result goes to a fresh map, or into `out` (which may be m.mask).
    The selected entries are gathered once, in buffer order, into `scratch`
    (see tensors.gather), and each unit's mean is selected_mean_array's of
    its own run of them.  A comparison mask's selection names its nonzero
    entries, and the result keeps it.
    """
    out = m.mask.result(out, "rescale_mask")
    selection = m.mask.flat != 0.0 if m.selection is None else m.selection
    chosen = gather(m.mask.flat, selection, scratch)
    slices, values = m.mask.units(scope)
    runs = [chosen.size]  # a lone unit takes every selected entry
    if len(slices) > 1:  # the largest unit's run is what the others leave
        big = m.mask.layout.largest
        runs = [int(np.count_nonzero(selection[s])) for s in slices[:big] + slices[big + 1 :]]
        runs.insert(big, chosen.size - sum(runs))
    lo = 0
    for n, v, dest in zip(runs, values, out.units(scope)[1]):
        # zeros stay zero: the mean of positive weights is positive; a unit
        # that selects nothing is all zeros, and x / 1.0 is x
        np.divide(v, np.add.reduce(chosen[lo : lo + n]) / n if n else 1.0, out=dest)
        lo += n
    np.minimum(out.flat, 1.0, out=out.flat)
    if not chosen.size:
        logger.warning("rescale_mask: empty selection, mask left all-zero")
    return UpdateMask(out, not chosen.size, m.selection)


def merge(
    current: TensorMap, pretrained: TensorMap, m: UpdateMask, *, out: TensorMap | None = None
) -> TensorMap:
    """w * M + w_pre * (1 - M), elementwise.

    The result goes to a fresh map, or into `out` (which may be `current`).
    """
    current.require_aligned(pretrained, "merge")
    current.require_aligned(m.mask, "merge")
    out = current.result(out, "merge")
    blockwise(_merge_kernel, out.flat, current.flat, pretrained.flat, m.mask.flat)
    return out


def _merge_kernel(scratch, out, w, w_pre, mask):
    # both products rounded as written, then one sum; out may be w
    kept = np.subtract(1.0, mask, out=scratch)
    kept *= w_pre
    np.multiply(w, mask, out=out)
    out += kept


def random_half_blocks(count: int, rng_seed: int) -> list[int]:
    """The indices of a uniformly random floor(count / 2) of `count` blocks,
    in the order drawn from rng_seed."""
    rng = np.random.default_rng(rng_seed)
    return rng.choice(count, size=count // 2, replace=False).tolist()


def random_half_mask(shape_of: TensorMap, rng_seed: int) -> UpdateMask:
    """All-ones masks on a uniformly random floor(B/2) of the B named tensors.

    Each named tensor is one selectable block (the toy-scale analog of the
    per-layer parameter blocks that half fine-tuning draws from).
    """
    mask = shape_of.with_flat(np.zeros(shape_of.total_size))
    for idx in random_half_blocks(len(mask), rng_seed):
        mask.segments[idx].fill(1.0)
    return UpdateMask(mask)


def _half_mask(tm: TensorMap, pick) -> UpdateMask:
    """Binary mask on the floor(size / 2) entries pick(values, k) of each tensor."""
    mask = tm.with_flat(np.zeros(tm.total_size))
    for values, dest in zip(tm.segments, mask.segments):
        k = values.size // 2
        if k:
            dest[pick(values, k)] = 1.0
    return UpdateMask(mask)


class MaskRule:
    """One run's update mask named by `variant`, built once from the
    pretrained weights; each call gives a step's mask.

    * ``binary`` / ``weighted`` / ``rescaled`` -- compare the specialization
      scores of the accumulator with the generalization scores of the
      pretrained weights; both and the rescale use `scope`;
    * ``gradient`` -- the half of each tensor with the largest accumulated
      |grad|;
    * ``magnitude`` -- the half with the smallest pretrained |w|, the same
      mask at every step;
    * ``random`` -- a random half drawn from the step's seed.

    `fixed` is the run's fixed map (the generalization scores, or the
    magnitude mask), None for the other variants.  A comparison mask is
    written into one map (scores, then mask) and one selection held by the
    rule, so a mask is valid until the next call; `scratch`, an array of
    the maps' length, takes the z-score's and the rescale's temporaries.
    The other variants allocate.
    """

    def __init__(self, variant: str, pretrained: TensorMap, scope: str = "per_tensor"):
        self.variant, self.scope, self.fixed = variant, scope, None
        n = pretrained.total_size
        if variant in DISCREPANCY_MASKS:
            self.fixed = generalization_importance(pretrained, scope)
            self._scores = pretrained.with_flat(np.empty(n))
            self._selection = np.empty(n, dtype=bool)
        elif variant == "magnitude":
            self.fixed = _half_mask(pretrained,
                                    lambda v, k: np.argsort(np.abs(v), kind="stable")[:k])
        elif variant not in ("gradient", "random"):
            raise ConfigError(f"unknown mask variant {variant!r}")

    def __call__(
        self, accumulator: GradAccumulator, seed: int = 0, scratch: np.ndarray | None = None
    ) -> UpdateMask:
        variant = self.variant
        if variant == "magnitude":
            return self.fixed
        if variant == "gradient":
            return _half_mask(accumulator.acc, lambda v, k: np.argsort(v, kind="stable")[-k:])
        if variant == "random":
            rng = np.random.default_rng(seed)
            return _half_mask(accumulator.acc,
                              lambda v, k: rng.choice(v.size, size=k, replace=False))
        g = specialization_importance(accumulator, self.scope, out=self._scores, scratch=scratch)
        if variant == "binary":
            return binary_mask(g, self.fixed, out=g, selection=self._selection)
        m = weighted_mask(g, self.fixed, out=g, selection=self._selection)
        if variant == "weighted":
            return m
        return rescale_mask(m, self.scope, out=g, scratch=scratch)


def dare_mask_and_rescale(delta: TensorMap, drop_p: float, rng_seed: int) -> TensorMap:
    """Drop each delta entry with probability drop_p, rescale survivors.

    Survivors are multiplied by 1 / (1 - drop_p), keeping the expected
    delta unchanged.  drop_p = 0 returns the delta untouched.  The result
    is a fresh map.
    """
    _require_drop_p(drop_p)
    kept = delta.copy()
    _drop_and_rescale(kept.flat, drop_p, rng_seed)
    return kept


def dare_merge(
    current: TensorMap, pretrained: TensorMap, drop_p: float, rng_seed: int, *,
    out: TensorMap | None = None,
) -> TensorMap:
    """w_pre + dare(w - w_pre): the delta from the pretrained weights through
    dare_mask_and_rescale, added back onto them.

    The result goes to a fresh map, or into `out` (which may be `current`);
    the delta is dropped and rescaled there, in place, so with `out` only
    block-sized scratch is allocated.
    """
    _require_drop_p(drop_p)
    current.require_aligned(pretrained, "dare_merge")
    out = current.result(out, "dare_merge")
    np.subtract(current.flat, pretrained.flat, out=out.flat)
    _drop_and_rescale(out.flat, drop_p, rng_seed)
    out.flat += pretrained.flat  # the sum is commutative: the bits of w_pre + kept
    return out


def _require_drop_p(drop_p: float) -> None:
    if not 0.0 <= drop_p < 1.0:
        raise ConfigError(f"drop_p must be in [0, 1), got {drop_p}")


def _drop_and_rescale(delta: np.ndarray, drop_p: float, rng_seed: int) -> None:
    """dare_mask_and_rescale in place on a delta map's buffer.

    One generator feeds every tensor in buffer order, a block at a time
    (tensors.blockwise): it yields the same doubles as one draw per tensor.
    x * False is x * 0.0, so gating by the comparison gives the bits of
    multiplying by the float mask.
    """
    if drop_p == 0.0:
        return
    rng = np.random.default_rng(rng_seed)
    scale = 1.0 / (1.0 - drop_p)
    def kernel(scratch, part):
        part *= rng.random(part.size, out=scratch) >= drop_p
        part *= scale

    blockwise(kernel, delta)
