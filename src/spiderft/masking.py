"""Update-mask construction and weight merging.

The selection rule is the importance comparison G > I (strict; ties keep
the pretrained value).  Selected entries either get a hard 1 (binary), the
discrepancy weight G / (G + I) (weighted), or that weight rescaled by the
mean of the selected entries and capped at 1 (rescaled).  After every
optimizer step the model is pulled back toward the pretrained weights:

    w  <-  w * M + w_pre * (1 - M)

``select_mask`` is the one entry point that picks a mask by name, for the
fine-tuning loop and the offline merge alike; besides the three comparison
masks it builds the ablation arms that update half of each tensor,
floor(size / 2) entries (random, smallest pretrained magnitude, largest
accumulated gradient).  Random baselines live here too: the half-block
mask (a fresh random half of the named tensors each iteration) and the
drop-and-rescale (DARE) merge, w_pre + dare(w - w_pre).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .tensors import BLOCK, TensorMap, blockwise, scoped_arrays, selected_mean_array

logger = logging.getLogger(__name__)

# the masks that compare specialization scores G with generalization scores I
DISCREPANCY_MASKS = ("binary", "weighted", "rescaled")


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
        """Fraction of nonzero entries across all tensors."""
        total = self.mask.total_size
        if not total:
            return 0.0
        chosen = self.mask.flat if self.selection is None else self.selection
        return int(np.count_nonzero(chosen)) / total


def _mask_buffers(
    g: TensorMap, out: TensorMap | None, selection: np.ndarray | None, op: str
) -> tuple[TensorMap, np.ndarray]:
    """A comparison mask's value map and selection: the given ones, or new."""
    if out is None:
        out = g.with_flat(np.empty(g.total_size))
    else:
        g.require_aligned(out, op)
    if selection is None:
        selection = np.empty(g.total_size, dtype=bool)
    return out, selection


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
    out, selection = _mask_buffers(g, out, selection, "binary_mask")
    np.greater(g.flat, i.flat, out=selection)
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
    out, selection = _mask_buffers(g, out, selection, "weighted_mask")
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
    The selected entries are gathered for their mean into `scratch`, an
    array of the mask's length, when given (see selected_mean_array).
    A comparison mask's selection names its nonzero entries, and the
    result keeps it.
    """
    if out is None:
        out = m.mask.with_flat(np.empty(m.mask.total_size))
    else:
        m.mask.require_aligned(out, "rescale_mask")
    selection = m.mask.flat != 0.0 if m.selection is None else m.selection

    any_selected = False
    for values, dest, chosen, spare in scoped_arrays(scope, m.mask.layout, m.mask.flat,
                                                     out.flat, selection, scratch):
        mean, empty = selected_mean_array(values, chosen, scratch=spare)
        if empty:
            np.copyto(dest, values)
            continue
        any_selected = True
        # zeros stay zero: the mean of positive weights is positive
        np.divide(values, mean, out=dest)
        np.minimum(dest, 1.0, out=dest)
    if not any_selected:
        logger.warning("rescale_mask: empty selection, mask left all-zero")
    return UpdateMask(out, not any_selected, m.selection)


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
    segments = mask.layout.split(mask.flat)
    for idx in random_half_blocks(len(segments), rng_seed):
        segments[idx].fill(1.0)
    return UpdateMask(mask)


def _half_mask(tm: TensorMap, pick) -> UpdateMask:
    """Binary mask on the floor(size / 2) entries pick(values, k) of each tensor."""
    mask = tm.with_flat(np.zeros(tm.total_size))
    for values, dest in zip(tm.layout.split(tm.flat), mask.layout.split(mask.flat)):
        k = values.size // 2
        if k:
            dest[pick(values, k)] = 1.0
    return UpdateMask(mask)


def select_mask(
    variant: str,
    g: TensorMap,
    i: TensorMap,
    scope: str = "per_tensor",
    *,
    seed: int = 0,
    out: TensorMap | None = None,
    selection: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> UpdateMask:
    """The update mask named by `variant`, from the evidence for updating (g)
    and for keeping the pretrained value (i).

    * ``binary`` / ``weighted`` / ``rescaled`` -- compare specialization
      scores g with generalization scores i; rescaling uses `scope`;
    * ``gradient`` -- the half of each tensor with the largest g (accumulated
      |grad|);
    * ``magnitude`` -- the half with the smallest |i| (pretrained weights);
    * ``random`` -- a random half drawn from `seed`, shaped like g.

    The comparison masks take `out`, `selection` (see binary_mask) and the
    rescale's `scratch` (see rescale_mask); the other variants allocate.
    """
    if variant == "binary":
        return binary_mask(g, i, out=out, selection=selection)
    if variant in ("weighted", "rescaled"):
        m = weighted_mask(g, i, out=out, selection=selection)
        del g  # a caller that passes fresh scores gets them freed before the rescale
        if variant == "weighted":
            return m
        return rescale_mask(m, scope, out=m.mask, scratch=scratch)
    if variant == "gradient":
        return _half_mask(g, lambda v, k: np.argsort(v, kind="stable")[-k:])
    if variant == "magnitude":
        return _half_mask(i, lambda v, k: np.argsort(np.abs(v), kind="stable")[:k])
    if variant == "random":
        rng = np.random.default_rng(seed)
        return _half_mask(g, lambda v, k: rng.choice(v.size, size=k, replace=False))
    raise ConfigError(f"unknown mask variant {variant!r}")


def dare_mask_and_rescale(delta: TensorMap, drop_p: float, rng_seed: int) -> TensorMap:
    """Drop each delta entry with probability drop_p, rescale survivors.

    Survivors are multiplied by 1 / (1 - drop_p), keeping the expected
    delta unchanged.  drop_p = 0 returns the delta untouched.  The result
    is a fresh map.
    """
    _require_drop_p(drop_p)
    kept = delta.copy()
    _drop_and_rescale(kept, drop_p, rng_seed)
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
    if out is None:
        out = current.with_flat(np.empty(current.total_size))
    else:
        current.require_aligned(out, "dare_merge")
    np.subtract(current.flat, pretrained.flat, out=out.flat)
    _drop_and_rescale(out, drop_p, rng_seed)
    out.flat += pretrained.flat  # the sum is commutative: the bits of w_pre + kept
    return out


def _require_drop_p(drop_p: float) -> None:
    if not 0.0 <= drop_p < 1.0:
        raise ConfigError(f"drop_p must be in [0, 1), got {drop_p}")


def _drop_and_rescale(delta: TensorMap, drop_p: float, rng_seed: int) -> None:
    """dare_mask_and_rescale in place on delta's buffer.

    Each tensor's uniforms come from one generator, in order, a BLOCK at a
    time: the generator yields the same doubles as one draw of the tensor's
    size.  x * False is x * 0.0, so gating by the comparison gives the bits
    of multiplying by the float mask.
    """
    if drop_p == 0.0:
        return
    rng = np.random.default_rng(rng_seed)
    scale = 1.0 / (1.0 - drop_p)
    size = min(delta.total_size, BLOCK)
    uniforms, kept = np.empty(size), np.empty(size, dtype=bool)
    for segment in delta.layout.split(delta.flat):
        for lo in range(0, segment.size, BLOCK):
            part = segment[lo : lo + BLOCK]
            n = part.size
            part *= np.greater_equal(rng.random(out=uniforms[:n]), drop_p, out=kept[:n])
            part *= scale
