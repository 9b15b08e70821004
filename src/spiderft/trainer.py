"""Toy dense classifier with manual gradients, plus the training loops.

The model is its parameter map: tensors named layer{k}.weight and
layer{k}.bias fix its layers and widths, and a layer's position fixes its
activation (tanh for hidden layers, linear into the softmax for the last),
so a checkpoint alone rebuilds it.  It owns the parameters as one
contiguous float64 buffer, in layer order.
Gradients are derived by hand so the whole training path stays
dependency-free and checkable against finite differences.  The step's
GEMMs call ndarray.dot, which makes the same BLAS call as ``@`` at a lower
fixed cost; tests/test_flat_properties.py pins the equal bits (a (1, 1) by
(1, 1) product aside, where dot keeps the sign of a zero product).  A
weight gradient larger than BLOCK comes from np.matmul, with dot's bits and
without its zero fill of the output.

Every method runs the same fine-tuning loop: per iteration forward,
backward, fold |grad| into the accumulator, SGD step, pid trace.  The step
takes one learning rate for every trainable tensor, and one accumulator
runs across the whole run.  The method name alone picks up to three hooks
on it (TrainConfig accepts only the names in METHOD_CHOICES: the families
below, and ``zero_shot``, which fine-tunes nothing):

* a gradient edit before accumulation -- the L2/L1 pull-back terms
  (``l2_reg``, ``l1_graft``) and random half-block gating (``half_ft``);
* a mask merged after the SGD step, pulling deselected weights back to the
  pretrained snapshot (the ``spider`` family and the ``select_*`` arms; see
  ``masking.MaskRule``);
* a drop-and-rescale of the final delta after the run (``dare``).

``finetune_spider`` runs the masked methods and ``finetune_baseline`` the
counterparts; both are thin checks in front of the one loop.  ``train``,
pretraining's loop, is plain SGD with the same per-step checks and no hooks.

The trainable tensors are the model's last layers, a tail of its buffer,
so a run works on one view of it: the per-iteration chain is a few numpy
ops over whole buffers, and the SGD step and the merge write into the
model.  The tail's Layout and that view are built once when the tail is
set, and every map of a run shares that one Layout object.
Each batch derives its targets (label index and one-hot) once, for every
epoch.  A run allocates its step's buffers once, and no step allocates a
trainable-sized array, except for the temporaries that fix the bits of the
select_random and select_gradient masks (rng.choice, a stable argsort) and
of l2_reg's and l1_graft's drift.  backward writes the gradient into one
held map.  The SGD step consumes it (it holds the step afterwards), so the
mask chain (whose other buffers MaskRule and blockwise hold) and then the
pid trace (|w_pre|, its norm taken once before the loop) use it as scratch.
Every step checks the loss, the gradient and the updated weights once and
raises DivergenceError on the first non-finite value.  On a tail larger than
BLOCK the elementwise passes run on every usable CPU (tensors.blockwise), and
from tensors.SPLIT entries on so do the sums, the rescale's gather and the
dot products of the checks and of pid, with the same bits.  A masked run ends by
checking that every changed weight lies in the final mask's support (else
InvariantError), and its RunLog records both counts.

A sweep-model step is about 40 numpy calls on 16-row arrays, so forward and
backward read the model's layer views once per call, through no property.
forward, backward, sgd_step, _loss_and_gradient, accumulate_gradient and
merge stay module lookups, not inlined: perfbench's tracer and tests patch them.

Runs are deterministic: all randomness flows from the config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    AlignmentError,
    ConfigError,
    DimensionError,
    DivergenceError,
    InvariantError,
    StaleCacheError,
)
from .importance import GradAccumulator, accumulate_gradient, pid_of_magnitudes
from .masking import MaskRule, UpdateMask, dare_merge, merge, random_half_blocks
from .methods import (BASELINE_METHODS, MASK_OF_METHOD, METHOD_CHOICES, NORMALIZATION_SCOPES,
                      SPIDER_METHODS)
from .tensors import (BLOCK, SPLIT, FlatTensor, Layout, TensorMap, blockwise, check_fields,
                      fraction, int_at_least, norm, require_int, runs, spread)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    """Inputs and integer labels, plus the targets derived from the labels
    for a head of a given width (see targets).  The labels are a read-only
    copy, so those targets cannot go stale."""

    inputs: np.ndarray  # (B, d_in)
    labels: np.ndarray  # (B,) int

    def __post_init__(self):
        try:  # NaN inputs pass: the loop's per-step check raises DivergenceError on them
            self.inputs, labels = np.asarray(self.inputs, dtype=np.float64), np.asarray(self.labels)
        except (TypeError, ValueError, OverflowError) as exc:  # text, ragged rows, a huge int
            raise DimensionError(f"batch is not a numeric array: {exc}") from exc
        if not np.issubdtype(labels.dtype, np.integer):  # no bool, no float to truncate
            raise DimensionError(f"labels must be integers, got dtype {labels.dtype}")
        self.labels = labels.astype(np.int64)
        self.labels.flags.writeable = False
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise DimensionError(f"batch inputs must be (B>=1, d), got {self.inputs.shape}")
        if self.labels.shape != (self.inputs.shape[0],):
            raise DimensionError("labels must be one integer per batch row")
        self._width, self._targets = None, None

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def targets(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """For a head of `width` classes: each label's index into the
        flattened (B, width) outputs, rows * width + labels, and the one-hot
        targets.  Built on first use, and again when another width asks."""
        if width != self._width:
            labels = self.labels
            if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= width:
                raise DimensionError("label out of range for model head")
            index = np.arange(len(labels)) * width + labels
            onehot = np.zeros((len(labels), width))
            onehot.put(index, 1.0)
            self._width, self._targets = width, (index, onehot)
        return self._targets


class ToyModel:
    """Dense classifier built from tensors named layer{k}.weight (out, in)
    and layer{k}.bias (out,), k = 0 .. L-1, given in any order (a list, or
    a TensorMap such as a loaded checkpoint).

    Hidden layers are tanh and the last layer is linear into the softmax,
    by position.  The model owns all its parameters as one buffer:
    construction copies the tensors into it, in layer order (weight, then
    bias), and each layer's (W, b) are views of it.  The trainable set is a
    tail of the layers, from lowest_trainable up, weight and bias alike; a
    new model is fully trainable and set_trainable_tail changes the tail.
    """

    def __init__(self, tensors: Iterable[FlatTensor], *, version: int = 0):
        given = list(tensors)
        by_name = {t.name: t for t in given}
        count = len(given) // 2
        order = [f"layer{k}.{part}" for k in range(count) for part in ("weight", "bias")]
        if not order or len(given) != len(order) or set(by_name) != set(order):
            raise AlignmentError(
                "a model needs tensors layer{k}.weight and layer{k}.bias for k = 0 .. L-1, "
                f"L >= 1, each once; got {[t.name for t in given]}"
            )
        for k in range(count):
            w, b = by_name[order[2 * k]].shape, by_name[order[2 * k + 1]].shape
            if len(w) != 2:
                raise DimensionError(f"layer {k} weight shape {w} is not (out, in)")
            if b != w[:1]:
                raise DimensionError(f"layer {k} bias shape {b} != ({w[0]},) for weight shape {w}")
            if k and w[1] != out_dim:
                raise DimensionError(f"layer {k - 1} out_dim {out_dim} != layer {k} in_dim {w[1]}")
            out_dim = w[0]
        self.version = version
        self.params = TensorMap.from_tensors(by_name[name] for name in order)
        # each layer's (W, b) as views of the buffer, built once
        views = self.params.views
        self._layers = tuple(zip(views[0::2], views[1::2]))
        self._set_lowest(0)

    def _set_lowest(self, lowest: int) -> None:
        """Make the layers from `lowest` up trainable: build the tail's
        Layout and the view of the buffer that tensor_map returns."""
        full, k = self.params.layout, 2 * lowest  # each layer holds a weight, then a bias
        layout = Layout(full.names[k:], full.shapes[k:])
        self._lowest = lowest
        self._tail = TensorMap.over(layout, self.params.flat[full.slices[k].start :])

    @property
    def layer_count(self) -> int:
        return len(self._layers)

    @property
    def lowest_trainable(self) -> int:
        """The index of the lowest trainable layer; every layer above it is trainable."""
        return self._lowest

    @property
    def trainable(self) -> Mapping[str, bool]:
        """Read-only: whether each tensor, by name, is in the trainable tail."""
        return MappingProxyType({name: k >= 2 * self._lowest
                                 for k, name in enumerate(self.params.names)})

    @property
    def input_dim(self) -> int:
        return self._layers[0][0].shape[1]

    @property
    def class_count(self) -> int:
        return self._layers[-1][0].shape[0]

    def tensors(self) -> Iterator[FlatTensor]:
        """The layers' tensors in buffer order: each layer's weight, then its bias."""
        return iter(self.params)

    def tensor_map(self, trainable_only: bool = False) -> TensorMap:
        """A live view of the model's buffer (copy() before mutating the model).

        With trainable_only, the view of the trainable tail; it holds the
        layers' own tensors, and it is the same map object until the tail
        is set again.
        """
        return self._tail if trainable_only else self.params

    def load_values(self, values: TensorMap) -> None:
        """Write the given tensors' payloads into the model, in place (numpy
        copies nothing onto the same memory, such as the trainable view's)."""
        full, given = self.params.layout, values.layout
        for name, shape, data in zip(given.names, given.shapes, given.split(values.flat)):
            k = full.index.get(name)
            if k is None or full.shapes[k] != shape:
                raise AlignmentError(f"load_values: no matching tensor for {name!r}")
            np.copyto(self.params.flat[full.slices[k]], data)
        self.version += 1

    def copy(self) -> "ToyModel":
        """An independent model with the same trainable tail; its constructor
        copies the parameters."""
        clone = ToyModel(self.params, version=self.version)
        clone._set_lowest(self._lowest)
        return clone


def build_model(layer_dims: Sequence[int], seed: int) -> ToyModel:
    """Random init: tanh hidden layers, linear head, all layers trainable."""
    if not isinstance(layer_dims, Iterable):
        raise DimensionError(f"layer_dims must be widths, got {type(layer_dims).__name__}")
    layer_dims = [int_at_least(d, f"layer_dims[{k}]", 1, DimensionError)
                  for k, d in enumerate(layer_dims)]
    if len(layer_dims) < 2:
        raise DimensionError("need at least input and output dims")
    rng = np.random.default_rng(int_at_least(seed, "seed", 0))
    tensors = []
    for k, (d_in, d_out) in enumerate(zip(layer_dims, layer_dims[1:])):
        w = rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(d_out, d_in))
        b = rng.normal(0.0, 0.1, size=d_out)
        tensors += [FlatTensor.of(f"layer{k}.weight", w), FlatTensor.of(f"layer{k}.bias", b)]
    return ToyModel(tensors)


def set_trainable_tail(model: ToyModel, layer_count: int) -> None:
    """Make the last `layer_count` layers trainable and freeze the rest."""
    if not 1 <= require_int(layer_count, "trainable layer count") <= model.layer_count:
        raise ConfigError(
            f"trainable layer count {layer_count} out of range for "
            f"{model.layer_count}-layer model"
        )
    model._set_lowest(model.layer_count - layer_count)


# ---------------------------------------------------------------------------
# Forward / backward / step
# ---------------------------------------------------------------------------


@dataclass
class ForwardCache:
    model: ToyModel
    version: int
    batch: Batch
    layer_inputs: list[np.ndarray]  # input to layer k (post-activation of k-1)
    probs: np.ndarray


def forward(model: ToyModel, batch: Batch) -> tuple[float, ForwardCache]:
    """Mean softmax cross-entropy over the batch, plus the backward cache."""
    layers, a = model._layers, batch.inputs
    if a.shape[1] != layers[0][0].shape[1]:
        raise DimensionError(f"batch width {a.shape[1]} != model input dim {model.input_dim}")
    label_index, _ = batch.targets(layers[-1][0].shape[0])

    layer_inputs, head = [], len(layers) - 1
    for k, (w, b) in enumerate(layers):
        layer_inputs.append(a)
        a = a.dot(w.T)
        a += b
        if k < head:  # hidden layers are tanh, the head is linear
            np.tanh(a, out=a)

    # the ufunc reductions that np.max/np.sum/np.mean wrap, called directly
    shifted = a - np.maximum.reduce(a, axis=1, keepdims=True)
    shifted -= np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    # fl(s - l) == -fl(l - s): the bits of sum(lse - shifted); 0.0 - x keeps a zero sum +0.0
    loss = (0.0 - float(np.add.reduce(shifted.take(label_index)))) / len(label_index)
    probs = np.exp(shifted, out=shifted)
    return loss, ForwardCache(model, model.version, batch, layer_inputs, probs)


def backward(model: ToyModel, cache: ForwardCache, out: TensorMap | None = None) -> TensorMap:
    """Gradients of the mean loss for the trainable tensors only, written
    into `out` (laid out as the trainable tail) when given."""
    if cache.model is not model or cache.version != model.version:
        raise StaleCacheError("cache does not match the model's current weights")
    layers, lowest, probs = model._layers, model._lowest, cache.probs
    out = model._tail.result(out, "backward")

    dz = np.subtract(probs, cache.batch.targets(probs.shape[1])[1])
    dz /= float(len(probs))  # an int n gives the same bits, slower

    # one buffer; the driver checks its values once per step
    grads = out.views  # each trainable layer's weight, then its bias
    # no layer below the lowest trainable one needs its gradient
    for k in range(len(layers) - 1, lowest - 1, -1):
        w, a_in = layers[k][0], cache.layer_inputs[k]
        j = 2 * (k - lowest)
        if grads[j].size > BLOCK:  # matmul skips dot's zero fill of its output; same bits
            np.matmul(dz.T, a_in, out=grads[j])
        else:
            dz.T.dot(a_in, out=grads[j])
        np.add.reduce(dz, axis=0, out=grads[j + 1])
        if k > lowest:
            dz = dz.dot(w)
            dz *= 1.0 - a_in**2  # layer k's input is a tanh output
    return out


def sgd_step(model: ToyModel, grads: TensorMap, lr: float) -> ToyModel:
    """w <- w - lr * grad on the trainable tensors, in place, at one rate
    for all of them.

    The step consumes the gradient: grads holds the step lr * grad on return.
    """
    trainables = model._tail
    trainables.require_aligned(grads, "sgd_step")
    if grads.flat.size > BLOCK:
        blockwise(partial(_sgd_kernel, lr), trainables.flat, grads.flat)
    else:
        grads.flat *= lr
        trainables.flat -= grads.flat
    model.version += 1
    return model


def _sgd_kernel(lr, scratch, w, g):
    g *= lr
    w -= g


# ---------------------------------------------------------------------------
# Fine-tuning drivers
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    """One run's training settings, checked whole however they are built
    (directly, `dataclasses.replace`, a config file): each field first by
    tensors.FIELD_CHECKS for its annotated type, then its range.
    """

    learning_rate: float = 0.12
    epochs: int = 5
    batch_size: int = 16
    method: str = "spider"
    l2_lambda: float = 1e-3
    l1_lambda: float = 1e-6
    dare_drop_p: float = 0.5
    beta: float = 0.9
    seed: int = 0
    trainable_layers: int = 2
    normalization_scope: str = "per_tensor"

    def __post_init__(self):
        check_fields(self)
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        for name, low in (("l2_lambda", 0), ("l1_lambda", 0), ("epochs", 0), ("seed", 0),
                          ("batch_size", 1), ("trainable_layers", 1)):
            if (value := getattr(self, name)) < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        for name in ("beta", "dare_drop_p"):
            fraction(getattr(self, name), name)
        if self.normalization_scope not in NORMALIZATION_SCOPES:
            raise ConfigError(f"unknown normalization_scope {self.normalization_scope!r}")
        if self.method not in METHOD_CHOICES:
            raise ConfigError(f"unknown method {self.method!r}")


@dataclass
class RunLog:
    """Per-iteration trace of one fine-tuning run."""

    losses: list[float] = field(default_factory=list)
    mask_density: list[float] = field(default_factory=list)
    pid: list[float] = field(default_factory=list)
    persistent_aux_maps: int = 0
    final_accumulator: TensorMap | None = None
    # after a masked run of at least one step: the tail weights that differ
    # from the snapshot, and the final mask's support (equal unless an update
    # was exactly zero); None otherwise
    changed_weights: int | None = None
    mask_support: int | None = None


def batches_of(inputs: np.ndarray, labels: np.ndarray, batch_size: int) -> list[Batch]:
    """Chunk a dataset into sequential batches (last one may be short):
    slices of one Batch over the whole set, so every batch passes its checks
    and has its width."""
    batch_size = int_at_least(batch_size, "batch_size", 1)
    whole = Batch(inputs, labels)
    return [
        Batch(whole.inputs[i : i + batch_size], whole.labels[i : i + batch_size])
        for i in range(0, len(whole), batch_size)
    ]


# words of the per-iteration seed stream generated at once, at the least
_SEED_PREFIX = 1024


def _iteration_seeds(seed: int, count: int) -> Iterator[int]:
    """The words of SeedSequence(seed).generate_state(count) as ints, in order.

    generate_state is prefix-stable, so the words come from prefixes of
    doubling length (all `count` at once when that is short) instead of
    one up-front allocation for the whole planned run.
    """
    seq, done = np.random.SeedSequence(seed), 0
    while done < count:
        n = min(count, max(2 * done, _SEED_PREFIX))
        for word in seq.generate_state(n, dtype=np.uint64)[done:]:
            yield int(word)
        done = n


def _iterations(data: Sequence[Batch], epochs: int) -> Iterator[tuple[int, Batch]]:
    """(iteration, batch) for `epochs` passes over the data, in order."""
    return enumerate(batch for _epoch in range(epochs) for batch in data)


def _require_finite(it: int, what: str, tm: TensorMap) -> None:
    # a nan or an inf entry makes the sum of squares (a dot, half a sum's cost) non-finite, so
    # a finite one clears the map with no trainable-sized mask; an overflow is checked per
    # entry.  Only the sum's finiteness is read, so a large map takes one dot per run, and
    # adds them as Python floats, which overflow to inf with no numpy warning.
    flat = tm.flat
    if flat.size < SPLIT:
        squares = flat.dot(flat)
    else:
        parts = [flat[lo:hi] for lo, hi in runs(flat.size)]
        squares = sum(map(float, spread([(part.dot, part) for part in parts])))
    if math.isfinite(squares) or np.logical_and.reduce(np.isfinite(flat)):
        return
    name = next(t.name for t in tm if not np.isfinite(t.data).all())
    raise DivergenceError(f"training diverged at iteration {it}: non-finite {what} in {name!r}")


def _loss_and_gradient(model: ToyModel, batch: Batch, it: int, out: TensorMap) -> float:
    """The loss of one batch, its gradients written into `out` (see
    backward); both checked finite."""
    loss, cache = forward(model, batch)
    if not math.isfinite(loss):
        raise DivergenceError(f"training diverged at iteration {it}: loss is {loss}")
    _require_finite(it, "gradient", backward(model, cache, out=out))
    return loss


def _edit_gradient(
    cfg: TrainConfig, loss: float, g: np.ndarray, weights: TensorMap, pretrained: TensorMap,
    seed: int, log: RunLog,
) -> float:
    """The counterparts' gradient hook, in place on the gradient buffer g.

    Returns the loss with the pull-back penalty added.
    """
    if cfg.method == "l2_reg" and cfg.l2_lambda != 0.0:
        drift = weights.flat - pretrained.flat
        loss += cfg.l2_lambda * float(np.sum(drift**2))
        drift *= 2.0 * cfg.l2_lambda
        g += drift
    elif cfg.method == "l1_graft" and cfg.l1_lambda != 0.0:
        drift = weights.flat - pretrained.flat
        loss += cfg.l1_lambda * float(np.sum(np.abs(drift)))
        # subgradient at w == w_pre is 0 (np.sign(0) == 0)
        np.sign(drift, out=drift)
        drift *= cfg.l1_lambda
        g += drift
    elif cfg.method == "half_ft":
        # random_half_mask's gate, in place: x * 0.0 keeps x's sign, so
        # zeroing the tensors it leaves out gives the bits of g *= mask
        segments = pretrained.layout.split(g)
        chosen = random_half_blocks(len(segments), seed)
        for k, segment in enumerate(segments):
            if k not in chosen:
                segment *= 0.0
        log.mask_density.append(sum(segments[k].size for k in chosen) / g.size)
    return loss


def _merged_support(
    weights: TensorMap, pretrained: TensorMap, m: UpdateMask, scratch: np.ndarray
) -> tuple[int, int]:
    """The counts of changed weights and of the final mask's support.

    The merge writes exactly w_pre where the mask is zero, so a weight that
    changed outside the support is a bug: raises InvariantError naming its
    tensor.  The flags go into `scratch`, a float64 array of the maps'
    length, viewed as bools (eight per entry).
    """
    n = weights.total_size
    flags = scratch.view(np.bool_)
    changed = np.not_equal(weights.flat, pretrained.flat, out=flags[:n])
    support = np.not_equal(m.mask.flat, 0.0, out=flags[n : 2 * n])
    outside = np.greater(changed, support, out=flags[2 * n : 3 * n])  # changed, not in it
    if np.logical_or.reduce(outside):
        name, part = next((name, part) for name, part
                          in zip(weights.layout.names, weights.layout.split(outside)) if part.any())
        raise InvariantError(f"{name!r}: {np.count_nonzero(part)} changed weights lie "
                             "outside the final mask's support")
    return int(np.count_nonzero(changed)), int(np.count_nonzero(support))


# the per-step checks report divergence; numpy's float warnings would only
# repeat it on stderr
@np.errstate(over="ignore", invalid="ignore")
def train(model: ToyModel, data: Sequence[Batch], cfg: TrainConfig) -> ToyModel:
    """Plain SGD on the trainable tensors, in place, for cfg.epochs passes
    over the data, with _finetune's per-step checks; cfg.method is not used."""
    weights = model.tensor_map(trainable_only=True)
    grads = weights.with_flat(np.empty_like(weights.flat))  # rewritten by every step
    for it, batch in _iterations(data, cfg.epochs):
        _loss_and_gradient(model, batch, it, out=grads)
        sgd_step(model, grads, cfg.learning_rate)
        _require_finite(it, "weights", weights)
    return model


@np.errstate(over="ignore", invalid="ignore")
def _finetune(
    model: ToyModel, pretrained: TensorMap, data: Sequence[Batch], cfg: TrainConfig
) -> tuple[ToyModel, RunLog]:
    """The fine-tuning loop of every method; cfg.method picks the hooks."""
    # a view of the model's buffer: writing it writes the model
    weights = model.tensor_map(trainable_only=True)
    weights.require_aligned(pretrained, "finetune")

    accumulator = GradAccumulator.empty(pretrained, cfg.beta)
    # the method's mask, with its fixed map and buffers, if any; the gradient
    # buffer is allocated once and rewritten before a read
    variant, mask = MASK_OF_METHOD.get(cfg.method), None
    rule = None if variant is None else MaskRule(variant, pretrained, cfg.normalization_scope)
    grads = weights.with_flat(np.empty(weights.total_size))
    w_norm = norm(np.abs(pretrained.flat, out=grads.flat))  # ||w_pre||, fixed for the run
    # the snapshot and the accumulator, plus the mask's fixed map
    log = RunLog(persistent_aux_maps=2 + (rule is not None and rule.fixed is not None))
    # one word per iteration, then the post-run drop's (zip asks the walk first: none is lost)
    seeds = _iteration_seeds(cfg.seed, cfg.epochs * len(data) + 1)

    for (it, batch), seed in zip(_iterations(data, cfg.epochs), seeds):
        loss = _loss_and_gradient(model, batch, it, out=grads)
        loss = _edit_gradient(cfg, loss, grads.flat, weights, pretrained, seed, log)
        accumulate_gradient(accumulator, grads)

        # a mask reads only the accumulator and the fixed map, never the
        # weights or the gradient, so the step goes first; the gradient
        # buffer then holds lr * grad, which nothing reads again, and
        # serves the mask chain as scratch
        sgd_step(model, grads, cfg.learning_rate)
        if rule is not None:
            mask = rule(accumulator, seed, grads.flat)
            merge(weights, pretrained, mask, out=weights)  # writes the model
            model.version += 1
            log.mask_density.append(mask.density)
        _require_finite(it, "weights", weights)

        log.losses.append(loss)
        # pid(pretrained, acc), with |w_pre| in the spent gradient buffer
        # (the accumulator is its own magnitude); a zero norm raises here
        w_mag = grads.flat
        if w_mag.size > BLOCK:
            blockwise(_abs_kernel, w_mag, pretrained.flat)
        else:
            np.abs(pretrained.flat, out=w_mag)
        log.pid.append(pid_of_magnitudes(w_mag, w_norm, accumulator.acc.flat))

    if rule is not None and accumulator.initialized:  # i.e. after a step
        # the spent gradient buffer is the check's scratch
        log.changed_weights, log.mask_support = _merged_support(weights, pretrained, mask,
                                                                grads.flat)

    if cfg.method == "dare" and cfg.dare_drop_p != 0.0 and accumulator.initialized:
        dare_merge(weights, pretrained, cfg.dare_drop_p, next(seeds), out=weights)
        model.version += 1

    if accumulator.initialized:
        log.final_accumulator = accumulator.acc
    return model, log


def _abs_kernel(scratch, out, values):
    np.abs(values, out=out)


def finetune_spider(
    model: ToyModel,
    pretrained: TensorMap,
    data: Sequence[Batch],
    cfg: TrainConfig,
) -> tuple[ToyModel, RunLog]:
    """Selective fine-tuning: after each step, merge with the pretrained
    weights through the mask of cfg.method (one of SPIDER_METHODS)."""
    if cfg.method not in SPIDER_METHODS:
        raise ConfigError(f"finetune_spider cannot run method {cfg.method!r}")
    return _finetune(model, pretrained, data, cfg)


def finetune_baseline(
    model: ToyModel,
    pretrained: TensorMap,
    data: Sequence[Batch],
    cfg: TrainConfig,
) -> tuple[ToyModel, RunLog]:
    """Counterpart fine-tuning methods (full/L2/L1/half-block/drop-rescale).

    The accumulator feeds the importance-divergence trace only; it never
    influences the update.
    """
    if cfg.method not in BASELINE_METHODS:
        raise ConfigError(f"finetune_baseline cannot run method {cfg.method!r}")
    return _finetune(model, pretrained, data, cfg)
