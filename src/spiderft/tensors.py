"""Flat-vector tensor primitives shared by every other module.

A FlatTensor is a named, contiguous float64 vector plus the shape it was
flattened from.  A TensorMap (a model's trainable-parameter set, its
gradients, importance scores or update masks) is a Layout, built once per
set of tensors and shared by every map over it, and one contiguous float64
buffer (``flat``).  ``from_tensors`` copies into a new buffer; ``over`` and
``with_flat`` put a layout over a given one.  An entry is a view of its
segment, made on access; a map builds its tuple of segment views once, on
first use.  Elementwise work runs as one numpy op over the whole buffer, and
statistics are taken per tensor on the segments or over the whole buffer
(the normalization scope, one of ``methods.NORMALIZATION_SCOPES``; see
TensorMap.units): the z-score by zscore_map alone, a lone tensor's as a
one-tensor map's.  Transforms are pure unless given an ``out`` map of their
input's layout (TensorMap.result).
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from itertools import accumulate
from types import ModuleType
from typing import Iterable, Iterator

import numpy as np

from .errors import AlignmentError, ConfigError, DimensionError, ZeroNormError
from .methods import NORMALIZATION_SCOPES

# Degenerate-spread guard for zscore and the zero-direction guard for cosine.
STD_EPS = 1e-12
NORM_EPS = 1e-12

_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)

# Entries per block of a blocked elementwise chain: 256 KB of float64, so a
# block and its scratch stay in a core's L2 cache between the chain's ops.
BLOCK = 1 << 15


@dataclass
class FlatTensor:
    """A named 1-D float64 vector with the shape it represents."""

    name: str
    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        self.shape = tuple(int(d) for d in self.shape)
        self.data = np.ascontiguousarray(self.data, dtype=np.float64).reshape(-1)
        if self.data.size != self.size or min(self.shape, default=0) < 0:
            raise DimensionError(
                f"tensor {self.name!r}: data length {self.data.size} does not "
                f"match shape {self.shape}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ConfigError(f"tensor {self.name!r}: non-finite entries")

    @classmethod
    def of(cls, name: str, values) -> "FlatTensor":
        arr = np.asarray(values, dtype=np.float64)
        return cls(name, arr.shape if arr.ndim > 0 else (1,), arr.reshape(-1))

    @property
    def size(self) -> int:
        return int(math.prod(self.shape))

    @classmethod
    def _wrap(cls, name: str, shape: tuple[int, ...], data: np.ndarray) -> "FlatTensor":
        """A tensor over an existing float64 vector, neither copied nor scanned.

        Only for buffers this package allocates itself; training checks
        their values once per step instead (see trainer).
        """
        t = cls.__new__(cls)
        t.name, t.shape, t.data = name, shape, data
        return t

    def with_data(self, data: np.ndarray) -> "FlatTensor":
        """Same name/shape, new payload."""
        return FlatTensor(self.name, self.shape, data)


@dataclass(frozen=True)
class Layout:
    """Names and shapes of a map's tensors in buffer order; tensor k is the
    segment slices[k].  Equal when names and shapes are."""

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    slices: tuple[slice, ...] = field(init=False, repr=False, compare=False)
    index: dict[str, int] = field(init=False, repr=False, compare=False)
    largest: int = field(init=False, repr=False, compare=False)  # the first longest tensor, or 0

    def __post_init__(self):
        index = {name: k for k, name in enumerate(self.names)}
        if len(index) != len(self.names):
            raise AlignmentError(f"duplicate tensor names in {self.names}")
        sizes = tuple(map(math.prod, self.shapes))
        stops = (0, *accumulate(sizes))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "slices", tuple(map(slice, stops, stops[1:])))
        object.__setattr__(self, "largest", sizes.index(max(sizes)) if sizes else 0)

    @property
    def size(self) -> int:
        return self.slices[-1].stop if self.slices else 0

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """flat cut into the tensors' segments (views), in order."""
        return [flat[s] for s in self.slices]


@dataclass(eq=False)
class TensorMap:
    """A layout over one buffer, built by ``from_tensors`` (copies) or ``over``
    (views); entries are views of ``flat`` made on access, ``segments`` and ``views`` once."""

    layout: Layout
    flat: np.ndarray = field(repr=False)

    @classmethod
    def from_tensors(cls, tensors: Iterable[FlatTensor]) -> "TensorMap":
        """A map over a new buffer holding copies of the tensors' payloads."""
        tensors = list(tensors)
        flat = np.concatenate([t.data for t in tensors]) if tensors else np.empty(0)
        layout = Layout(tuple(t.name for t in tensors), tuple(t.shape for t in tensors))
        return cls.over(layout, flat)

    @classmethod
    def over(cls, layout: Layout, flat: np.ndarray) -> "TensorMap":
        """A map over `flat`, which is neither copied nor scanned."""
        if flat.size != layout.size:
            raise DimensionError(f"layout covers {layout.size} entries, buffer has {flat.size}")
        return cls(layout, flat)

    def _entry(self, k: int) -> FlatTensor:
        layout = self.layout
        return FlatTensor._wrap(layout.names[k], layout.shapes[k], self.flat[layout.slices[k]])

    def __len__(self) -> int:
        return len(self.layout.names)

    def __iter__(self) -> Iterator[FlatTensor]:
        return map(self._entry, range(len(self)))

    def __contains__(self, name: str) -> bool:
        return name in self.layout.index

    def __getitem__(self, name: str) -> FlatTensor:
        return self._entry(self.layout.index[name])

    @property
    def names(self) -> list[str]:
        return list(self.layout.names)

    @property
    def total_size(self) -> int:
        return self.flat.size

    @cached_property
    def segments(self) -> tuple[np.ndarray, ...]:
        """Each tensor's segment of ``flat`` (1-D views), in order; built on first access."""
        return tuple(self.layout.split(self.flat))

    @cached_property
    def views(self) -> tuple[np.ndarray, ...]:
        """Each tensor's segment of ``flat`` in its shape (views), in order;
        built on first access."""
        return tuple(data.reshape(shape) for data, shape in zip(self.segments, self.layout.shapes))

    def units(self, scope: str) -> tuple[tuple[slice, ...], tuple[np.ndarray, ...]]:
        """The slices of ``flat`` a statistic of `scope` is taken over, and
        their views: each tensor's segment (per_tensor) or the whole buffer."""
        if scope == "per_tensor":
            return self.layout.slices, self.segments
        if scope not in NORMALIZATION_SCOPES:
            raise ConfigError(f"unknown normalization scope {scope!r}")
        return self._whole

    @cached_property
    def _whole(self) -> tuple[tuple[slice], tuple[np.ndarray]]:  # the global scope's one unit
        return (slice(0, self.flat.size),), (self.flat,)

    def require_aligned(self, other: "TensorMap", op: str) -> None:
        # the maps of one run share one Layout object
        if self.layout is not other.layout and self.layout != other.layout:
            raise AlignmentError(
                f"{op}: tensor maps are not aligned ({self.layout} vs {other.layout})"
            )

    def result(self, out: "TensorMap | None", op: str) -> "TensorMap":
        """Where transform `op` writes its result: `out`, which must share
        this map's layout, or a map over a fresh buffer."""
        if out is None:
            return self.with_flat(np.empty(self.total_size))
        self.require_aligned(out, op)
        return out

    def with_flat(self, flat: np.ndarray) -> "TensorMap":
        """Same layout, over the given buffer."""
        return TensorMap.over(self.layout, flat)

    def copy(self) -> "TensorMap":
        """An independent copy."""
        return self.with_flat(self.flat.copy())


# ---------------------------------------------------------------------------
# Elementwise transforms
# ---------------------------------------------------------------------------


def zscore(t: FlatTensor) -> FlatTensor:
    """Center and scale by the population std; constant inputs map to zeros."""
    return t.with_data(zscore_map(TensorMap.from_tensors([t])).flat)


def sigmoid(t: FlatTensor) -> FlatTensor:
    return t.with_data(sigmoid_array(t.data))


@cache
def _expit():
    """scipy's expit ufunc, loaded on first use: most commands take no sigmoid.

    Importing scipy.special loads all of its modules for this one ufunc, and
    importing scipy alone costs more than the ufunc's extension, so only that
    extension is loaded (see _load_ufuncs).  The import is the fallback, for a
    scipy whose files are laid out otherwise.
    """
    try:
        return _load_ufuncs().expit
    except (ImportError, OSError, AttributeError):
        from scipy.special import expit

        return expit


def _load_ufuncs() -> ModuleType:
    """scipy.special._special_ufuncs, the extension module that defines expit.

    Unless it is imported already, the import system's path finder finds it
    in scipy's special/ directory, and it is executed alone: neither scipy nor
    scipy.special is imported, and a later ``import scipy.special`` binds it.
    If the load fails, the module is removed before the error propagates.
    """
    name = "scipy.special._special_ufuncs"
    if name in sys.modules:
        return sys.modules[name]
    scipy = find_spec("scipy")
    roots = (scipy and scipy.submodule_search_locations) or ()
    spec = PathFinder.find_spec(name, [os.path.join(root, "special") for root in roots])
    if spec is None:
        raise ModuleNotFoundError(f"no module named {name!r}", name=name)
    module = module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


def sigmoid_array(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # expit saturates to exactly 0.0/1.0 in float64 past |x| ~ 37; clamp to
    # the nearest interior representable so outputs stay strictly in (0, 1).
    out = _expit()(values, out=out)
    return out.clip(_SIG_LO, _SIG_HI, out=out)


def norm(values: np.ndarray) -> float:
    """The L2 norm of a 1-D float64 vector, computed as np.linalg.norm does."""
    return math.sqrt(values.dot(values))


def cosine_similarity(a: FlatTensor, b: FlatTensor) -> float:
    if a.shape != b.shape:
        raise AlignmentError(
            f"cosine_similarity: shapes differ ({a.shape} vs {b.shape})"
        )
    return cosine_from_norms(a.data, b.data, norm(a.data), norm(b.data), a.name, b.name)


def cosine_from_norms(
    a: np.ndarray, b: np.ndarray, na: float, nb: float, a_name: str, b_name: str
) -> float:
    """The cosine of a and b given their norms (see norm), clamped to [-1, 1];
    ZeroNormError names a and b if either norm is zero."""
    if na < NORM_EPS or nb < NORM_EPS:
        raise ZeroNormError(
            f"cosine_similarity: zero-norm input ({a_name!r}: {na:g}, {b_name!r}: {nb:g})"
        )
    c = float(a.dot(b)) / (na * nb)
    return min(1.0, max(-1.0, c))


def masked_mean(t: FlatTensor) -> tuple[float, bool]:
    """Mean over nonzero entries; (0.0, True) when nothing is nonzero."""
    nz = gather(t.data, t.data != 0.0, None)
    if nz.size == 0:
        return 0.0, True
    return float(np.add.reduce(nz) / nz.size), False


def gather(values: np.ndarray, selected: np.ndarray, scratch: np.ndarray | None) -> np.ndarray:
    """The selected entries of values, in order, as the head of `scratch`, an
    array of values' length, or of a new array."""
    scratch = np.empty_like(values) if scratch is None else scratch
    # compress picks the same entries as values[selected], in order, faster;
    # a block at a time, since it builds an index array of what it picks
    count = 0
    for lo in range(0, values.size, BLOCK):
        chosen = selected[lo : lo + BLOCK]
        end = count + np.count_nonzero(chosen)
        values[lo : lo + BLOCK].compress(chosen, out=scratch[count:end])
        count = end
    return scratch[:count]


def blockwise(kernel, *arrays: np.ndarray) -> None:
    """kernel(scratch, *views) over equal-length arrays, one BLOCK at a time.

    The kernel writes its results into the views and may use scratch, a
    float64 array of the views' length, for one intermediate.  An input of
    one block or less is one call on the whole arrays with scratch None,
    for the kernel's ufuncs to allocate as they would unblocked.
    """
    n = arrays[0].size
    if n <= BLOCK:
        kernel(None, *arrays)
        return
    scratch = np.empty(BLOCK)
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        kernel(scratch[: hi - lo], *(a[lo:hi] for a in arrays))


# ---------------------------------------------------------------------------
# Map-level normalization (scope switch shared by importance and masking)
# ---------------------------------------------------------------------------

def zscore_map(
    tm: TensorMap, scope: str = "per_tensor", *,
    out: TensorMap | None = None, scratch: np.ndarray | None = None,
) -> TensorMap:
    """Z-normalize each tensor, on its own stats or on global ones, into a fresh
    map or `out` (which may be `tm`); the squared deviations go into `scratch`,
    an array of the map's length, when given."""
    out = tm.result(out, "zscore_map")
    slices, values = tm.units(scope)
    dests = out.units(scope)[1]
    # np.std's own steps (mean, deviations, mean square, sqrt), with its
    # deviations reused for the z-score: the same bits as np.std and np.mean
    for v, dest in zip(values, dests):
        if v.size:
            np.subtract(v, np.add.reduce(v) / v.size, out=dest)
    squares = np.square(out.flat, out=scratch)
    for s, dest in zip(slices, dests):
        std = math.sqrt(np.add.reduce(squares[s]) / dest.size) if dest.size else 0.0
        if std < STD_EPS:
            dest.fill(0.0)
        else:
            dest /= std
    return out
