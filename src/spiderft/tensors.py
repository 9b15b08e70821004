"""Flat-vector tensor primitives and the scalar type rules, shared by every other module.

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
input's layout (TensorMap.result).  This module alone decides when work
splits over the usable CPUs: each primitive takes any size and tests it.
From SPLIT entries on, blockwise cuts an elementwise pass into runs,
add_reduce cuts a sum at numpy's own pairwise cut, gather compresses each
run at its offset, and all_finite takes one dot product per run: work
splits only by cutting one array into runs (see spread), with numpy's bits.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from contextvars import copy_context
from dataclasses import dataclass, field, fields
from functools import cache, cached_property, partial
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

# blockwise's runs: at most one per usable CPU, and each of at least MIN_RUN
# blocks, since handing a run to a pool thread costs tens of microseconds
try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    WORKERS = os.cpu_count() or 1
MIN_RUN = 4
# the least length any work is split at: two runs of MIN_RUN blocks
SPLIT = 2 * MIN_RUN * BLOCK
_pool = None  # spread's thread pool, started on the first split
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # a forked child has the pool object but none of its threads, and a lock
    # that a thread of its parent may hold
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


# the type rules of the scalars a caller passes, config fields and arguments alike
def require_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):  # numpy's too
        raise ConfigError(f"{key} must be an integer, got {type(value).__name__}")
    return int(value)


def int_at_least(value, key: str, low: int, error: type = ConfigError) -> int:
    """value by the int rule, as an int; `error` unless it is at least `low`."""
    if (value := require_int(value, key)) < low:
        raise error(f"{key} must be >= {low}, got {value}")
    return value


def require_number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (float, np.floating, int, np.integer)):
        raise ConfigError(f"{key} must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {number}")
    return number


def fraction(value, key: str) -> float:
    """value by the number rule, as a float; ConfigError unless it is in [0, 1)."""
    if not 0.0 <= (number := require_number(value, key)) < 1.0:
        raise ConfigError(f"{key} must be in [0, 1), got {value}")
    return number


def require_string(value, key: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key} must be a non-empty string")
    return value


def require_matrix(value, key: str) -> np.ndarray:
    try:  # a read-only copy: no caller's array, and no later edit, bypasses the checks
        matrix = np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} is not a numeric matrix: {exc}") from exc
    if not np.isfinite(matrix).all():
        raise ConfigError(f"{key} must be finite")
    matrix.flags.writeable = False
    return matrix


def require_path(value, key: str) -> str | os.PathLike:
    if not isinstance(value, (str, os.PathLike)):  # an int or a bool would open a descriptor
        raise ConfigError(f"{key} must be a str or os.PathLike, got {type(value).__name__}")
    return value


# the one type rule of a config field, keyed by its annotation (a string under postponed
# evaluation): each check returns the value to store, or raises a ConfigError naming `key`
FIELD_CHECKS = {"int": require_int, "float": require_number, "str": require_string,
                "np.ndarray": require_matrix}


@cache
def field_checks(cls) -> tuple:
    """(field, check) for each field of dataclass `cls`, in field order."""
    return tuple((f, FIELD_CHECKS[f.type]) for f in fields(cls))


def check_fields(obj, prefix: str = "") -> None:
    """Replace each field of `obj` by its checked value; the first bad one raises."""
    for f, check in field_checks(type(obj)):
        setattr(obj, f.name, check(getattr(obj, f.name), prefix + f.name))


def require_shape(shape, name: str) -> tuple[int, ...]:
    """Tensor `name`'s shape as a tuple of ints, by the int rule;
    DimensionError if it is not a sequence."""
    try:
        return tuple(require_int(d, f"tensor {name!r}: shape") for d in shape)
    except TypeError as exc:
        raise DimensionError(f"tensor {name!r}: shape is not a sequence: {exc}") from exc


@dataclass
class FlatTensor:
    """A named 1-D float64 vector with the shape it represents."""

    name: str
    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        self.shape = require_shape(self.shape, require_string(self.name, "tensor name"))
        try:  # as Batch: text, ragged rows and a huge int are not float64 data
            self.data = np.ascontiguousarray(self.data, dtype=np.float64).reshape(-1)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DimensionError(f"tensor {self.name!r}: non-numeric data: {exc}") from exc
        if self.data.size != self.size or min(self.shape, default=0) < 0:
            raise DimensionError(
                f"tensor {self.name!r}: data length {self.data.size} does not "
                f"match shape {self.shape}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ConfigError(f"tensor {self.name!r}: non-finite entries")

    @classmethod
    def of(cls, name: str, values) -> "FlatTensor":
        try:
            arr = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DimensionError(f"tensor {name!r}: data is not numeric: {exc}") from exc
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
    segment slices[k].  Equal when names and shapes are.  Each name and
    shape is checked by FlatTensor's rules, and there is one shape per name."""

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    slices: tuple[slice, ...] = field(init=False, repr=False, compare=False)
    index: dict[str, int] = field(init=False, repr=False, compare=False)
    largest: int = field(init=False, repr=False, compare=False)  # the first longest tensor, or 0

    def __post_init__(self):
        try:
            names, shapes = tuple(self.names), tuple(self.shapes)
        except TypeError as exc:
            raise DimensionError(f"layout: names and shapes must be sequences: {exc}") from exc
        if len(names) != len(shapes):
            raise DimensionError(f"layout: {len(names)} names for {len(shapes)} shapes")
        shapes = tuple(require_shape(shape, require_string(name, "tensor name"))
                       for name, shape in zip(names, shapes))
        if any(d < 0 for shape in shapes for d in shape):
            raise DimensionError(f"layout: a negative dimension in {shapes}")
        index = {name: k for k, name in enumerate(names)}
        if len(index) != len(names):
            raise AlignmentError(f"duplicate tensor names in {names}")
        sizes = tuple(map(math.prod, shapes))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "shapes", shapes)
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
        """A map over `flat`, a C-contiguous 1-D float64 ndarray, which is
        neither copied nor scanned."""
        if not (isinstance(flat, np.ndarray) and flat.ndim == 1 and flat.dtype == np.float64
                and flat.flags.c_contiguous):
            raise DimensionError(f"a map's buffer must be a C-contiguous 1-D float64 ndarray, got "
                                 f"{getattr(flat, 'dtype', type(flat))} {getattr(flat, 'shape', '')}")
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
        if not isinstance(scope, str):  # an array would compare elementwise below
            raise ConfigError(f"scope must be a string, got {type(scope).__name__}")
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
    expit = _expit()  # loaded here, on the calling thread: the loader is not thread-safe
    out = np.empty(values.shape) if out is None else out
    blockwise(partial(_sigmoid_kernel, expit), out, values)
    return out


def _sigmoid_kernel(expit, scratch, out, values):
    expit(values, out=out)
    out.clip(_SIG_LO, _SIG_HI, out=out)


def norm(values: np.ndarray) -> float:
    """The L2 norm of a 1-D float64 vector, computed as np.linalg.norm does."""
    return math.sqrt(values.dot(values))


def cosine_similarity(a: FlatTensor, b: FlatTensor) -> float:
    if a.shape != b.shape:
        raise AlignmentError(
            f"cosine_similarity: shapes differ ({a.shape} vs {b.shape})"
        )
    return cosine_from_norms(a.data.dot(b.data), norm(a.data), norm(b.data), a.name, b.name)


def cosine_from_norms(dot: float, na: float, nb: float, a_name: str, b_name: str) -> float:
    """The cosine of a and b given their dot product a.dot(b) and their norms
    (see norm), clamped to [-1, 1]; ZeroNormError names a and b if either
    norm is zero."""
    if na < NORM_EPS or nb < NORM_EPS:
        raise ZeroNormError(
            f"cosine_similarity: zero-norm input ({a_name!r}: {na:g}, {b_name!r}: {nb:g})"
        )
    c = float(dot) / (na * nb)
    return min(1.0, max(-1.0, c))


def masked_mean(t: FlatTensor) -> tuple[float, bool]:
    """Mean over nonzero entries; (0.0, True) when nothing is nonzero."""
    nz = gather(t.data, t.data != 0.0, None)
    if nz.size == 0:
        return 0.0, True
    return float(np.add.reduce(nz) / nz.size), False


def gather(values: np.ndarray, selected: np.ndarray, scratch: np.ndarray | None) -> np.ndarray:
    """The selected entries of values, in order, as the head of `scratch`, an
    array of values' length, or of a new array.  From SPLIT entries on, each
    of blockwise's runs compresses its own entries, at the count of those
    selected before it."""
    scratch = np.empty_like(values) if scratch is None else scratch
    if values.size < SPLIT:
        return scratch[: _compress(values, selected, scratch, 0, values.size, 0)]
    parts = runs(values.size)
    starts = accumulate((np.count_nonzero(selected[lo:hi]) for lo, hi in parts[:-1]), initial=0)
    ends = spread([(_compress, values, selected, scratch, lo, hi, at)
                   for (lo, hi), at in zip(parts, starts)])
    return scratch[: ends[-1]]


def _compress(values, selected, out, lo: int, hi: int, at: int) -> int:
    """The selected entries of values[lo:hi] written to out from index `at`;
    returns the index after the last."""
    # compress picks the same entries as values[selected], in order, faster;
    # a block at a time, since it builds an index array of what it picks
    for start in range(lo, hi, BLOCK):
        chosen = selected[start : min(start + BLOCK, hi)]
        end = at + np.count_nonzero(chosen)
        values[start : start + chosen.size].compress(chosen, out=out[at:end])
        at = end
    return at


def add_reduce(values: np.ndarray) -> np.float64:
    """np.add.reduce(values) of a contiguous float64 vector, bit for bit.

    Below SPLIT entries it is that one call.  numpy sums pairwise: a vector
    of more than 128 entries is cut at h = n // 2 less h % 8, and the sums
    of the two halves are added.  Cut there, the halves' sums (each
    np.add.reduce's, from +0.0) add up to the same bits.  A half is cut again
    while the runs are fewer than WORKERS and each new half keeps MIN_RUN
    blocks, and the runs go to spread.
    """
    if values.size < SPLIT:
        return np.add.reduce(values)
    leaves = []
    tree = _pairwise(0, values.size, WORKERS, leaves)
    return _join(tree, spread([(np.add.reduce, values[lo:hi]) for lo, hi in leaves]))


def _pairwise(lo: int, hi: int, count: int, leaves: list):
    """numpy's pairwise tree over [lo, hi), cut into at most `count` leaves,
    each appended to `leaves`: a leaf's index there, or its halves' trees."""
    half = (hi - lo) // 2
    half -= half % 8
    if count < 2 or half < MIN_RUN * BLOCK:
        leaves.append((lo, hi))
        return len(leaves) - 1
    return (_pairwise(lo, lo + half, count - count // 2, leaves),
            _pairwise(lo + half, hi, count // 2, leaves))


def _join(tree, sums: list) -> np.float64:
    """The leaves' sums added up as the tree pairs them."""
    if isinstance(tree, int):
        return sums[tree]
    return _join(tree[0], sums) + _join(tree[1], sums)


def all_finite(values: np.ndarray) -> bool:
    """Whether every entry of a 1-D float64 vector is finite."""
    # a nan or an inf entry makes the sum of squares (a dot, half a sum's cost) non-finite, so
    # a finite one clears the vector with no mask of its length; an overflow is checked per
    # entry.  Only the sum's finiteness is read, so from SPLIT entries on it takes one dot
    # per run, and adds them as Python floats, which overflow to inf with no numpy warning.
    if values.size < SPLIT:
        squares = values.dot(values)
    else:
        parts = [values[lo:hi] for lo, hi in runs(values.size)]
        squares = sum(map(float, spread([(part.dot, part) for part in parts])))
    return math.isfinite(squares) or bool(np.logical_and.reduce(np.isfinite(values)))


def blockwise(kernel, *arrays: np.ndarray) -> None:
    """kernel(scratch, *views) over equal-length 1-D arrays, one BLOCK at a time.

    The kernel must be elementwise: each entry it writes depends only on the
    inputs' entries at that index, so the blocks may run in any order, on any
    thread, with the same bits.  It writes its results into the views and
    may use scratch, a float64 array of the views' length, for one
    intermediate.  An input of one block or less is one call on the whole
    arrays with scratch None, for the kernel's ufuncs to allocate as they
    would unblocked.  A larger one is cut into runs (see runs), each with
    its own scratch, and the runs go to spread.
    """
    n = arrays[0].size
    if n <= BLOCK:
        kernel(None, *arrays)
        return
    spread([(_run, kernel, arrays, lo, hi) for lo, hi in runs(n)])


def _run(kernel, arrays: tuple[np.ndarray, ...], lo: int, hi: int) -> None:
    """kernel over entries [lo, hi) of the arrays, a block at a time, with one scratch."""
    scratch = np.empty(BLOCK)
    for start in range(lo, hi, BLOCK):
        stop = min(start + BLOCK, hi)
        kernel(scratch[: stop - start], *(a[start:stop] for a in arrays))


def runs(n: int) -> list[tuple[int, int]]:
    """The [lo, hi) runs that n entries are cut into: contiguous, of whole
    blocks but the last, each of at least MIN_RUN whole blocks and at most
    WORKERS of them (read at each call); one run below SPLIT entries."""
    blocks = n // BLOCK
    count = max(1, min(WORKERS, blocks // MIN_RUN))
    cuts = [BLOCK * (blocks * k // count) for k in range(count)] + [n]
    return list(zip(cuts, cuts[1:]))


def spread(calls: list[tuple]) -> list:
    """The results of calls, each a (function, *args) tuple, in order.

    With two calls or more and more than one usable CPU (WORKERS, read at
    each call), the calling thread makes the first call and a thread pool
    the others, each in a copy of the caller's context, so the caller's
    np.errstate holds in every call.  It returns, or raises the first
    call's error (in call order), once every call has finished.  Otherwise
    the calling thread makes the calls in turn.  The pool is started on the
    first split, so only a large map pays the import.  Each call is one run
    of one array's pass, sum, gather or dot product, and none may itself
    split: a pool thread that waits on the pool could wait forever.
    """
    global _pool
    if len(calls) < 2 or WORKERS < 2:
        return [function(*args) for function, *args in calls]
    with _pool_lock:  # one pool, however many threads split at once
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="spiderft-blockwise")
    futures = [_pool.submit(copy_context().run, *call) for call in calls[1:]]
    try:
        first = calls[0][0](*calls[0][1:])
    finally:
        for future in futures:
            future.exception()  # waits for the call to finish
    return [first, *(future.result() for future in futures)]


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
    # deviations reused for the z-score: the same bits as np.std and np.mean;
    # on a large map each unit's deviations and their squares are one pass
    split = out.flat.size > BLOCK  # on a small map, whole-buffer ops beat a blockwise call per unit
    if split:
        squares = np.empty(out.flat.size) if scratch is None else scratch
    for s, v, dest in zip(slices, values, dests):
        if not v.size:
            continue
        mean = add_reduce(v) / v.size
        if split:
            blockwise(partial(_deviations, mean), dest, squares[s], v)
        else:
            np.subtract(v, mean, out=dest)
    if not split:
        squares = np.square(out.flat, out=scratch)
    for s, dest in zip(slices, dests):
        unit = squares[s]
        std = math.sqrt(add_reduce(unit) / unit.size) if unit.size else 0.0
        if std < STD_EPS:
            dest.fill(0.0)
        elif split:
            blockwise(partial(_divide, std), dest)
        else:
            dest /= std
    return out


def _deviations(mean, scratch, dest, squares, v):
    np.subtract(v, mean, out=dest)
    np.square(dest, out=squares)


def _divide(divisor, scratch, dest):
    np.divide(dest, divisor, out=dest)
