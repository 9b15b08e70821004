"""Operation timing scaled by the machine's speed at the time.

On a shared machine the speed a process gets drifts by up to half, and
flips between levels over seconds to minutes (other tenants on the same
cores).  The drift moves every operation of one kind alike, so it is
measured with a fixed calibration loop of the same kind, run right before
and right after each timed operation.  An operation's scaled time is its
wall time times the loop's reference time over the mean of the two loop
times: the time the operation would take when the loop runs at reference
speed.  Raw wall times are kept beside the scaled ones.

Three loops, because drift moves interpreter-bound and memory-bound code by
different factors, and a loop of the wrong kind adds noise instead of
removing it:

* ``interpreter``: many small numpy calls from Python, like pretraining and
  fine-tuning the tiny model;
* ``arrays``: elementwise passes over 8 MB arrays, like fine-tuning the
  ~1M-parameter model (its two buffers add 16 MB to the resident set of a
  process that uses it);
* ``process``: starting and ending a bare interpreter, like a CLI command
  or the benchmark's own set-up.

No loop touches spiderft, so no change to the package can move them.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

# typical loop times on a 2-vCPU x86-64 Xeon VM (2.0 GHz, 1 BLAS thread);
# they only fix the unit of scaled times
REFERENCE_S = {"interpreter": 0.009, "arrays": 0.014, "process": 0.150}


def _interpreter_loop(small, small_out, mid, mid_out) -> None:
    for i in range(1500):
        np.multiply(small, 1.5, out=small_out)
        np.add(small_out, i, out=small_out)
        np.tanh(small_out, out=small_out)
        float(small_out.sum())
        if i % 50 == 0:
            np.subtract(mid, 0.5, out=mid_out)
            np.abs(mid_out, out=mid_out)
            float(mid_out.sum())


def _arrays_loop(big, big_out) -> None:
    for _ in range(3):
        np.add(big, 0.3, out=big_out)
        np.divide(big, big_out, out=big_out)
        np.multiply(big_out, big_out, out=big_out)
        np.sqrt(big_out, out=big_out)
        float(big_out.sum())


def _process_loop() -> None:
    for _ in range(2):
        subprocess.run([sys.executable, "-I", "-c", "pass"], check=True)


# The array loops allocate nothing: how long an allocation takes depends on
# the allocator's state (glibc moves its mmap threshold after large frees),
# which would make a loop measure the process's history, not the machine.
_LOOPS = {
    "interpreter": (_interpreter_loop, (64, 64, 1 << 16, 1 << 16)),
    "arrays": (_arrays_loop, (1 << 20, 1 << 20)),
    "process": (_process_loop, ()),
}


class Clock:
    """Times operations, each bracketed by calibration loops of one kind."""

    def __init__(self, kind: str):
        self.kind = kind
        loop, sizes = _LOOPS[kind]
        buffers = [np.linspace(0.0, 1.0, n) for n in sizes]
        self._loop = lambda: loop(*buffers)
        self._cal = self._calibrate()

    def _calibrate(self) -> float:
        t0 = perf_counter()
        self._loop()
        return perf_counter() - t0

    def time(self, fn, *args):
        """Returns (fn's result, wall seconds, scaled seconds)."""
        t0 = perf_counter()
        out = fn(*args)
        wall = perf_counter() - t0
        cal = self._calibrate()
        scaled = wall * REFERENCE_S[self.kind] / ((self._cal + cal) / 2.0)
        self._cal = cal
        return out, wall, scaled
