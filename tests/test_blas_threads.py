"""The golden digests, and a large tail's outputs but its pid trace, do not
depend on the BLAS thread count.

perfbench pins one BLAS thread before numpy loads.  Two subprocesses set the
same three variables to 2 and to 4, recompute tests/test_golden.py's
pretraining and experiment digests, and compare them with its constants.
OpenBLAS caps the count at the machine's cores, so on a 2-core machine both
run 2 threads.  Two more, at 1 and at 2 threads, run tests/test_workers.py's
nine method-scope cases on its 412,163-entry tail: the weights, losses,
masks and accumulator agree.  The pid trace is left out, since OpenBLAS
splits a long dot product's sum across its threads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")  # perfbench/run.py's
CHECK = """
import test_golden as g
assert g.pretrain_digest() == g.PRETRAIN_DIGEST, "pretraining digest differs"
assert g.experiment_digest() == g.EXPERIMENT_DIGEST, "experiment digest differs"
"""
WITHOUT_PID = """
import test_workers as w
for method, scope in w.CASES:
    print(method, scope, w.digest(method, scope, pid=False))
"""


def at_blas_threads(script: str, counts: tuple[int, ...]) -> list[str]:
    """What `script` prints in one subprocess per BLAS thread count, run side by side."""
    path = os.pathsep.join(filter(None, (str(SRC), str(TESTS), os.environ.get("PYTHONPATH"))))
    procs = [
        subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True,
                         env={**os.environ, **dict.fromkeys(BLAS_VARS, str(threads)),
                              "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"})
        for threads in counts
    ]
    printed = []
    for threads, proc in zip(counts, procs):
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"{threads} BLAS threads: {err}"
        printed.append(out)
    return printed


def test_golden_digests_hold_at_two_and_four_blas_threads():
    at_blas_threads(CHECK, (2, 4))


def test_a_large_tails_outputs_but_pid_hold_at_one_and_two_blas_threads():
    one, two = at_blas_threads(WITHOUT_PID, (1, 2))
    assert len(one.splitlines()) == 9
    assert one == two
